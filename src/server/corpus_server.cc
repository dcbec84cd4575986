#include "src/server/corpus_server.h"

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <thread>
#include <vector>

#include "src/apps/scenarios.h"
#include "src/server/admission.h"
#include "src/util/codec.h"
#include "src/util/fault_injection.h"
#include "src/util/file_lock.h"
#include "src/util/socket.h"
#include "src/util/string_util.h"
#include "src/util/thread_annotations.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define DDR_SERVER_HAVE_UNLINK 1
#else
#define DDR_SERVER_HAVE_UNLINK 0
#endif

namespace ddr {

namespace {

// One accepted client. The write mutex serializes response frames: a
// worker finishing a queued request and the reader thread answering an
// overload for the same client must never interleave bytes.
struct Connection {
  uint64_t id = 0;
  // Read exclusively by the connection's reader thread; written (response
  // frames) by whichever thread holds write_mu. Not GUARDED_BY: reads and
  // writes of a connected socket are independently safe, the mutex only
  // keeps response frames from interleaving.
  Socket socket;
  Mutex write_mu;
};

struct Task {
  std::shared_ptr<Connection> conn;
  RpcRequest request;
};

RpcResponse ErrorResponse(const Status& status) {
  RpcResponse response;
  response.code = status.code();
  response.message = status.message();
  return response;
}

Status DrainingError() {
  return UnavailableError("server is draining (shutdown)");
}

RpcResponse OkResponse(std::vector<uint8_t> payload = {}) {
  RpcResponse response;
  response.payload = std::move(payload);
  return response;
}

}  // namespace

struct CorpusServer::Impl {
  explicit Impl(const CorpusServerOptions& opts)
      : options(opts), queue(opts.queue_capacity) {}

  std::string bundle_path;
  CorpusServerOptions options;
  uint16_t tcp_port = 0;  // resolved after a port-0 bind

  Socket listener;
  bool unix_endpoint = false;

  // The reader requests run on, published as an immutable snapshot. A
  // request pins it (a shared_ptr copy; snapshot_mu is held only for the
  // copy) and finishes on it even if a refresh swaps in the next one;
  // the last pin of a retired snapshot releases its handle. Every
  // snapshot shares one ChunkCache.
  mutable Mutex snapshot_mu;
  std::shared_ptr<const CorpusReader> snapshot GUARDED_BY(snapshot_mu);
  // Bytes read through the handles of retired snapshots up to their
  // swap, so corpus_bytes_read never restarts at a refresh.
  uint64_t retired_bytes_read GUARDED_BY(snapshot_mu) = 0;
  // Serializes refreshes (the RPC and the watcher): each one reopens
  // against the snapshot it will replace, so a generation is picked up
  // and counted exactly once.
  Mutex refresh_mu;

  // Immutable after Start and internally synchronized (prep futures
  // behind its own mutex), so not guarded by snapshot_mu.
  std::optional<CorpusEntryScorer> scorer;

  AdmissionQueue<Task> queue;

  // Connection registry (for drain wakeups) + reader threads.
  Mutex conn_mu;
  std::vector<std::shared_ptr<Connection>> connections GUARDED_BY(conn_mu);
  std::vector<OsThread> conn_threads GUARDED_BY(conn_mu);
  uint64_t next_conn_id GUARDED_BY(conn_mu) = 1;

  OsThread accept_thread;
  std::vector<OsThread> workers;
  OsThread watcher;

  StopLatch stop;
  std::once_flag drain_once;

  // Counters (see ServeStats).
  std::atomic<uint64_t> requests_total{0};
  std::atomic<uint64_t> requests_by_command[kRpcCommandCount] = {};
  std::atomic<uint64_t> bytes_served{0};
  std::atomic<uint64_t> overload_rejections{0};
  std::atomic<uint64_t> refreshes{0};
  std::atomic<uint64_t> generations_picked_up{0};
  std::atomic<uint64_t> clients_total{0};
  std::atomic<uint64_t> clients_active{0};

  // --- responses -----------------------------------------------------

  void WriteResponse(Connection& conn, const RpcResponse& response) {
    // Injection site: a `stall` plan delays the response (the client-side
    // deadline test), a failing plan drops it outright (a wedged server —
    // the client's timeout is its only way out).
    if (!FaultPoint("server.respond").ok()) {
      return;
    }
    const std::vector<uint8_t> payload = EncodeResponse(response);
    MutexLock lock(conn.write_mu);
    // A failed write means the client went away; its reader thread sees
    // the close independently, so the error is dropped, not propagated.
    if (WriteFrame(conn.socket, payload).ok()) {
      bytes_served.fetch_add(payload.size() + kRpcFrameHeaderBytes,
                             std::memory_order_relaxed);
    }
  }

  // --- request execution ---------------------------------------------

  RpcResponse Handle(const RpcRequest& request) {
    switch (request.command) {
      case RpcCommand::kInfo:
        return HandleInfo();
      case RpcCommand::kList:
        return HandleList();
      case RpcCommand::kVerify:
        return HandleVerify(request.name);
      case RpcCommand::kReplay:
        return HandleReplay(request.name, request.model);
      case RpcCommand::kStats:
        return OkResponse(EncodeServeStats(Snapshot()));
      // The control commands are answered inline by the connection's
      // reader thread; handling them here too keeps a queued one harmless.
      case RpcCommand::kRefresh:
        return HandleRefresh();
      case RpcCommand::kShutdown:
        return OkResponse();
    }
    return ErrorResponse(InvalidArgumentError("unknown rpc command"));
  }

  std::shared_ptr<const CorpusReader> Pin() const {
    MutexLock lock(snapshot_mu);
    return snapshot;
  }

  RpcResponse HandleInfo() {
    const std::shared_ptr<const CorpusReader> reader = Pin();
    ServeInfo info;
    info.path = reader->path();
    info.file_size = reader->file_size();
    info.format_version = reader->format_version();
    info.generation = reader->generation();
    info.dead_bytes = reader->dead_bytes();
    info.entry_count = reader->entry_count();
    info.io_backend = std::string(IoBackendName(reader->io_backend()));
    // The probe never blocks; on probe failure report "no writer" rather
    // than failing the whole info (the rest of the answer is still good).
    info.writer_active = CorpusWriterActive(bundle_path).value_or(false);
    return OkResponse(EncodeServeInfo(info));
  }

  RpcResponse HandleList() {
    const std::shared_ptr<const CorpusReader> reader = Pin();
    std::vector<ServeEntry> entries;
    entries.reserve(reader->entry_count());
    for (const CorpusEntry& entry : reader->entries()) {
      ServeEntry row;
      row.name = entry.name;
      row.model = entry.model;
      row.scenario = entry.scenario;
      row.event_count = entry.event_count;
      row.length = entry.length;
      entries.push_back(std::move(row));
    }
    return OkResponse(EncodeServeEntries(entries));
  }

  RpcResponse HandleVerify(const std::string& name) {
    const std::shared_ptr<const CorpusReader> reader = Pin();
    if (name.empty()) {
      if (Status verified = reader->VerifyAll(); !verified.ok()) {
        return ErrorResponse(verified);
      }
      Encoder encoder;
      encoder.PutVarint64(reader->entry_count());
      return OkResponse(encoder.TakeBuffer());
    }
    const CorpusEntry* entry = reader->Find(name);
    if (entry == nullptr) {
      return ErrorResponse(
          NotFoundError("no corpus entry named '" + name + "'"));
    }
    auto trace = reader->OpenTrace(*entry);
    if (!trace.ok()) {
      return ErrorResponse(trace.status());
    }
    if (Status verified = trace->Verify(); !verified.ok()) {
      return ErrorResponse(Status(
          verified.code(),
          "corpus entry '" + name + "': " + verified.message()));
    }
    Encoder encoder;
    encoder.PutVarint64(1);
    return OkResponse(encoder.TakeBuffer());
  }

  RpcResponse HandleReplay(const std::string& name, const std::string& model) {
    if (name.empty()) {
      return ErrorResponse(
          InvalidArgumentError("replay needs an entry name"));
    }
    const std::shared_ptr<const CorpusReader> reader = Pin();
    const CorpusEntry* entry = reader->Find(name);
    if (entry == nullptr) {
      return ErrorResponse(
          NotFoundError("no corpus entry named '" + name + "'"));
    }
    auto cell = scorer->ScoreEntry(*reader, *entry, model);
    if (!cell.ok()) {
      return ErrorResponse(cell.status());
    }
    return OkResponse(EncodeBatchCell(*cell));
  }

  RpcResponse HandleRefresh() {
    auto refreshed = Refresh();
    if (!refreshed.ok()) {
      return ErrorResponse(refreshed.status());
    }
    return OkResponse(EncodeServeRefresh(*refreshed));
  }

  // Builds the next reader off-lock (requests keep running on the
  // current snapshot meanwhile) and swaps it in. On failure the current
  // snapshot keeps serving — the caller sees the error, clients see no
  // change.
  Result<ServeRefresh> Refresh() {
    MutexLock serialized(refresh_mu);
    const std::shared_ptr<const CorpusReader> current = Pin();
    ASSIGN_OR_RETURN(CorpusReader reopened, current->Reopen());
    auto next = std::make_shared<const CorpusReader>(std::move(reopened));
    ServeRefresh out;
    out.generation_before = current->generation();
    out.entries_before = current->entry_count();
    out.generation_after = next->generation();
    out.entries_after = next->entry_count();
    {
      MutexLock lock(snapshot_mu);
      retired_bytes_read += current->bytes_read();
      snapshot = std::move(next);
    }
    out.picked_up = out.generation_after != out.generation_before ||
                    out.entries_after != out.entries_before;
    refreshes.fetch_add(1, std::memory_order_relaxed);
    if (out.picked_up) {
      generations_picked_up.fetch_add(1, std::memory_order_relaxed);
    }
    return out;
  }

  ServeStats Snapshot() const {
    ServeStats stats;
    stats.requests_total = requests_total.load(std::memory_order_relaxed);
    for (size_t i = 0; i < kRpcCommandCount; ++i) {
      stats.requests_by_command[i] =
          requests_by_command[i].load(std::memory_order_relaxed);
    }
    stats.bytes_served = bytes_served.load(std::memory_order_relaxed);
    stats.overload_rejections =
        overload_rejections.load(std::memory_order_relaxed);
    stats.refreshes = refreshes.load(std::memory_order_relaxed);
    stats.generations_picked_up =
        generations_picked_up.load(std::memory_order_relaxed);
    stats.clients_total = clients_total.load(std::memory_order_relaxed);
    stats.clients_active = clients_active.load(std::memory_order_relaxed);
    std::shared_ptr<const CorpusReader> reader;
    {
      // Summed under the lock so a concurrent swap cannot count the
      // retiring handle twice or not at all.
      MutexLock lock(snapshot_mu);
      reader = snapshot;
      stats.corpus_bytes_read = retired_bytes_read + reader->bytes_read();
    }
    stats.generation = reader->generation();
    stats.entry_count = reader->entry_count();
    stats.cache = reader->cache_stats();
    return stats;
  }

  // --- threads -------------------------------------------------------

  void AcceptLoop() {
    while (!stop.requested()) {
      // Short poll timeout keeps the loop responsive to RequestStop
      // without busy-waiting.
      auto readable = WaitReadable(listener, 200);
      if (!readable.ok() || !*readable) {
        continue;
      }
      auto accepted = AcceptConnection(listener);
      if (!accepted.ok()) {
        continue;  // transient (e.g. client gone before accept)
      }
      auto conn = std::make_shared<Connection>();
      conn->socket = std::move(*accepted);
      clients_total.fetch_add(1, std::memory_order_relaxed);
      clients_active.fetch_add(1, std::memory_order_relaxed);
      {
        MutexLock lock(conn_mu);
        conn->id = next_conn_id++;
        connections.push_back(conn);
        conn_threads.emplace_back([this, conn] { ServeConnection(conn); });
      }
    }
  }

  void ServeConnection(std::shared_ptr<Connection> conn) {
    while (true) {
      // Idle wait: unbounded but stoppable — a connected-but-quiet client
      // is legitimate and costs only a 200ms poll. The request deadline
      // starts once the first bytes of a frame arrive. Once stopping, a
      // request already sent is still read and answered (as draining),
      // not dropped with the connection.
      bool readable = false;
      while (true) {
        const bool stopping = stop.requested();
        auto wait = WaitReadable(conn->socket, stopping ? 0 : 200);
        if (!wait.ok()) {
          break;  // poll error: treat the connection as gone
        }
        if (*wait) {
          readable = true;
          break;
        }
        if (stopping) {
          break;
        }
      }
      if (!readable) {
        break;  // draining, or the socket errored out
      }
      auto frame =
          ReadFrameWithDeadline(conn->socket, options.request_timeout_ms);
      if (!frame.ok()) {
        // Torn frame / bad magic / CRC mismatch — or a mid-frame stall
        // past the request deadline: the stream is not trustworthy (or
        // not worth a thread) past this point. Best-effort answer, then
        // hang up.
        WriteResponse(*conn, ErrorResponse(frame.status()));
        break;
      }
      if (!frame->has_value()) {
        break;  // clean EOF
      }
      auto request = DecodeRequest(**frame);
      if (!request.ok()) {
        // The framing was sound, so the stream stays usable: answer the
        // error and keep the connection.
        WriteResponse(*conn, ErrorResponse(request.status()));
        continue;
      }
      requests_total.fetch_add(1, std::memory_order_relaxed);
      requests_by_command[static_cast<size_t>(request->command)].fetch_add(
          1, std::memory_order_relaxed);
      // Control commands are answered inline: they must not sit behind —
      // or be rejected by — a queue full of replays. Shutdown is acked
      // before the drain starts; a refresh swaps the next snapshot in
      // without waiting for in-flight requests.
      if (request->command == RpcCommand::kShutdown) {
        WriteResponse(*conn, OkResponse());
        stop.Request();
        continue;
      }
      if (request->command == RpcCommand::kRefresh) {
        WriteResponse(*conn, stop.requested() ? ErrorResponse(DrainingError())
                                              : HandleRefresh());
        continue;
      }
      switch (queue.TryPush(Task{conn, std::move(*request)})) {
        case PushResult::kAccepted:
          break;
        case PushResult::kFull:
          overload_rejections.fetch_add(1, std::memory_order_relaxed);
          WriteResponse(
              *conn,
              ErrorResponse(UnavailableError(StrPrintf(
                  "server overloaded: admission queue is full (%zu)",
                  queue.capacity()))));
          break;
        case PushResult::kClosed:
          WriteResponse(*conn, ErrorResponse(DrainingError()));
          break;
      }
    }
    clients_active.fetch_sub(1, std::memory_order_relaxed);
    MutexLock lock(conn_mu);
    for (size_t i = 0; i < connections.size(); ++i) {
      if (connections[i]->id == conn->id) {
        connections.erase(connections.begin() + i);
        break;
      }
    }
  }

  void WorkerLoop() {
    while (auto task = queue.Pop()) {
      WriteResponse(*task->conn, Handle(task->request));
    }
  }

  void WatcherLoop() {
    using Clock = std::chrono::steady_clock;
    auto next_probe =
        Clock::now() + std::chrono::milliseconds(options.watch_interval_ms);
    while (!stop.requested()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      if (Clock::now() < next_probe) {
        continue;
      }
      next_probe =
          Clock::now() + std::chrono::milliseconds(options.watch_interval_ms);
      struct stat st;
      if (::stat(bundle_path.c_str(), &st) != 0) {
        continue;
      }
      if (static_cast<uint64_t>(st.st_size) != Pin()->file_size()) {
        // Size moved: attempt the pickup. Reopen does the real trailer
        // inspection; a mid-append (unpublished) tail reopens to the
        // same generation and counts as no pickup. Errors leave the old
        // generation serving and the next probe retries.
        (void)Refresh();
      }
    }
  }

  void Drain() {
    std::call_once(drain_once, [&] {
      stop.Request();
      // 1. Stop accepting; release the endpoint.
      if (accept_thread.joinable()) {
        accept_thread.join();
      }
      listener.Close();
#if DDR_SERVER_HAVE_UNLINK
      if (unix_endpoint) {
        ::unlink(options.socket_path.c_str());
      }
#endif
      if (watcher.joinable()) {
        watcher.join();
      }
      // 2. Close the queue: reader threads answer "draining" from here
      // on; workers finish everything already admitted, then exit.
      queue.Close();
      for (OsThread& worker : workers) {
        if (worker.joinable()) {
          worker.join();
        }
      }
      // 3. Every admitted response has been written. Wake reader threads
      // blocked on idle connections, then join them. The threads are
      // swapped out under the lock and joined outside it — exiting reader
      // threads take conn_mu to deregister themselves, so joining while
      // holding it would deadlock.
      std::vector<OsThread> to_join;
      {
        MutexLock lock(conn_mu);
        for (const auto& conn : connections) {
          conn->socket.ShutdownBoth();
        }
        to_join.swap(conn_threads);
      }
      for (OsThread& thread : to_join) {
        if (thread.joinable()) {
          thread.join();
        }
      }
      {
        MutexLock lock(conn_mu);
        connections.clear();
      }
    });
  }
};

CorpusServer::CorpusServer(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}

CorpusServer::~CorpusServer() {
  impl_->Drain();
}

Result<std::unique_ptr<CorpusServer>> CorpusServer::Start(
    const std::string& bundle_path, const CorpusServerOptions& options) {
  const bool unix_endpoint = !options.socket_path.empty();
  if (unix_endpoint == (options.tcp_port >= 0)) {
    return InvalidArgumentError(
        "serve needs exactly one endpoint: --socket <path> or --port <n>");
  }
  auto impl = std::make_unique<Impl>(options);
  impl->bundle_path = bundle_path;
  impl->unix_endpoint = unix_endpoint;

  // Open the bundle first — a server with nothing to serve must fail
  // before it binds the endpoint.
  ASSIGN_OR_RETURN(CorpusReader reader,
                   CorpusReader::Open(bundle_path, options.reader));
  {
    // No other thread exists yet; the lock exists for the analysis (and
    // costs nothing uncontended).
    MutexLock lock(impl->snapshot_mu);
    impl->snapshot = std::make_shared<const CorpusReader>(std::move(reader));
  }
  impl->scorer.emplace(options.scenarios.empty() ? AllBugScenarios()
                                                 : options.scenarios);

  if (unix_endpoint) {
    ASSIGN_OR_RETURN(impl->listener, ListenUnix(options.socket_path));
  } else {
    ASSIGN_OR_RETURN(impl->listener,
                     ListenTcp(static_cast<uint16_t>(options.tcp_port)));
    ASSIGN_OR_RETURN(impl->tcp_port, LocalPort(impl->listener));
  }

  const int workers = std::max(options.workers, 1);
  impl->workers.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    impl->workers.emplace_back([impl_ptr = impl.get()] {
      impl_ptr->WorkerLoop();
    });
  }
  impl->accept_thread =
      OsThread([impl_ptr = impl.get()] { impl_ptr->AcceptLoop(); });
  if (options.watch_interval_ms > 0) {
    impl->watcher =
        OsThread([impl_ptr = impl.get()] { impl_ptr->WatcherLoop(); });
  }
  return std::unique_ptr<CorpusServer>(new CorpusServer(std::move(impl)));
}

const std::string& CorpusServer::socket_path() const {
  return impl_->options.socket_path;
}

uint16_t CorpusServer::tcp_port() const { return impl_->tcp_port; }

bool CorpusServer::running() const { return !impl_->stop.requested(); }

void CorpusServer::RequestStop() { impl_->stop.Request(); }

void CorpusServer::Wait() {
  impl_->stop.Wait();
  impl_->Drain();
}

Result<ServeRefresh> CorpusServer::Refresh() { return impl_->Refresh(); }

ServeStats CorpusServer::Snapshot() const { return impl_->Snapshot(); }

}  // namespace ddr
