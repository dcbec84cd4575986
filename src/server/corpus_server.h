// CorpusServer: the long-lived corpus-serving daemon behind
// `ddr-trace serve`.
//
// One server owns one CorpusReader — one RandomAccessFile handle, one
// shared decoded-chunk cache — and multiplexes many concurrent clients
// over a unix-domain socket (or loopback TCP) speaking the protocol in
// protocol.h. This is the paper's deployment shape made concrete: replay
// debugging as an always-on facility, where N debuggers hit one warm
// corpus instead of each paying a cold open.
//
// Threading model:
//
//   accept loop     polls the listener (stoppable), spawns one reader
//                   thread per connection;
//   reader threads  decode frames and TryPush {connection, request} into
//                   a bounded admission queue — on overflow the reader
//                   itself answers Unavailable immediately (loud
//                   overload, never silent unbounded queuing);
//   worker pool     pops requests, pins the current reader snapshot (a
//                   shared_ptr<const CorpusReader> copied under a plain
//                   mutex) for the request's whole duration, executes,
//                   and writes the response under the connection's
//                   write mutex. The control commands — shutdown and
//                   refresh — are answered inline by the reader thread:
//                   they must not sit behind a queue full of replays.
//
// Append coordination: the single-writer append path (flock'd, ordered
// fsyncs) grows the bundle while the server serves it — published bytes
// are never mutated, so in-flight requests are undisturbed. A `refresh`
// request (or the optional watcher thread, which polls the file size)
// builds the next reader with CorpusReader::Reopen — incremental, reading
// only the new generations — off any lock the requests take, then
// publishes it as the new snapshot. A refresh never waits for an
// in-flight replay, which finishes on the snapshot it started on; the
// last pin of a retired snapshot releases its handle. Refreshes are
// serialized by one mutex the watcher shares, so each generation is
// picked up and counted once. The ChunkCache object — and its counters —
// carries over, corpus_bytes_read stays cumulative across swaps, and a
// failed reopen leaves the old generation serving.
//
// Graceful drain (SIGTERM path): stop accepting, answer new requests
// with Unavailable, finish everything already admitted, then unblock and
// join every thread. RequestStop is async-signal-compatible in effect
// (sets a flag the loops poll); Wait() performs the actual drain.

#ifndef SRC_SERVER_CORPUS_SERVER_H_
#define SRC_SERVER_CORPUS_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/core/bug_scenario.h"
#include "src/server/protocol.h"
#include "src/trace/corpus.h"

namespace ddr {

struct CorpusServerOptions {
  // Exactly one endpoint: a unix-domain socket path, or a loopback TCP
  // port (>= 0; 0 = kernel-assigned, read back with tcp_port()).
  std::string socket_path;
  int tcp_port = -1;

  // Request executor shape.
  int workers = 4;
  size_t queue_capacity = 32;

  // Reader handle + shared cache configuration.
  CorpusReaderOptions reader;

  // Scenario registry replay requests score against (stamped scenario
  // names resolve here). Empty = the full built-in registry
  // (AllBugScenarios).
  std::vector<BugScenario> scenarios;

  // > 0: a watcher thread polls the bundle's size every this-many
  // milliseconds and triggers a refresh when it changed (the cheap probe;
  // Reopen then does the real trailer inspection). 0 = explicit refresh
  // requests only.
  int watch_interval_ms = 0;

  // Budget for reading one request frame once its first bytes arrive. A
  // client that connects and goes quiet costs nothing (idle waits are
  // unbounded, stoppable polls); a client that stalls mid-frame is cut
  // loose after this long instead of pinning its reader thread forever.
  // <= 0 disables the deadline.
  int request_timeout_ms = 10000;

  // Test hook: stall every worker this long before executing a request,
  // making queue overflow deterministic. Never set it in production.
  int debug_handler_delay_ms = 0;
};

class CorpusServer {
 public:
  // Opens the bundle (a torn tail recovers to the last valid generation,
  // exactly like CorpusReader::Open), binds the endpoint, and starts the
  // threads. The returned server is already accepting.
  static Result<std::unique_ptr<CorpusServer>> Start(
      const std::string& bundle_path, const CorpusServerOptions& options);

  // Drains and joins if still running.
  ~CorpusServer();

  CorpusServer(const CorpusServer&) = delete;
  CorpusServer& operator=(const CorpusServer&) = delete;

  // The bound endpoint (socket_path as configured; tcp_port resolved
  // after a port-0 bind).
  const std::string& socket_path() const;
  uint16_t tcp_port() const;

  // False once a stop has been requested (SIGTERM loop condition).
  bool running() const;

  // Flags the server to stop. Cheap, idempotent, safe from any thread —
  // including a connection reader answering a shutdown request. Does not
  // block; pair with Wait().
  void RequestStop();

  // Blocks until a stop is requested, then performs the graceful drain:
  // stop accepting, finish admitted requests, join every thread, unlink
  // a unix socket path. Idempotent; returns once fully drained.
  void Wait();

  // The explicit generation pickup (also what the `refresh` RPC calls).
  Result<ServeRefresh> Refresh();

  // Snapshot of the server-wide counters (also the `stats` RPC body).
  ServeStats Snapshot() const;

 private:
  struct Impl;
  explicit CorpusServer(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace ddr

#endif  // SRC_SERVER_CORPUS_SERVER_H_
