// Tests for the corpus-serving subsystem (src/server/): the framed RPC
// protocol, the CorpusServer daemon, and the CorpusClient library.
//
// The acceptance properties: a client replaying an entry over the socket
// gets a row bit-identical (RowSignature) to an in-process ReplayCorpus
// of the same bundle — including entries appended after the server
// started and picked up via `refresh` — and the shared decoded-chunk
// cache's counters survive the generation swap. Overload is loud
// (Unavailable, never silent queuing), a torn bundle tail recovers to
// the last valid generation, and SIGTERM-style drain finishes admitted
// work before the threads unwind.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/apps/scenarios.h"
#include "src/core/batch_runner.h"
#include "src/server/corpus_client.h"
#include "src/server/corpus_server.h"
#include "src/server/protocol.h"
#include "src/trace/corpus.h"
#include "src/util/codec.h"
#include "src/util/crc32.h"
#include "src/util/fault_injection.h"
#include "src/util/file_lock.h"
#include "src/util/socket.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/socket.h>
#define DDR_SERVER_TEST_HAVE_SOCKETS 1
#endif

namespace ddr {
namespace {

class ScopedPath {
 public:
  explicit ScopedPath(const std::string& name) : path_(name) {}
  ~ScopedPath() { std::remove(path_.c_str()); }
  const std::string& get() const { return path_; }

 private:
  std::string path_;
};

std::vector<BugScenario> FastScenarios() {
  std::vector<BugScenario> scenarios;
  scenarios.push_back(MakeSumScenario());
  scenarios.push_back(MakeOverflowScenario());
  return scenarios;
}

// ----------------------------------------------------------- protocol

TEST(ProtocolTest, CommandNamesRoundTrip) {
  for (size_t c = 0; c < kRpcCommandCount; ++c) {
    const RpcCommand command = static_cast<RpcCommand>(c);
    auto parsed = ParseRpcCommand(std::string(RpcCommandName(command)));
    ASSERT_TRUE(parsed.ok()) << RpcCommandName(command);
    EXPECT_EQ(*parsed, command);
  }
  EXPECT_FALSE(ParseRpcCommand("reticulate").ok());
}

TEST(ProtocolTest, RequestRoundTrips) {
  RpcRequest request;
  request.command = RpcCommand::kReplay;
  request.name = "sum/perfect";
  request.model = "value";
  auto decoded = DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->command, request.command);
  EXPECT_EQ(decoded->name, request.name);
  EXPECT_EQ(decoded->model, request.model);

  // An out-of-range command byte is corruption, not a new command.
  std::vector<uint8_t> bytes = EncodeRequest(request);
  bytes[0] = 99;
  EXPECT_FALSE(DecodeRequest(bytes).ok());
}

TEST(ProtocolTest, ResponseRoundTrips) {
  RpcResponse ok_response;
  ok_response.code = StatusCode::kOk;
  ok_response.payload = {1, 2, 3, 0, 255};
  auto ok_decoded = DecodeResponse(EncodeResponse(ok_response));
  ASSERT_TRUE(ok_decoded.ok()) << ok_decoded.status();
  EXPECT_TRUE(ok_decoded->ok());
  EXPECT_EQ(ok_decoded->payload, ok_response.payload);
  EXPECT_TRUE(ok_decoded->ToStatus().ok());

  RpcResponse error_response;
  error_response.code = StatusCode::kUnavailable;
  error_response.message = "server overloaded: admission queue is full (8)";
  auto error_decoded = DecodeResponse(EncodeResponse(error_response));
  ASSERT_TRUE(error_decoded.ok()) << error_decoded.status();
  EXPECT_FALSE(error_decoded->ok());
  const Status status = error_decoded->ToStatus();
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(status.message(), error_response.message);
}

TEST(ProtocolTest, BatchCellRoundTripsBitExact) {
  BatchCell cell;
  cell.scenario = "sum";
  cell.recording_name = "sum/value";
  cell.row.model = DeterminismModel::kValue;
  cell.row.model_name = "value";
  // Deliberately awkward doubles: values whose decimal round-trip would
  // drift if the codec shipped text instead of bit patterns.
  cell.row.overhead_multiplier = 0.1 + 0.2;
  cell.row.log_bytes = 123456789;
  cell.row.recorded_events = 42;
  cell.row.failure_reproduced = true;
  cell.row.diagnosed_cause = "corrupt-table-entry";
  cell.row.divergences = 3;
  cell.row.input_assignment = {-5, 0, 9223372036854775807LL, -42};
  cell.row.fidelity = 1.0 / 3.0;
  cell.row.efficiency = 5.13e-300;
  cell.row.utility = 0.99999999999999989;
  cell.row.original_wall_seconds = 1.25;
  cell.row.replay_wall_seconds = 0.125;
  cell.row.inference.attempts = 5000;
  cell.row.inference.total_events_simulated = ~uint64_t{0};
  cell.row.inference.solver_nodes = 5042;

  auto decoded = DecodeBatchCell(EncodeBatchCell(cell));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(RowSignature(*decoded), RowSignature(cell));
  EXPECT_EQ(decoded->row.model, cell.row.model);
  EXPECT_EQ(decoded->row.diagnosed_cause, cell.row.diagnosed_cause);
  EXPECT_EQ(decoded->row.input_assignment, cell.row.input_assignment);
  EXPECT_EQ(decoded->row.efficiency, cell.row.efficiency);
  EXPECT_EQ(decoded->row.replay_wall_seconds, cell.row.replay_wall_seconds);
  EXPECT_EQ(decoded->row.inference.attempts, 5000u);
  EXPECT_EQ(decoded->row.inference.total_events_simulated, ~uint64_t{0});
  EXPECT_EQ(decoded->row.inference.solver_nodes, 5042u);

  // A cell that never diagnosed anything keeps its nullopt distinct from
  // a present-but-empty cause.
  cell.row.diagnosed_cause.reset();
  cell.row.failure_reproduced = false;
  auto undiagnosed = DecodeBatchCell(EncodeBatchCell(cell));
  ASSERT_TRUE(undiagnosed.ok()) << undiagnosed.status();
  EXPECT_FALSE(undiagnosed->row.diagnosed_cause.has_value());
  EXPECT_EQ(RowSignature(*undiagnosed), RowSignature(cell));
}

// The inference counters close the body and are required: a body cut
// where they start (what an encoder without them would send) is
// rejected, and so is every other strict prefix.
TEST(ProtocolTest, BatchCellWithoutInferenceCountersIsRejected) {
  BatchCell cell;
  cell.scenario = "overflow";
  cell.recording_name = "overflow/output";
  cell.row.model = DeterminismModel::kOutputOnly;
  cell.row.model_name = "output";
  cell.row.input_assignment = {20, 45, 49};
  const std::vector<uint8_t> body = EncodeBatchCell(cell);
  ASSERT_TRUE(DecodeBatchCell(body).ok());

  // Three zero counters are one varint byte each.
  EXPECT_FALSE(DecodeBatchCell({body.data(), body.size() - 3}).ok());
  for (size_t size = 0; size < body.size(); ++size) {
    EXPECT_FALSE(DecodeBatchCell({body.data(), size}).ok()) << size;
  }
}

TEST(ProtocolTest, TypedBodiesRoundTrip) {
  ServeInfo info;
  info.path = "bundle.ddrc";
  info.file_size = 590;
  info.journaled = true;
  info.generation = 7;
  info.dead_bytes = 123;
  info.entry_count = 4;
  info.io_backend = "mmap";
  info.writer_active = true;
  auto info_decoded = DecodeServeInfo(EncodeServeInfo(info));
  ASSERT_TRUE(info_decoded.ok()) << info_decoded.status();
  EXPECT_EQ(info_decoded->path, info.path);
  EXPECT_EQ(info_decoded->file_size, info.file_size);
  EXPECT_EQ(info_decoded->journaled, info.journaled);
  EXPECT_EQ(info_decoded->generation, info.generation);
  EXPECT_EQ(info_decoded->dead_bytes, info.dead_bytes);
  EXPECT_EQ(info_decoded->entry_count, info.entry_count);
  EXPECT_EQ(info_decoded->io_backend, info.io_backend);
  EXPECT_EQ(info_decoded->writer_active, info.writer_active);

  std::vector<ServeEntry> entries(2);
  entries[0] = {"sum/perfect", "perfect", "sum", 7, 265};
  entries[1] = {"sum/value", "value", "sum", 5, 229};
  auto entries_decoded = DecodeServeEntries(EncodeServeEntries(entries));
  ASSERT_TRUE(entries_decoded.ok()) << entries_decoded.status();
  ASSERT_EQ(entries_decoded->size(), 2u);
  EXPECT_EQ((*entries_decoded)[1].name, "sum/value");
  EXPECT_EQ((*entries_decoded)[1].length, 229u);

  ServeRefresh refresh;
  refresh.generation_before = 1;
  refresh.generation_after = 2;
  refresh.entries_before = 2;
  refresh.entries_after = 4;
  refresh.picked_up = true;
  auto refresh_decoded = DecodeServeRefresh(EncodeServeRefresh(refresh));
  ASSERT_TRUE(refresh_decoded.ok()) << refresh_decoded.status();
  EXPECT_EQ(refresh_decoded->generation_after, 2u);
  EXPECT_TRUE(refresh_decoded->picked_up);

  ServeStats stats;
  stats.requests_total = 100;
  stats.requests_by_command[static_cast<size_t>(RpcCommand::kReplay)] = 60;
  stats.bytes_served = 4096;
  stats.overload_rejections = 3;
  stats.refreshes = 2;
  stats.generations_picked_up = 1;
  stats.clients_total = 9;
  stats.clients_active = 4;
  stats.generation = 2;
  stats.entry_count = 4;
  stats.corpus_bytes_read = 1294;
  stats.cache.hits = 10;
  stats.cache.misses = 5;
  stats.cache.insertions = 5;
  stats.cache.bytes_in_use = 1088;
  auto stats_decoded = DecodeServeStats(EncodeServeStats(stats));
  ASSERT_TRUE(stats_decoded.ok()) << stats_decoded.status();
  EXPECT_EQ(stats_decoded->requests_total, 100u);
  EXPECT_EQ(stats_decoded->requests_by_command[static_cast<size_t>(
                RpcCommand::kReplay)],
            60u);
  EXPECT_EQ(stats_decoded->overload_rejections, 3u);
  EXPECT_EQ(stats_decoded->generations_picked_up, 1u);
  EXPECT_EQ(stats_decoded->cache.hits, 10u);
  EXPECT_EQ(stats_decoded->cache.bytes_in_use, 1088u);
}

#if DDR_SERVER_TEST_HAVE_SOCKETS

// ------------------------------------------------------------- framing

std::pair<Socket, Socket> LocalPair() {
  int fds[2] = {-1, -1};
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  return {Socket(fds[0]), Socket(fds[1])};
}

// The wire carries these 32-bit fields as varints: a value past
// UINT32_MAX is corruption, rejected with the field's name, never
// narrowed (2^32 + 3 must not decode as 3).
TEST(ProtocolTest, RejectsOutOfRange32BitFields) {
  constexpr uint64_t kMax = UINT32_MAX;
  constexpr uint64_t kTooBig = kMax + 1;
  const auto expect_rejected = [](const auto& decoded, const char* field) {
    ASSERT_FALSE(decoded.ok()) << field;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(decoded.status().message().find(field), std::string::npos)
        << decoded.status().message();
  };

  const auto info = [](uint64_t format_version, uint64_t generation) {
    Encoder encoder;
    encoder.PutString("bundle.ddrc");
    encoder.PutVarint64(590);  // file_size
    encoder.PutBool(true);     // journaled
    encoder.PutVarint64(format_version);
    encoder.PutVarint64(generation);
    encoder.PutVarint64(0);  // dead_bytes
    encoder.PutVarint64(4);  // entry_count
    encoder.PutString("mmap");
    encoder.PutBool(false);  // writer_active
    return encoder.TakeBuffer();
  };
  auto info_max = DecodeServeInfo(info(kMax, kMax));
  ASSERT_TRUE(info_max.ok()) << info_max.status();
  EXPECT_EQ(info_max->format_version, kMax);
  EXPECT_EQ(info_max->generation, kMax);
  expect_rejected(DecodeServeInfo(info(kTooBig, 1)), "format_version");
  expect_rejected(DecodeServeInfo(info(3, kTooBig)), "generation");

  const auto refresh = [](uint64_t before, uint64_t after) {
    Encoder encoder;
    encoder.PutVarint64(before);
    encoder.PutVarint64(after);
    encoder.PutVarint64(2);  // entries_before
    encoder.PutVarint64(4);  // entries_after
    encoder.PutBool(true);   // picked_up
    return encoder.TakeBuffer();
  };
  auto refresh_max = DecodeServeRefresh(refresh(kMax, kMax));
  ASSERT_TRUE(refresh_max.ok()) << refresh_max.status();
  EXPECT_EQ(refresh_max->generation_after, kMax);
  expect_rejected(DecodeServeRefresh(refresh(kTooBig, 2)),
                  "generation_before");
  expect_rejected(DecodeServeRefresh(refresh(1, kTooBig)), "generation_after");

  const auto stats = [](uint64_t generation) {
    Encoder encoder;
    encoder.PutVarint64(100);  // requests_total
    encoder.PutVarint64(kRpcCommandCount);
    for (size_t i = 0; i < kRpcCommandCount; ++i) {
      encoder.PutVarint64(i);
    }
    // bytes_served, overload_rejections, refreshes, generations_picked_up,
    // clients_total, clients_active
    for (int i = 0; i < 6; ++i) {
      encoder.PutVarint64(1);
    }
    encoder.PutVarint64(generation);
    encoder.PutVarint64(4);  // entry_count
    encoder.PutVarint64(0);  // corpus_bytes_read
    for (int i = 0; i < 7; ++i) {
      encoder.PutVarint64(0);  // cache counters
    }
    return encoder.TakeBuffer();
  };
  auto stats_max = DecodeServeStats(stats(kMax));
  ASSERT_TRUE(stats_max.ok()) << stats_max.status();
  EXPECT_EQ(stats_max->generation, kMax);
  expect_rejected(DecodeServeStats(stats(kTooBig)), "generation");
}

TEST(FrameTest, RoundTripsOverASocketPair) {
  auto [a, b] = LocalPair();
  const std::vector<uint8_t> payload = {0, 1, 2, 3, 250, 255};
  ASSERT_TRUE(WriteFrame(a, payload).ok());
  auto frame = ReadFrame(b);
  ASSERT_TRUE(frame.ok()) << frame.status();
  ASSERT_TRUE(frame->has_value());
  EXPECT_EQ(**frame, payload);

  // A clean close on a frame boundary is the nullopt EOF, not an error.
  a.Close();
  auto eof = ReadFrame(b);
  ASSERT_TRUE(eof.ok()) << eof.status();
  EXPECT_FALSE(eof->has_value());
}

TEST(FrameTest, RejectsBadMagicOversizedLengthAndCrcMismatch) {
  {
    auto [a, b] = LocalPair();
    Encoder header;
    header.PutFixed32(0xDEADBEEFu);
    header.PutFixed32(0);
    header.PutFixed32(0);
    ASSERT_TRUE(a.SendAll(header.buffer().data(), header.size()).ok());
    EXPECT_FALSE(ReadFrame(b).ok());
  }
  {
    auto [a, b] = LocalPair();
    Encoder header;
    header.PutFixed32(kRpcFrameMagic);
    header.PutFixed32(kRpcMaxPayloadBytes + 1);
    header.PutFixed32(0);
    ASSERT_TRUE(a.SendAll(header.buffer().data(), header.size()).ok());
    // The oversized length is rejected from the header alone — no
    // payload ever existed, so a huge allocation cannot be provoked.
    EXPECT_FALSE(ReadFrame(b).ok());
  }
  {
    auto [a, b] = LocalPair();
    const std::vector<uint8_t> payload = {9, 9, 9};
    Encoder frame;
    frame.PutFixed32(kRpcFrameMagic);
    frame.PutFixed32(static_cast<uint32_t>(payload.size()));
    frame.PutFixed32(Crc32(payload.data(), payload.size()) ^ 1);
    ASSERT_TRUE(a.SendAll(frame.buffer().data(), frame.size()).ok());
    ASSERT_TRUE(a.SendAll(payload.data(), payload.size()).ok());
    EXPECT_FALSE(ReadFrame(b).ok());
  }
  {
    // A torn frame: header promises 8 payload bytes, the peer dies after 3.
    auto [a, b] = LocalPair();
    const std::vector<uint8_t> partial = {1, 2, 3};
    Encoder frame;
    frame.PutFixed32(kRpcFrameMagic);
    frame.PutFixed32(8);
    frame.PutFixed32(0);
    ASSERT_TRUE(a.SendAll(frame.buffer().data(), frame.size()).ok());
    ASSERT_TRUE(a.SendAll(partial.data(), partial.size()).ok());
    a.Close();
    EXPECT_FALSE(ReadFrame(b).ok());
  }
}

// -------------------------------------------------------------- server

void BuildBundle(const std::string& path,
                 const std::vector<DeterminismModel>& models,
                 bool resume = false) {
  BatchOptions options;
  options.threads = 2;
  options.models = models;
  options.corpus_path = path;
  options.resume = resume;
  auto report = BatchRunner(FastScenarios(), options).Run();
  ASSERT_TRUE(report.ok()) << report.status();
}

// name -> RowSignature from an in-process replay of the whole bundle:
// the ground truth every over-the-wire row is compared against.
std::map<std::string, std::string> BaselineSignatures(
    const std::string& path) {
  std::map<std::string, std::string> signatures;
  auto replayed = ReplayCorpus(path, FastScenarios());
  EXPECT_TRUE(replayed.ok()) << replayed.status();
  if (replayed.ok()) {
    for (const BatchCell& cell : replayed->cells) {
      signatures[cell.recording_name] = RowSignature(cell);
    }
  }
  return signatures;
}

CorpusServerOptions UnixOptions(const std::string& socket_path) {
  CorpusServerOptions options;
  options.socket_path = socket_path;
  options.scenarios = FastScenarios();
  return options;
}

TEST(CorpusServerTest, StartRejectsAmbiguousEndpoints) {
  ScopedPath bundle("server_test_endpoints.ddrc");
  BuildBundle(bundle.get(), {DeterminismModel::kPerfect});

  CorpusServerOptions neither;
  neither.scenarios = FastScenarios();
  auto no_endpoint = CorpusServer::Start(bundle.get(), neither);
  ASSERT_FALSE(no_endpoint.ok());
  EXPECT_EQ(no_endpoint.status().code(), StatusCode::kInvalidArgument);

  CorpusServerOptions both = neither;
  both.socket_path = "server_test_endpoints.sock";
  both.tcp_port = 0;
  auto two_endpoints = CorpusServer::Start(bundle.get(), both);
  ASSERT_FALSE(two_endpoints.ok());
  EXPECT_EQ(two_endpoints.status().code(), StatusCode::kInvalidArgument);
}

TEST(CorpusServerTest, ServesInfoListVerifyReplayOverUnixSocket) {
  ScopedPath bundle("server_test_basic.ddrc");
  ScopedPath socket_path("server_test_basic.sock");
  BuildBundle(bundle.get(),
              {DeterminismModel::kPerfect, DeterminismModel::kValue});
  const std::map<std::string, std::string> baseline =
      BaselineSignatures(bundle.get());
  ASSERT_EQ(baseline.size(), 4u);

  auto server = CorpusServer::Start(bundle.get(), UnixOptions(socket_path.get()));
  ASSERT_TRUE(server.ok()) << server.status();
  EXPECT_TRUE((*server)->running());

  auto client = CorpusClient::ConnectUnixSocket(socket_path.get());
  ASSERT_TRUE(client.ok()) << client.status();

  auto info = client->Info();
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->path, bundle.get());
  EXPECT_EQ(info->entry_count, 4u);
  EXPECT_EQ(info->generation, 1u);
  EXPECT_EQ(info->format_version, kCorpusFormatVersion);
  EXPECT_TRUE(info->journaled);
  EXPECT_FALSE(info->writer_active);
  EXPECT_GT(info->file_size, 0u);

  auto entries = client->List();
  ASSERT_TRUE(entries.ok()) << entries.status();
  ASSERT_EQ(entries->size(), 4u);
  for (const ServeEntry& entry : *entries) {
    EXPECT_EQ(baseline.count(entry.name), 1u) << entry.name;
    EXPECT_GT(entry.length, 0u) << entry.name;
  }

  auto whole = client->Verify();
  ASSERT_TRUE(whole.ok()) << whole.status();
  EXPECT_EQ(*whole, 4u);
  auto one = client->Verify((*entries)[0].name);
  ASSERT_TRUE(one.ok()) << one.status();
  EXPECT_EQ(*one, 1u);
  auto missing = client->Verify("no/such-entry");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  // Every entry replays over the wire to the exact in-process signature.
  for (const auto& [name, signature] : baseline) {
    auto cell = client->Replay(name);
    ASSERT_TRUE(cell.ok()) << name << ": " << cell.status();
    EXPECT_EQ(RowSignature(*cell), signature) << name;
  }

  // A model override re-scores the recording under the requested model.
  auto overridden = client->Replay("sum/perfect", "value");
  ASSERT_TRUE(overridden.ok()) << overridden.status();
  EXPECT_EQ(overridden->row.model_name, "value");
  auto bad_model = client->Replay("sum/perfect", "quantum");
  EXPECT_FALSE(bad_model.ok());

  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_GE(stats->requests_total, 9u);
  EXPECT_EQ(stats->overload_rejections, 0u);
  EXPECT_EQ(stats->clients_active, 1u);
  EXPECT_GT(stats->bytes_served, 0u);
}

TEST(CorpusServerTest, ServesOverLoopbackTcp) {
  ScopedPath bundle("server_test_tcp.ddrc");
  BuildBundle(bundle.get(), {DeterminismModel::kPerfect});

  CorpusServerOptions options;
  options.tcp_port = 0;  // kernel-assigned
  options.scenarios = FastScenarios();
  auto server = CorpusServer::Start(bundle.get(), options);
  ASSERT_TRUE(server.ok()) << server.status();
  ASSERT_GT((*server)->tcp_port(), 0);

  auto client = CorpusClient::ConnectTcpSocket("127.0.0.1",
                                               (*server)->tcp_port());
  ASSERT_TRUE(client.ok()) << client.status();
  auto info = client->Info();
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->entry_count, 2u);
}

// The PR's acceptance property: entries appended after the server
// started replay over the socket — post-refresh — with bit-identical
// row signatures, and the warm cache's counters survive the swap.
TEST(CorpusServerTest, RefreshPicksUpAppendAndKeepsWarmCache) {
  ScopedPath bundle("server_test_refresh.ddrc");
  ScopedPath socket_path("server_test_refresh.sock");
  BuildBundle(bundle.get(), {DeterminismModel::kPerfect});

  auto server = CorpusServer::Start(bundle.get(), UnixOptions(socket_path.get()));
  ASSERT_TRUE(server.ok()) << server.status();
  auto client = CorpusClient::ConnectUnixSocket(socket_path.get());
  ASSERT_TRUE(client.ok()) << client.status();

  // Warm the shared cache with the generation-1 entries; a second replay
  // of a warm entry hits instead of re-decoding.
  for (const char* name : {"sum/perfect", "overflow/perfect", "sum/perfect"}) {
    auto cell = client->Replay(name);
    ASSERT_TRUE(cell.ok()) << name << ": " << cell.status();
  }
  auto before = client->Stats();
  ASSERT_TRUE(before.ok()) << before.status();
  EXPECT_EQ(before->generation, 1u);
  EXPECT_EQ(before->entry_count, 2u);
  EXPECT_GT(before->cache.insertions, 0u);
  EXPECT_GT(before->cache.hits, 0u);

  // Grow the bundle behind the server's back (the in-place journal
  // append), then pick the new generation up explicitly.
  BuildBundle(bundle.get(),
              {DeterminismModel::kPerfect, DeterminismModel::kValue},
              /*resume=*/true);
  auto refresh = client->Refresh();
  ASSERT_TRUE(refresh.ok()) << refresh.status();
  EXPECT_TRUE(refresh->picked_up);
  EXPECT_EQ(refresh->generation_before, 1u);
  EXPECT_EQ(refresh->generation_after, 2u);
  EXPECT_EQ(refresh->entries_before, 2u);
  EXPECT_EQ(refresh->entries_after, 4u);

  // A second refresh with nothing new is a no-op, loudly reported as one.
  auto idle = client->Refresh();
  ASSERT_TRUE(idle.ok()) << idle.status();
  EXPECT_FALSE(idle->picked_up);

  // The appended entries replay over the wire bit-identically to an
  // in-process replay of the grown bundle.
  const std::map<std::string, std::string> baseline =
      BaselineSignatures(bundle.get());
  ASSERT_EQ(baseline.size(), 4u);
  for (const char* name : {"sum/value", "overflow/value"}) {
    auto cell = client->Replay(name);
    ASSERT_TRUE(cell.ok()) << name << ": " << cell.status();
    EXPECT_EQ(RowSignature(*cell), baseline.at(name)) << name;
  }

  // The cache object carried over the swap: the counters are cumulative,
  // never reset (the acceptance property — warm-cache accounting
  // survives the generation swap).
  auto after = client->Stats();
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->generation, 2u);
  EXPECT_EQ(after->entry_count, 4u);
  EXPECT_EQ(after->refreshes, 2u);
  EXPECT_EQ(after->generations_picked_up, 1u);
  EXPECT_GE(after->cache.hits, before->cache.hits);
  EXPECT_GE(after->cache.insertions, before->cache.insertions);
  EXPECT_GE(after->cache.misses, before->cache.misses);

  // The in-place append kept the cache identity too: a generation-1
  // entry decoded before the swap replays from the cache after it, with
  // no new miss or insertion.
  auto replayed = client->Replay("sum/perfect");
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  auto kept = client->Stats();
  ASSERT_TRUE(kept.ok()) << kept.status();
  EXPECT_GT(kept->cache.hits, after->cache.hits);
  EXPECT_EQ(kept->cache.insertions, after->cache.insertions);
  EXPECT_EQ(kept->cache.misses, after->cache.misses);

  auto warm = client->Replay("sum/value");
  ASSERT_TRUE(warm.ok()) << warm.status();
  auto warmer = client->Stats();
  ASSERT_TRUE(warmer.ok()) << warmer.status();
  EXPECT_GT(warmer->cache.hits, after->cache.hits);
}

TEST(CorpusServerTest, WatcherPicksUpAppendWithoutExplicitRefresh) {
  ScopedPath bundle("server_test_watch.ddrc");
  ScopedPath socket_path("server_test_watch.sock");
  BuildBundle(bundle.get(), {DeterminismModel::kPerfect});

  CorpusServerOptions options = UnixOptions(socket_path.get());
  options.watch_interval_ms = 20;
  auto server = CorpusServer::Start(bundle.get(), options);
  ASSERT_TRUE(server.ok()) << server.status();
  auto client = CorpusClient::ConnectUnixSocket(socket_path.get());
  ASSERT_TRUE(client.ok()) << client.status();

  BuildBundle(bundle.get(),
              {DeterminismModel::kPerfect, DeterminismModel::kFailure},
              /*resume=*/true);

  // The watcher polls the file size; give it a bounded window to notice.
  uint64_t entry_count = 0;
  for (int i = 0; i < 250 && entry_count != 4; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    auto stats = client->Stats();
    ASSERT_TRUE(stats.ok()) << stats.status();
    entry_count = stats->entry_count;
  }
  EXPECT_EQ(entry_count, 4u);

  auto cell = client->Replay("sum/failure");
  ASSERT_TRUE(cell.ok()) << cell.status();
  EXPECT_EQ(RowSignature(*cell), BaselineSignatures(bundle.get()).at("sum/failure"));
}

// Clears the process-wide fault plan even when an ASSERT bails out of
// the test early — an armed plan must never leak into the next test.
struct ScopedFaultPlan {
  explicit ScopedFaultPlan(const std::string& plan) {
    EXPECT_TRUE(SetFaultPlan(plan).ok());
  }
  ~ScopedFaultPlan() { ClearFaultPlan(); }
};

TEST(CorpusServerTest, OverloadAnswersUnavailableLoudly) {
  ScopedPath bundle("server_test_overload.ddrc");
  ScopedPath socket_path("server_test_overload.sock");
  BuildBundle(bundle.get(), {DeterminismModel::kPerfect});

  // One worker, a one-slot queue, and a stalled first response: request
  // 1 occupies the worker, request 2 fills the queue, request 3 must
  // bounce with Unavailable instead of queuing silently.
  CorpusServerOptions options = UnixOptions(socket_path.get());
  options.workers = 1;
  options.queue_capacity = 1;
  ScopedFaultPlan plan("server.respond:stall@1=400");
  auto server = CorpusServer::Start(bundle.get(), options);
  ASSERT_TRUE(server.ok()) << server.status();

  auto c1 = CorpusClient::ConnectUnixSocket(socket_path.get());
  auto c2 = CorpusClient::ConnectUnixSocket(socket_path.get());
  auto c3 = CorpusClient::ConnectUnixSocket(socket_path.get());
  ASSERT_TRUE(c1.ok() && c2.ok() && c3.ok());

  std::atomic<int> served{0};
  std::thread first([&] {
    auto verified = c1->Verify();
    EXPECT_TRUE(verified.ok()) << verified.status();
    served.fetch_add(verified.ok() ? 1 : 0);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  std::thread second([&] {
    auto verified = c2->Verify();
    EXPECT_TRUE(verified.ok()) << verified.status();
    served.fetch_add(verified.ok() ? 1 : 0);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  auto rejected = c3->Verify();
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(rejected.status().message().find("overloaded"), std::string::npos)
      << rejected.status();

  first.join();
  second.join();
  EXPECT_EQ(served.load(), 2);

  // The rejection was counted, and the connection survived it: the same
  // client can retry once the stall clears.
  auto stats = c3->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_GE(stats->overload_rejections, 1u);
}

// `refresh` is a control command answered on the connection's reader
// thread: with the only worker stalled inside a replay, a refresh from a
// second client still picks the appended generation up and answers
// before the stalled replay does.
TEST(CorpusServerTest, RefreshDoesNotWaitBehindAStalledReplay) {
  ScopedPath bundle("server_test_refresh_inline.ddrc");
  ScopedPath socket_path("server_test_refresh_inline.sock");
  BuildBundle(bundle.get(), {DeterminismModel::kPerfect});

  CorpusServerOptions options = UnixOptions(socket_path.get());
  options.workers = 1;
  auto server = CorpusServer::Start(bundle.get(), options);
  ASSERT_TRUE(server.ok()) << server.status();
  BuildBundle(bundle.get(),
              {DeterminismModel::kPerfect, DeterminismModel::kValue},
              /*resume=*/true);

  auto replayer = CorpusClient::ConnectUnixSocket(socket_path.get());
  auto refresher = CorpusClient::ConnectUnixSocket(socket_path.get());
  ASSERT_TRUE(replayer.ok() && refresher.ok());
  // Only the first response, the replay's, stalls.
  ScopedFaultPlan plan("server.respond:stall@1=1500");
  std::atomic<bool> replay_answered{false};
  std::thread replay([&] {
    auto cell = replayer->Replay("sum/perfect");
    EXPECT_TRUE(cell.ok()) << cell.status();
    replay_answered.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  auto refresh = refresher->Refresh();
  const bool replay_done_first = replay_answered.load();
  ASSERT_TRUE(refresh.ok()) << refresh.status();
  EXPECT_TRUE(refresh->picked_up);
  EXPECT_EQ(refresh->generation_after, 2u);
  EXPECT_EQ(refresh->entries_after, 4u);
  EXPECT_FALSE(replay_done_first);
  replay.join();
  EXPECT_TRUE(replay_answered.load());
}

// Once a shutdown is acknowledged, a refresh the same client already
// sent is still read and answered — loudly, as draining.
TEST(CorpusServerTest, RefreshAfterShutdownIsAnsweredUnavailable) {
  ScopedPath bundle("server_test_refresh_drain.ddrc");
  ScopedPath socket_path("server_test_refresh_drain.sock");
  BuildBundle(bundle.get(), {DeterminismModel::kPerfect});
  auto server = CorpusServer::Start(bundle.get(), UnixOptions(socket_path.get()));
  ASSERT_TRUE(server.ok()) << server.status();

  auto socket = ConnectUnix(socket_path.get());
  ASSERT_TRUE(socket.ok()) << socket.status();
  // Both frames in one send, so the refresh is already queued on the
  // socket when the shutdown is handled.
  Encoder frames;
  for (RpcCommand command : {RpcCommand::kShutdown, RpcCommand::kRefresh}) {
    RpcRequest request;
    request.command = command;
    const std::vector<uint8_t> payload = EncodeRequest(request);
    frames.PutFixed32(kRpcFrameMagic);
    frames.PutFixed32(static_cast<uint32_t>(payload.size()));
    frames.PutFixed32(Crc32(payload.data(), payload.size()));
    for (uint8_t byte : payload) {
      frames.PutFixed8(byte);
    }
  }
  ASSERT_TRUE(socket->SendAll(frames.buffer().data(), frames.size()).ok());

  std::vector<Status> answers;
  for (int i = 0; i < 2; ++i) {
    auto frame = ReadFrame(*socket);
    ASSERT_TRUE(frame.ok()) << frame.status();
    ASSERT_TRUE(frame->has_value()) << "response " << i;
    auto response = DecodeResponse(**frame);
    ASSERT_TRUE(response.ok()) << response.status();
    answers.push_back(Status(response->code, response->message));
  }
  EXPECT_TRUE(answers[0].ok()) << answers[0];
  EXPECT_EQ(answers[1].code(), StatusCode::kUnavailable) << answers[1];
  EXPECT_NE(answers[1].message().find("draining"), std::string::npos)
      << answers[1];
  (*server)->Wait();
  EXPECT_EQ((*server)->Snapshot().refreshes, 0u);
}

// The watcher and concurrent `refresh` RPCs serialize: each appended
// generation is picked up, and counted, exactly once.
TEST(CorpusServerTest, WatcherAndRpcRefreshCountEachGenerationOnce) {
  ScopedPath bundle("server_test_refresh_race.ddrc");
  ScopedPath socket_path("server_test_refresh_race.sock");
  BuildBundle(bundle.get(), {DeterminismModel::kPerfect});
  CorpusServerOptions options = UnixOptions(socket_path.get());
  options.watch_interval_ms = 1;
  auto server = CorpusServer::Start(bundle.get(), options);
  ASSERT_TRUE(server.ok()) << server.status();

  std::vector<DeterminismModel> models = {DeterminismModel::kPerfect};
  const DeterminismModel added[] = {DeterminismModel::kValue,
                                    DeterminismModel::kFailure,
                                    DeterminismModel::kOutputOnly};
  for (DeterminismModel model : added) {
    models.push_back(model);
    BuildBundle(bundle.get(), models, /*resume=*/true);
    std::vector<std::thread> refreshers;
    for (int r = 0; r < 3; ++r) {
      refreshers.emplace_back([&] {
        auto client = CorpusClient::ConnectUnixSocket(socket_path.get());
        ASSERT_TRUE(client.ok()) << client.status();
        auto refresh = client->Refresh();
        EXPECT_TRUE(refresh.ok()) << refresh.status();
      });
    }
    for (std::thread& thread : refreshers) {
      thread.join();
    }
  }
  const ServeStats stats = (*server)->Snapshot();
  EXPECT_EQ(stats.generation, 4u);
  EXPECT_EQ(stats.entry_count, 8u);
  EXPECT_EQ(stats.generations_picked_up, 3u);
  EXPECT_GE(stats.refreshes, 9u);
}

// corpus_bytes_read is cumulative across generations: a refresh retires
// the old handle's count into the total instead of restarting from the
// new handle's.
TEST(CorpusServerTest, CorpusBytesReadNeverDecreasesAcrossRefresh) {
  ScopedPath bundle("server_test_bytes_read.ddrc");
  ScopedPath socket_path("server_test_bytes_read.sock");
  BuildBundle(bundle.get(), {DeterminismModel::kPerfect});
  auto server = CorpusServer::Start(bundle.get(), UnixOptions(socket_path.get()));
  ASSERT_TRUE(server.ok()) << server.status();
  auto client = CorpusClient::ConnectUnixSocket(socket_path.get());
  ASSERT_TRUE(client.ok()) << client.status();

  uint64_t last = 0;
  const auto expect_not_below_last = [&](const char* when) {
    auto stats = client->Stats();
    ASSERT_TRUE(stats.ok()) << stats.status();
    EXPECT_GE(stats->corpus_bytes_read, last) << when;
    last = stats->corpus_bytes_read;
  };
  std::vector<DeterminismModel> models = {DeterminismModel::kPerfect};
  const DeterminismModel added[] = {DeterminismModel::kValue,
                                    DeterminismModel::kFailure};
  for (DeterminismModel model : added) {
    ASSERT_TRUE(client->Verify().ok());
    expect_not_below_last("after verify");
    models.push_back(model);
    BuildBundle(bundle.get(), models, /*resume=*/true);
    auto refresh = client->Refresh();
    ASSERT_TRUE(refresh.ok()) << refresh.status();
    EXPECT_TRUE(refresh->picked_up);
    expect_not_below_last("after refresh");
  }
  ASSERT_TRUE(client->Verify().ok());
  expect_not_below_last("after the last verify");
  EXPECT_GT(last, 0u);
}

TEST(CorpusServerTest, TornTailBundleServesLastValidGeneration) {
  ScopedPath bundle("server_test_torn.ddrc");
  ScopedPath socket_path("server_test_torn.sock");
  BuildBundle(bundle.get(), {DeterminismModel::kPerfect});
  BuildBundle(bundle.get(),
              {DeterminismModel::kPerfect, DeterminismModel::kValue},
              /*resume=*/true);

  // A crashed appender leaves unpublished garbage after the last valid
  // trailer; the server must come up serving generation 2 regardless.
  {
    std::ofstream out(bundle.get(),
                      std::ios::binary | std::ios::app | std::ios::ate);
    const std::vector<char> garbage(512, '\xAB');
    out.write(garbage.data(), static_cast<std::streamsize>(garbage.size()));
    ASSERT_TRUE(out.good());
  }

  auto server = CorpusServer::Start(bundle.get(), UnixOptions(socket_path.get()));
  ASSERT_TRUE(server.ok()) << server.status();
  auto client = CorpusClient::ConnectUnixSocket(socket_path.get());
  ASSERT_TRUE(client.ok()) << client.status();

  auto info = client->Info();
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->generation, 2u);
  EXPECT_EQ(info->entry_count, 4u);
  EXPECT_TRUE(info->journaled);

  auto verified = client->Verify();
  ASSERT_TRUE(verified.ok()) << verified.status();
  EXPECT_EQ(*verified, 4u);
  auto cell = client->Replay("sum/value");
  ASSERT_TRUE(cell.ok()) << cell.status();
}

TEST(CorpusServerTest, ConcurrentClientsReplayCorrectlyDuringAppend) {
  ScopedPath bundle("server_test_concurrent.ddrc");
  ScopedPath socket_path("server_test_concurrent.sock");
  BuildBundle(bundle.get(), {DeterminismModel::kPerfect});
  const std::map<std::string, std::string> base_signatures =
      BaselineSignatures(bundle.get());

  CorpusServerOptions options = UnixOptions(socket_path.get());
  options.workers = 4;
  options.queue_capacity = 64;
  auto server = CorpusServer::Start(bundle.get(), options);
  ASSERT_TRUE(server.ok()) << server.status();

  // N clients hammer the generation-1 entries while the appender grows
  // the bundle and a refresh swaps the index mid-flight. Every reply
  // must stay bit-identical to the baseline: published bytes are never
  // mutated and in-flight windows outlive the swap.
  constexpr int kClients = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = CorpusClient::ConnectUnixSocket(socket_path.get());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      const char* name = c % 2 == 0 ? "sum/perfect" : "overflow/perfect";
      for (int i = 0; i < 6; ++i) {
        auto cell = client->Replay(name);
        if (!cell.ok() ||
            RowSignature(*cell) != base_signatures.at(name)) {
          failures.fetch_add(1);
        }
      }
    });
  }

  BuildBundle(bundle.get(),
              {DeterminismModel::kPerfect, DeterminismModel::kValue},
              /*resume=*/true);
  auto refresh = (*server)->Refresh();
  ASSERT_TRUE(refresh.ok()) << refresh.status();
  EXPECT_TRUE(refresh->picked_up);

  for (std::thread& thread : clients) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);

  // Post-swap, the new generation serves and signatures still match an
  // in-process replay of the grown bundle.
  auto client = CorpusClient::ConnectUnixSocket(socket_path.get());
  ASSERT_TRUE(client.ok()) << client.status();
  auto cell = client->Replay("overflow/value");
  ASSERT_TRUE(cell.ok()) << cell.status();
  EXPECT_EQ(RowSignature(*cell),
            BaselineSignatures(bundle.get()).at("overflow/value"));
}

TEST(CorpusServerTest, ShutdownRpcDrainsAndUnbindsTheSocket) {
  ScopedPath bundle("server_test_shutdown.ddrc");
  ScopedPath socket_path("server_test_shutdown.sock");
  BuildBundle(bundle.get(), {DeterminismModel::kPerfect});

  auto server = CorpusServer::Start(bundle.get(), UnixOptions(socket_path.get()));
  ASSERT_TRUE(server.ok()) << server.status();
  auto client = CorpusClient::ConnectUnixSocket(socket_path.get());
  ASSERT_TRUE(client.ok()) << client.status();
  ASSERT_TRUE(client->Verify().ok());

  // The shutdown ack arrives before the drain, then Wait() returns once
  // every thread has unwound and the socket file is gone.
  ASSERT_TRUE(client->Shutdown().ok());
  (*server)->Wait();
  EXPECT_FALSE((*server)->running());

  auto late = CorpusClient::ConnectUnixSocket(socket_path.get());
  EXPECT_FALSE(late.ok());

  const ServeStats stats = (*server)->Snapshot();
  EXPECT_GE(stats.requests_total, 2u);
  EXPECT_EQ(stats.clients_active, 0u);
}

// ------------------------------------------------------------ file lock

TEST(FileLockTest, ProbeSeesExclusiveHolderAndMissingFile) {
  auto missing = FileExclusivelyLocked("server_test_no_such_file.ddrc");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  ScopedPath bundle("server_test_lock.ddrc");
  BuildBundle(bundle.get(), {DeterminismModel::kPerfect});

  // Nobody holds the writer lock: the shared probe acquires + releases.
  auto unlocked = FileExclusivelyLocked(bundle.get());
  ASSERT_TRUE(unlocked.ok()) << unlocked.status();
  EXPECT_FALSE(*unlocked);

  // An open in-place appender holds the flock until Finish; the probe
  // (and the `info` RPC's writer_active) must see it without blocking.
  {
    auto writer = CorpusWriter::AppendTo(bundle.get());
    ASSERT_TRUE(writer.ok()) << writer.status();
    auto held = FileExclusivelyLocked(bundle.get());
    ASSERT_TRUE(held.ok()) << held.status();
    EXPECT_TRUE(*held);
    auto via_corpus = CorpusWriterActive(bundle.get());
    ASSERT_TRUE(via_corpus.ok()) << via_corpus.status();
    EXPECT_TRUE(*via_corpus);
  }
  // Abandoning the writer releases the lock (nothing was published).
  auto released = CorpusWriterActive(bundle.get());
  ASSERT_TRUE(released.ok()) << released.status();
  EXPECT_FALSE(*released);
}

TEST(CorpusServerTest, InfoReportsActiveWriterDuringInPlaceAppend) {
  ScopedPath bundle("server_test_writerinfo.ddrc");
  ScopedPath socket_path("server_test_writerinfo.sock");
  BuildBundle(bundle.get(), {DeterminismModel::kPerfect});

  auto server = CorpusServer::Start(bundle.get(), UnixOptions(socket_path.get()));
  ASSERT_TRUE(server.ok()) << server.status();
  auto client = CorpusClient::ConnectUnixSocket(socket_path.get());
  ASSERT_TRUE(client.ok()) << client.status();

  {
    auto writer = CorpusWriter::AppendTo(bundle.get());
    ASSERT_TRUE(writer.ok()) << writer.status();
    auto info = client->Info();
    ASSERT_TRUE(info.ok()) << info.status();
    EXPECT_TRUE(info->writer_active);
  }
  auto info = client->Info();
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_FALSE(info->writer_active);
}

// ----------------------------------------------------------- resilience

TEST(ResilienceTest, FrameDeadlineIsDistinctFromSocketErrors) {
  // Nothing ever arrives: the poll-based read must answer
  // DeadlineExceeded, not hang and not claim the socket broke.
  {
    auto [a, b] = LocalPair();
    auto timed_out = ReadFrameWithDeadline(b, 100);
    ASSERT_FALSE(timed_out.ok());
    EXPECT_EQ(timed_out.status().code(), StatusCode::kDeadlineExceeded);
  }
  // A peer that stalls mid-header is also a deadline, not a torn frame.
  {
    auto [a, b] = LocalPair();
    const uint8_t half_header[6] = {'D', 'R', 'P', 'C', 0, 0};
    ASSERT_TRUE(a.SendAll(half_header, sizeof(half_header)).ok());
    auto timed_out = ReadFrameWithDeadline(b, 100);
    ASSERT_FALSE(timed_out.ok());
    EXPECT_EQ(timed_out.status().code(), StatusCode::kDeadlineExceeded);
  }
  // A close mid-frame stays Unavailable — the deadline path must not
  // absorb real transport failures.
  {
    auto [a, b] = LocalPair();
    const uint8_t half_header[6] = {'D', 'R', 'P', 'C', 0, 0};
    ASSERT_TRUE(a.SendAll(half_header, sizeof(half_header)).ok());
    a.Close();
    auto torn = ReadFrameWithDeadline(b, 1000);
    ASSERT_FALSE(torn.ok());
    EXPECT_EQ(torn.status().code(), StatusCode::kUnavailable);
  }
  // And a whole frame arriving in time reads normally.
  {
    auto [a, b] = LocalPair();
    const std::vector<uint8_t> payload = {1, 2, 3};
    ASSERT_TRUE(WriteFrame(a, payload).ok());
    auto frame = ReadFrameWithDeadline(b, 1000);
    ASSERT_TRUE(frame.ok()) << frame.status();
    ASSERT_TRUE(frame->has_value());
    EXPECT_EQ(**frame, payload);
  }
}

TEST(ResilienceTest, ClientRetriesTransientConnectFailure) {
  ScopedPath bundle("server_test_reconnect.ddrc");
  ScopedPath socket_path("server_test_reconnect.sock");
  BuildBundle(bundle.get(), {DeterminismModel::kPerfect});
  const std::map<std::string, std::string> baseline =
      BaselineSignatures(bundle.get());

  auto server = CorpusServer::Start(bundle.get(), UnixOptions(socket_path.get()));
  ASSERT_TRUE(server.ok()) << server.status();

  CorpusClientOptions retrying;
  retrying.max_retries = 2;
  retrying.backoff_initial_ms = 5;

  // Without retries the injected connect failure is loud...
  {
    ScopedFaultPlan plan("socket.connect:unavail@1");
    auto refused = CorpusClient::ConnectUnixSocket(socket_path.get());
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);
  }
  // ...with retries the same failure is absorbed, and the rows served
  // over the healed connection are bit-identical to in-process replay.
  {
    ScopedFaultPlan plan("socket.connect:unavail@1");
    auto client = CorpusClient::ConnectUnixSocket(socket_path.get(), retrying);
    ASSERT_TRUE(client.ok()) << client.status();
    const std::string name = baseline.begin()->first;
    auto cell = client->Replay(name);
    ASSERT_TRUE(cell.ok()) << cell.status();
    EXPECT_EQ(RowSignature(*cell), baseline.at(name));
  }
}

TEST(ResilienceTest, ClientSurvivesStalledResponseWithinRetryBudget) {
  ScopedPath bundle("server_test_stall.ddrc");
  ScopedPath socket_path("server_test_stall.sock");
  BuildBundle(bundle.get(), {DeterminismModel::kPerfect});
  const std::map<std::string, std::string> baseline =
      BaselineSignatures(bundle.get());

  auto server = CorpusServer::Start(bundle.get(), UnixOptions(socket_path.get()));
  ASSERT_TRUE(server.ok()) << server.status();

  CorpusClientOptions options;
  options.timeout_ms = 200;
  options.max_retries = 2;
  options.backoff_initial_ms = 5;
  auto client = CorpusClient::ConnectUnixSocket(socket_path.get(), options);
  ASSERT_TRUE(client.ok()) << client.status();

  // The first response stalls past the client deadline; the retry (on a
  // fresh connection) is answered promptly and must return the exact
  // same row the stalled attempt would have.
  ScopedFaultPlan plan("server.respond:stall@1=600");
  const std::string name = baseline.begin()->first;
  auto cell = client->Replay(name);
  ASSERT_TRUE(cell.ok()) << cell.status();
  EXPECT_EQ(RowSignature(*cell), baseline.at(name));
}

TEST(ResilienceTest, ClientAnswersDeadlineExceededOnceBudgetIsSpent) {
  ScopedPath bundle("server_test_budget.ddrc");
  ScopedPath socket_path("server_test_budget.sock");
  BuildBundle(bundle.get(), {DeterminismModel::kPerfect});

  auto server = CorpusServer::Start(bundle.get(), UnixOptions(socket_path.get()));
  ASSERT_TRUE(server.ok()) << server.status();

  CorpusClientOptions options;
  options.timeout_ms = 150;
  options.max_retries = 1;
  options.backoff_initial_ms = 5;
  auto client = CorpusClient::ConnectUnixSocket(socket_path.get(), options);
  ASSERT_TRUE(client.ok()) << client.status();

  // Every response stalls past the deadline: both attempts miss, and the
  // final answer is DeadlineExceeded — not a hang, not Unavailable.
  {
    ScopedFaultPlan plan("server.respond:stall=600");
    auto info = client->Info();
    ASSERT_FALSE(info.ok());
    EXPECT_EQ(info.status().code(), StatusCode::kDeadlineExceeded);
  }
  // With the faults gone the same client recovers on its next call.
  auto info = client->Info();
  ASSERT_TRUE(info.ok()) << info.status();
}

TEST(ResilienceTest, RowsStayBitIdenticalUnderInjectedSendFaults) {
  ScopedPath bundle("server_test_bitident.ddrc");
  ScopedPath socket_path("server_test_bitident.sock");
  BuildBundle(bundle.get(),
              {DeterminismModel::kPerfect, DeterminismModel::kValue});
  const std::map<std::string, std::string> baseline =
      BaselineSignatures(bundle.get());
  ASSERT_FALSE(baseline.empty());

  auto server = CorpusServer::Start(bundle.get(), UnixOptions(socket_path.get()));
  ASSERT_TRUE(server.ok()) << server.status();

  CorpusClientOptions options;
  options.timeout_ms = 2000;
  options.max_retries = 3;
  options.backoff_initial_ms = 5;
  auto client = CorpusClient::ConnectUnixSocket(socket_path.get(), options);
  ASSERT_TRUE(client.ok()) << client.status();

  // Every second request send bounces with Unavailable; the retry loop
  // must make that invisible — every row of the whole bundle replays
  // bit-identically to the in-process baseline.
  ScopedFaultPlan plan("client.send:unavail/2");
  for (const auto& [name, signature] : baseline) {
    auto cell = client->Replay(name);
    ASSERT_TRUE(cell.ok()) << name << ": " << cell.status();
    EXPECT_EQ(RowSignature(*cell), signature) << name;
  }
}

TEST(ResilienceTest, ServerReadDeadlineCutsAStalledClientLoose) {
  ScopedPath bundle("server_test_stalledclient.ddrc");
  ScopedPath socket_path("server_test_stalledclient.sock");
  BuildBundle(bundle.get(), {DeterminismModel::kPerfect});

  CorpusServerOptions options = UnixOptions(socket_path.get());
  options.request_timeout_ms = 200;
  auto server = CorpusServer::Start(bundle.get(), options);
  ASSERT_TRUE(server.ok()) << server.status();

  // A client that sends half a frame header and stalls must be answered
  // (DeadlineExceeded) and hung up on — never allowed to pin its reader
  // thread forever.
  auto stalled = ConnectUnix(socket_path.get());
  ASSERT_TRUE(stalled.ok()) << stalled.status();
  const uint8_t half_header[6] = {'D', 'R', 'P', 'C', 0, 0};
  ASSERT_TRUE(stalled->SendAll(half_header, sizeof(half_header)).ok());
  auto answer = ReadFrameWithDeadline(*stalled, 2000);
  ASSERT_TRUE(answer.ok()) << answer.status();
  ASSERT_TRUE(answer->has_value());
  auto response = DecodeResponse(**answer);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->code, StatusCode::kDeadlineExceeded);
  // The connection is then closed from the server side.
  auto eof = ReadFrameWithDeadline(*stalled, 2000);
  ASSERT_TRUE(eof.ok()) << eof.status();
  EXPECT_FALSE(eof->has_value());

  // Meanwhile a healthy client on another connection is unaffected.
  auto healthy = CorpusClient::ConnectUnixSocket(socket_path.get());
  ASSERT_TRUE(healthy.ok()) << healthy.status();
  auto verified = healthy->Verify();
  EXPECT_TRUE(verified.ok()) << verified.status();
}

#endif  // DDR_SERVER_TEST_HAVE_SOCKETS

}  // namespace
}  // namespace ddr
