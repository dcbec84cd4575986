#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "src/apps/scenarios.h"
#include "src/core/batch_runner.h"
#include "src/core/experiment.h"
#include "src/server/corpus_client.h"
#include "src/server/corpus_server.h"
#include "src/trace/corpus.h"
#include "src/util/string_util.h"

namespace ddr::bench {
namespace {

using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

constexpr uint64_t kMiB = uint64_t{1} << 20;
// Threads BatchRunner may use while a corpus is built during set-up.
constexpr int kSetupThreads = 3;
// OpStream stream id of the ingest writer (clients use 0, 1, ...).
constexpr uint64_t kWriterStream = 1000;

enum class Kind { kReplay, kScan, kIngest };

struct WorkloadSpec {
  const char* name;
  Kind kind;
  int clients;  // replay/verify connections; the ingest writer adds one
  int workers;  // server worker threads
  uint64_t cache_bytes;
  // tail_ms's percentile: the highest that leaves at least ten samples
  // beyond it in a 30-second run (thousands of replays or verifies, several
  // hundred ingest generations).
  double tail_percentile;
};

// trace-scan's cache is a deployment setting (like --cache-mb), fixed
// well below its ~150 MB decoded corpus so the read path is exercised;
// the other two corpora (~1.4 MB decoded) fit the default 64 MiB.
constexpr WorkloadSpec kSpecs[] = {
    {"debug-replay", Kind::kReplay, 3, 3, 64 * kMiB, 99},
    {"trace-scan", Kind::kScan, 3, 3, 32 * kMiB, 99},
    {"ingest-under-replay", Kind::kIngest, 2, 2, 64 * kMiB, 95},
};

double Millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
int64_t Nanos(double seconds) { return static_cast<int64_t>(seconds * 1e9); }

bool IsInferred(DeterminismModel model) {
  return model == DeterminismModel::kFailure ||
         model == DeterminismModel::kOutputOnly ||
         model == DeterminismModel::kOutputHeavy;
}

// Metric-name form of a model ("debug (RCSE)" is not a valid name).
std::string_view ModelSlug(DeterminismModel model) {
  return model == DeterminismModel::kDebugRcse ? "debug-rcse"
                                               : DeterminismModelName(model);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ----------------------------------------------------------------- spans

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  // index in the same log; -1 for an op's root
  uint64_t op = 0;
  std::vector<std::pair<const char*, double>> counts;
};

// One thread's spans, kept in memory until the run ends. A span's parent
// is the span open when it began.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

  size_t Open(const char* name, uint64_t op) {
    Span span;
    span.name = name;
    span.op = op;
    span.parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
    span.start_ns = Now();
    spans_.push_back(std::move(span));
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void Close(size_t index) {
    spans_[index].end_ns = Now();
    open_.pop_back();
  }

  void Count(size_t index, const char* key, double value) {
    spans_[index].counts.emplace_back(key, value);
  }

  // A child whose duration the library measured itself and reported in
  // its result (a replay row's replay time). Its position inside the
  // parent is not known, so it is placed at `offset_ns` from the
  // parent's start and marked as measured in the library.
  void AddMeasured(size_t parent, const char* name, int64_t offset_ns,
                   int64_t duration_ns) {
    Span span;
    span.name = name;
    span.op = spans_[parent].op;
    span.parent = static_cast<int64_t>(parent);
    span.start_ns = spans_[parent].start_ns + offset_ns;
    span.end_ns = span.start_ns + duration_ns;
    span.counts.emplace_back("measured_in_library", 1.0);
    spans_.push_back(std::move(span));
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

// Scoped span; a null log makes it free, so one op body serves the
// traced and the untraced run.
class SpanScope {
 public:
  SpanScope(SpanLog* log, const char* name, uint64_t op)
      : log_(log), index_(log == nullptr ? 0 : log->Open(name, op)) {}
  ~SpanScope() {
    if (log_ != nullptr) {
      log_->Close(index_);
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  void Count(const char* key, double value) {
    if (log_ != nullptr) {
      log_->Count(index_, key, value);
    }
  }
  size_t index() const { return index_; }

 private:
  SpanLog* log_;
  size_t index_;
};

// --------------------------------------------------------------- fixture

struct Cell {
  size_t scenario = 0;
  DeterminismModel model = DeterminismModel::kPerfect;
};

// A workload's set-up: corpus on disk, server running and warm, and the
// reference outputs every op is checked against.
struct Fixture {
  const WorkloadSpec* spec = nullptr;
  std::string dir;
  std::string corpus_path;
  std::string socket_path;
  std::vector<BugScenario> scenarios;
  std::unique_ptr<CorpusServer> server;
  // In-process reader with the server's cache budget (reference scoring
  // and the traced run's in-process ops).
  std::optional<CorpusReader> reader;
  std::vector<CorpusEntry> entries;  // what the clients pick from
  // Replay workloads, per entry: RowSignature of the in-process score,
  // scenario index, parsed model. Plus the inference attempts the
  // reference pass made over every entry once.
  std::vector<std::string> reference;
  std::vector<size_t> entry_scenario;
  std::vector<DeterminismModel> entry_model;
  uint64_t reference_attempts = 0;
  // Traced replay ops: one prep per scenario, as the server's scorer
  // keeps them.
  std::vector<std::shared_ptr<const ScenarioPrep>> preps;
  // Ingest writer: every scenario x model cell and one harness per
  // scenario (prepared with training, so RCSE recordings never stall).
  std::vector<Cell> cells;
  std::vector<std::unique_ptr<ExperimentHarness>> harnesses;

  Fixture() = default;
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;
  ~Fixture() {
    if (server != nullptr) {
      server->RequestStop();
      server->Wait();
    }
    std::error_code ignored;
    fs::remove_all(dir, ignored);
  }
};

// Removes a directory tree however the run ends.
struct ScratchDir {
  std::string path;
  ~ScratchDir() {
    std::error_code ignored;
    fs::remove_all(path, ignored);
  }
};

CorpusReaderOptions ReaderOptions(const WorkloadSpec& spec) {
  CorpusReaderOptions options;
  options.io.backend = IoBackend::kMmap;
  options.cache_bytes = spec.cache_bytes;
  return options;
}

// The 4 scenarios x 6 models grid, written with the CLI's default trace
// options.
Status BuildGridCorpus(const Fixture& f) {
  BatchOptions options;
  options.threads = kSetupThreads;
  options.corpus_path = f.corpus_path;
  return BatchRunner(f.scenarios, options).Run().status();
}

// `copies` byte-copies of the four hypertable recordings that carry an
// event log (failure and output logs are near-empty).
Status BuildScanCorpus(const Fixture& f, int copies) {
  const std::string base = f.dir + "/hypertable.ddrc";
  ASSIGN_OR_RETURN(BugScenario hypertable, FindBugScenario("hypertable"));
  BatchOptions options;
  options.threads = kSetupThreads;
  options.corpus_path = base;
  options.models = {DeterminismModel::kPerfect, DeterminismModel::kValue,
                    DeterminismModel::kOutputHeavy,
                    DeterminismModel::kDebugRcse};
  RETURN_IF_ERROR(BatchRunner({hypertable}, options).Run().status());
  CorpusReaderOptions source_options;
  source_options.cache_bytes = 0;
  ASSIGN_OR_RETURN(CorpusReader source,
                   CorpusReader::Open(base, source_options));
  CorpusWriter writer(f.corpus_path);
  RETURN_IF_ERROR(writer.Begin());
  for (int copy = 0; copy < copies; ++copy) {
    for (CorpusEntry entry : source.entries()) {
      entry.name = StrPrintf("copy%03d/", copy) + entry.name;
      RETURN_IF_ERROR(writer.AddImageWindow(entry, source));
    }
  }
  return writer.Finish();
}

Result<std::unique_ptr<Fixture>> SetUp(const WorkloadSpec& spec,
                                       const WorkloadConfig& config,
                                       const std::string& dir) {
  auto f = std::make_unique<Fixture>();
  f->spec = &spec;
  f->dir = dir;
  std::error_code error;
  fs::remove_all(dir, error);
  if (!fs::create_directories(dir, error)) {
    return UnavailableError("cannot create " + dir + ": " + error.message());
  }
  f->corpus_path = dir + "/corpus.ddrc";
  f->socket_path = dir + "/serve.sock";
  f->scenarios = AllBugScenarios();
  RETURN_IF_ERROR(spec.kind == Kind::kScan
                      ? BuildScanCorpus(*f, config.scan_copies)
                      : BuildGridCorpus(*f));

  CorpusServerOptions server_options;
  server_options.socket_path = f->socket_path;
  server_options.workers = spec.workers;
  server_options.reader = ReaderOptions(spec);
  ASSIGN_OR_RETURN(f->server,
                   CorpusServer::Start(f->corpus_path, server_options));
  ASSIGN_OR_RETURN(CorpusReader reader,
                   CorpusReader::Open(f->corpus_path, ReaderOptions(spec)));
  f->reader.emplace(std::move(reader));
  f->entries = f->reader->entries();

  if (spec.kind != Kind::kScan) {
    // Reference rows, scored in process exactly as the server's replay
    // handler scores them.
    const CorpusEntryScorer scorer(f->scenarios);
    for (const CorpusEntry& entry : f->entries) {
      ASSIGN_OR_RETURN(BatchCell cell, scorer.ScoreEntry(*f->reader, entry));
      f->reference.push_back(RowSignature(cell));
      f->reference_attempts += cell.row.inference.attempts;
      f->entry_model.push_back(cell.row.model);
      const auto scenario = std::find_if(
          f->scenarios.begin(), f->scenarios.end(),
          [&](const BugScenario& s) { return s.name == entry.scenario; });
      f->entry_scenario.push_back(scenario - f->scenarios.begin());
    }
    if (config.poison_reference) {
      for (std::string& reference : f->reference) {
        reference += "|poisoned";
      }
    }
  }

  // Warm the server: every entry once through the socket, so lazy preps
  // and the chunk cache are filled before anything is timed.
  ASSIGN_OR_RETURN(CorpusClient client,
                   CorpusClient::ConnectUnixSocket(f->socket_path));
  for (const CorpusEntry& entry : f->entries) {
    RETURN_IF_ERROR(spec.kind == Kind::kScan
                        ? client.Verify(entry.name).status()
                        : client.Replay(entry.name).status());
  }

  if (spec.kind == Kind::kIngest) {
    for (size_t s = 0; s < f->scenarios.size(); ++s) {
      ASSIGN_OR_RETURN(ScenarioPrep prep,
                       ScenarioPrep::Compute(f->scenarios[s],
                                             /*include_training=*/true));
      f->harnesses.push_back(std::make_unique<ExperimentHarness>(
          f->scenarios[s],
          std::make_shared<const ScenarioPrep>(std::move(prep))));
      for (DeterminismModel model : AllDeterminismModels()) {
        f->cells.push_back(Cell{s, model});
        (void)f->harnesses[s]->Record(model);  // warm the recorder path
      }
    }
  }
  return f;
}

// ------------------------------------------------------------------- ops

// What one load thread saw.
struct ThreadSamples {
  std::vector<double> op_ms;  // successful ops only
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_error;
  Clock::time_point finished;

  void Add(double ms, const Status& status) {
    ++attempted;
    if (status.ok()) {
      op_ms.push_back(ms);
    } else {
      ++failed;
      if (first_error.empty()) {
        first_error = status.ToString();
      }
    }
  }
};

Status CheckReplay(const Fixture& f, size_t index, const BatchCell& cell) {
  if (RowSignature(cell) != f.reference[index]) {
    return InternalError("replay of " + f.entries[index].name +
                         " differs from its reference row");
  }
  return OkStatus();
}

// One request over the socket, checked.
Status RpcOp(const Fixture& f, CorpusClient& client, size_t index) {
  const std::string& name = f.entries[index].name;
  if (f.spec->kind == Kind::kScan) {
    ASSIGN_OR_RETURN(uint64_t verified, client.Verify(name));
    return verified == 1 ? OkStatus()
                         : InternalError("verify of " + name + " covered " +
                                         std::to_string(verified) + " entries");
  }
  ASSIGN_OR_RETURN(BatchCell cell, client.Replay(name));
  return CheckReplay(f, index, cell);
}

// The calls the server's handler makes for one request, made in process
// and wrapped in spans.
Status InProcessOp(const Fixture& f, size_t index, SpanLog* spans,
                   uint64_t op) {
  const CorpusEntry& entry = f.entries[index];
  SpanScope op_span(spans, "bench.op", op);
  std::optional<TraceReader> trace;
  {
    SpanScope span(spans, "trace.open", op);
    ASSIGN_OR_RETURN(TraceReader opened, f.reader->OpenTrace(entry));
    trace.emplace(std::move(opened));
  }
  if (f.spec->kind == Kind::kScan) {
    SpanScope span(spans, "trace.verify", op);
    return trace->Verify();
  }
  std::optional<RecordedExecution> recording;
  {
    SpanScope span(spans, "trace.read", op);
    ASSIGN_OR_RETURN(RecordedExecution read, trace->ReadRecordedExecution());
    recording.emplace(std::move(read));
  }
  BatchCell cell;
  cell.scenario = entry.scenario;
  cell.recording_name = entry.name;
  {
    // Self time of this span is ReplayAndScore minus the replay the row
    // reports: harness set-up plus fidelity scoring.
    SpanScope span(spans, "core.score", op);
    const size_t s = f.entry_scenario[index];
    ExperimentHarness harness(f.scenarios[s], f.preps[s]);
    cell.row = harness.ReplayAndScore(f.entry_model[index], *recording,
                                      trace->metadata().original_wall_seconds);
    const bool inferred = IsInferred(cell.row.model);
    spans->AddMeasured(span.index(),
                       inferred ? "replay.inference" : "replay.direct", 0,
                       Nanos(cell.row.replay_wall_seconds));
    span.Count("sim_events",
               inferred ? cell.row.inference.total_events_simulated
                        : f.preps[s]->production_trace.size());
  }
  return CheckReplay(f, index, cell);
}

// Ingest bookkeeping that spans phases.
struct IngestState {
  uint64_t generations = 0;  // names stay unique across phases
  size_t expected_entries = 0;
  std::vector<std::pair<std::string, uint64_t>> appended;  // name, events
  // Over whole decks of cells only, so the cell mix is the same each run.
  uint64_t deck_bytes = 0;
  uint64_t deck_events = 0;
};

// One ingest generation: append one recording and wait until the server
// can replay it.
Status IngestOp(Fixture& f, const Cell& cell, size_t cell_index,
                const std::string& name, CorpusClient& client,
                size_t expected_entries, SpanLog* spans, uint64_t op,
                uint64_t* bytes, uint64_t* events) {
  ExperimentHarness& harness = *f.harnesses[cell.scenario];
  SpanScope op_span(spans, "bench.op", op);
  std::unique_ptr<CorpusWriter> writer;
  {
    SpanScope span(spans, "trace.append_open", op);
    ASSIGN_OR_RETURN(writer, CorpusWriter::AppendTo(f.corpus_path));
  }
  RecordedExecution recording;
  {
    SpanScope span(spans, "record.record", op);
    recording = harness.Record(cell.model);
    span.Count("cell", static_cast<double>(cell_index));
    span.Count("sim_events",
               static_cast<double>(harness.production_trace().size()));
  }
  {
    SpanScope span(spans, "trace.add", op);
    TraceWriteOptions options;
    options.scenario = harness.scenario().name;
    options.original_wall_seconds =
        recording.original_outcome.stats.wall_seconds;
    const uint64_t before = writer->bytes_written();
    RETURN_IF_ERROR(writer->Add(name, recording, options));
    span.Count("bytes", static_cast<double>(writer->bytes_written() - before));
  }
  {
    SpanScope span(spans, "trace.commit", op);
    RETURN_IF_ERROR(writer->Finish());
    *bytes = writer->bytes_written();
    writer.reset();
  }
  *events = recording.log.size();
  SpanScope span(spans, "server.refresh", op);
  ASSIGN_OR_RETURN(ServeRefresh refreshed, client.Refresh());
  if (!refreshed.picked_up || refreshed.entries_after != expected_entries) {
    return InternalError(StrPrintf(
        "refresh after %s lists %llu entries, expected %zu", name.c_str(),
        static_cast<unsigned long long>(refreshed.entries_after),
        expected_entries));
  }
  return OkStatus();
}

// ----------------------------------------------------------------- loops

struct LoopContext {
  Fixture* f = nullptr;
  uint64_t seed = 0;
  Clock::time_point deadline;
};

OpStream::Order ClientOrder(const WorkloadSpec& spec) {
  // Replay costs span 25 us to 36 ms per entry, so replay clients walk
  // shuffled decks (the same mix for every seed). Scan entries cost about
  // the same, and independent uniform picks give the cache the reuse
  // distances of random access rather than a cyclic scan.
  return spec.kind == Kind::kScan ? OpStream::Order::kUniform
                                  : OpStream::Order::kShuffledDeck;
}

void RpcLoop(const LoopContext& ctx, int client_index, ThreadSamples* out) {
  auto client = CorpusClient::ConnectUnixSocket(ctx.f->socket_path);
  if (!client.ok()) {
    out->Add(0.0, client.status());
  } else {
    OpStream ops(ctx.seed, client_index, ctx.f->entries.size(),
                 ClientOrder(*ctx.f->spec));
    while (Clock::now() < ctx.deadline) {
      const size_t index = ops.Next();
      const auto start = Clock::now();
      const Status status = RpcOp(*ctx.f, *client, index);
      out->Add(Millis(Clock::now() - start), status);
    }
  }
  out->finished = Clock::now();
}

void InProcessLoop(const LoopContext& ctx, int thread_index, SpanLog* spans,
                   ThreadSamples* out) {
  OpStream ops(ctx.seed, thread_index, ctx.f->entries.size(),
               ClientOrder(*ctx.f->spec));
  for (uint64_t n = 0; Clock::now() < ctx.deadline; ++n) {
    const size_t index = ops.Next();
    const auto start = Clock::now();
    const Status status = InProcessOp(
        *ctx.f, index, spans, (static_cast<uint64_t>(thread_index) << 32) | n);
    out->Add(Millis(Clock::now() - start), status);
  }
  out->finished = Clock::now();
}

void WriterLoop(const LoopContext& ctx, IngestState* state, SpanLog* spans,
                ThreadSamples* out) {
  Fixture& f = *ctx.f;
  auto client = CorpusClient::ConnectUnixSocket(f.socket_path);
  if (!client.ok()) {
    out->Add(0.0, client.status());
    out->finished = Clock::now();
    return;
  }
  OpStream cells(ctx.seed, kWriterStream, f.cells.size(),
                 OpStream::Order::kShuffledDeck);
  uint64_t bytes_in_deck = 0;
  uint64_t events_in_deck = 0;
  for (size_t in_deck = 0; Clock::now() < ctx.deadline;) {
    const size_t cell_index = cells.Next();
    const Cell& cell = f.cells[cell_index];
    const uint64_t generation = state->generations++;
    const std::string name = StrPrintf(
        "ingest/%05llu/%s/%s", static_cast<unsigned long long>(generation),
        f.scenarios[cell.scenario].name.c_str(),
        std::string(ModelSlug(cell.model)).c_str());
    uint64_t bytes = 0;
    uint64_t events = 0;
    const auto start = Clock::now();
    const Status status =
        IngestOp(f, cell, cell_index, name, *client,
                 state->expected_entries + 1, spans, generation, &bytes,
                 &events);
    out->Add(Millis(Clock::now() - start), status);
    if (status.ok()) {
      ++state->expected_entries;
      state->appended.emplace_back(name, events);
    }
    bytes_in_deck += bytes;
    events_in_deck += events;
    if (++in_deck == f.cells.size()) {
      state->deck_bytes += bytes_in_deck;
      state->deck_events += events_in_deck;
      bytes_in_deck = events_in_deck = in_deck = 0;
    }
  }
  out->finished = Clock::now();
}

// What one measured phase produced.
struct Phase {
  // The workload's own successful ops (not background load).
  std::vector<double> op_ms;
  uint64_t attempted = 0;  // every op, background load included
  uint64_t failed = 0;
  std::string first_error;
  double elapsed_s = 0.0;     // start until the last op of the workload
  std::vector<SpanLog> logs;  // traced: one per thread
};

Phase RunPhase(Fixture& f, const WorkloadConfig& config, double seconds,
               bool traced, IngestState* ingest, Clock::time_point epoch) {
  const WorkloadSpec& spec = *f.spec;
  const bool writer = spec.kind == Kind::kIngest;
  const bool in_process = traced && !writer;
  const int threads = spec.clients + (writer ? 1 : 0);
  std::vector<ThreadSamples> samples(threads);
  Phase phase;
  phase.logs.assign(traced ? threads : 0, SpanLog(epoch));
  const auto start = Clock::now();
  LoopContext ctx;
  ctx.f = &f;
  ctx.seed = config.seed;
  ctx.deadline = start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(seconds));
  {
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        if (writer && t == spec.clients) {
          WriterLoop(ctx, ingest, traced ? &phase.logs[t] : nullptr,
                     &samples[t]);
        } else if (in_process) {
          InProcessLoop(ctx, t, &phase.logs[t], &samples[t]);
        } else {
          RpcLoop(ctx, t, &samples[t]);
        }
      });
    }
    for (std::thread& thread : pool) {
      thread.join();
    }
  }
  for (int t = 0; t < threads; ++t) {
    const ThreadSamples& s = samples[t];
    phase.attempted += s.attempted;
    phase.failed += s.failed;
    if (phase.first_error.empty()) {
      phase.first_error = s.first_error;
    }
    const bool workload_op = !writer || t == spec.clients;
    if (workload_op) {
      phase.op_ms.insert(phase.op_ms.end(), s.op_ms.begin(), s.op_ms.end());
      phase.elapsed_s = std::max(phase.elapsed_s, Seconds(s.finished - start));
    }
  }
  return phase;
}

// After the run: every appended entry is listed with its event count.
Status CheckIngested(const Fixture& f, const IngestState& state) {
  ASSIGN_OR_RETURN(CorpusClient client,
                   CorpusClient::ConnectUnixSocket(f.socket_path));
  ASSIGN_OR_RETURN(std::vector<ServeEntry> listed, client.List());
  std::map<std::string, uint64_t> events;
  for (const ServeEntry& entry : listed) {
    events[entry.name] = entry.event_count;
  }
  for (const auto& [name, count] : state.appended) {
    const auto it = events.find(name);
    if (it == events.end() || it->second != count) {
      return InternalError("list does not show " + name + " with " +
                           std::to_string(count) + " events");
    }
  }
  return OkStatus();
}

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) {
    sum += v;
  }
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

// --------------------------------------------------------- trace summary

// The layers an op is broken into, in the order the report lists them.
constexpr const char* kLayers[] = {
    "trace.open",        "trace.read",    "trace.verify", "replay.direct",
    "replay.inference",  "core.score",    "trace.append_open",
    "record.record",     "trace.add",     "trace.commit", "server.refresh",
};

struct TraceSummary {
  uint64_t ops = 0;
  double op_ns = 0.0;
  std::map<std::string, double> self_ns;  // by span name
  std::map<std::string, double> counts;   // by "<span>.<key>"
  // record.record durations per ingest cell index.
  std::map<size_t, std::vector<double>> record_ns_by_cell;
};

TraceSummary Summarize(const std::vector<SpanLog>& logs) {
  TraceSummary summary;
  for (const SpanLog& log : logs) {
    const std::vector<Span>& spans = log.spans();
    std::vector<double> child_ns(spans.size(), 0.0);
    for (const Span& span : spans) {
      if (span.parent >= 0) {
        child_ns[span.parent] +=
            static_cast<double>(span.end_ns - span.start_ns);
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      const double duration = static_cast<double>(span.end_ns - span.start_ns);
      summary.self_ns[span.name] += duration - child_ns[i];
      if (span.parent < 0) {
        ++summary.ops;
        summary.op_ns += duration;
      }
      for (const auto& [key, value] : span.counts) {
        summary.counts[std::string(span.name) + "." + key] += value;
        if (std::string_view(key) == "cell") {
          summary.record_ns_by_cell[static_cast<size_t>(value)].push_back(
              duration);
        }
      }
    }
  }
  return summary;
}

Status WriteSpans(const std::string& path, const std::vector<SpanLog>& logs) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return UnavailableError("cannot write " + path);
  }
  for (size_t t = 0; t < logs.size(); ++t) {
    for (const Span& span : logs[t].spans()) {
      std::string counts;
      for (const auto& [key, value] : span.counts) {
        counts += (counts.empty() ? "\"" : ", \"") + std::string(key) +
                  "\": " + FormatJsonNumber(value);
      }
      std::fprintf(file,
                   "{\"thread\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                   "\"end_ns\": %lld, \"parent\": %lld, \"op\": %llu, "
                   "\"counts\": {%s}}\n",
                   t, span.name, static_cast<long long>(span.start_ns),
                   static_cast<long long>(span.end_ns),
                   static_cast<long long>(span.parent),
                   static_cast<unsigned long long>(span.op), counts.c_str());
    }
  }
  return std::fclose(file) == 0 ? OkStatus()
                                : UnavailableError("short write to " + path);
}

// Median over scenarios of median Record(model) / median Record(failure):
// a measured recording overhead next to cost_model.h's modeled one.
double RecordSlowdown(const Fixture& f, const TraceSummary& summary,
                      DeterminismModel model) {
  const auto median_ns = [&](size_t scenario, DeterminismModel m) {
    for (size_t c = 0; c < f.cells.size(); ++c) {
      if (f.cells[c].scenario == scenario && f.cells[c].model == m) {
        const auto it = summary.record_ns_by_cell.find(c);
        return it == summary.record_ns_by_cell.end()
                   ? 0.0
                   : NearestRankPercentile(it->second, 50);
      }
    }
    return 0.0;
  };
  std::vector<double> ratios;
  for (size_t s = 0; s < f.scenarios.size(); ++s) {
    const double base = median_ns(s, DeterminismModel::kFailure);
    const double with_model = median_ns(s, model);
    if (base > 0.0 && with_model > 0.0) {
      ratios.push_back(with_model / base);
    }
  }
  return NearestRankPercentile(ratios, 50);
}

struct CacheDelta {
  double hit_rate = 0.0;
  double evictions = 0.0;
  double disk_bytes = 0.0;
};

CacheDelta DeltaOf(const ChunkCacheStats& before, const ChunkCacheStats& after,
                   uint64_t bytes_before, uint64_t bytes_after) {
  CacheDelta delta;
  const double hits = static_cast<double>(after.hits - before.hits);
  const double misses = static_cast<double>(after.misses - before.misses);
  delta.hit_rate = hits + misses == 0.0 ? 0.0 : hits / (hits + misses);
  delta.evictions = static_cast<double>(after.evictions - before.evictions);
  delta.disk_bytes = static_cast<double>(bytes_after - bytes_before);
  return delta;
}

// Per-layer metrics of a traced run, and the human-readable table.
std::vector<Metric> LayerMetrics(const Fixture& f, const Phase& untraced,
                                 const Phase& traced, const CacheDelta& cache,
                                 double cache_ops, const IngestState& ingest,
                                 std::FILE* log) {
  const TraceSummary s = Summarize(traced.logs);
  const double ops = std::max<double>(s.ops, 1.0);
  const double op_ms = s.op_ns / ops / 1e6;
  const auto self = [&](const char* name) {
    const auto it = s.self_ns.find(name);
    return it == s.self_ns.end() ? 0.0 : it->second;
  };
  const auto count = [&](const char* name) {
    const auto it = s.counts.find(name);
    return it == s.counts.end() ? 0.0 : it->second;
  };
  const double share_base = std::max(s.op_ns, 1.0) / 100.0;
  const double sim_ns =
      self("replay.direct") + self("replay.inference") + self("record.record");
  const double sim_events =
      count("core.score.sim_events") + count("record.record.sim_events");
  const double add_ns = self("trace.add");

  // Mean op over the socket untraced, minus the same op traced: for
  // replay and scan (traced in process) transport plus tracing overhead,
  // for ingest (socket in both) tracing overhead alone.
  const double transport_ms = Mean(untraced.op_ms) - op_ms;

  std::vector<Metric> metrics;
  metrics.push_back({"bench.op_ms", op_ms, "ms"});
  metrics.push_back({"server.transport_ms", transport_ms, "ms"});
  metrics.push_back(
      {"bench.unattributed_pct", self("bench.op") / share_base, "%"});
  for (const char* layer : kLayers) {
    metrics.push_back(
        {std::string(layer) + "_pct", self(layer) / share_base, "%"});
  }
  metrics.push_back({"replay.inference_attempts",
                     static_cast<double>(f.reference_attempts), "count"});
  metrics.push_back({"sim.mev_per_s",
                     sim_ns == 0.0 ? 0.0 : sim_events / sim_ns * 1e3, "Mev/s"});
  metrics.push_back({"trace.cache_hit_rate", cache.hit_rate, "ratio"});
  metrics.push_back({"trace.cache_evictions_per_op",
                     cache.evictions / std::max(cache_ops, 1.0), "count"});
  metrics.push_back({"trace.disk_bytes_per_op",
                     cache.disk_bytes / std::max(cache_ops, 1.0), "B"});
  metrics.push_back(
      {"trace.add_mb_per_s",
       add_ns == 0.0 ? 0.0 : count("trace.add.bytes") / add_ns * 1e3, "MB/s"});
  metrics.push_back(
      {"trace.bytes_per_event",
       ingest.deck_events == 0 ? 0.0
                               : static_cast<double>(ingest.deck_bytes) /
                                     static_cast<double>(ingest.deck_events),
       "B"});
  metrics.push_back(
      {"server.overload_rejections",
       static_cast<double>(f.server->Snapshot().overload_rejections), "count"});
  for (DeterminismModel model :
       {DeterminismModel::kPerfect, DeterminismModel::kValue,
        DeterminismModel::kOutputOnly, DeterminismModel::kOutputHeavy,
        DeterminismModel::kDebugRcse}) {
    metrics.push_back({"record.slowdown." + std::string(ModelSlug(model)),
                       f.cells.empty() ? 0.0 : RecordSlowdown(f, s, model),
                       "x"});
  }

  std::fprintf(log,
               "per-layer: %llu traced ops, %.4f ms/op traced, %.4f ms/op "
               "untraced over the socket\n",
               static_cast<unsigned long long>(s.ops), op_ms,
               Mean(untraced.op_ms));
  std::fprintf(log, "  %-34s %12s %8s\n", "layer self time", "ms/op", "share");
  for (const char* layer : kLayers) {
    std::fprintf(log, "  %-34s %12.4f %7.2f%%\n",
                 (std::string(layer) + "_ms").c_str(), self(layer) / ops / 1e6,
                 self(layer) / share_base);
  }
  std::fprintf(log, "  %-34s %12.4f %7.2f%%\n", "(unattributed)",
               self("bench.op") / ops / 1e6, self("bench.op") / share_base);
  std::fprintf(log, "  %-34s %12.4f ms (transport + tracing overhead)\n",
               "server.transport_ms", transport_ms);
  for (const Metric& metric : metrics) {
    if (metric.unit != "%" && metric.unit != "ms") {
      std::fprintf(log, "  %-34s %12.4f %s\n", metric.name.c_str(),
                   metric.value, metric.unit.c_str());
    }
  }
  return metrics;
}

}  // namespace

// ----------------------------------------------------------------- public

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const WorkloadSpec& spec : kSpecs) {
      out.push_back(spec.name);
    }
    return out;
  }();
  return names;
}

OpStream::OpStream(uint64_t seed, uint64_t stream, size_t size, Order order)
    : rng_(seed * 0x9E3779B97F4A7C15ull + stream), order_(order) {
  for (size_t i = 0; i < size; ++i) {
    deck_.push_back(i);
  }
  next_ = deck_.size();
}

size_t OpStream::Next() {
  if (order_ == Order::kUniform) {
    return rng_.NextIndex(deck_.size());
  }
  if (next_ == deck_.size()) {
    rng_.Shuffle(&deck_);
    next_ = 0;
  }
  return deck_[next_++];
}

int ExitCodeFor(const RunResult& result) {
  return result.correct && result.failed == 0 ? 0 : 1;
}

Result<RunResult> RunWorkload(const WorkloadConfig& config, std::FILE* log) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& candidate : kSpecs) {
    if (config.workload == candidate.name) {
      spec = &candidate;
    }
  }
  if (spec == nullptr) {
    return InvalidArgumentError("unknown workload '" + config.workload + "'");
  }
  if (config.seconds <= 0.0 || config.setup_repeats < 1 ||
      config.scan_copies < 1 || config.work_dir.empty()) {
    return InvalidArgumentError("bad workload configuration");
  }

  // Declared before the fixture, so the server stops before its directory
  // goes.
  const ScratchDir scratch{config.work_dir};
  // Set up several times and keep the last; setup_s is the median.
  std::vector<double> setup_s;
  std::unique_ptr<Fixture> fixture;
  const int repeats = config.trace ? 1 : config.setup_repeats;
  for (int r = 0; r < repeats; ++r) {
    fixture.reset();
    const auto start = Clock::now();
    ASSIGN_OR_RETURN(fixture,
                     SetUp(*spec, config,
                           config.work_dir + StrPrintf("/setup%d", r)));
    setup_s.push_back(Seconds(Clock::now() - start));
  }
  Fixture& f = *fixture;
  std::fprintf(log, "%s seed %llu: %zu entries, set-up %.3f s (median of %d)\n",
               spec->name, static_cast<unsigned long long>(config.seed),
               f.entries.size(), NearestRankPercentile(setup_s, 50), repeats);

  IngestState ingest;
  ingest.expected_entries = f.entries.size();
  const auto epoch = Clock::now();
  RunResult result;
  const auto finish = [&](const std::vector<const Phase*>& phases) {
    for (const Phase* phase : phases) {
      result.attempted += phase->attempted;
      result.failed += phase->failed;
      if (!phase->first_error.empty()) {
        std::fprintf(log, "first failure: %s\n", phase->first_error.c_str());
      }
    }
    Status checked = OkStatus();
    if (spec->kind == Kind::kIngest) {
      checked = CheckIngested(f, ingest);
      if (!checked.ok()) {
        std::fprintf(log, "check failed: %s\n", checked.ToString().c_str());
      }
    }
    result.correct = result.failed == 0 && checked.ok() && result.attempted > 0;
  };

  if (!config.trace) {
    const Phase phase =
        RunPhase(f, config, config.seconds, /*traced=*/false, &ingest, epoch);
    finish({&phase});
    result.metrics = {
        {"setup_s", NearestRankPercentile(setup_s, 50), "s"},
        {"ops_per_s", static_cast<double>(phase.op_ms.size()) / phase.elapsed_s,
         "1/s"},
        {"p50_ms", NearestRankPercentile(phase.op_ms, 50), "ms"},
        {"tail_ms", NearestRankPercentile(phase.op_ms, spec->tail_percentile),
         "ms"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
    std::fprintf(log, "%zu ops in %.2f s, %llu failed of %llu attempted\n",
                 phase.op_ms.size(), phase.elapsed_s,
                 static_cast<unsigned long long>(result.failed),
                 static_cast<unsigned long long>(result.attempted));
    for (const Metric& metric : result.metrics) {
      std::fprintf(log, "  %-14s %12.4f %s\n", metric.name.c_str(),
                   metric.value, metric.unit.c_str());
    }
    return result;
  }

  // Traced: an untraced half over the socket, then a traced half.
  const Phase untraced =
      RunPhase(f, config, config.seconds / 2, /*traced=*/false, &ingest, epoch);
  CacheDelta cache;
  double cache_ops = 0.0;
  std::optional<Phase> traced;
  if (spec->kind == Kind::kIngest) {
    const ServeStats before = f.server->Snapshot();
    traced = RunPhase(f, config, config.seconds / 2, true, &ingest, epoch);
    const ServeStats after = f.server->Snapshot();
    cache = DeltaOf(before.cache, after.cache, before.corpus_bytes_read,
                    after.corpus_bytes_read);
    cache_ops =
        static_cast<double>(after.requests_total - before.requests_total);
  } else {
    // The in-process reader gets the same warm start the server had.
    for (const BugScenario& scenario : f.scenarios) {
      ASSIGN_OR_RETURN(ScenarioPrep prep, ScenarioPrep::Compute(scenario));
      f.preps.push_back(std::make_shared<const ScenarioPrep>(std::move(prep)));
    }
    SpanLog warm_log(epoch);
    for (size_t i = 0; i < f.entries.size(); ++i) {
      RETURN_IF_ERROR(InProcessOp(f, i, &warm_log, 0));
    }
    const ChunkCacheStats before = f.reader->cache_stats();
    const uint64_t bytes_before = f.reader->bytes_read();
    traced = RunPhase(f, config, config.seconds / 2, true, &ingest, epoch);
    cache = DeltaOf(before, f.reader->cache_stats(), bytes_before,
                    f.reader->bytes_read());
    cache_ops = static_cast<double>(traced->op_ms.size());
  }
  finish({&untraced, &*traced});
  if (!config.spans_path.empty()) {
    RETURN_IF_ERROR(WriteSpans(config.spans_path, traced->logs));
  }
  result.metrics =
      LayerMetrics(f, untraced, *traced, cache, cache_ops, ingest, log);
  // The layer spans must account for the op: whatever they leave
  // uncovered is benchmark bookkeeping, and more than 5% of the op means
  // a layer is missing from the breakdown.
  const double unattributed = result.Find("bench.unattributed_pct")->value;
  if (unattributed > 5.0) {
    std::fprintf(log, "check failed: spans leave %.2f%% of op time "
                 "unattributed (limit 5%%)\n", unattributed);
    result.correct = false;
  }
  return result;
}

}  // namespace ddr::bench
