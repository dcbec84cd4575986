// ddr-trace: inspect, verify, and replay DDRT trace files and DDRC
// corpus bundles.
//
//   ddr-trace info <file>                     header, metadata, chunk
//                                             table, sizes
//   ddr-trace dump <file> [--from N] [--count M]
//                                             print events; reads only the
//                                             chunks covering the range
//   ddr-trace verify <file>                   full structural/CRC check
//   ddr-trace replay <file> [--target N]      rebuild the scenario named in
//                                             metadata and replay under the
//                                             recorded model (from log
//                                             event N when --target is
//                                             given; log-driven models only)
//   ddr-trace record <scenario> <file> [--model NAME] [--chunk N]
//                                             run a bundled bug scenario and
//                                             save its recording
//   ddr-trace corpus build  <file> [--scenarios a,b] [--models m1,m2]
//                           [--threads N] [--chunk N]
//                           [--report path]   batch-record every scenario x
//                                             model into one DDRC bundle
//   ddr-trace corpus info   <file>            list bundle entries
//   ddr-trace corpus verify <file>            verify every embedded trace
//   ddr-trace corpus replay <file> [--threads N] [--report path]
//                                             replay + score every entry
//   ddr-trace corpus append <file> [build flags]
//                                             record only the scenario x
//                                             model cells missing from the
//                                             bundle and append them
//   ddr-trace corpus merge  <out> <in>... [--on-collision fail|skip|rename-suffix]
//                                             combine bundles, copying
//                                             images byte-for-byte
//   ddr-trace corpus compact <file> --drop a,b
//                                             drop named entries, rewrite
//                                             the survivors
//   ddr-trace serve <file> --socket <path>|--port <n> [--threads N]
//                           [--queue N] [--watch-ms N]
//                                             long-lived corpus server:
//                                             concurrent clients, live
//                                             append pickup, SIGTERM drain
//   ddr-trace query <cmd> [name] --socket <path>|--host H --port <n>
//                           [--model NAME]    one request against a running
//                                             server (info|list|verify|
//                                             replay|stats|refresh|shutdown)
//
// Exit status: 0 on success/OK, 1 on usage error, 2 on a failed
// verification or replay.

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/analysis/sched/models.h"
#include "src/apps/scenarios.h"
#include "src/core/batch_runner.h"
#include "src/server/corpus_client.h"
#include "src/server/corpus_server.h"
#include "src/trace/corpus.h"
#include "src/trace/trace_reader.h"
#include "src/util/cli_flags.h"
#include "src/util/string_util.h"

namespace ddr {
namespace {

// ------------------------------------------------------------ flag tables
//
// Every (sub)command declares its full flag vocabulary here and runs the
// argument vector through RequireKnownFlags before doing anything else,
// so a typo'd flag is a loud usage error on every command — `corpus
// merge` used to be the only one that checked.

constexpr CliFlag kReadFlags[] = {{"--io", true}, {"--cache-mb", true}};
constexpr CliFlag kDumpFlags[] = {{"--io", true},
                                  {"--cache-mb", true},
                                  {"--from", true},
                                  {"--count", true}};
constexpr CliFlag kReplayFlags[] = {{"--io", true},
                                    {"--cache-mb", true},
                                    {"--target", true}};
constexpr CliFlag kRecordFlags[] = {{"--model", true}, {"--chunk", true}};
// `corpus build` and `corpus append` take the same flags.
constexpr CliFlag kCorpusBuildFlags[] = {
    {"--scenarios", true}, {"--models", true}, {"--threads", true},
    {"--chunk", true},     {"--report", true}, {"--io", true},
    {"--cache-mb", true}};
constexpr CliFlag kCorpusReplayFlags[] = {{"--threads", true},
                                          {"--report", true},
                                          {"--io", true},
                                          {"--cache-mb", true}};
constexpr CliFlag kCorpusMergeFlags[] = {{"--on-collision", true},
                                         {"--io", true},
                                         {"--cache-mb", true}};
constexpr CliFlag kCorpusCompactFlags[] = {{"--drop", true},
                                           {"--io", true},
                                           {"--cache-mb", true}};
constexpr CliFlag kServeFlags[] = {
    {"--socket", true}, {"--port", true},     {"--threads", true},
    {"--queue", true},  {"--watch-ms", true}, {"--io", true},
    {"--cache-mb", true}};
constexpr CliFlag kQueryFlags[] = {
    {"--socket", true},     {"--host", true},    {"--port", true},
    {"--model", true},      {"--timeout-ms", true}, {"--retries", true},
    {"--backoff-ms", true}};
constexpr CliFlag kSchedListFlags[] = {{"--format", true}};
constexpr CliFlag kSchedExploreFlags[] = {{"--budget", true},
                                          {"--preempt", true},
                                          {"--seed", true},
                                          {"--format", true}};
constexpr CliFlag kSchedReplayFlags[] = {{"--sched", true},
                                         {"--format", true}};

void PrintUsage() {
  std::fprintf(stderr,
               "usage: ddr-trace <command> <file> [options]\n"
               "  info   <file>                   show metadata and layout\n"
               "  dump   <file> [--from N] [--count M]   print events\n"
               "  verify <file>                   verify CRCs and structure\n"
               "  replay <file> [--target N]      replay the recording\n"
               "  record <scenario> <file> [--model NAME] [--chunk N]\n"
               "  corpus build  <file> [--scenarios a,b] [--models m1,m2]\n"
               "                [--threads N] [--chunk N] [--report path]\n"
               "  corpus info   <file>\n"
               "  corpus verify <file>\n"
               "  corpus replay <file> [--threads N] [--report path]\n"
               "  corpus append <file> [build flags]\n"
               "                record + journal only missing cells "
               "(O(delta) bytes)\n"
               "  corpus merge  <out> <in>... [--on-collision "
               "fail|skip|rename-suffix]\n"
               "  corpus compact <file> [--drop name1,name2]\n"
               "                drop entries and/or squash the journal "
               "to one generation\n"
               "  serve  <file> --socket <path>|--port <n> [--threads N] "
               "[--queue N] [--watch-ms N]\n"
               "                serve the bundle to concurrent clients until "
               "SIGTERM/SIGINT\n"
               "  query  <cmd> [name] --socket <path>|--host H --port <n> "
               "[--model NAME]\n"
               "                [--timeout-ms N] [--retries N] "
               "[--backoff-ms N]\n"
               "                cmd: info list verify replay stats refresh "
               "shutdown\n"
               "                exit 3 = deadline exceeded (server did not "
               "answer in --timeout-ms)\n"
               "  sched  list [--format json]\n"
               "  sched  explore [model...] [--budget N] [--preempt K] "
               "[--seed S] [--format json]\n"
               "                explore interleavings of the named models "
               "(default: the clean\n"
               "                subsystem models); a finding prints "
               "DDR_SCHED=<string> and exits 2\n"
               "  sched  replay <model> --sched <string> [--format json]\n"
               "                re-run one recorded interleaving "
               "bit-identically\n"
               "         scenarios: sum msgdrop overflow hypertable;\n"
               "         models: perfect value output output-heavy failure "
               "debug-rcse\n"
               "  read-side commands (info|dump|verify|replay|corpus "
               "info|verify|replay) also take\n"
               "         --io pread|mmap          I/O backend (default: "
               "mmap)\n"
               "         --cache-mb N             decoded-chunk cache budget "
               "(default: 64)\n");
}

// Enforces a command's flag table; a typo'd or unsupported flag is a
// usage error, never a silent no-op.
void RequireKnownFlags(int argc, char** argv, std::span<const CliFlag> known) {
  const Status checked = CheckKnownFlags(argc, argv, /*start=*/2, known);
  if (!checked.ok()) {
    std::fprintf(stderr, "ddr-trace: %s\n", checked.ToString().c_str());
    PrintUsage();
    std::exit(1);
  }
}

// Flag values accept both "--flag value" and "--flag=value".
const char* FlagValue(int argc, char** argv, const char* flag) {
  return CliFlagValue(argc, argv, /*start=*/2, flag);
}

uint64_t ParseFlag(int argc, char** argv, const char* flag, uint64_t fallback) {
  const char* text = FlagValue(argc, argv, flag);
  if (text == nullptr) {
    return fallback;
  }
  auto value = ParseCliUint64(text);
  if (!value.ok()) {
    std::fprintf(stderr, "ddr-trace: invalid value '%s' for %s\n", text, flag);
    std::exit(1);
  }
  return *value;
}

// An int-typed flag: a value above INT_MAX is the same usage error as any
// other junk, never a silent wrap through static_cast<int>.
int ParseIntFlag(int argc, char** argv, const char* flag, int fallback) {
  const uint64_t value =
      ParseFlag(argc, argv, flag, static_cast<uint64_t>(fallback));
  if (value > static_cast<uint64_t>(std::numeric_limits<int>::max())) {
    std::fprintf(stderr, "ddr-trace: invalid value '%s' for %s\n",
                 FlagValue(argc, argv, flag), flag);
    std::exit(1);
  }
  return static_cast<int>(value);
}

bool HasFlag(int argc, char** argv, const char* flag) {
  return HasCliFlag(argc, argv, /*start=*/2, flag);
}

const char* ParseStringFlag(int argc, char** argv, const char* flag,
                            const char* fallback) {
  const char* text = FlagValue(argc, argv, flag);
  return text != nullptr ? text : fallback;
}

// --cache-mb with the shift overflow closed: strtoull alone accepts
// values (up to 2^64-1) whose << 20 silently wraps to a bogus budget, so
// megabyte counts above the shiftable ceiling are rejected like any other
// junk value instead of wrapping.
uint64_t ParseCacheBytesFlag(int argc, char** argv) {
  const uint64_t mb =
      ParseFlag(argc, argv, "--cache-mb", kDefaultChunkCacheBytes >> 20);
  if (mb > (~uint64_t{0} >> 20)) {
    std::fprintf(stderr,
                 "ddr-trace: --cache-mb %llu overflows a byte budget\n",
                 static_cast<unsigned long long>(mb));
    std::exit(1);
  }
  return mb << 20;
}

// Shared read-side flags: --io pread|mmap and --cache-mb N.
RandomAccessFileOptions IoOptionsFromFlags(int argc, char** argv) {
  RandomAccessFileOptions io;
  if (const char* name = FlagValue(argc, argv, "--io")) {
    auto backend = ParseIoBackend(name);
    if (!backend.ok()) {
      std::fprintf(stderr, "ddr-trace: %s\n", backend.status().ToString().c_str());
      std::exit(1);
    }
    io.backend = *backend;
  }
  return io;
}

TraceReaderOptions ReaderOptionsFromFlags(int argc, char** argv) {
  TraceReaderOptions options;
  options.io = IoOptionsFromFlags(argc, argv);
  // Same default as the corpus commands (64 MiB), so the usage text holds
  // for every read-side command; --cache-mb 0 disables.
  const uint64_t cache_bytes = ParseCacheBytesFlag(argc, argv);
  if (cache_bytes > 0) {
    options.cache = std::make_shared<ChunkCache>(cache_bytes);
  }
  return options;
}

CorpusReaderOptions CorpusOptionsFromFlags(int argc, char** argv) {
  CorpusReaderOptions options;
  options.io = IoOptionsFromFlags(argc, argv);
  options.cache_bytes = ParseCacheBytesFlag(argc, argv);
  return options;
}

void PrintServeStats(const char* label, const std::string& backend,
                     uint64_t cold_bytes, const ChunkCacheStats& cache) {
  std::printf(
      "%s: io %s, %llu cold bytes; cache %llu/%llu hits (%.1f%% hit rate), "
      "%llu insertions, %llu evictions, %llu bytes resident\n",
      label, backend.c_str(), static_cast<unsigned long long>(cold_bytes),
      static_cast<unsigned long long>(cache.hits),
      static_cast<unsigned long long>(cache.hits + cache.misses),
      100.0 * cache.hit_rate(),
      static_cast<unsigned long long>(cache.insertions),
      static_cast<unsigned long long>(cache.evictions),
      static_cast<unsigned long long>(cache.bytes_in_use));
}

std::vector<std::string> SplitCommaList(const std::string& text) {
  std::vector<std::string> out;
  for (std::string& piece : StrSplit(text, ',')) {
    if (!piece.empty()) {
      out.push_back(std::move(piece));
    }
  }
  return out;
}

int Info(const std::string& path, int argc, char** argv) {
  auto reader_or = TraceReader::Open(path, ReaderOptionsFromFlags(argc, argv));
  if (!reader_or.ok()) {
    std::fprintf(stderr, "ddr-trace: %s\n", reader_or.status().ToString().c_str());
    return 2;
  }
  TraceReader& reader = *reader_or;
  const TraceMetadata& meta = reader.metadata();
  std::printf("file:              %s\n", path.c_str());
  std::printf("file size:         %llu bytes\n",
              static_cast<unsigned long long>(reader.file_size()));
  std::printf("io backend:        %s\n",
              std::string(IoBackendName(reader.io_backend())).c_str());
  std::printf("model:             %s\n", meta.model.c_str());
  std::printf("scenario:          %s\n",
              meta.scenario.empty() ? "(unknown)" : meta.scenario.c_str());
  std::printf("events:            %llu (%llu intercepted, %llu recorded)\n",
              static_cast<unsigned long long>(meta.event_count),
              static_cast<unsigned long long>(meta.intercepted_events),
              static_cast<unsigned long long>(meta.recorded_events));
  std::printf("bytes/event:       %.2f on disk (%llu recorded bytes in-sim)\n",
              meta.event_count == 0
                  ? 0.0
                  : static_cast<double>(reader.file_size()) /
                        static_cast<double>(meta.event_count),
              static_cast<unsigned long long>(meta.recorded_bytes));
  std::printf("overhead:          %lld ns on %lld ns cpu\n",
              static_cast<long long>(meta.overhead_nanos),
              static_cast<long long>(meta.cpu_nanos));
  std::printf("chunks:            %zu (%llu events/chunk)\n",
              reader.chunks().size(),
              static_cast<unsigned long long>(meta.events_per_chunk));
  const FailureSnapshot& snapshot = reader.snapshot();
  if (snapshot.has_failure) {
    std::printf("failure:           %s \"%s\" on node %u (fp %016llx)\n",
                std::string(FailureKindName(snapshot.kind)).c_str(),
                snapshot.message.c_str(), snapshot.node,
                static_cast<unsigned long long>(snapshot.failure_fingerprint));
  } else {
    std::printf("failure:           none (clean run)\n");
  }
  std::printf("output:            %llu records, fp %016llx\n",
              static_cast<unsigned long long>(snapshot.output_count),
              static_cast<unsigned long long>(snapshot.output_fingerprint));
  return 0;
}

int Dump(const std::string& path, uint64_t from, uint64_t count, int argc,
         char** argv) {
  auto reader_or = TraceReader::Open(path, ReaderOptionsFromFlags(argc, argv));
  if (!reader_or.ok()) {
    std::fprintf(stderr, "ddr-trace: %s\n", reader_or.status().ToString().c_str());
    return 2;
  }
  TraceReader& reader = *reader_or;
  if (count == 0) {
    count = reader.total_events() > from ? reader.total_events() - from : 0;
  }
  auto events_or = reader.ReadEvents(from, count);
  if (!events_or.ok()) {
    std::fprintf(stderr, "ddr-trace: %s\n", events_or.status().ToString().c_str());
    return 2;
  }
  uint64_t index = from;
  for (const Event& event : *events_or) {
    std::printf("%8llu  %s\n", static_cast<unsigned long long>(index++),
                event.ToString().c_str());
  }
  std::fprintf(stderr, "dump: %zu events, %llu of %llu file bytes read\n",
               events_or->size(),
               static_cast<unsigned long long>(reader.bytes_read()),
               static_cast<unsigned long long>(reader.file_size()));
  return 0;
}

int VerifyFile(const std::string& path, int argc, char** argv) {
  auto reader = TraceReader::Open(path, ReaderOptionsFromFlags(argc, argv));
  const Status status = reader.ok() ? reader->Verify() : reader.status();
  if (!status.ok()) {
    std::fprintf(stderr, "ddr-trace: verify FAILED: %s\n",
                 status.ToString().c_str());
    return 2;
  }
  std::printf("%s: OK\n", path.c_str());
  return 0;
}

int ReplayFile(const std::string& path, uint64_t target, bool has_target,
               int argc, char** argv) {
  auto reader_or = TraceReader::Open(path, ReaderOptionsFromFlags(argc, argv));
  if (!reader_or.ok()) {
    std::fprintf(stderr, "ddr-trace: %s\n", reader_or.status().ToString().c_str());
    return 2;
  }
  TraceReader& reader = *reader_or;
  const std::string scenario_name = reader.metadata().scenario;
  auto scenario_or = FindBugScenario(scenario_name);
  if (!scenario_or.ok()) {
    std::fprintf(stderr,
                 "ddr-trace: unknown scenario '%s' in trace metadata; cannot "
                 "rebuild the program\n",
                 scenario_name.c_str());
    return 2;
  }
  const BugScenario& scenario = *scenario_or;
  // The replay mode follows the recording's model exactly as `corpus
  // replay` scores it: log-driven for perfect/value/RCSE logs, inference
  // (with the scenario's hints and budget) for output/failure logs.
  auto model_or = ParseDeterminismModel(reader.metadata().model);
  if (!model_or.ok()) {
    std::fprintf(stderr, "ddr-trace: %s\n", model_or.status().ToString().c_str());
    return 2;
  }
  const ReplayMode mode = ReplayModeFor(*model_or);
  if (has_target && !IsLogDriven(mode)) {
    std::fprintf(stderr,
                 "ddr-trace: --target needs a log-driven recording; '%s' "
                 "traces replay by inference, which cannot start from a "
                 "checkpoint\n",
                 reader.metadata().model.c_str());
    return 1;
  }
  auto recording_or = reader.ReadRecordedExecution();
  if (!recording_or.ok()) {
    std::fprintf(stderr, "ddr-trace: %s\n",
                 recording_or.status().ToString().c_str());
    return 2;
  }
  Replayer replayer(ReplayTargetFor(scenario), scenario.inference_budget);

  ReplayResult result;
  if (has_target) {
    auto partial = replayer.PartialReplay(*recording_or, target, mode);
    if (!partial.ok()) {
      // The mode is log-driven (checked above), so the target is at fault.
      std::fprintf(stderr, "ddr-trace: %s\n", partial.status().ToString().c_str());
      return 1;
    }
    result = std::move(*partial);
  } else {
    result = replayer.Replay(*recording_or, mode);
  }

  std::printf("scenario:            %s\n", scenario_name.c_str());
  std::printf("replayed events:     %zu%s\n", result.trace.size(),
              result.partial ? " (suffix only)" : "");
  if (result.partial) {
    std::printf("fast-forwarded to:   event %llu (%s)\n",
                static_cast<unsigned long long>(result.started_from_event),
                result.fast_forward_verified ? "checkpoint verified"
                                             : "unverified");
  }
  std::printf("divergences:         %llu\n",
              static_cast<unsigned long long>(result.divergences));
  std::printf("failure reproduced:  %s\n",
              result.failure_reproduced ? "yes" : "no");
  return result.failure_reproduced || !reader.snapshot().has_failure ? 0 : 2;
}

int RecordScenario(const std::string& scenario_name, const std::string& path,
                   int argc, char** argv) {
  auto scenario_or = FindBugScenario(scenario_name);
  if (!scenario_or.ok()) {
    std::fprintf(stderr, "ddr-trace: unknown scenario '%s'\n",
                 scenario_name.c_str());
    return 1;
  }

  const std::string model_name =
      ParseStringFlag(argc, argv, "--model", "perfect");
  auto model_or = ParseDeterminismModel(model_name);
  if (!model_or.ok()) {
    std::fprintf(stderr, "ddr-trace: unknown model '%s'\n", model_name.c_str());
    return 1;
  }
  const DeterminismModel model = *model_or;

  ExperimentHarness harness(std::move(*scenario_or));
  const Status prepared = harness.Prepare();
  if (!prepared.ok()) {
    std::fprintf(stderr, "ddr-trace: %s\n", prepared.ToString().c_str());
    return 2;
  }
  const RecordedExecution recording = harness.Record(model);

  TraceWriteOptions options;
  options.events_per_chunk = ParseFlag(argc, argv, "--chunk", 512);
  const Status saved = harness.SaveRecording(recording, path, options);
  if (!saved.ok()) {
    std::fprintf(stderr, "ddr-trace: %s\n", saved.ToString().c_str());
    return 2;
  }
  std::printf("recorded %s/%s: %zu events -> %s\n", scenario_name.c_str(),
              model_name.c_str(), recording.log.size(), path.c_str());
  return 0;
}

// ------------------------------------------------------------------ corpus

void PrintBatchCells(const BatchReport& report) {
  std::printf("%-28s %-12s %10s %9s %5s %6s  %s\n", "recording", "model",
              "log bytes", "overhead", "DF", "repro", "diagnosed");
  for (const BatchCell& cell : report.cells) {
    std::printf("%-28s %-12s %10llu %8.2fx %5.2f %6s  %s\n",
                cell.recording_name.c_str(), cell.row.model_name.c_str(),
                static_cast<unsigned long long>(cell.row.log_bytes),
                cell.row.overhead_multiplier, cell.row.fidelity,
                cell.row.failure_reproduced ? "yes" : "no",
                cell.row.diagnosed_cause.value_or("-").c_str());
  }
}

int WriteReportIfRequested(const BatchReport& report, int argc, char** argv) {
  const char* report_path = ParseStringFlag(argc, argv, "--report", nullptr);
  if (report_path == nullptr) {
    return 0;
  }
  const Status written = report.WriteJsonLines(report_path);
  if (!written.ok()) {
    std::fprintf(stderr, "ddr-trace: %s\n", written.ToString().c_str());
    return 2;
  }
  std::printf("report: %s (%zu rows)\n", report_path, report.cells.size());
  return 0;
}

int CorpusBuild(const std::string& path, bool append, int argc, char** argv) {
  if (append) {
    // Appending to nothing is a spelled-out build, not an implicit one: a
    // typo'd path should not quietly mint a fresh bundle.
    std::ifstream probe(path, std::ios::binary);
    if (!probe.good()) {
      std::fprintf(stderr,
                   "ddr-trace: corpus append: no bundle at %s (use 'corpus "
                   "build' to create one)\n",
                   path.c_str());
      return 1;
    }
  }
  // Scenario selection: all registered scenarios unless --scenarios names
  // a subset.
  std::vector<BugScenario> scenarios;
  const char* scenario_list = ParseStringFlag(argc, argv, "--scenarios", nullptr);
  if (scenario_list == nullptr) {
    scenarios = AllBugScenarios();
  } else {
    for (const std::string& name : SplitCommaList(scenario_list)) {
      auto scenario = FindBugScenario(name);
      if (!scenario.ok()) {
        std::fprintf(stderr, "ddr-trace: %s\n",
                     scenario.status().ToString().c_str());
        return 1;
      }
      scenarios.push_back(std::move(*scenario));
    }
  }

  BatchOptions options;
  // Default model pair: the fidelity extremes with direct (cheap) replay.
  for (const std::string& name : SplitCommaList(
           ParseStringFlag(argc, argv, "--models", "perfect,value"))) {
    auto model = ParseDeterminismModel(name);
    if (!model.ok()) {
      std::fprintf(stderr, "ddr-trace: %s\n", model.status().ToString().c_str());
      return 1;
    }
    options.models.push_back(*model);
  }
  options.threads = ParseIntFlag(argc, argv, "--threads", 1);
  options.corpus_path = path;
  options.resume = append;
  if (append) {
    // --io selects the backend used to read the existing bundle;
    // --cache-mb is validated for consistency with the other corpus
    // commands (append decodes nothing, so it has no cache to size).
    options.resume_io = IoOptionsFromFlags(argc, argv);
    ParseCacheBytesFlag(argc, argv);
  }
  options.trace_options.events_per_chunk = ParseFlag(argc, argv, "--chunk", 512);

  auto report = BatchRunner(std::move(scenarios), options).Run();
  if (!report.ok()) {
    std::fprintf(stderr, "ddr-trace: %s\n", report.status().ToString().c_str());
    return 2;
  }
  PrintBatchCells(*report);
  std::printf("%s %s: %zu recordings, %llu bytes written%s\n",
              append ? "appended to" : "built", path.c_str(),
              report->cells.size(),
              static_cast<unsigned long long>(report->corpus_bytes_written),
              append && report->cells.empty() ? " (nothing missing)" : "");
  return WriteReportIfRequested(*report, argc, argv);
}

int CorpusMerge(const std::string& output, int argc, char** argv) {
  // Positional arguments after `corpus merge <out>`: every token that is
  // not a flag (or a flag's value) is an input bundle path — an input
  // after `--io mmap` still merges (RequireKnownFlags already rejected
  // anything unrecognized, so a typo can never be silently dropped).
  const std::vector<std::string> inputs =
      PositionalArgs(argc, argv, /*start=*/4, kCorpusMergeFlags);
  if (inputs.empty()) {
    std::fprintf(stderr,
                 "ddr-trace: corpus merge needs at least one input bundle\n");
    PrintUsage();
    return 1;
  }
  MergeCorporaOptions options;
  options.io = IoOptionsFromFlags(argc, argv);
  if (const char* policy = FlagValue(argc, argv, "--on-collision")) {
    auto parsed = ParseNameCollisionPolicy(policy);
    if (!parsed.ok()) {
      std::fprintf(stderr, "ddr-trace: %s\n", parsed.status().ToString().c_str());
      return 1;
    }
    options.on_collision = *parsed;
  }
  auto stats = MergeCorpora(inputs, output, options);
  if (!stats.ok()) {
    std::fprintf(stderr, "ddr-trace: %s\n", stats.status().ToString().c_str());
    return 2;
  }
  std::printf(
      "merged %zu bundle(s) -> %s: %zu entries (%zu skipped, %zu renamed, "
      "on-collision %s)\n",
      inputs.size(), output.c_str(), stats->added, stats->skipped,
      stats->renamed,
      std::string(NameCollisionPolicyName(options.on_collision)).c_str());
  return 0;
}

int CorpusCompact(const std::string& path, int argc, char** argv) {
  // Without --drop, compact is the journal squash: rewrite the live
  // entries into canonical single-shot form, reclaiming dead bytes.
  std::vector<std::string> drop;
  if (const char* drop_list = ParseStringFlag(argc, argv, "--drop", nullptr)) {
    drop = SplitCommaList(drop_list);
    if (drop.empty()) {
      std::fprintf(stderr, "ddr-trace: --drop names nothing to drop\n");
      return 1;
    }
  }
  auto stats = CompactCorpus(path, drop, IoOptionsFromFlags(argc, argv));
  if (!stats.ok()) {
    std::fprintf(stderr, "ddr-trace: %s\n", stats.status().ToString().c_str());
    return 2;
  }
  std::printf("compacted %s: dropped %zu, kept %zu entries\n", path.c_str(),
              stats->dropped, stats->added);
  return 0;
}

// The "format:" line of `corpus info` and `query info`.
std::string CorpusFormatName(uint32_t version) {
  return version == kCorpusFormatVersionLegacy
             ? "v1 (legacy: run 'corpus compact' before appending)"
             : StrPrintf("v%u", version);
}

int CorpusInfo(const std::string& path, int argc, char** argv) {
  auto corpus = CorpusReader::Open(path, CorpusOptionsFromFlags(argc, argv));
  if (!corpus.ok()) {
    std::fprintf(stderr, "ddr-trace: %s\n", corpus.status().ToString().c_str());
    return 2;
  }
  std::printf("corpus:            %s\n", path.c_str());
  std::printf("file size:         %llu bytes\n",
              static_cast<unsigned long long>(corpus->file_size()));
  std::printf("io backend:        %s\n",
              std::string(IoBackendName(corpus->io_backend())).c_str());
  std::printf("format:            %s\n",
              CorpusFormatName(corpus->format_version()).c_str());
  std::printf("generations:       %u\n", corpus->generation());
  std::printf("dead bytes:        %llu (%.1f%% of file%s)\n",
              static_cast<unsigned long long>(corpus->dead_bytes()),
              corpus->file_size() == 0
                  ? 0.0
                  : 100.0 * static_cast<double>(corpus->dead_bytes()) /
                        static_cast<double>(corpus->file_size()),
              corpus->dead_bytes() != 0 ? "; run 'corpus compact' to reclaim"
                                        : "");
  // The flock probe: an in-place appender holds the writer lock right
  // now. Purely informational — readers never block on the writer.
  const bool writer_active = CorpusWriterActive(path).value_or(false);
  std::printf("writer:            %s\n",
              writer_active ? "active (in-place append holds the flock)"
                            : "none");
  std::printf("entries:           %zu\n", corpus->entry_count());
  std::printf("%-28s %-14s %-12s %10s %10s\n", "name", "scenario", "model",
              "events", "bytes");
  for (const CorpusEntry& entry : corpus->entries()) {
    std::printf("%-28s %-14s %-12s %10llu %10llu\n", entry.name.c_str(),
                entry.scenario.c_str(), entry.model.c_str(),
                static_cast<unsigned long long>(entry.event_count),
                static_cast<unsigned long long>(entry.length));
  }
  return 0;
}

int CorpusVerify(const std::string& path, int argc, char** argv) {
  auto corpus = CorpusReader::Open(path, CorpusOptionsFromFlags(argc, argv));
  if (!corpus.ok()) {
    std::fprintf(stderr, "ddr-trace: %s\n", corpus.status().ToString().c_str());
    return 2;
  }
  const Status verified = corpus->VerifyAll();
  if (!verified.ok()) {
    std::fprintf(stderr, "ddr-trace: verify FAILED: %s\n",
                 verified.ToString().c_str());
    return 2;
  }
  std::printf("%s: OK (%zu entries)\n", path.c_str(), corpus->entry_count());
  PrintServeStats("verify", std::string(IoBackendName(corpus->io_backend())),
                  corpus->bytes_read(), corpus->cache_stats());
  return 0;
}

int CorpusReplay(const std::string& path, int argc, char** argv) {
  ReplayCorpusOptions options;
  options.threads = ParseIntFlag(argc, argv, "--threads", 1);
  options.reader = CorpusOptionsFromFlags(argc, argv);
  auto report = ReplayCorpus(path, AllBugScenarios(), options);
  if (!report.ok()) {
    std::fprintf(stderr, "ddr-trace: %s\n", report.status().ToString().c_str());
    return 2;
  }
  PrintBatchCells(*report);
  std::printf("replayed %zu recordings from %s\n", report->cells.size(),
              path.c_str());
  PrintServeStats("serve", report->io_backend, report->corpus_bytes_read,
                  report->cache_stats);
  return WriteReportIfRequested(*report, argc, argv);
}

// ------------------------------------------------------------ serve/query

// SIGTERM/SIGINT flip this flag; the serve loop polls it. Everything
// heavier (the actual drain) happens on the main thread afterwards, so
// the handler stays async-signal-safe.
volatile std::sig_atomic_t g_serve_stop = 0;

void HandleServeSignal(int) { g_serve_stop = 1; }

int Serve(const std::string& path, int argc, char** argv) {
  CorpusServerOptions options;
  options.reader = CorpusOptionsFromFlags(argc, argv);
  if (const char* socket = ParseStringFlag(argc, argv, "--socket", nullptr)) {
    options.socket_path = socket;
  }
  if (FlagValue(argc, argv, "--port") != nullptr) {
    const uint64_t port = ParseFlag(argc, argv, "--port", 0);
    if (port > 65535) {
      std::fprintf(stderr, "ddr-trace: --port %llu is not a TCP port\n",
                   static_cast<unsigned long long>(port));
      return 1;
    }
    options.tcp_port = static_cast<int>(port);
  }
  if (options.socket_path.empty() == (options.tcp_port < 0)) {
    std::fprintf(stderr,
                 "ddr-trace: serve needs exactly one endpoint: --socket "
                 "<path> or --port <n>\n");
    PrintUsage();
    return 1;
  }
  options.workers = ParseIntFlag(argc, argv, "--threads", 4);
  options.queue_capacity = ParseFlag(argc, argv, "--queue", 32);
  options.watch_interval_ms = ParseIntFlag(argc, argv, "--watch-ms", 0);

  auto server = CorpusServer::Start(path, options);
  if (!server.ok()) {
    std::fprintf(stderr, "ddr-trace: %s\n", server.status().ToString().c_str());
    return 2;
  }
  if (!options.socket_path.empty()) {
    std::printf("serving %s at unix socket %s (%d workers, queue %zu%s)\n",
                path.c_str(), (*server)->socket_path().c_str(),
                options.workers, options.queue_capacity,
                options.watch_interval_ms > 0 ? ", watching for appends" : "");
  } else {
    std::printf("serving %s at 127.0.0.1:%u (%d workers, queue %zu%s)\n",
                path.c_str(), (*server)->tcp_port(), options.workers,
                options.queue_capacity,
                options.watch_interval_ms > 0 ? ", watching for appends" : "");
  }
  std::fflush(stdout);

  std::signal(SIGTERM, HandleServeSignal);
  std::signal(SIGINT, HandleServeSignal);
  // running() goes false when a client sends `shutdown`; the flag when a
  // signal lands. Either way the drain below finishes admitted work first.
  while (g_serve_stop == 0 && (*server)->running()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  (*server)->RequestStop();
  (*server)->Wait();

  const ServeStats stats = (*server)->Snapshot();
  std::printf(
      "drained: %llu requests from %llu clients, %llu bytes served, "
      "%llu overloads, %llu refreshes (%llu generations picked up)\n",
      static_cast<unsigned long long>(stats.requests_total),
      static_cast<unsigned long long>(stats.clients_total),
      static_cast<unsigned long long>(stats.bytes_served),
      static_cast<unsigned long long>(stats.overload_rejections),
      static_cast<unsigned long long>(stats.refreshes),
      static_cast<unsigned long long>(stats.generations_picked_up));
  PrintServeStats("serve", "server", stats.corpus_bytes_read, stats.cache);
  return 0;
}

void PrintServeCell(const BatchCell& cell) {
  BatchReport report;
  report.cells.push_back(cell);
  PrintBatchCells(report);
}

// Query exit codes: 0 ok, 1 usage, 2 failure, 3 deadline exceeded — a
// script can tell "the server answered with an error" apart from "the
// server did not answer in time".
int QueryFailure(const Status& status) {
  std::fprintf(stderr, "ddr-trace: %s\n", status.ToString().c_str());
  return status.code() == StatusCode::kDeadlineExceeded ? 3 : 2;
}

int Query(int argc, char** argv) {
  auto command = ParseRpcCommand(argv[2]);
  if (!command.ok()) {
    std::fprintf(stderr, "ddr-trace: %s\n",
                 command.status().ToString().c_str());
    PrintUsage();
    return 1;
  }
  // Optional positional operand after the command: the entry name for
  // verify/replay.
  std::string name;
  if (argc > 3 && std::strncmp(argv[3], "--", 2) != 0) {
    name = argv[3];
  }
  const char* socket = ParseStringFlag(argc, argv, "--socket", nullptr);
  const char* port_text = FlagValue(argc, argv, "--port");
  if ((socket != nullptr) == (port_text != nullptr)) {
    std::fprintf(stderr,
                 "ddr-trace: query needs exactly one endpoint: --socket "
                 "<path> or --host H --port <n>\n");
    PrintUsage();
    return 1;
  }
  uint64_t port = 0;
  if (port_text != nullptr) {
    port = ParseFlag(argc, argv, "--port", 0);
    if (port == 0 || port > 65535) {
      std::fprintf(stderr, "ddr-trace: --port %llu is not a TCP port\n",
                   static_cast<unsigned long long>(port));
      return 1;
    }
  }
  CorpusClientOptions client_options;
  client_options.timeout_ms = ParseIntFlag(argc, argv, "--timeout-ms", 0);
  client_options.max_retries = ParseIntFlag(argc, argv, "--retries", 0);
  client_options.backoff_initial_ms = ParseIntFlag(
      argc, argv, "--backoff-ms", client_options.backoff_initial_ms);
  auto client = socket != nullptr
                    ? CorpusClient::ConnectUnixSocket(socket, client_options)
                    : CorpusClient::ConnectTcpSocket(
                          ParseStringFlag(argc, argv, "--host", "127.0.0.1"),
                          static_cast<uint16_t>(port), client_options);
  if (!client.ok()) {
    return QueryFailure(client.status());
  }

  switch (*command) {
    case RpcCommand::kInfo: {
      auto info = client->Info();
      if (!info.ok()) {
        return QueryFailure(info.status());
      }
      std::printf("corpus:            %s\n", info->path.c_str());
      std::printf("file size:         %llu bytes\n",
                  static_cast<unsigned long long>(info->file_size));
      std::printf("io backend:        %s\n", info->io_backend.c_str());
      std::printf("format:            %s\n",
                  CorpusFormatName(info->format_version).c_str());
      std::printf("generations:       %u\n", info->generation);
      std::printf("dead bytes:        %llu\n",
                  static_cast<unsigned long long>(info->dead_bytes));
      std::printf("writer:            %s\n",
                  info->writer_active
                      ? "active (in-place append holds the flock)"
                      : "none");
      std::printf("entries:           %llu\n",
                  static_cast<unsigned long long>(info->entry_count));
      return 0;
    }
    case RpcCommand::kList: {
      auto entries = client->List();
      if (!entries.ok()) {
        return QueryFailure(entries.status());
      }
      std::printf("%-28s %-14s %-12s %10s %10s\n", "name", "scenario",
                  "model", "events", "bytes");
      for (const ServeEntry& entry : *entries) {
        std::printf("%-28s %-14s %-12s %10llu %10llu\n", entry.name.c_str(),
                    entry.scenario.c_str(), entry.model.c_str(),
                    static_cast<unsigned long long>(entry.event_count),
                    static_cast<unsigned long long>(entry.length));
      }
      return 0;
    }
    case RpcCommand::kVerify: {
      auto verified = client->Verify(name);
      if (!verified.ok()) {
        std::fprintf(stderr, "ddr-trace: verify FAILED: %s\n",
                     verified.status().ToString().c_str());
        return verified.status().code() == StatusCode::kDeadlineExceeded ? 3
                                                                         : 2;
      }
      std::printf("%s: OK (%llu %s verified)\n",
                  name.empty() ? "bundle" : name.c_str(),
                  static_cast<unsigned long long>(*verified),
                  *verified == 1 ? "entry" : "entries");
      return 0;
    }
    case RpcCommand::kReplay: {
      if (name.empty()) {
        std::fprintf(stderr, "ddr-trace: query replay needs an entry name\n");
        PrintUsage();
        return 1;
      }
      auto cell =
          client->Replay(name, ParseStringFlag(argc, argv, "--model", ""));
      if (!cell.ok()) {
        return QueryFailure(cell.status());
      }
      PrintServeCell(*cell);
      return 0;
    }
    case RpcCommand::kStats: {
      auto stats = client->Stats();
      if (!stats.ok()) {
        return QueryFailure(stats.status());
      }
      std::printf("requests:          %llu",
                  static_cast<unsigned long long>(stats->requests_total));
      for (size_t c = 0; c < kRpcCommandCount; ++c) {
        if (stats->requests_by_command[c] != 0) {
          std::printf(" %s=%llu",
                      std::string(RpcCommandName(static_cast<RpcCommand>(c)))
                          .c_str(),
                      static_cast<unsigned long long>(
                          stats->requests_by_command[c]));
        }
      }
      std::printf("\n");
      std::printf("bytes served:      %llu\n",
                  static_cast<unsigned long long>(stats->bytes_served));
      std::printf("overloads:         %llu\n",
                  static_cast<unsigned long long>(stats->overload_rejections));
      std::printf("refreshes:         %llu (%llu generations picked up)\n",
                  static_cast<unsigned long long>(stats->refreshes),
                  static_cast<unsigned long long>(
                      stats->generations_picked_up));
      std::printf("clients:           %llu total, %llu active\n",
                  static_cast<unsigned long long>(stats->clients_total),
                  static_cast<unsigned long long>(stats->clients_active));
      std::printf("generation:        %u (%llu entries)\n", stats->generation,
                  static_cast<unsigned long long>(stats->entry_count));
      PrintServeStats("serve", "server", stats->corpus_bytes_read,
                      stats->cache);
      return 0;
    }
    case RpcCommand::kRefresh: {
      auto refresh = client->Refresh();
      if (!refresh.ok()) {
        return QueryFailure(refresh.status());
      }
      std::printf("refresh: generation %u -> %u, entries %llu -> %llu (%s)\n",
                  refresh->generation_before, refresh->generation_after,
                  static_cast<unsigned long long>(refresh->entries_before),
                  static_cast<unsigned long long>(refresh->entries_after),
                  refresh->picked_up ? "picked up new data" : "no change");
      return 0;
    }
    case RpcCommand::kShutdown: {
      const Status status = client->Shutdown();
      if (!status.ok()) {
        return QueryFailure(status);
      }
      std::printf("shutdown acknowledged; server draining\n");
      return 0;
    }
  }
  return 1;  // unreachable: the switch covers every command
}

// ------------------------------------------------------------------ sched

// --format for the sched subcommands: "text" (default) or "json".
bool SchedWantsJson(int argc, char** argv, bool* json) {
  const char* format = ParseStringFlag(argc, argv, "--format", "text");
  if (std::strcmp(format, "json") == 0) {
    *json = true;
    return true;
  }
  if (std::strcmp(format, "text") == 0) {
    *json = false;
    return true;
  }
  std::fprintf(stderr, "ddr-trace: unknown --format '%s' (text|json)\n",
               format);
  return false;
}

std::string SchedFindingsJson(const std::vector<sched::SchedFinding>& all) {
  std::string out = "[";
  for (size_t i = 0; i < all.size(); ++i) {
    if (i > 0) out += ",";
    out += StrPrintf(
        "{\"kind\":\"%s\",\"message\":\"%s\",\"schedule\":\"%s\"}",
        sched::FindingKindName(all[i].kind),
        JsonEscape(all[i].message).c_str(),
        JsonEscape(all[i].schedule).c_str());
  }
  out += "]";
  return out;
}

int SchedList(int argc, char** argv) {
  bool json = false;
  if (!SchedWantsJson(argc, argv, &json)) return 1;
  for (const sched::SchedModel& model : sched::AllSchedModels()) {
    if (json) {
      std::printf(
          "{\"model\":\"%s\",\"expect\":\"%s\",\"description\":\"%s\"}\n",
          model.name, sched::ExpectName(model.expect),
          JsonEscape(model.description).c_str());
    } else {
      std::printf("%-20s %-16s %s\n", model.name,
                  sched::ExpectName(model.expect), model.description);
    }
  }
  return 0;
}

int SchedExplore(int argc, char** argv) {
  bool json = false;
  if (!SchedWantsJson(argc, argv, &json)) return 1;
  const std::vector<std::string> positionals =
      PositionalArgs(argc, argv, /*start=*/2, kSchedExploreFlags);
  // positionals[0] is "explore"; the rest are model names.
  std::vector<const sched::SchedModel*> models;
  for (size_t i = 1; i < positionals.size(); ++i) {
    const sched::SchedModel* model = sched::FindSchedModel(positionals[i]);
    if (model == nullptr) {
      std::fprintf(stderr,
                   "ddr-trace: unknown sched model '%s' (see: ddr-trace "
                   "sched list)\n",
                   positionals[i].c_str());
      return 1;
    }
    models.push_back(model);
  }
  if (models.empty()) {
    // Default set: the clean subsystem models — the deadlock-free /
    // lost-wakeup-free property CI asserts on every push.
    for (const sched::SchedModel& model : sched::AllSchedModels()) {
      if (model.expect == sched::SchedModel::Expect::kClean) {
        models.push_back(&model);
      }
    }
  }
  const uint64_t budget = ParseFlag(argc, argv, "--budget", 256);
  sched::ExploreOptions options;
  options.random_budget = std::max<uint64_t>(budget / 4, 1);
  options.dfs_budget = budget > options.random_budget
                           ? budget - options.random_budget
                           : 1;
  options.preempt_bound = ParseIntFlag(argc, argv, "--preempt", 2);
  options.seed = ParseFlag(argc, argv, "--seed", 1);

  bool any_findings = false;
  for (const sched::SchedModel* model : models) {
    const sched::ExploreReport report = sched::Explore(model->body, options);
    if (!report.findings.empty()) any_findings = true;
    if (json) {
      std::printf(
          "{\"model\":\"%s\",\"expect\":\"%s\",\"runs\":%llu,"
          "\"dfs_runs\":%llu,\"random_runs\":%llu,\"dfs_exhausted\":%s,"
          "\"preempt_bound\":%d,\"findings\":%s}\n",
          model->name, sched::ExpectName(model->expect),
          static_cast<unsigned long long>(report.runs),
          static_cast<unsigned long long>(report.dfs_runs),
          static_cast<unsigned long long>(report.random_runs),
          report.dfs_exhausted ? "true" : "false", options.preempt_bound,
          SchedFindingsJson(report.findings).c_str());
      continue;
    }
    std::printf("sched explore: %s: %llu runs (%llu dfs%s, %llu random), "
                "%zu finding%s\n",
                model->name, static_cast<unsigned long long>(report.runs),
                static_cast<unsigned long long>(report.dfs_runs),
                report.dfs_exhausted ? " [space exhausted]" : "",
                static_cast<unsigned long long>(report.random_runs),
                report.findings.size(),
                report.findings.size() == 1 ? "" : "s");
    for (const sched::SchedFinding& finding : report.findings) {
      std::printf("  [%s] %s\n", sched::FindingKindName(finding.kind),
                  finding.message.c_str());
      // Unindented so CI scripts can lift the schedule with a plain sed.
      std::printf("DDR_SCHED=%s\n", finding.schedule.c_str());
      std::printf("  replay: ddr-trace sched replay %s --sched '%s'\n",
                  model->name, finding.schedule.c_str());
    }
  }
  return any_findings ? 2 : 0;
}

int SchedReplay(int argc, char** argv) {
  bool json = false;
  if (!SchedWantsJson(argc, argv, &json)) return 1;
  const std::vector<std::string> positionals =
      PositionalArgs(argc, argv, /*start=*/2, kSchedReplayFlags);
  const char* schedule = FlagValue(argc, argv, "--sched");
  if (positionals.size() != 2 || schedule == nullptr) {
    std::fprintf(stderr,
                 "ddr-trace: sched replay needs a model and --sched "
                 "<string>\n");
    PrintUsage();
    return 1;
  }
  const sched::SchedModel* model = sched::FindSchedModel(positionals[1]);
  if (model == nullptr) {
    std::fprintf(stderr,
                 "ddr-trace: unknown sched model '%s' (see: ddr-trace sched "
                 "list)\n",
                 positionals[1].c_str());
    return 1;
  }
  const Result<sched::RunResult> run =
      sched::RunWithSchedule(model->body, schedule);
  if (!run.ok()) {
    std::fprintf(stderr, "ddr-trace: sched replay failed: %s\n",
                 run.status().ToString().c_str());
    return 1;
  }
  if (json) {
    std::string events = "[";
    for (size_t i = 0; i < run->events.size(); ++i) {
      if (i > 0) events += ",";
      events += "\"" + JsonEscape(run->events[i]) + "\"";
    }
    events += "]";
    std::printf(
        "{\"model\":\"%s\",\"schedule\":\"%s\",\"decisions\":%zu,"
        "\"preemptions\":%d,\"events\":%s,\"findings\":%s}\n",
        model->name, JsonEscape(run->schedule).c_str(),
        run->decisions.size(), run->preemptions, events.c_str(),
        SchedFindingsJson(run->findings).c_str());
  } else {
    std::printf("sched replay: %s with %s: %zu events, %zu decisions, "
                "%d preemption%s, %zu finding%s\n",
                model->name, run->schedule.c_str(), run->events.size(),
                run->decisions.size(), run->preemptions,
                run->preemptions == 1 ? "" : "s", run->findings.size(),
                run->findings.size() == 1 ? "" : "s");
    for (const std::string& event : run->events) {
      std::printf("  %s\n", event.c_str());
    }
    for (const sched::SchedFinding& finding : run->findings) {
      std::printf("  [%s] %s\n", sched::FindingKindName(finding.kind),
                  finding.message.c_str());
      std::printf("DDR_SCHED=%s\n", finding.schedule.c_str());
    }
  }
  return run->findings.empty() ? 0 : 2;
}

int SchedMain(int argc, char** argv) {
  const std::string subcommand = argv[2];
  if (subcommand == "list") {
    RequireKnownFlags(argc, argv, kSchedListFlags);
    return SchedList(argc, argv);
  }
  if (subcommand == "explore") {
    RequireKnownFlags(argc, argv, kSchedExploreFlags);
    return SchedExplore(argc, argv);
  }
  if (subcommand == "replay") {
    RequireKnownFlags(argc, argv, kSchedReplayFlags);
    return SchedReplay(argc, argv);
  }
  PrintUsage();
  return 1;
}

int CorpusMain(int argc, char** argv) {
  if (argc < 4) {
    PrintUsage();
    return 1;
  }
  const std::string subcommand = argv[2];
  const std::string path = argv[3];
  if (subcommand == "build") {
    RequireKnownFlags(argc, argv, kCorpusBuildFlags);
    return CorpusBuild(path, /*append=*/false, argc, argv);
  }
  if (subcommand == "append") {
    RequireKnownFlags(argc, argv, kCorpusBuildFlags);
    return CorpusBuild(path, /*append=*/true, argc, argv);
  }
  if (subcommand == "merge") {
    RequireKnownFlags(argc, argv, kCorpusMergeFlags);
    return CorpusMerge(path, argc, argv);
  }
  if (subcommand == "compact") {
    RequireKnownFlags(argc, argv, kCorpusCompactFlags);
    return CorpusCompact(path, argc, argv);
  }
  if (subcommand == "info") {
    RequireKnownFlags(argc, argv, kReadFlags);
    return CorpusInfo(path, argc, argv);
  }
  if (subcommand == "verify") {
    RequireKnownFlags(argc, argv, kReadFlags);
    return CorpusVerify(path, argc, argv);
  }
  if (subcommand == "replay") {
    RequireKnownFlags(argc, argv, kCorpusReplayFlags);
    return CorpusReplay(path, argc, argv);
  }
  PrintUsage();
  return 1;
}

int Main(int argc, char** argv) {
  if (argc < 3) {
    PrintUsage();
    return 1;
  }
  const std::string command = argv[1];
  if (command == "corpus") {
    return CorpusMain(argc, argv);
  }
  if (command == "query") {
    RequireKnownFlags(argc, argv, kQueryFlags);
    return Query(argc, argv);
  }
  if (command == "sched") {
    return SchedMain(argc, argv);
  }
  const std::string path = argv[2];
  if (command == "serve") {
    RequireKnownFlags(argc, argv, kServeFlags);
    return Serve(path, argc, argv);
  }
  if (command == "info") {
    RequireKnownFlags(argc, argv, kReadFlags);
    return Info(path, argc, argv);
  }
  if (command == "dump") {
    RequireKnownFlags(argc, argv, kDumpFlags);
    return Dump(path, ParseFlag(argc, argv, "--from", 0),
                ParseFlag(argc, argv, "--count", 0), argc, argv);
  }
  if (command == "verify") {
    RequireKnownFlags(argc, argv, kReadFlags);
    return VerifyFile(path, argc, argv);
  }
  if (command == "replay") {
    RequireKnownFlags(argc, argv, kReplayFlags);
    return ReplayFile(path, ParseFlag(argc, argv, "--target", 0),
                      HasFlag(argc, argv, "--target"), argc, argv);
  }
  if (command == "record") {
    if (argc < 4) {
      PrintUsage();
      return 1;
    }
    RequireKnownFlags(argc, argv, kRecordFlags);
    return RecordScenario(/*scenario_name=*/argv[2], /*path=*/argv[3], argc,
                          argv);
  }
  PrintUsage();
  return 1;
}

}  // namespace
}  // namespace ddr

int main(int argc, char** argv) { return ddr::Main(argc, argv); }
