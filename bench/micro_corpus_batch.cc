// Microbenchmark for the trace-write/corpus/batch pipeline: trace write
// throughput, bytes per event, and batch-runner scaling across worker
// threads.
// Plain-main (no google-benchmark) so it runs everywhere; emits
// BENCH_micro_corpus_batch.json lines for cross-PR tracking.

#include <chrono>
#include <cstdio>
#include <thread>

#include "bench/bench_util.h"
#include "src/apps/scenarios.h"
#include "src/core/batch_runner.h"
#include "src/trace/corpus.h"
#include "src/trace/streaming_writer.h"
#include "src/util/logging.h"
#include "src/util/rng.h"

namespace ddr {
namespace {

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

// Same realistically-shaped synthetic recording as micro_trace_store.
RecordedExecution MakeRecording(uint64_t num_events) {
  RecordedExecution recording;
  recording.model = "bench";
  Rng rng(1234);
  SimTime now = 0;
  for (uint64_t seq = 0; seq < num_events; ++seq) {
    Event event;
    event.seq = seq;
    now += 20 + rng.NextIndex(80);
    event.time = now;
    event.fiber = static_cast<FiberId>(seq % 6);
    event.node = static_cast<NodeId>(seq % 3);
    event.obj = 10 + seq % 12;
    event.region = static_cast<RegionId>(seq % 4);
    switch (seq % 5) {
      case 0:
        event.type = EventType::kSharedRead;
        event.value = rng.NextIndex(1 << 16);
        event.bytes = 8;
        break;
      case 1:
        event.type = EventType::kSharedWrite;
        event.value = rng.NextIndex(1 << 16);
        event.bytes = 8;
        break;
      case 2:
        event.type = EventType::kContextSwitch;
        event.value = (seq + 1) % 6;
        event.aux = PackSwitchAux(seq, SwitchCause::kPreempt);
        break;
      case 3:
        event.type = EventType::kRngDraw;
        event.value = rng.NextIndex(1u << 30);
        break;
      default:
        event.type = EventType::kInput;
        event.value = rng.NextIndex(1 << 12);
        event.bytes = 4;
        break;
    }
    recording.log.Append(event);
  }
  recording.recorded_events = num_events;
  recording.intercepted_events = num_events;
  return recording;
}

// Write throughput of the one trace writer (SerializeTrace, memory sink).
void RunWriterBench(uint64_t num_events, int iterations, BenchJsonWriter& json) {
  const RecordedExecution recording = MakeRecording(num_events);
  std::vector<uint8_t> image;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iterations; ++i) {
    image = SerializeTrace(recording);
  }
  const double write_seconds = Seconds(start) / iterations;

  const double write_meps = num_events / write_seconds / 1e6;
  const double raw_bytes = static_cast<double>(recording.log.Encode().size());
  std::printf("%8llu events: write %7.2f Mev/s  %5.2f B/event  ratio %.2fx\n",
              static_cast<unsigned long long>(num_events), write_meps,
              static_cast<double>(image.size()) / num_events,
              raw_bytes / image.size());

  JsonLine line = json.Line();
  line.Str("section", "writer")
      .Int("events", num_events)
      .Num("write_mevents_per_sec", write_meps)
      .Num("bytes_per_event", static_cast<double>(image.size()) / num_events)
      .Num("compression_ratio", raw_bytes / image.size());
  json.Write(line);
}

// Batch-runner scaling: the same scenario x model grid at 1/2/4/8 worker
// threads, all recordings bundled into one corpus per run.
void RunBatchBench(BenchJsonWriter& json) {
  constexpr char kCorpusPath[] = "micro_corpus_batch.tmp.ddrc";
  double base_seconds = 0.0;
  for (int threads : {1, 2, 4, 8}) {
    // The full registry (hypertable included, so cells are substantial
    // enough for the pool to matter).
    std::vector<BugScenario> scenarios = AllBugScenarios();

    BatchOptions options;
    options.threads = threads;
    options.models = {DeterminismModel::kPerfect, DeterminismModel::kValue,
                      DeterminismModel::kFailure};
    options.corpus_path = kCorpusPath;

    const auto start = std::chrono::steady_clock::now();
    auto report = BatchRunner(std::move(scenarios), options).Run();
    const double seconds = Seconds(start);
    CHECK(report.ok()) << report.status();
    CHECK_EQ(report->cells.size(), 12u);
    if (threads == 1) {
      base_seconds = seconds;
    }

    auto corpus = CorpusReader::Open(kCorpusPath);
    CHECK(corpus.ok()) << corpus.status();
    uint64_t corpus_bytes = corpus->file_size();
    std::remove(kCorpusPath);

    // Speedup only means something relative to the cores actually present
    // (a 1-core container cannot go faster with more workers), so the
    // hardware concurrency ships with every line.
    const unsigned cores = std::thread::hardware_concurrency();
    const double speedup = base_seconds > 0 ? base_seconds / seconds : 1.0;
    std::printf(
        "batch %d thread(s) on %u core(s): %6.3f s for %zu cells "
        "(speedup %4.2fx, corpus %llu B)\n",
        threads, cores, seconds, report->cells.size(), speedup,
        static_cast<unsigned long long>(corpus_bytes));

    JsonLine line = json.Line();
    line.Str("section", "batch")
        .Int("threads", static_cast<uint64_t>(threads))
        .Int("hardware_cores", cores)
        .Int("cells", report->cells.size())
        .Num("seconds", seconds)
        .Num("speedup_vs_1_thread", speedup)
        .Int("corpus_bytes", corpus_bytes);
    json.Write(line);
  }
}

void RunAll() {
  PrintBanner("micro: trace writes, chunk filter, batch scaling");
  BenchJsonWriter json("micro_corpus_batch");
  RunWriterBench(/*num_events=*/100'000, /*iterations=*/5, json);
  RunWriterBench(/*num_events=*/1'000'000, /*iterations=*/1, json);
  RunBatchBench(json);
}

}  // namespace
}  // namespace ddr

int main() {
  ddr::RunAll();
  return 0;
}
