// ddr-bench workloads: corpus-server traffic mixes measured from outside.
//
// Every workload builds a corpus through the public library API, serves
// it from an in-process CorpusServer over a unix socket, and drives it in
// a closed loop (each client sends its next request only after the
// previous reply) from at most three load threads and connections:
//
//   debug-replay         3 clients replaying entries of a 24-entry grid
//                        corpus (4 scenarios x 6 models);
//   trace-scan           3 clients verifying entries of a 512-entry corpus
//                        whose decoded size is ~5x the 32 MiB chunk cache;
//   ingest-under-replay  1 writer appending one recording per generation
//                        (AppendTo -> Record -> Add -> Finish -> refresh
//                        RPC) while 2 clients replay the grid corpus.
//
// Nothing under src/ is instrumented. The traced mode wraps the
// benchmark's own calls into each layer's public functions in in-memory
// spans; see RunWorkload.

#ifndef BENCH_E2E_WORKLOADS_H_
#define BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "report.h"
#include "src/util/rng.h"

namespace ddr::bench {

const std::vector<std::string>& WorkloadNames();

struct WorkloadConfig {
  std::string workload;
  uint64_t seed = 1;
  // Length of the measured phase. The traced mode splits it in two: an
  // untraced half over the socket, then a traced half.
  double seconds = 30.0;
  bool trace = false;
  // Complete set-ups per untraced run; setup_s is their median, so one
  // slow set-up does not move it. Traced runs, which do not report
  // setup_s, set up once.
  int setup_repeats = 3;
  // trace-scan corpus size, in byte-copies of the four hypertable
  // recordings that carry an event log.
  int scan_copies = 128;
  // Scratch directory for corpora and the server socket. Created, and
  // removed again, by RunWorkload.
  std::string work_dir;
  // Traced mode: file the spans are written to ("" = keep them in memory).
  std::string spans_path;
  // Test seam: corrupts every replay reference signature, so every replay
  // must count as a failed op.
  bool poison_reference = false;
};

// Sets the workload up, measures it, and checks every output. Without
// tracing the metrics are the end-to-end set (setup_s, ops_per_s, p50_ms,
// tail_ms, peak_rss_mb); with tracing they are the per-layer set. A
// human-readable summary goes to `log`. Errors are set-up failures; a
// failed op or check is reported through the result (correct = false,
// failed > 0).
Result<RunResult> RunWorkload(const WorkloadConfig& config, std::FILE* log);

// The process exit code for a result: 0 only when every check passed and
// no op failed.
int ExitCodeFor(const RunResult& result);

// A client's seeded sequence of entry indices in [0, size). kShuffledDeck
// visits every index once per `size` ops in a freshly shuffled order, so
// any seed yields the same mix of work; kUniform draws independently.
// `stream` separates clients of one seed.
class OpStream {
 public:
  enum class Order { kShuffledDeck, kUniform };

  OpStream(uint64_t seed, uint64_t stream, size_t size, Order order);

  size_t Next();

 private:
  Rng rng_;
  Order order_;
  std::vector<size_t> deck_;
  size_t next_ = 0;
};

}  // namespace ddr::bench

#endif  // BENCH_E2E_WORKLOADS_H_
