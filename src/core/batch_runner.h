// BatchRunner: scenario x determinism-model grids at scale.
//
// The paper's argument is an aggregate claim — fidelity/efficiency
// trade-offs only mean something measured across many bugs and workloads —
// so the unit of evaluation is a corpus run, not a single scenario.
// BatchRunner fans the ExperimentHarness pipeline out over a worker
// thread pool in two phases:
//
//   1. prep: each scenario's ScenarioPrep (seed search + training run) is
//      computed once, in parallel across scenarios, and shared immutably;
//   2. tasks: every scenario x model cell records, replays, and scores on
//      its own harness around the shared prep. When a corpus path is set,
//      each worker also serializes its recording to a DDRT image and the
//      bundle is written in deterministic task order afterwards.
//
// Every cell is an independent, deterministic computation, and results
// land in a pre-sized matrix indexed by task — so the report's
// deterministic fields are bit-identical whatever the thread count (only
// the wall-clock-derived timings vary run to run; see RowSignature).

#ifndef SRC_CORE_BATCH_RUNNER_H_
#define SRC_CORE_BATCH_RUNNER_H_

#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/experiment.h"
#include "src/trace/corpus.h"
#include "src/util/thread_annotations.h"

namespace ddr {

struct BatchOptions {
  // Worker threads for both phases. 1 = fully sequential.
  int threads = 1;
  // Models run for every scenario; empty = all six.
  std::vector<DeterminismModel> models;
  // When non-empty, every recording is written into this DDRC bundle
  // (entry names are "<scenario>/<model>").
  std::string corpus_path;
  // Chunking/compression/filter for corpus recordings.
  TraceWriteOptions trace_options;
  // Resume an interrupted or partial grid: when `corpus_path` names an
  // existing bundle, cells already present (matched by stamped scenario +
  // canonical determinism-model name — the deterministic prefix of their
  // RowSignature) are skipped, and only the missing cells record and
  // append in place through CorpusWriter::AppendTo (bytes written are
  // O(new cells), flat in the size of the existing bundle; CompactCorpus
  // afterwards yields the single-shot layout). The report then contains
  // exactly the cells that ran; with nothing missing, the bundle is not
  // touched at all. A missing file degrades to a normal full build; a
  // corrupt one is an error, never silently rebuilt.
  bool resume = false;
  // I/O backend used to read the existing bundle's index on a resume
  // (nothing decodes, so there is no cache knob here).
  RandomAccessFileOptions resume_io;
};

// One scenario x model cell of the grid.
struct BatchCell {
  std::string scenario;
  std::string recording_name;  // corpus entry name: "<scenario>/<model>"
  ExperimentRow row;
};

struct BatchReport {
  std::vector<BatchCell> cells;  // scenario-major, model-minor order

  // Serve-side I/O accounting, filled by ReplayCorpus: the backend that
  // actually served the reads, cold bytes pulled through the shared
  // handle, and the shared decoded-chunk cache's counters.
  std::string io_backend;
  uint64_t corpus_bytes_read = 0;
  ChunkCacheStats cache_stats;

  // Write-side accounting, filled by BatchRunner::Run when a corpus is
  // written: physical bytes pushed to disk — the whole file for a fresh
  // build, only the delta for a resume (the number the O(delta) append
  // guarantee is smoke-tested on).
  uint64_t corpus_bytes_written = 0;

  // One JSON object per cell (the machine-readable aggregate report).
  std::string ToJsonLines() const;
  Status WriteJsonLines(const std::string& path) const;
};

// The deterministic content of a row: everything except wall-clock-derived
// values (replay seconds, efficiency, utility, and the inference counters,
// whose search is cut off by a wall-clock budget). Equal signatures <=>
// the runs recorded, replayed, and diagnosed identically.
std::string RowSignature(const BatchCell& cell);

class BatchRunner {
 public:
  BatchRunner(std::vector<BugScenario> scenarios, BatchOptions options);

  // Runs the full grid. Fails if any scenario fails to prepare or any
  // corpus write fails; individual cells cannot fail (recording + scoring
  // are total functions of the prep).
  Result<BatchReport> Run();

 private:
  std::vector<BugScenario> scenarios_;
  BatchOptions options_;
};

// Scores individual corpus entries through the replay pipeline, sharing
// one lazily-built ScenarioPrep per scenario across every call and every
// thread. This is the per-request half of ReplayCorpus, split out so a
// long-lived server can score entries one at a time — arriving on any
// worker thread, against whichever reader snapshot a refresh last
// published —
// while paying each scenario's seed search exactly once for the life of
// the scorer. Results are bit-identical (RowSignature) to a ReplayCorpus
// pass over the same bundle: same prep (include_training=false), same
// window read path, same ReplayAndScore.
class CorpusEntryScorer {
 public:
  explicit CorpusEntryScorer(std::vector<BugScenario> scenarios);

  // Replays + scores one entry read through `corpus`'s shared handle.
  // `model_override` empty = the entry's stamped model. Thread-safe; the
  // first caller needing a scenario computes its prep, concurrent callers
  // of the same scenario wait for that one computation.
  Result<BatchCell> ScoreEntry(const CorpusReader& corpus,
                               const CorpusEntry& entry,
                               const std::string& model_override = {}) const;

  const std::vector<BugScenario>& scenarios() const { return scenarios_; }

 private:
  // OK-status + prep pairs travel through shared_futures so a failed prep
  // is also computed once and replayed to every waiter.
  using PrepResult = std::pair<Status, std::shared_ptr<const ScenarioPrep>>;

  Result<std::shared_ptr<const ScenarioPrep>> PrepFor(
      size_t scenario_index) const;

  std::vector<BugScenario> scenarios_;
  std::map<std::string, size_t> index_;  // scenario name -> scenarios_ index
  mutable Mutex mu_;
  mutable std::map<size_t, std::shared_future<PrepResult>> preps_
      GUARDED_BY(mu_);
};

struct ReplayCorpusOptions {
  // Worker threads scoring entries; all of them share one CorpusReader
  // handle and one decoded-chunk cache.
  int threads = 1;
  CorpusReaderOptions reader;
};

// Replays every recording of a DDRC corpus through the scoring pipeline:
// entries are grouped by their stamped scenario name, each scenario is
// prepared once (from `scenarios`), and each entry is read through a
// per-task TraceReader window over the bundle's single shared handle and
// scored with ReplayAndScore — the serve-side half of the batch pipeline.
// Entry order is preserved.
Result<BatchReport> ReplayCorpus(const std::string& corpus_path,
                                 const std::vector<BugScenario>& scenarios,
                                 const ReplayCorpusOptions& options);
Result<BatchReport> ReplayCorpus(const std::string& corpus_path,
                                 const std::vector<BugScenario>& scenarios,
                                 int threads = 1);

}  // namespace ddr

#endif  // SRC_CORE_BATCH_RUNNER_H_
