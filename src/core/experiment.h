// ExperimentHarness: the end-to-end record -> replay -> score pipeline.
//
// Given a BugScenario (a program with a known defect, its root-cause
// catalog, and inference hints), the harness:
//   1. prepares the scenario (ScenarioPrep: seed search for the failing
//      "production" execution; the pre-release training run is added
//      lazily when RCSE first needs it) — immutable work computed once
//      and shareable across harnesses and threads;
//   2. for each determinism model: re-runs the identical production
//      execution with that model's recorder attached (recording observes,
//      never perturbs — the harness verifies the trace fingerprint is
//      unchanged), producing a RecordedExecution and its overhead;
//   3. replays/infers from the recording alone (production seeds withheld);
//   4. scores debugging fidelity / efficiency / utility against the
//      scenario's root-cause catalog.
//
// This is the API the paper's figures are generated through, and the main
// entry point for library users. BatchRunner (src/core/batch_runner.h)
// fans this pipeline out over scenario x model grids.

#ifndef SRC_CORE_EXPERIMENT_H_
#define SRC_CORE_EXPERIMENT_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/bug_scenario.h"
#include "src/core/determinism_model.h"
#include "src/core/metrics.h"
#include "src/core/scenario_prep.h"
#include "src/record/model_recorders.h"
#include "src/record/recorded_execution.h"
#include "src/replay/replayer.h"
#include "src/trace/streaming_writer.h"

namespace ddr {

struct ExperimentRow {
  DeterminismModel model = DeterminismModel::kPerfect;
  std::string model_name;

  // Recording side.
  double overhead_multiplier = 1.0;
  uint64_t log_bytes = 0;
  uint64_t recorded_events = 0;

  // Replay side.
  bool failure_reproduced = false;
  std::optional<std::string> diagnosed_cause;
  uint64_t divergences = 0;
  InferenceStats inference;
  // Inputs chosen by output-deterministic inference (if any).
  std::vector<int64_t> input_assignment;

  // Metrics (§3.2).
  double fidelity = 0.0;
  double efficiency = 0.0;
  double utility = 0.0;

  // Timing.
  double original_wall_seconds = 0.0;
  double replay_wall_seconds = 0.0;
};

// How replay and inference rebuild `scenario`'s program: its factory,
// environment and inference hints. The production seeds stay withheld.
ReplayTarget ReplayTargetFor(const BugScenario& scenario);

class ExperimentHarness {
 public:
  explicit ExperimentHarness(BugScenario scenario);

  // Shares a previously computed prep (e.g. across batch-runner workers):
  // the harness is immediately prepared and never recomputes the seed
  // search. `prep` must be non-null.
  ExperimentHarness(BugScenario scenario,
                    std::shared_ptr<const ScenarioPrep> prep);

  // Locates the failing production execution. Must succeed before
  // RunModel. The RCSE training run is deferred to the first kDebugRcse
  // recording (non-RCSE users never pay for it), so control_regions() is
  // empty until then.
  Status Prepare();

  ExperimentRow RunModel(DeterminismModel model);
  std::vector<ExperimentRow> RunAllModels();

  // The two halves of RunModel, exposed so recordings can cross a process
  // (or machine) boundary between them as trace files.
  //
  // Record() re-runs the production execution with `model`'s recorder
  // attached and packages the RecordedExecution; ReplayAndScore() replays
  // from the recording alone and scores it. RunModel(m) ==
  // ReplayAndScore(m, Record(m), <production wall seconds>).
  RecordedExecution Record(DeterminismModel model);
  ExperimentRow ReplayAndScore(DeterminismModel model,
                               const RecordedExecution& recording,
                               double original_wall_seconds);

  // Persistence hook (src/trace/): stamps the scenario name and production
  // wall time into trace metadata. TraceReader::ReadRecordedExecution
  // restores the recording (the harness-side ground-truth Outcome never
  // ships — see recorded_execution.h), and ReplayAndScore on it scores
  // exactly like the in-memory recording.
  Status SaveRecording(const RecordedExecution& recording,
                       const std::string& path,
                       TraceWriteOptions options = {}) const;

  // Accessors (valid after Prepare()).
  uint64_t production_sched_seed() const { return prep().production_sched_seed; }
  const Outcome& production_outcome() const { return prep().production_outcome; }
  const std::vector<Event>& production_trace() const {
    return prep().production_trace;
  }
  double production_wall_seconds() const {
    return prep().production_wall_seconds;
  }
  // Control-plane regions from the training run; empty until training has
  // happened (first RCSE recording, or a prep computed with training).
  const std::set<RegionId>& control_regions() const;
  const BugScenario& scenario() const { return scenario_; }
  // Stats of the most recent RCSE recording (valid after RunModel(kDebugRcse)).
  const std::optional<ExperimentRow>& last_rcse_row() const { return last_rcse_row_; }

 private:
  const ScenarioPrep& prep() const;

  std::unique_ptr<Recorder> MakeRecorder(DeterminismModel model);

  BugScenario scenario_;
  std::shared_ptr<const ScenarioPrep> prep_;
  // Training artifacts, adopted from the prep or computed lazily on the
  // first RCSE recording (never copies the prep's production trace).
  std::shared_ptr<const TrainingArtifacts> training_;

  std::optional<ExperimentRow> last_rcse_row_;
};

}  // namespace ddr

#endif  // SRC_CORE_EXPERIMENT_H_
