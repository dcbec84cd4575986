// ScenarioPrep: the immutable per-scenario work that happens before any
// determinism model runs.
//
// Preparing a scenario means (1) locating the failing "production"
// execution by seed search and (2) the pre-release training run that
// classifies control-plane regions for RCSE. Both are pure functions of
// the BugScenario, so the result can be computed
// once and shared — across every model the harness runs, and across the
// batch runner's worker threads (each worker constructs its own
// ExperimentHarness around the same shared prep instead of redoing the
// seed search per scenario x model task).

#ifndef SRC_CORE_SCENARIO_PREP_H_
#define SRC_CORE_SCENARIO_PREP_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/core/bug_scenario.h"
#include "src/util/status.h"

namespace ddr {

// What the pre-release training run produces: the plane classification.
// Only RCSE recorders consume it. Kept behind a shared_ptr on ScenarioPrep
// so attaching training never copies the (potentially large) production
// trace.
struct TrainingArtifacts {
  std::set<RegionId> control_regions;
  std::vector<std::string> region_names;  // index = RegionId
};

struct ScenarioPrep {
  // The failing production execution.
  uint64_t production_sched_seed = 0;
  Outcome production_outcome;
  std::vector<Event> production_trace;

  // Null until the training run has happened (see ComputeTrainingArtifacts).
  std::shared_ptr<const TrainingArtifacts> training;

  // Runs the seed search and (when `include_training`) the training run.
  // Fails with NotFound when no schedule seed in the scenario's search
  // range produces a failure. The harness prepares without training and
  // upgrades lazily on first RCSE use; pass include_training = true to
  // front-load it (the batch runner does, so worker harnesses never each
  // redo it).
  static Result<ScenarioPrep> Compute(const BugScenario& scenario,
                                      bool include_training = false);
};

// Runs the pre-release training run (plane classification). Pure function
// of the scenario.
std::shared_ptr<const TrainingArtifacts> ComputeTrainingArtifacts(
    const BugScenario& scenario);

}  // namespace ddr

#endif  // SRC_CORE_SCENARIO_PREP_H_
