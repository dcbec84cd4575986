// BugScenario: a program with a known defect, its root-cause catalog, and
// the hints inference may use — the unit of workload for the experiment
// harness, the batch runner, and the scenario registry.

#ifndef SRC_CORE_BUG_SCENARIO_H_
#define SRC_CORE_BUG_SCENARIO_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/analysis/plane_classifier.h"
#include "src/analysis/root_cause.h"
#include "src/core/rcse.h"
#include "src/replay/replayer.h"

namespace ddr {

struct BugScenario {
  std::string name;

  // Builds a fresh program whose external input generators are seeded with
  // `world_seed`. Programs must create objects deterministically (see
  // src/sim/program.h).
  std::function<std::unique_ptr<SimProgram>(uint64_t world_seed)> make_program;

  // Template environment options (seed is overridden per run).
  Environment::Options env_options;

  // The "real world" of the production run.
  uint64_t production_world_seed = 2024;
  // If nonzero, use this schedule seed directly; otherwise search
  // [kProductionSeedBase + 1, kProductionSeedBase + max_seed_search] for the
  // first failing schedule. The base keeps the production schedule space
  // disjoint from the small seed range inference is allowed to search —
  // a replayer must not be able to "guess" the production schedule.
  static constexpr uint64_t kProductionSeedBase = 1000;
  uint64_t production_sched_seed = 0;
  uint64_t max_seed_search = 400;

  // Ground truth for fidelity scoring.
  RootCauseCatalog catalog;

  // Inference hints (see ReplayTarget).
  std::vector<FaultPlan> candidate_fault_plans;
  std::vector<ReplayTarget::InputDomain> input_domains;
  std::function<std::unique_ptr<CspProblem>(const std::vector<uint64_t>&)> symbolic_model;
  uint64_t world_seeds_to_try = 3;
  uint64_t sched_seeds_to_try = 10;
  InferenceBudget inference_budget;

  // RCSE configuration.
  RcseMode rcse_mode = RcseMode::kCodeBased;
  // Region names to treat as control plane; empty = auto-classify with the
  // plane profiler on a training run.
  std::vector<std::string> control_region_names;
  PlaneClassifierOptions classifier_options;
  SimDuration rcse_dial_down_after = 10 * kMillisecond;
  // World/schedule seeds for the pre-release training run.
  uint64_t training_world_seed = 77;
  uint64_t training_sched_seed = 7;
};

}  // namespace ddr

#endif  // SRC_CORE_BUG_SCENARIO_H_
