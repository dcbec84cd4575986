#include "src/core/scenario_prep.h"

#include <memory>
#include <utility>

namespace ddr {

Result<ScenarioPrep> ScenarioPrep::Compute(const BugScenario& scenario,
                                           bool include_training) {
  if (scenario.make_program == nullptr) {
    return InvalidArgumentError("scenario '" + scenario.name +
                                "' has no make_program");
  }
  ScenarioPrep prep;

  // 1. Seed search for the failing production execution.
  uint64_t first_seed = scenario.production_sched_seed;
  uint64_t last_seed = scenario.production_sched_seed;
  if (scenario.production_sched_seed == 0) {
    first_seed = BugScenario::kProductionSeedBase + 1;
    last_seed = BugScenario::kProductionSeedBase + scenario.max_seed_search;
  }
  bool found = false;
  for (uint64_t seed = first_seed; seed <= last_seed; ++seed) {
    Environment::Options options = scenario.env_options;
    options.seed = seed;
    Environment env(options);
    CollectingSink sink;
    env.AddTraceSink(&sink);
    std::unique_ptr<SimProgram> program =
        scenario.make_program(scenario.production_world_seed);
    Outcome outcome = env.Run(*program);
    if (outcome.Failed()) {
      prep.production_sched_seed = seed;
      prep.production_outcome = std::move(outcome);
      prep.production_trace = sink.events();
      found = true;
      break;
    }
  }
  if (!found) {
    return NotFoundError("no failing production execution found for scenario '" +
                         scenario.name + "'");
  }

  // 2. Pre-release training run (only RCSE recorders consume it).
  if (include_training) {
    prep.training = ComputeTrainingArtifacts(scenario);
  }
  return prep;
}

std::shared_ptr<const TrainingArtifacts> ComputeTrainingArtifacts(
    const BugScenario& scenario) {
  auto artifacts = std::make_shared<TrainingArtifacts>();

  Environment::Options options = scenario.env_options;
  options.seed = scenario.training_sched_seed;
  Environment env(options);
  PlaneProfiler profiler;
  env.AddTraceSink(&profiler);
  std::unique_ptr<SimProgram> program =
      scenario.make_program(scenario.training_world_seed);
  (void)env.Run(*program);

  for (size_t i = 0; i < env.num_regions(); ++i) {
    artifacts->region_names.push_back(env.region_name(static_cast<RegionId>(i)));
  }

  if (!scenario.control_region_names.empty()) {
    for (size_t i = 0; i < artifacts->region_names.size(); ++i) {
      for (const std::string& name : scenario.control_region_names) {
        if (artifacts->region_names[i] == name) {
          artifacts->control_regions.insert(static_cast<RegionId>(i));
        }
      }
    }
  } else {
    for (RegionId region : PlaneClassifier::ControlRegions(
             profiler.profiles(), scenario.classifier_options)) {
      artifacts->control_regions.insert(region);
    }
  }
  return artifacts;
}

}  // namespace ddr
