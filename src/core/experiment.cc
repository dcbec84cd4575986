#include "src/core/experiment.h"

#include <utility>

#include "src/util/logging.h"

namespace ddr {

ReplayTarget ReplayTargetFor(const BugScenario& scenario) {
  ReplayTarget target;
  target.make_program = scenario.make_program;
  target.env_options = scenario.env_options;
  target.candidate_fault_plans = scenario.candidate_fault_plans;
  target.input_domains = scenario.input_domains;
  target.symbolic_model = scenario.symbolic_model;
  target.world_seeds_to_try = scenario.world_seeds_to_try;
  target.sched_seeds_to_try = scenario.sched_seeds_to_try;
  return target;
}

ExperimentHarness::ExperimentHarness(BugScenario scenario)
    : scenario_(std::move(scenario)) {
  CHECK(scenario_.make_program != nullptr) << "scenario needs make_program";
}

ExperimentHarness::ExperimentHarness(BugScenario scenario,
                                     std::shared_ptr<const ScenarioPrep> prep)
    : scenario_(std::move(scenario)), prep_(std::move(prep)) {
  CHECK(scenario_.make_program != nullptr) << "scenario needs make_program";
  CHECK(prep_ != nullptr) << "shared prep must be non-null";
}

const ScenarioPrep& ExperimentHarness::prep() const {
  CHECK(prep_ != nullptr) << "call Prepare() first";
  return *prep_;
}

const std::set<RegionId>& ExperimentHarness::control_regions() const {
  static const std::set<RegionId> kNoRegions;
  if (training_ != nullptr) {
    return training_->control_regions;
  }
  if (prep_ != nullptr && prep_->training != nullptr) {
    return prep_->training->control_regions;
  }
  return kNoRegions;
}

Status ExperimentHarness::Prepare() {
  if (prep_ != nullptr) {
    return OkStatus();
  }
  ASSIGN_OR_RETURN(ScenarioPrep prep, ScenarioPrep::Compute(scenario_));
  prep_ = std::make_shared<const ScenarioPrep>(std::move(prep));
  return OkStatus();
}

std::unique_ptr<Recorder> ExperimentHarness::MakeRecorder(DeterminismModel model) {
  switch (model) {
    case DeterminismModel::kPerfect:
      return std::make_unique<PerfectRecorder>();
    case DeterminismModel::kValue:
      return std::make_unique<ValueRecorder>();
    case DeterminismModel::kOutputHeavy:
      return std::make_unique<OutputRecorder>(OutputRecorder::Mode::kOdrHeavy);
    case DeterminismModel::kOutputOnly:
      return std::make_unique<OutputRecorder>(OutputRecorder::Mode::kOutputsOnly);
    case DeterminismModel::kFailure:
      return std::make_unique<FailureRecorder>();
    case DeterminismModel::kDebugRcse: {
      // Training is lazy: non-RCSE users never pay for it. Adopt the
      // prep's artifacts when it was computed with training (the batch
      // runner front-loads that for RCSE grids); otherwise run the
      // training run now, once per harness.
      if (training_ == nullptr) {
        training_ = prep().training != nullptr
                        ? prep().training
                        : ComputeTrainingArtifacts(scenario_);
      }
      RcseOptions options;
      options.mode = scenario_.rcse_mode;
      options.control_regions = training_->control_regions;
      options.dial_down_after = scenario_.rcse_dial_down_after;
      auto triggers = std::make_unique<TriggerSet>();
      if (scenario_.rcse_mode != RcseMode::kCodeBased) {
        triggers->Add(std::make_unique<RaceTrigger>());
        if (scenario_.configure_triggers) {
          scenario_.configure_triggers(triggers.get(), training_->invariants);
        }
      }
      return std::make_unique<RcseRecorder>(options, std::move(triggers));
    }
  }
  LOG(FATAL) << "unreachable";
  return nullptr;
}

RecordedExecution ExperimentHarness::Record(DeterminismModel model) {
  std::unique_ptr<Recorder> recorder = MakeRecorder(model);
  // Re-run the production execution (same seeds) with the recorder attached.
  const ScenarioPrep& prepared = prep();
  Environment::Options options = scenario_.env_options;
  options.seed = prepared.production_sched_seed;
  Environment env(options);
  recorder->AttachEnvironment(&env);
  env.AddTraceSink(recorder.get());
  std::unique_ptr<SimProgram> program =
      scenario_.make_program(scenario_.production_world_seed);

  RecordedExecution recording;
  recording.original_outcome = env.Run(*program);
  // Recording must never perturb the execution.
  CHECK_EQ(recording.original_outcome.trace_fingerprint,
           prepared.production_outcome.trace_fingerprint)
      << "recorder perturbed the production execution";
  recording.model = recorder->model_name();
  recording.log = recorder->TakeLog();
  recording.snapshot = FailureSnapshot::FromOutcome(recording.original_outcome);
  recording.recorded_bytes = env.recorded_bytes();
  recording.overhead_nanos = env.recording_overhead_nanos();
  recording.cpu_nanos = env.cpu_nanos();
  recording.intercepted_events = recorder->intercepted_events();
  recording.recorded_events = recorder->recorded_events();
  return recording;
}

ExperimentRow ExperimentHarness::ReplayAndScore(DeterminismModel model,
                                                const RecordedExecution& recording,
                                                double original_wall_seconds) {
  (void)prep();  // must be prepared
  ExperimentRow row;
  row.model = model;
  row.model_name = std::string(DeterminismModelName(model));
  row.overhead_multiplier = recording.OverheadMultiplier();
  row.log_bytes = recording.TotalLogBytes();
  row.recorded_events = recording.recorded_events;
  row.original_wall_seconds = original_wall_seconds;

  // 2. Replay from the recording alone.
  Replayer replayer(ReplayTargetFor(scenario_), scenario_.inference_budget);
  ReplayResult replay = replayer.Replay(recording, ReplayModeFor(model));
  row.failure_reproduced = replay.failure_reproduced;
  row.divergences = replay.divergences;
  row.inference = replay.inference;
  row.input_assignment = replay.input_assignment;
  row.replay_wall_seconds = replay.wall_seconds;

  // 3. Score.
  const FidelityResult fidelity = EvaluateFidelity(scenario_.catalog, replay);
  row.diagnosed_cause = fidelity.diagnosed_cause;
  row.fidelity = fidelity.value();
  row.efficiency = DebuggingEfficiency(row.original_wall_seconds, replay.wall_seconds);
  row.utility = DebuggingUtility(row.fidelity, row.efficiency);

  if (model == DeterminismModel::kDebugRcse) {
    last_rcse_row_ = row;
  }
  return row;
}

ExperimentRow ExperimentHarness::RunModel(DeterminismModel model) {
  RecordedExecution recording = Record(model);
  return ReplayAndScore(model, recording,
                        recording.original_outcome.stats.wall_seconds);
}

Status ExperimentHarness::SaveRecording(const RecordedExecution& recording,
                                        const std::string& path,
                                        TraceWriteOptions options) const {
  options.scenario = scenario_.name;
  options.original_wall_seconds = recording.original_outcome.stats.wall_seconds;
  return WriteTraceFile(path, recording, options);
}

std::vector<ExperimentRow> ExperimentHarness::RunAllModels() {
  std::vector<ExperimentRow> rows;
  for (DeterminismModel model : AllDeterminismModels()) {
    rows.push_back(RunModel(model));
  }
  return rows;
}

}  // namespace ddr
