// Tests for src/core: metric formulas, the determinism-model registry, RCSE
// dial-up/dial-down behavior, the experiment harness end to end on a small
// scenario, and a golden of the full scenario x model grid.

#include <gtest/gtest.h>

#include "src/apps/scenarios.h"
#include "src/core/batch_runner.h"
#include "src/core/determinism_model.h"
#include "src/core/experiment.h"
#include "src/core/metrics.h"
#include "src/core/rcse.h"
#include "src/sim/shared_var.h"

namespace ddr {
namespace {

// ----------------------------------------------------------------- metrics

TEST(MetricsTest, FidelityValuePerPaperDefinition) {
  FidelityResult fidelity;
  fidelity.num_possible_causes = 3;
  fidelity.failure_reproduced = false;
  EXPECT_DOUBLE_EQ(fidelity.value(), 0.0);  // failure lost -> 0
  fidelity.failure_reproduced = true;
  EXPECT_DOUBLE_EQ(fidelity.value(), 1.0 / 3.0);  // wrong cause -> 1/n
  fidelity.actual_cause_present = true;
  EXPECT_DOUBLE_EQ(fidelity.value(), 1.0);  // same failure + cause -> 1
}

TEST(MetricsTest, EfficiencyRatioAndFloor) {
  EXPECT_DOUBLE_EQ(DebuggingEfficiency(2.0, 4.0), 0.5);
  EXPECT_DOUBLE_EQ(DebuggingEfficiency(4.0, 2.0), 2.0);  // DE > 1 possible
  EXPECT_GT(DebuggingEfficiency(1.0, 0.0), 0.0);         // floor, no div-by-zero
}

TEST(MetricsTest, UtilityIsProduct) {
  EXPECT_DOUBLE_EQ(DebuggingUtility(0.5, 0.8), 0.4);
  EXPECT_DOUBLE_EQ(DebuggingUtility(0.0, 100.0), 0.0);
}

TEST(MetricsTest, EvaluateFidelityUsesCatalog) {
  RootCauseCatalog catalog(
      {RootCauseSpec{"right", "", [](const ExecutionView& view) {
                       return !view.events.empty();
                     }},
       RootCauseSpec{"wrong", "", [](const ExecutionView&) { return true; }}},
      "right");
  ReplayResult replay;
  replay.failure_reproduced = true;
  replay.trace.push_back(Event{});
  FidelityResult fidelity = EvaluateFidelity(catalog, replay);
  EXPECT_TRUE(fidelity.actual_cause_present);
  EXPECT_EQ(fidelity.diagnosed_cause.value_or(""), "right");
  EXPECT_DOUBLE_EQ(fidelity.value(), 1.0);

  replay.trace.clear();
  fidelity = EvaluateFidelity(catalog, replay);
  EXPECT_FALSE(fidelity.actual_cause_present);
  EXPECT_EQ(fidelity.diagnosed_cause.value_or(""), "wrong");
  EXPECT_DOUBLE_EQ(fidelity.value(), 0.5);
}

// -------------------------------------------------------------- model enum

TEST(DeterminismModelTest, NamesAndOrder) {
  const auto& models = AllDeterminismModels();
  ASSERT_EQ(models.size(), 6u);
  EXPECT_EQ(models.front(), DeterminismModel::kPerfect);
  EXPECT_EQ(models.back(), DeterminismModel::kDebugRcse);
  for (DeterminismModel model : models) {
    EXPECT_FALSE(DeterminismModelName(model).empty());
    EXPECT_FALSE(DeterminismModelSystem(model).empty());
  }
}

TEST(DeterminismModelTest, ReplayModeMapping) {
  EXPECT_EQ(ReplayModeFor(DeterminismModel::kValue), ReplayMode::kValue);
  EXPECT_EQ(ReplayModeFor(DeterminismModel::kFailure), ReplayMode::kFailure);
  EXPECT_EQ(ReplayModeFor(DeterminismModel::kDebugRcse), ReplayMode::kRcse);
  EXPECT_EQ(ReplayModeFor(DeterminismModel::kOutputOnly), ReplayMode::kOutputOnly);
}

// -------------------------------------------------------------------- RCSE

Event TimedEvent(EventType type, SimTime time, RegionId region = kDefaultRegion,
                 uint32_t bytes = 0) {
  Event event;
  event.type = type;
  event.time = time;
  event.region = region;
  event.bytes = bytes;
  event.fiber = 0;
  return event;
}

TEST(RcseRecorderTest, CodeBasedRecordsControlRegions) {
  RcseOptions options;
  options.mode = RcseMode::kCodeBased;
  options.control_regions = {2};
  RcseRecorder recorder(options, nullptr);
  Environment env(Environment::Options{});
  recorder.AttachEnvironment(&env);

  recorder.OnEvent(TimedEvent(EventType::kSharedRead, 10, /*region=*/1));
  EXPECT_EQ(recorder.recorded_events(), 0u);  // data plane, relaxed
  recorder.OnEvent(TimedEvent(EventType::kSharedRead, 20, /*region=*/2));
  EXPECT_EQ(recorder.recorded_events(), 1u);  // control plane
}

TEST(RcseRecorderTest, TriggerDialsUpAndQuietPeriodDialsDown) {
  RcseOptions options;
  options.mode = RcseMode::kCombined;
  options.control_regions = {};
  options.dial_down_after = 1000;  // 1us quiet period
  auto triggers = std::make_unique<TriggerSet>();
  triggers->Add(std::make_unique<AnnotationTrigger>(99));
  RcseRecorder recorder(options, std::move(triggers));
  Environment env(Environment::Options{});
  recorder.AttachEnvironment(&env);

  recorder.OnEvent(TimedEvent(EventType::kSharedRead, 10));
  EXPECT_EQ(recorder.level(), FidelityLevel::kRelaxed);
  EXPECT_EQ(recorder.recorded_events(), 0u);

  Event fire = TimedEvent(EventType::kAnnotation, 20);
  fire.obj = 99;
  recorder.OnEvent(fire);
  EXPECT_EQ(recorder.level(), FidelityLevel::kFull);
  EXPECT_EQ(recorder.dial_ups(), 1u);

  recorder.OnEvent(TimedEvent(EventType::kSharedRead, 30));
  EXPECT_EQ(recorder.recorded_events(), 1u);  // full fidelity records memory

  // Quiet period passes: dial back down; relaxed mode stops recording the
  // data plane again.
  recorder.OnEvent(TimedEvent(EventType::kSharedRead, 5000));
  EXPECT_EQ(recorder.level(), FidelityLevel::kRelaxed);
  EXPECT_EQ(recorder.dial_downs(), 1u);
  recorder.OnEvent(TimedEvent(EventType::kSharedRead, 5100));
  EXPECT_EQ(recorder.recorded_events(), 1u);
}

TEST(RcseRecorderTest, DialDownDisabledStaysFull) {
  RcseOptions options;
  options.mode = RcseMode::kDataBased;
  options.dial_down_after = 0;
  auto triggers = std::make_unique<TriggerSet>();
  triggers->Add(std::make_unique<AnnotationTrigger>(7));
  RcseRecorder recorder(options, std::move(triggers));
  Environment env(Environment::Options{});
  recorder.AttachEnvironment(&env);

  Event fire = TimedEvent(EventType::kAnnotation, 1);
  fire.obj = 7;
  recorder.OnEvent(fire);
  recorder.OnEvent(TimedEvent(EventType::kSharedRead, 1000000000));
  EXPECT_EQ(recorder.level(), FidelityLevel::kFull);
  EXPECT_EQ(recorder.dial_downs(), 0u);
}

// --------------------------------------------------------------- harness

constexpr uint64_t kTagLost = FnvHash("core-test.lost");

BugScenario MakeCounterScenario() {
  class CounterProgram : public SimProgram {
   public:
    explicit CounterProgram(uint64_t) {}
    std::string name() const override { return "counter"; }
    void Configure(Environment& env) override {
      env.SetIoSpec([](const Outcome& outcome) -> std::optional<FailureInfo> {
        if (outcome.outputs.size() == 1 && outcome.outputs[0].value == 60) {
          return std::nullopt;
        }
        FailureInfo failure;
        failure.kind = FailureKind::kSpecViolation;
        failure.message = "bad total";
        return failure;
      });
    }
    void Main(Environment& env) override {
      SharedVar<uint64_t> counter(env, "counter", 0);
      std::vector<FiberId> fibers;
      for (int f = 0; f < 3; ++f) {
        fibers.push_back(env.Spawn("w" + std::to_string(f), [&] {
          for (int i = 0; i < 20; ++i) {
            counter.Store(counter.Load() + 1);
          }
        }));
      }
      for (FiberId fiber : fibers) {
        env.Join(fiber);
      }
      if (counter.Load() != 60) {
        env.Annotate(kTagLost, 60 - counter.Load());
      }
      env.EmitOutput(counter.Peek());
    }
  };

  BugScenario scenario;
  scenario.name = "counter";
  scenario.make_program = [](uint64_t world_seed) {
    return std::unique_ptr<SimProgram>(new CounterProgram(world_seed));
  };
  scenario.env_options.scheduling.preempt_probability = 0.05;
  scenario.catalog = RootCauseCatalog(
      {RootCauseSpec{"lost-update", "racy counter increment",
                     [](const ExecutionView& view) {
                       for (const Event& event : view.events) {
                         if (event.type == EventType::kAnnotation &&
                             event.obj == kTagLost) {
                           return true;
                         }
                       }
                       return false;
                     }}},
      "lost-update");
  scenario.rcse_mode = RcseMode::kCombined;
  return scenario;
}

TEST(ExperimentHarnessTest, PrepareFindsFailingSchedule) {
  ExperimentHarness harness(MakeCounterScenario());
  ASSERT_TRUE(harness.Prepare().ok());
  EXPECT_TRUE(harness.production_outcome().Failed());
  EXPECT_GT(harness.production_sched_seed(), BugScenario::kProductionSeedBase);
  // Idempotent.
  EXPECT_TRUE(harness.Prepare().ok());
}

TEST(ExperimentHarnessTest, PrepareFailsForHealthyProgram) {
  BugScenario scenario = MakeCounterScenario();
  scenario.make_program = [](uint64_t) {
    class Healthy : public SimProgram {
     public:
      std::string name() const override { return "healthy"; }
      void Main(Environment& env) override { env.EmitOutput(1); }
    };
    return std::unique_ptr<SimProgram>(new Healthy());
  };
  scenario.max_seed_search = 10;
  ExperimentHarness harness(scenario);
  EXPECT_FALSE(harness.Prepare().ok());
}

TEST(ExperimentHarnessTest, ValueAndRcseReachFullFidelity) {
  ExperimentHarness harness(MakeCounterScenario());
  ASSERT_TRUE(harness.Prepare().ok());

  ExperimentRow value = harness.RunModel(DeterminismModel::kValue);
  EXPECT_TRUE(value.failure_reproduced);
  EXPECT_DOUBLE_EQ(value.fidelity, 1.0);
  EXPECT_EQ(value.divergences, 0u);
  EXPECT_GT(value.overhead_multiplier, 1.0);

  ExperimentRow rcse = harness.RunModel(DeterminismModel::kDebugRcse);
  EXPECT_TRUE(rcse.failure_reproduced);
  EXPECT_DOUBLE_EQ(rcse.fidelity, 1.0);
  EXPECT_EQ(rcse.diagnosed_cause.value_or(""), "lost-update");
}

TEST(ExperimentHarnessTest, PerfectModelIsMostExpensive) {
  ExperimentHarness harness(MakeCounterScenario());
  ASSERT_TRUE(harness.Prepare().ok());
  ExperimentRow perfect = harness.RunModel(DeterminismModel::kPerfect);
  ExperimentRow failure = harness.RunModel(DeterminismModel::kFailure);
  EXPECT_GT(perfect.overhead_multiplier, failure.overhead_multiplier);
  EXPECT_DOUBLE_EQ(failure.overhead_multiplier, 1.0);
  EXPECT_GT(perfect.log_bytes, failure.log_bytes);
}

// ------------------------------------------------------------- grid golden

// The 24 grid cells' row signatures as the thread-backed fiber engine
// scored them, before fibers became coroutines on the caller's thread.
// Each signature carries the cell's inference attempts, simulated events
// and solver nodes after the fidelity field (the solver-node counts were
// pinned later; they depend on the symbolic model alone). A fiber backend
// or a refactor of the inference search may change how control moves,
// never a scheduling decision or which candidate is tried when, so every
// signature must stay exactly as recorded here. Regenerate only for a
// deliberate change to scheduling, the search order, a scenario, or
// scoring.
constexpr const char* kGridGolden[] = {
    "sum|sum/perfect|perfect|5.1299999999999999|151|7|1|corrupt-table-entry|0|1|0|0|0",
    "sum|sum/value|value|3.6833333333333331|111|5|1|corrupt-table-entry|0|1|0|0|0",
    "sum|sum/output-heavy|output-heavy|2.6000000000000001|108|5|1|corrupt-table-entry|0|1|1|7|0",
    "sum|sum/output|output|1.3866666666666667|62|1|0|<none>|0|0|1|6|7|0|5",
    "sum|sum/failure|failure|1|42|0|1|corrupt-table-entry|0|1|37|223|0|2|2",
    "sum|sum/rcse-code-based|debug (RCSE)|2.9366666666666665|151|7|1|corrupt-table-entry|0|1|0|0|0",
    "msgdrop|msgdrop/perfect|perfect|6.5345873320537429|23816|1623|1|buffer-race|0|1|0|0|0",
    "msgdrop|msgdrop/value|value|2.8349200255918108|9883|657|1|buffer-race|0|1|0|0|0",
    "msgdrop|msgdrop/output-heavy|output-heavy|1.8198848368522074|6582|351|0|<none>|0|0|12|19758|0",
    "msgdrop|msgdrop/output|output|1.338426103646833|2559|114|0|<none>|0|0|12|19758|0",
    "msgdrop|msgdrop/failure|failure|1|51|0|1|network-congestion|0|0.5|1|1719|0",
    "msgdrop|msgdrop/rcse-combined|debug (RCSE)|1.9798848368522073|9809|640|1|buffer-race|0|1|0|0|0",
    "overflow|overflow/perfect|perfect|5.8218181818181822|253|12|1|unchecked-copy|0|1|0|0|0",
    "overflow|overflow/value|value|3.5709090909090908|137|6|1|unchecked-copy|0|1|0|0|0",
    "overflow|overflow/output-heavy|output-heavy|2.8727272727272726|154|7|1|unchecked-copy|0|1|1|12|0",
    "overflow|overflow/output|output|1.4218181818181819|97|2|1|unchecked-copy|0|1|49|588|65|20|45|49",
    "overflow|overflow/failure|failure|1|57|0|1|unchecked-copy|0|1|7|84|0",
    "overflow|overflow/rcse-code-based|debug (RCSE)|1.7163636363636363|124|4|1|unchecked-copy|0|1|0|0|0",
    "hypertable|hypertable/perfect|perfect|7.0305479825517994|140314|8764|1|migration-race|0|1|0|0|0",
    "hypertable|hypertable/value|value|3.339664667393675|76462|4609|1|migration-race|0|1|0|0|0",
    "hypertable|hypertable/output-heavy|output-heavy|1.8368593238822246|36870|2356|1|migration-race|0|1|4|35090|0",
    "hypertable|hypertable/output|output|1.1254089422028353|80|1|1|migration-race|0|1|4|35090|0",
    "hypertable|hypertable/failure|failure|1|54|0|1|slave-crash|0|0.33333333333333331|1|10613|0",
    "hypertable|hypertable/rcse-code-based|debug (RCSE)|1.7841357688113413|48005|2853|1|migration-race|0|1|0|0|0",
};

// No grid cell spends its whole budget, so this pins the exhausted path:
// output determinism on the overflow bug at [1,128]^3 tries every solver
// solution it is allowed and matches none. Bounded by attempts alone, the
// search does the same work on every run.
TEST(InferenceBudgetTest, ExhaustedSearchRepeatsExactly) {
  OverflowOptions options;
  options.max_len = 128;
  BugScenario scenario = MakeOverflowScenario(options);
  scenario.inference_budget.max_attempts = 5000;
  ExperimentHarness harness(scenario);
  ASSERT_TRUE(harness.Prepare().ok());

  const ExperimentRow first = harness.RunModel(DeterminismModel::kOutputOnly);
  const ExperimentRow second = harness.RunModel(DeterminismModel::kOutputOnly);
  EXPECT_EQ(first.fidelity, 0.0);
  EXPECT_EQ(first.inference.attempts, scenario.inference_budget.max_attempts);
  EXPECT_GT(first.inference.total_events_simulated, 0u);
  EXPECT_GT(first.inference.solver_nodes, 0u);
  EXPECT_EQ(second.inference.attempts, first.inference.attempts);
  EXPECT_EQ(second.inference.total_events_simulated,
            first.inference.total_events_simulated);
  EXPECT_EQ(second.inference.solver_nodes, first.inference.solver_nodes);
}

TEST(GridGoldenTest, EveryCellMatchesTheRecordedEngine) {
  BatchOptions options;
  options.threads = 1;
  auto report = BatchRunner(AllBugScenarios(), options).Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->cells.size(), std::size(kGridGolden));
  for (size_t i = 0; i < report->cells.size(); ++i) {
    EXPECT_EQ(RowSignature(report->cells[i]), kGridGolden[i]) << "cell " << i;
  }
}

}  // namespace
}  // namespace ddr
