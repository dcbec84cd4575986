#include "src/apps/scenarios.h"

#include "src/apps/annotations.h"
#include "src/apps/msgdrop_app.h"
#include "src/apps/overflow_app.h"
#include "src/apps/sum_app.h"
#include "src/ht/hypertable_program.h"
#include "src/util/logging.h"

namespace ddr {
namespace {

bool HasAnnotation(const ExecutionView& view, uint64_t tag) {
  for (const Event& event : view.events) {
    if (event.type == EventType::kAnnotation && event.obj == tag) {
      return true;
    }
  }
  return false;
}

// True if an annotation with the given tag carries a value >= threshold.
bool HasAnnotationAtLeast(const ExecutionView& view, uint64_t tag, uint64_t threshold) {
  for (const Event& event : view.events) {
    if (event.type == EventType::kAnnotation && event.obj == tag &&
        event.value >= threshold) {
      return true;
    }
  }
  return false;
}

bool HasNodeCrash(const ExecutionView& view) {
  for (const Event& event : view.events) {
    if (event.type == EventType::kNodeCrash) {
      return true;
    }
  }
  return false;
}

bool HasCongestionDrop(const ExecutionView& view) {
  for (const Event& event : view.events) {
    if (event.type == EventType::kNetDrop && event.aux == 2) {
      return true;
    }
  }
  return false;
}

// Finds a world seed whose first two [0,10] draws are exactly (2, 2) — the
// production inputs of the §2 sum example.
uint64_t FindSumWorldSeed() {
  for (uint64_t seed = 1; seed < 1'000'000; ++seed) {
    Rng rng(seed);
    if (rng.NextInRange(0, 10) == 2 && rng.NextInRange(0, 10) == 2) {
      return seed;
    }
  }
  LOG(FATAL) << "no sum world seed found";
  return 0;
}

// Finds a world seed for which the buggy overflow program receives at least
// one oversized request (and therefore crashes).
uint64_t FindOverflowWorldSeed(const OverflowOptions& options) {
  for (uint64_t seed = 1; seed < 1'000'000; ++seed) {
    Rng rng(seed);
    for (uint32_t i = 0; i < options.num_requests; ++i) {
      if (rng.NextInRange(options.min_len, options.max_len) >
          options.buffer_capacity) {
        return seed;
      }
    }
  }
  LOG(FATAL) << "no overflow world seed found";
  return 0;
}

}  // namespace

BugScenario MakeSumScenario() {
  BugScenario scenario;
  scenario.name = "sum";
  scenario.make_program = [](uint64_t world_seed) -> std::unique_ptr<SimProgram> {
    SumOptions options;
    options.world_seed = world_seed;
    return std::make_unique<SumProgram>(options);
  };
  scenario.env_options.scheduling.preempt_probability = 0.0;  // single fiber
  scenario.production_world_seed = FindSumWorldSeed();
  scenario.production_sched_seed = 1;  // failure is input-determined

  scenario.catalog = RootCauseCatalog(
      {RootCauseSpec{
          "corrupt-table-entry",
          "the corrupted carry-table entry is consulted by the adder",
          [](const ExecutionView& view) {
            return HasAnnotation(view, kTagSumCorruptEntryUsed);
          }}},
      /*actual_id=*/"corrupt-table-entry");

  scenario.input_domains = {{SumProgram::kInputA, 0, 10},
                            {SumProgram::kInputB, 0, 10}};
  scenario.symbolic_model =
      [](const std::vector<uint64_t>& outputs) -> std::unique_ptr<CspProblem> {
    if (outputs.size() != 1) {
      return nullptr;
    }
    auto problem = std::make_unique<CspProblem>();
    const CspProblem::VarId a = problem->AddVariable("a", 0, 10);
    const CspProblem::VarId b = problem->AddVariable("b", 0, 10);
    problem->AddLinearEquals({{a, 1}, {b, 1}}, static_cast<int64_t>(outputs[0]));
    return problem;
  };
  scenario.world_seeds_to_try = 4;
  scenario.sched_seeds_to_try = 3;
  return scenario;
}

BugScenario MakeMsgDropScenario() {
  BugScenario scenario;
  scenario.name = "msgdrop";
  scenario.make_program = [](uint64_t world_seed) -> std::unique_ptr<SimProgram> {
    MsgDropOptions options;
    options.world_seed = world_seed;
    return std::make_unique<MsgDropProgram>(options);
  };
  // The tail-index race needs an involuntary preemption exactly between the
  // load and the store; with sparse preemptions the lost update is a
  // rare, schedule-dependent event (and its cascade then drops a batch of
  // messages — "higher than expected rates").
  scenario.env_options.scheduling.preempt_probability = 0.002;
  scenario.production_world_seed = 11;
  scenario.max_seed_search = 400;

  // The loss count that actually violates the SLO (floor(0.03 * 120) + 1):
  // one or two incidental lost updates do not explain the failure, so the
  // root-cause predicate is quantitative.
  constexpr uint64_t kSloLossThreshold = 4;
  scenario.catalog = RootCauseCatalog(
      {RootCauseSpec{"buffer-race",
                     "lost update on the shared ring-buffer tail index",
                     [](const ExecutionView& view) {
                       return HasAnnotationAtLeast(view, kTagMsgdropLostSlot,
                                                   kSloLossThreshold);
                     }},
       RootCauseSpec{"network-congestion",
                     "packets dropped by a congested network",
                     [](const ExecutionView& view) {
                       return HasCongestionDrop(view);
                     }}},
      /*actual_id=*/"buffer-race");

  // The wrong-but-plausible explanation failure determinism reaches first:
  // a congestion window across the send phase.
  scenario.candidate_fault_plans = {
      FaultPlan::CongestionWindow(/*start=*/0, /*duration=*/500 * kMillisecond,
                                  /*drop_prob=*/0.10)};
  scenario.rcse_mode = RcseMode::kCombined;  // exercise the race trigger
  scenario.world_seeds_to_try = 2;
  scenario.sched_seeds_to_try = 6;
  return scenario;
}

BugScenario MakeOverflowScenario() { return MakeOverflowScenario(OverflowOptions()); }

BugScenario MakeOverflowScenario(const OverflowOptions& options) {
  BugScenario scenario;
  scenario.name = "overflow";
  scenario.make_program = [options](uint64_t world_seed) -> std::unique_ptr<SimProgram> {
    OverflowOptions seeded = options;
    seeded.world_seed = world_seed;
    return std::make_unique<OverflowProgram>(seeded);
  };
  scenario.env_options.scheduling.preempt_probability = 0.0;  // single fiber
  scenario.production_world_seed = FindOverflowWorldSeed(options);
  scenario.production_sched_seed = 1;

  scenario.catalog = RootCauseCatalog(
      {RootCauseSpec{"unchecked-copy",
                     "request copied into the buffer without a length check",
                     [](const ExecutionView& view) {
                       const FailureInfo* failure = view.outcome.primary_failure();
                       return failure != nullptr &&
                              failure->kind == FailureKind::kCrash &&
                              HasAnnotation(view, kTagOverflowUncheckedCopy);
                     }}},
      /*actual_id=*/"unchecked-copy");

  for (uint32_t i = 0; i < options.num_requests; ++i) {
    scenario.input_domains.push_back(
        {OverflowProgram::kInputLen, options.min_len, options.max_len});
  }
  scenario.symbolic_model =
      [options](const std::vector<uint64_t>& outputs) -> std::unique_ptr<CspProblem> {
    auto problem = std::make_unique<CspProblem>();
    std::vector<CspProblem::VarId> lens;
    for (uint32_t i = 0; i < options.num_requests; ++i) {
      lens.push_back(problem->AddVariable("len" + std::to_string(i),
                                          options.min_len, options.max_len));
    }
    // Each recorded output pins the corresponding request length; requests
    // after the crash point stay free.
    for (size_t i = 0; i < outputs.size() && i < lens.size(); ++i) {
      problem->AddLinearEquals({{lens[i], 1}}, static_cast<int64_t>(outputs[i]));
    }
    return problem;
  };
  scenario.world_seeds_to_try = 6;
  scenario.sched_seeds_to_try = 2;
  return scenario;
}

std::vector<BugScenario> AllBugScenarios() {
  std::vector<BugScenario> scenarios;
  scenarios.push_back(MakeSumScenario());
  scenarios.push_back(MakeMsgDropScenario());
  scenarios.push_back(MakeOverflowScenario());
  scenarios.push_back(MakeHypertableScenario());
  return scenarios;
}

Result<BugScenario> FindBugScenario(const std::string& name) {
  for (BugScenario& scenario : AllBugScenarios()) {
    if (scenario.name == name) {
      return std::move(scenario);
    }
  }
  return NotFoundError("unknown scenario '" + name +
                       "' (expected sum, msgdrop, overflow, or hypertable)");
}

BugScenario MakeHypertableScenario() { return MakeHypertableScenario(HtConfig()); }

BugScenario MakeHypertableScenario(const HtConfig& config) {
  BugScenario scenario;
  scenario.name = "hypertable";
  scenario.make_program = [config](uint64_t world_seed) -> std::unique_ptr<SimProgram> {
    return std::make_unique<HypertableProgram>(world_seed, config);
  };
  scenario.env_options.scheduling.preempt_probability = 0.15;
  scenario.env_options.max_events = 4'000'000;
  scenario.production_world_seed = 42;
  scenario.max_seed_search = 200;

  scenario.catalog = RootCauseCatalog(
      {RootCauseSpec{"migration-race",
                     "row committed to a slave that concurrently lost the "
                     "row's range (issue 63)",
                     [](const ExecutionView& view) {
                       return HasAnnotation(view, kTagHtLostRowCommit);
                     }},
       RootCauseSpec{"slave-crash",
                     "a slave crashed after rows were uploaded to it",
                     [](const ExecutionView& view) { return HasNodeCrash(view); }},
       RootCauseSpec{"client-oom",
                     "the dump client ran out of memory mid-dump and "
                     "swallowed the error",
                     [](const ExecutionView& view) {
                       return HasAnnotation(view, kTagHtOomDuringDump);
                     }}},
      /*actual_id=*/"migration-race");

  // Alternate explanations ESD-style inference will try first: a slave
  // crash after rows were uploaded to it (mid-load), then a client OOM
  // armed just before the dump phase.
  scenario.candidate_fault_plans = {
      FaultPlan::CrashNodeAt(/*node=*/2, /*time=*/10 * kMillisecond),
      FaultPlan::OomAt(/*node=*/0, /*time=*/15 * kMillisecond)};

  scenario.rcse_mode = RcseMode::kCodeBased;  // §4 uses control-plane selection
  scenario.world_seeds_to_try = 2;
  scenario.sched_seeds_to_try = 4;
  return scenario;
}

}  // namespace ddr
