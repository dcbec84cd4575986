// Tests for the deterministic schedule explorer (src/analysis/sched/):
// the record/replay contract (same decision string => identical event
// sequence and identical findings), the detectors (deadlock, lost
// wakeup, lock-order cycle), the bounded-preemption DFS, the subsystem
// models, and the unarmed fast-path gate.

#include "src/analysis/sched/sched.h"

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/analysis/sched/models.h"
#include "src/util/fault_injection.h"
#include "src/util/instr_gate.h"
#include "src/util/thread_annotations.h"

namespace ddr::sched {
namespace {

bool HasKind(const std::vector<SchedFinding>& findings, FindingKind kind) {
  for (const SchedFinding& f : findings) {
    if (f.kind == kind) return true;
  }
  return false;
}

const SchedFinding* FirstOfKind(const std::vector<SchedFinding>& findings,
                                FindingKind kind) {
  for (const SchedFinding& f : findings) {
    if (f.kind == kind) return &f;
  }
  return nullptr;
}

// Small CI-sized budgets: the expect_finding models are tiny, and the
// clean models only need "no findings within budget", not exhaustion.
ExploreOptions TestOptions() {
  ExploreOptions options;
  options.dfs_budget = 128;
  options.random_budget = 32;
  options.preempt_bound = 2;
  options.seed = 7;
  return options;
}

// ------------------------------------------------------------ the gate

TEST(InstrGate, UnarmedByDefaultAndPerLayerBits) {
  // Nothing armed: instrumented primitives pay one relaxed load and
  // take the real-primitive branch.
  EXPECT_EQ(InstrArmedBits(), 0u);
  EXPECT_FALSE(FaultsArmed());
  EXPECT_FALSE(InstrArmed(kInstrSched));

  // Arming fault injection must not arm the scheduler, and vice versa —
  // the bits share one load but stay independent.
  ASSERT_TRUE(SetFaultPlan("*:trace").ok());
  EXPECT_TRUE(FaultsArmed());
  EXPECT_FALSE(InstrArmed(kInstrSched));
  ClearFaultPlan();
  EXPECT_EQ(InstrArmedBits(), 0u);
}

TEST(InstrGate, WrappersWorkUnarmed) {
  Mutex mu;
  CondVar cv;
  mu.lock();
  cv.NotifyAll();  // no waiters; must not divert into a scheduler
  mu.unlock();
  EXPECT_TRUE(mu.try_lock());
  mu.unlock();
  SharedVar<int> v(3);
  v.Store(4);
  EXPECT_EQ(v.Load(), 4);
}

TEST(InstrGate, SchedBitArmedOnlyDuringRun) {
  EXPECT_FALSE(InstrArmed(kInstrSched));
  Result<RunResult> run = RunWithSchedule(
      [] { EXPECT_TRUE(InstrArmed(kInstrSched)); }, "v1:");
  ASSERT_TRUE(run.ok());
  EXPECT_FALSE(InstrArmed(kInstrSched));
}

// ------------------------------------------------- basic run semantics

TEST(SchedRun, SingleThreadedBodyRecordsNoDecisions) {
  Result<RunResult> run = RunWithSchedule(
      [] {
        Mutex mu;
        MutexLock lock(mu);
      },
      "v1:");
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->schedule, "v1:");
  EXPECT_TRUE(run->findings.empty());
  EXPECT_TRUE(run->decisions.empty());
  // t0's lock, unlock, exit.
  ASSERT_EQ(run->events.size(), 3u);
  EXPECT_EQ(run->events[0], "t0 lock m0");
  EXPECT_EQ(run->events[1], "t0 unlock m0");
  EXPECT_EQ(run->events[2], "t0 exit");
}

TEST(SchedRun, SpawnJoinRoundTrip) {
  auto body = [] {
    auto mu = std::make_shared<Mutex>();
    auto counter = std::make_shared<int>(0);
    SchedThread t = Spawn([=] {
      MutexLock lock(*mu);
      ++*counter;
    });
    {
      MutexLock lock(*mu);
      ++*counter;
    }
    t.Join();
    EXPECT_EQ(*counter, 2);
  };
  Result<RunResult> run = RunWithSchedule(body, "v1:");
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->findings.empty());
}

TEST(SchedRun, ScheduleStringRoundTrips) {
  // A random walk's recorded schedule replays to the identical
  // execution — schedule, events, findings, preemption count.
  const SchedModel* model = FindSchedModel("server-queue");
  ASSERT_NE(model, nullptr);
  const RunResult walk = RandomWalk(model->body, /*seed=*/1234);
  Result<RunResult> replay = RunWithSchedule(model->body, walk.schedule);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->schedule, walk.schedule);
  EXPECT_EQ(replay->events, walk.events);
  EXPECT_EQ(replay->preemptions, walk.preemptions);
}

TEST(SchedRun, MalformedSchedulesAreLoudErrors) {
  auto body = [] {};
  EXPECT_FALSE(RunWithSchedule(body, "").ok());
  EXPECT_FALSE(RunWithSchedule(body, "0121").ok());
  EXPECT_FALSE(RunWithSchedule(body, "v2:01").ok());
  EXPECT_FALSE(RunWithSchedule(body, "v1:0!").ok());
}

TEST(SchedRun, ScheduleForTheWrongBodyIsAnError) {
  // A single-threaded body has no choice points, so any recorded digit
  // cannot be consumed — the replay must fail loudly, not diverge.
  Result<RunResult> run = RunWithSchedule([] {}, "v1:111");
  EXPECT_FALSE(run.ok());
}

// --------------------------------------------------------- determinism

TEST(SchedDeterminism, SameScheduleSameEventsAcrossThreeRuns) {
  const SchedModel* model = FindSchedModel("deadlock-inversion");
  ASSERT_NE(model, nullptr);
  const ExploreReport report = Explore(model->body, TestOptions());
  const SchedFinding* deadlock =
      FirstOfKind(report.findings, FindingKind::kDeadlock);
  ASSERT_NE(deadlock, nullptr);

  std::vector<std::string> first_events;
  std::vector<SchedFinding> first_findings;
  for (int i = 0; i < 3; ++i) {
    Result<RunResult> run = RunWithSchedule(model->body, deadlock->schedule);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    if (i == 0) {
      first_events = run->events;
      first_findings = run->findings;
      ASSERT_FALSE(first_events.empty());
      ASSERT_FALSE(first_findings.empty());
      continue;
    }
    EXPECT_EQ(run->events, first_events);
    ASSERT_EQ(run->findings.size(), first_findings.size());
    for (size_t f = 0; f < first_findings.size(); ++f) {
      EXPECT_EQ(run->findings[f].kind, first_findings[f].kind);
      EXPECT_EQ(run->findings[f].message, first_findings[f].message);
      EXPECT_EQ(run->findings[f].schedule, first_findings[f].schedule);
    }
  }
}

TEST(SchedDeterminism, ExplorationIsAPureFunctionOfItsOptions) {
  const SchedModel* model = FindSchedModel("cache-lru");
  ASSERT_NE(model, nullptr);
  const ExploreReport a = Explore(model->body, TestOptions());
  const ExploreReport b = Explore(model->body, TestOptions());
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.dfs_runs, b.dfs_runs);
  EXPECT_EQ(a.dfs_exhausted, b.dfs_exhausted);
  EXPECT_EQ(a.findings.size(), b.findings.size());
}

// ----------------------------------------------------------- detectors

TEST(SchedDetectors, FindsInjectedDeadlockAndReplaysIt) {
  const SchedModel* model = FindSchedModel("deadlock-inversion");
  ASSERT_NE(model, nullptr);
  const ExploreReport report = Explore(model->body, TestOptions());
  const SchedFinding* deadlock =
      FirstOfKind(report.findings, FindingKind::kDeadlock);
  ASSERT_NE(deadlock, nullptr) << "bounded exploration missed the AB/BA "
                                  "deadlock";
  EXPECT_NE(deadlock->message.find("deadlock:"), std::string::npos);
  EXPECT_EQ(deadlock->schedule.rfind("v1:", 0), 0u);

  // The decision string reproduces the same deadlock deterministically.
  Result<RunResult> replay = RunWithSchedule(model->body, deadlock->schedule);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  const SchedFinding* replayed =
      FirstOfKind(replay->findings, FindingKind::kDeadlock);
  ASSERT_NE(replayed, nullptr);
  EXPECT_EQ(replayed->message, deadlock->message);
  // The deadlock needs at most the configured number of forced
  // preemptions (DFS found it within bound 2).
  EXPECT_LE(replay->preemptions, TestOptions().preempt_bound);
}

TEST(SchedDetectors, FindsLostWakeupInBuggyStopPath) {
  const SchedModel* model = FindSchedModel("lost-wakeup");
  ASSERT_NE(model, nullptr);
  const ExploreReport report = Explore(model->body, TestOptions());
  const SchedFinding* lost =
      FirstOfKind(report.findings, FindingKind::kLostWakeup);
  ASSERT_NE(lost, nullptr) << "exploration missed the store/notify vs "
                              "check/wait window";
  EXPECT_NE(lost->message.find("lost wakeup"), std::string::npos);
  // No mutex-cycle misclassification: the bug is a lost wakeup.
  Result<RunResult> replay = RunWithSchedule(model->body, lost->schedule);
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(HasKind(replay->findings, FindingKind::kLostWakeup));
}

TEST(SchedDetectors, LockOrderCycleWithoutDeadlock) {
  const SchedModel* model = FindSchedModel("lock-order");
  ASSERT_NE(model, nullptr);
  const ExploreReport report = Explore(model->body, TestOptions());
  EXPECT_TRUE(HasKind(report.findings, FindingKind::kLockOrderCycle));
  // The outer gate makes an actual deadlock impossible.
  EXPECT_FALSE(HasKind(report.findings, FindingKind::kDeadlock));
  EXPECT_FALSE(HasKind(report.findings, FindingKind::kLostWakeup));
}

// ------------------------------------------- clean subsystem models

TEST(SchedModels, CleanModelsHaveNoFindingsWithinBudget) {
  for (const SchedModel& model : AllSchedModels()) {
    if (model.expect != SchedModel::Expect::kClean) continue;
    const ExploreReport report = Explore(model.body, TestOptions());
    EXPECT_TRUE(report.findings.empty())
        << model.name << ": " << report.findings[0].message;
    EXPECT_EQ(report.runs, report.dfs_runs + report.random_runs);
  }
}

TEST(SchedModels, BuggyModelsExhibitExactlyTheirExpectedKind) {
  struct Case {
    const char* name;
    FindingKind kind;
  };
  const Case cases[] = {
      {"deadlock-inversion", FindingKind::kDeadlock},
      {"lock-order", FindingKind::kLockOrderCycle},
      {"lost-wakeup", FindingKind::kLostWakeup},
  };
  for (const Case& c : cases) {
    const SchedModel* model = FindSchedModel(c.name);
    ASSERT_NE(model, nullptr) << c.name;
    EXPECT_NE(model->expect, SchedModel::Expect::kClean) << c.name;
    const ExploreReport report = Explore(model->body, TestOptions());
    EXPECT_TRUE(HasKind(report.findings, c.kind)) << c.name;
  }
}

TEST(SchedModels, RegistryIsStableAndLookupWorks) {
  const std::vector<SchedModel>& models = AllSchedModels();
  ASSERT_GE(models.size(), 6u);
  // Clean models first — the CLI's default explore set depends on it.
  EXPECT_EQ(models[0].expect, SchedModel::Expect::kClean);
  EXPECT_EQ(FindSchedModel("no-such-model"), nullptr);
  EXPECT_EQ(FindSchedModel("cache-lru"), &models[0]);
  EXPECT_STREQ(ExpectName(SchedModel::Expect::kClean), "clean");
  EXPECT_STREQ(ExpectName(SchedModel::Expect::kDeadlock), "deadlock");
}

// Exploration results pinned from the engine as first shipped: a change
// of substrate must not move a single run count, finding or event. Every
// finding's schedule is also replayed and its full event log compared.
// The server-queue and flock-append entries were re-pinned when those
// models became harnesses over the shipped classes; the three buggy
// fixtures are unchanged since the engine first shipped.
struct GoldenFinding {
  FindingKind kind;
  const char* message;
  const char* schedule;
  std::vector<std::string> events;  // RunWithSchedule(schedule).events
};

struct GoldenExploration {
  const char* model;
  uint64_t runs;
  uint64_t dfs_runs;
  bool dfs_exhausted;
  std::vector<GoldenFinding> findings;
};

TEST(SchedModels, ExplorationMatchesGolden) {
  const std::vector<GoldenExploration> golden = {
      {"server-queue", 160, 128, false, {}},
      {"flock-append", 96, 64, true, {}},
      {"deadlock-inversion", 65, 33, true, {
           {FindingKind::kLockOrderCycle,
            "lock-order cycle: t2 locks m0 while holding m1, but m1 is also "
            "(transitively) acquired while holding m0",
            "v1:00000000",
            {"t0 spawn t1",
             "t0 spawn t2",
             "t0 join t1 (blocked)",
             "t1 lock m0",
             "t1 lock m1",
             "t1 unlock m1",
             "t1 unlock m0",
             "t1 exit",
             "t0 joined t1",
             "t0 join t2 (blocked)",
             "t2 lock m1",
             "t2 lock m0",
             "t2 unlock m0",
             "t2 unlock m1",
             "t2 exit",
             "t0 joined t2",
             "t0 exit"}},
           {FindingKind::kLockOrderCycle,
            "lock-order cycle: t1 locks m1 while holding m0, but m0 is also "
            "(transitively) acquired while holding m1",
            "v1:00011",
            {"t0 spawn t1",
             "t0 spawn t2",
             "t0 join t1 (blocked)",
             "t1 lock m0",
             "t2 lock m1",
             "t2 lock m0 (blocked; held by t1)",
             "t1 lock m1 (blocked; held by t2)"}},
           {FindingKind::kDeadlock,
            "deadlock: t0 joining t1; t1 blocked locking m1 (held by t2); t2 "
            "blocked locking m0 (held by t1)",
            "v1:00011",
            {"t0 spawn t1",
             "t0 spawn t2",
             "t0 join t1 (blocked)",
             "t1 lock m0",
             "t2 lock m1",
             "t2 lock m0 (blocked; held by t1)",
             "t1 lock m1 (blocked; held by t2)"}},
           {FindingKind::kLockOrderCycle,
            "lock-order cycle: t1 locks m0 while holding m1, but m1 is also "
            "(transitively) acquired while holding m0",
            "v1:0011111",
            {"t0 spawn t1",
             "t0 spawn t2",
             "t0 join t1 (blocked)",
             "t2 lock m0",
             "t2 lock m1",
             "t2 unlock m1",
             "t2 unlock m0",
             "t2 exit",
             "t1 lock m1",
             "t1 lock m0",
             "t1 unlock m0",
             "t1 unlock m1",
             "t1 exit",
             "t0 joined t1",
             "t0 join t2",
             "t0 exit"}},
           {FindingKind::kDeadlock,
            "deadlock: t0 joining t1; t1 blocked locking m0 (held by t2); t2 "
            "blocked locking m1 (held by t1)",
            "v1:02121",
            {"t0 spawn t1",
             "t0 spawn t2",
             "t2 lock m0",
             "t1 lock m1",
             "t2 lock m1 (blocked; held by t1)",
             "t1 lock m0 (blocked; held by t2)",
             "t0 join t1 (blocked)"}},
           {FindingKind::kLockOrderCycle,
            "lock-order cycle: t2 locks m1 while holding m0, but m0 is also "
            "(transitively) acquired while holding m1",
            "v1:02100",
            {"t0 spawn t1",
             "t0 spawn t2",
             "t2 lock m0",
             "t1 lock m1",
             "t0 join t1 (blocked)",
             "t1 lock m0 (blocked; held by t2)",
             "t2 lock m1 (blocked; held by t1)"}},
       }},
      {"lock-order", 81, 49, true, {
           {FindingKind::kLockOrderCycle,
            "lock-order cycle: t2 locks m1 while holding m2, but m2 is also "
            "(transitively) acquired while holding m1",
            "v1:0000000000",
            {"t0 spawn t1",
             "t0 spawn t2",
             "t0 join t1 (blocked)",
             "t1 lock m0",
             "t1 lock m1",
             "t1 lock m2",
             "t1 unlock m2",
             "t1 unlock m1",
             "t1 unlock m0",
             "t1 exit",
             "t0 joined t1",
             "t0 join t2 (blocked)",
             "t2 lock m0",
             "t2 lock m2",
             "t2 lock m1",
             "t2 unlock m1",
             "t2 unlock m2",
             "t2 unlock m0",
             "t2 exit",
             "t0 joined t2",
             "t0 exit"}},
           {FindingKind::kLockOrderCycle,
            "lock-order cycle: t1 locks m1 while holding m2, but m2 is also "
            "(transitively) acquired while holding m1",
            "v1:001111111",
            {"t0 spawn t1",
             "t0 spawn t2",
             "t0 join t1 (blocked)",
             "t2 lock m0",
             "t2 lock m1",
             "t2 lock m2",
             "t2 unlock m2",
             "t2 unlock m1",
             "t2 unlock m0",
             "t2 exit",
             "t1 lock m0",
             "t1 lock m2",
             "t1 lock m1",
             "t1 unlock m1",
             "t1 unlock m2",
             "t1 unlock m0",
             "t1 exit",
             "t0 joined t1",
             "t0 join t2",
             "t0 exit"}},
       }},
      {"lost-wakeup", 37, 5, true, {
           {FindingKind::kLostWakeup,
            "lost wakeup: t0 joining t1; t1 waiting on c0 (mutex m0, no "
            "notify pending)",
            "v1:11000",
            {"t0 spawn t1",
             "t1 lock m0",
             "t1 load v0",
             "t0 store v0",
             "t0 notify-all c0 (no waiters)",
             "t0 join t1 (blocked)",
             "t1 wait c0 (releases m0)"}},
       }},
  };
  for (const GoldenExploration& want : golden) {
    SCOPED_TRACE(want.model);
    const SchedModel* model = FindSchedModel(want.model);
    ASSERT_NE(model, nullptr);
    const ExploreReport report = Explore(model->body, TestOptions());
    EXPECT_EQ(report.runs, want.runs);
    EXPECT_EQ(report.dfs_runs, want.dfs_runs);
    EXPECT_EQ(report.dfs_exhausted, want.dfs_exhausted);
    ASSERT_EQ(report.findings.size(), want.findings.size());
    for (size_t i = 0; i < want.findings.size(); ++i) {
      const GoldenFinding& finding = want.findings[i];
      EXPECT_EQ(report.findings[i].kind, finding.kind);
      EXPECT_EQ(report.findings[i].message, finding.message);
      EXPECT_EQ(report.findings[i].schedule, finding.schedule);
      Result<RunResult> replay = RunWithSchedule(model->body, finding.schedule);
      ASSERT_TRUE(replay.ok()) << replay.status().ToString();
      EXPECT_EQ(replay->events, finding.events);
    }
  }
}

// ------------------------------------------------ engine corner cases

TEST(SchedEngine, DfsExhaustsATinyModel) {
  auto body = [] {
    auto mu = std::make_shared<Mutex>();
    SchedThread t = Spawn([mu] { MutexLock lock(*mu); });
    {
      MutexLock lock(*mu);
    }
    t.Join();
  };
  ExploreOptions options = TestOptions();
  options.random_budget = 0;
  const ExploreReport report = Explore(body, options);
  EXPECT_TRUE(report.dfs_exhausted);
  EXPECT_GT(report.dfs_runs, 1u);
  EXPECT_LT(report.dfs_runs, options.dfs_budget);
  EXPECT_TRUE(report.findings.empty());
}

TEST(SchedEngine, TryLockNeverBlocksAndBothOutcomesAreReachable) {
  auto body = [] {
    auto mu = std::make_shared<Mutex>();
    auto outcomes = std::make_shared<SharedVar<int>>(0);
    SchedThread t = Spawn([=] {
      if (mu->try_lock()) {
        mu->unlock();
        outcomes->Store(1);
      } else {
        outcomes->Store(2);
      }
    });
    {
      MutexLock lock(*mu);
    }
    t.Join();
  };
  // Exhaustive-enough search: both the acquired and busy branches run;
  // neither deadlocks.
  const ExploreReport report = Explore(body, TestOptions());
  EXPECT_TRUE(report.findings.empty());
}

TEST(SchedEngine, TimedWaitCanTimeOutInsteadOfDeadlocking) {
  // A timed wait with a notify that never comes is not a lost wakeup:
  // the timeout path must let the run finish.
  auto body = [] {
    auto mu = std::make_shared<Mutex>();
    auto cv = std::make_shared<CondVar>();
    MutexLock lock(*mu);
    cv->WaitFor(*mu, std::chrono::milliseconds(1));
  };
  Result<RunResult> run = RunWithSchedule(body, "v1:");
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->findings.empty());
}

TEST(SchedEngine, SelfDeadlockIsDetected) {
  auto body = [] {
    auto mu = std::make_shared<Mutex>();
    mu->lock();
    mu->lock();  // relocking a non-recursive mutex: blocks forever
    mu->unlock();
  };
  Result<RunResult> run = RunWithSchedule(body, "v1:");
  ASSERT_TRUE(run.ok());
  ASSERT_TRUE(HasKind(run->findings, FindingKind::kDeadlock));
}

TEST(SchedEngine, PoisonedRunUnwindsEveryFiberOnTheCallersThread) {
  // Every explorer thread is a fiber on the caller's OS thread, and a
  // deadlock poisons the run: each parked fiber must unwind its own
  // stack, running its destructors, when SchedKilled is thrown into it.
  struct Guard {
    std::shared_ptr<int> count;
    ~Guard() { ++*count; }
  };
  const std::thread::id test_thread = std::this_thread::get_id();
  auto unwound = std::make_shared<int>(0);
  auto foreign = std::make_shared<int>(0);
  auto body = [=] {
    auto on_caller_thread = [=] {
      if (std::this_thread::get_id() != test_thread) ++*foreign;
    };
    on_caller_thread();
    auto a = std::make_shared<Mutex>();
    auto b = std::make_shared<Mutex>();
    SchedThread t1 = Spawn([=] {
      on_caller_thread();
      Guard guard{unwound};
      MutexLock la(*a);
      MutexLock lb(*b);
    });
    SchedThread t2 = Spawn([=] {
      on_caller_thread();
      Guard guard{unwound};
      MutexLock lb(*b);
      MutexLock la(*a);
    });
    t1.Join();
    t2.Join();
  };
  const ExploreReport report = Explore(body, TestOptions());
  EXPECT_EQ(*foreign, 0);
  const SchedFinding* deadlock =
      FirstOfKind(report.findings, FindingKind::kDeadlock);
  ASSERT_NE(deadlock, nullptr);

  *unwound = 0;
  Result<RunResult> run = RunWithSchedule(body, deadlock->schedule);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_TRUE(HasKind(run->findings, FindingKind::kDeadlock));
  EXPECT_EQ(*unwound, 2) << "SchedKilled must unwind both parked threads";
  EXPECT_EQ(*foreign, 0);
}

TEST(SchedEngine, FindingKindNamesAreStable) {
  EXPECT_STREQ(FindingKindName(FindingKind::kDeadlock), "deadlock");
  EXPECT_STREQ(FindingKindName(FindingKind::kLockOrderCycle),
               "lock-order-cycle");
  EXPECT_STREQ(FindingKindName(FindingKind::kLostWakeup), "lost-wakeup");
}

}  // namespace
}  // namespace ddr::sched
