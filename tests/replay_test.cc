// Tests for src/replay: log-driven replay fidelity (including a property
// test over randomly generated concurrent programs), the constraint solver,
// and the inference engine.

#include <gtest/gtest.h>

#include "src/record/model_recorders.h"
#include "src/replay/inference.h"
#include "src/replay/log_replay_director.h"
#include "src/replay/replayer.h"
#include "src/replay/solver.h"
#include "src/sim/channel.h"
#include "src/sim/program.h"
#include "src/sim/shared_var.h"
#include "src/sim/sync.h"
#include "src/util/rng.h"

namespace ddr {
namespace {

// ------------------------------------------------------------------ solver

TEST(SolverTest, SumFirstSolutionIsLexicographic) {
  CspProblem problem;
  auto a = problem.AddVariable("a", 0, 10);
  auto b = problem.AddVariable("b", 0, 10);
  problem.AddLinearEquals({{a, 1}, {b, 1}}, 5);
  auto solution = problem.FirstSolution();
  ASSERT_TRUE(solution.has_value());
  EXPECT_EQ((*solution)[0], 0);
  EXPECT_EQ((*solution)[1], 5);
}

TEST(SolverTest, EnumeratesAllSumSolutions) {
  CspProblem problem;
  auto a = problem.AddVariable("a", 0, 10);
  auto b = problem.AddVariable("b", 0, 10);
  problem.AddLinearEquals({{a, 1}, {b, 1}}, 5);
  auto solutions = problem.Solutions(100);
  ASSERT_EQ(solutions.size(), 6u);  // (0,5) .. (5,0)
  for (const auto& solution : solutions) {
    EXPECT_EQ(solution[0] + solution[1], 5);
  }
  // Lexicographic order.
  for (size_t i = 1; i < solutions.size(); ++i) {
    EXPECT_LT(solutions[i - 1][0], solutions[i][0]);
  }
}

TEST(SolverTest, PropagationPrunesWithoutSearch) {
  CspProblem problem;
  auto a = problem.AddVariable("a", 0, 1000000);
  problem.AddLinearEquals({{a, 1}}, 77);
  auto solution = problem.FirstSolution();
  ASSERT_TRUE(solution.has_value());
  EXPECT_EQ((*solution)[0], 77);
  EXPECT_LE(problem.nodes_explored(), 3u) << "bounds propagation should solve this";
}

TEST(SolverTest, UnsatisfiableDetected) {
  CspProblem problem;
  auto a = problem.AddVariable("a", 0, 3);
  auto b = problem.AddVariable("b", 0, 3);
  problem.AddLinearEquals({{a, 1}, {b, 1}}, 100);
  EXPECT_FALSE(problem.FirstSolution().has_value());
}

TEST(SolverTest, NegativeCoefficients) {
  CspProblem problem;
  auto a = problem.AddVariable("a", 0, 10);
  auto b = problem.AddVariable("b", 0, 10);
  problem.AddLinearEquals({{a, 1}, {b, -1}}, 3);  // a - b == 3
  auto solutions = problem.Solutions(100);
  ASSERT_FALSE(solutions.empty());
  for (const auto& solution : solutions) {
    EXPECT_EQ(solution[0] - solution[1], 3);
  }
  EXPECT_EQ(solutions.size(), 8u);  // a in [3,10]
}

TEST(SolverTest, NotEqualsAndLessEquals) {
  CspProblem problem;
  auto a = problem.AddVariable("a", 0, 5);
  problem.AddNotEquals(a, 0);
  problem.AddNotEquals(a, 1);
  problem.AddLinearLessEquals({{a, 1}}, 3);
  auto solutions = problem.Solutions(10);
  ASSERT_EQ(solutions.size(), 2u);
  EXPECT_EQ(solutions[0][0], 2);
  EXPECT_EQ(solutions[1][0], 3);
}

TEST(SolverTest, AllDifferent) {
  CspProblem problem;
  auto a = problem.AddVariable("a", 1, 3);
  auto b = problem.AddVariable("b", 1, 3);
  auto c = problem.AddVariable("c", 1, 3);
  problem.AddAllDifferent({a, b, c});
  auto solutions = problem.Solutions(100);
  EXPECT_EQ(solutions.size(), 6u);  // 3! permutations
}

TEST(SolverTest, PredicateConstraint) {
  CspProblem problem;
  auto a = problem.AddVariable("a", 0, 20);
  problem.AddPredicate({a}, [](const std::vector<int64_t>& values) {
    return values[0] % 7 == 0 && values[0] > 0;
  });
  auto solutions = problem.Solutions(10);
  ASSERT_EQ(solutions.size(), 2u);
  EXPECT_EQ(solutions[0][0], 7);
  EXPECT_EQ(solutions[1][0], 14);
}

TEST(SolverTest, NegativeDomains) {
  CspProblem problem;
  auto a = problem.AddVariable("a", -10, 10);
  auto b = problem.AddVariable("b", -10, 10);
  problem.AddLinearEquals({{a, 2}, {b, 3}}, 1);
  auto solutions = problem.Solutions(1000);
  ASSERT_FALSE(solutions.empty());
  for (const auto& solution : solutions) {
    EXPECT_EQ(2 * solution[0] + 3 * solution[1], 1);
  }
}

// --------------------------------------------- random-program replay property

// A seeded random concurrent program: a few fibers perform random sequences
// of shared reads/writes, lock/unlock, channel sends/receives, RNG draws,
// input reads, sleeps, and outputs. Used to property-test that perfect
// replay reproduces executions event for event.
class RandomProgram : public SimProgram {
 public:
  RandomProgram(uint64_t structure_seed, uint64_t world_seed)
      : structure_seed_(structure_seed), world_rng_(world_seed) {}

  std::string name() const override { return "random-program"; }

  void Configure(Environment& env) override {
    input_ = env.RegisterInputSource("random.input",
                                     [this] { return world_rng_.Next(); });
  }

  void Main(Environment& env) override {
    Rng structure(structure_seed_);
    const int num_fibers = 2 + static_cast<int>(structure.NextBelow(3));
    const int num_cells = 1 + static_cast<int>(structure.NextBelow(3));
    const int ops_per_fiber = 12 + static_cast<int>(structure.NextBelow(20));

    std::vector<std::unique_ptr<SharedVar<uint64_t>>> cells;
    for (int c = 0; c < num_cells; ++c) {
      cells.push_back(std::make_unique<SharedVar<uint64_t>>(
          env, "cell" + std::to_string(c), 0));
    }
    SimMutex mu(env, "mu");
    Channel<uint64_t> chan(env, "chan");

    // Per-fiber op scripts are fixed by the structure seed (program text),
    // while values flow from inputs and cells (execution state).
    std::vector<std::vector<int>> scripts(num_fibers);
    for (auto& script : scripts) {
      for (int i = 0; i < ops_per_fiber; ++i) {
        script.push_back(static_cast<int>(structure.NextBelow(8)));
      }
    }

    std::vector<FiberId> fibers;
    for (int f = 0; f < num_fibers; ++f) {
      fibers.push_back(env.Spawn("rp" + std::to_string(f), [&, f] {
        uint64_t acc = static_cast<uint64_t>(f);
        for (int op : scripts[f]) {
          switch (op) {
            case 0:
              acc += cells[acc % cells.size()]->Load();
              break;
            case 1:
              cells[acc % cells.size()]->Store(acc);
              break;
            case 2: {
              SimLock lock(mu);
              cells[0]->Store(cells[0]->Load() + 1);
              break;
            }
            case 3:
              chan.Send(acc);
              break;
            case 4:
              if (auto v = chan.TryRecv(); v.has_value()) {
                acc += *v;
              }
              break;
            case 5:
              acc ^= env.RngDraw(RngPurpose::kAppChoice, 1000);
              break;
            case 6:
              acc += env.ReadInput(input_);
              break;
            case 7:
              env.SleepFor(static_cast<SimDuration>(acc % 5) * kMicrosecond);
              break;
            default:
              break;
          }
        }
        env.EmitOutput(acc & 0xffff);
      }));
    }
    for (FiberId fiber : fibers) {
      env.Join(fiber);
    }
    while (chan.TryRecv().has_value()) {
    }
  }

 private:
  uint64_t structure_seed_;
  Rng world_rng_;
  ObjectId input_ = kInvalidObject;
};

class ReplayPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReplayPropertyTest, PerfectReplayReproducesTraceExactly) {
  const uint64_t structure_seed = GetParam();
  constexpr uint64_t kWorldSeed = 555;

  // Record the "production" run with a perfect recorder.
  Environment::Options options;
  options.seed = 100 + structure_seed;  // production schedule seed
  options.scheduling.preempt_probability = 0.15;
  Environment record_env(options);
  PerfectRecorder recorder;
  record_env.AddTraceSink(&recorder);
  RandomProgram original(structure_seed, kWorldSeed);
  Outcome original_outcome = record_env.Run(original);

  // Replay from the log with a different environment seed and a different
  // world seed: everything must come from the log.
  Environment::Options replay_options;
  replay_options.seed = 999999;
  Environment replay_env(replay_options);
  LogReplayConfig config;  // full replay
  LogReplayDirector director(recorder.log(), config);
  replay_env.SetDirector(&director);
  RandomProgram replayed(structure_seed, /*world_seed=*/1);
  Outcome replay_outcome = replay_env.Run(replayed);

  EXPECT_EQ(replay_outcome.trace_fingerprint, original_outcome.trace_fingerprint)
      << "structure seed " << structure_seed;
  EXPECT_EQ(replay_outcome.output_fingerprint, original_outcome.output_fingerprint);
  EXPECT_EQ(director.divergences(), 0u);
}

TEST_P(ReplayPropertyTest, ValueReplayReproducesOutputs) {
  const uint64_t structure_seed = GetParam();
  Environment::Options options;
  options.seed = 300 + structure_seed;
  options.scheduling.preempt_probability = 0.1;
  Environment record_env(options);
  ValueRecorder recorder;
  record_env.AddTraceSink(&recorder);
  RandomProgram original(structure_seed, 777);
  Outcome original_outcome = record_env.Run(original);

  Environment::Options replay_options;
  replay_options.seed = 424242;
  Environment replay_env(replay_options);
  LogReplayConfig config;
  LogReplayDirector director(recorder.log(), config);
  replay_env.SetDirector(&director);
  RandomProgram replayed(structure_seed, 1);
  Outcome replay_outcome = replay_env.Run(replayed);

  EXPECT_EQ(replay_outcome.output_fingerprint, original_outcome.output_fingerprint)
      << "structure seed " << structure_seed;
  EXPECT_EQ(director.divergences(), 0u);
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, ReplayPropertyTest,
                         ::testing::Range<uint64_t>(1, 21));

// ------------------------------------------------------------- inference

TEST(InferenceTest, FailureSynthesisFindsCrashingSeed) {
  // Program crashes iff its input is odd; the recorded production run
  // crashed. Inference must find some world seed that crashes.
  auto make_program = [](uint64_t world_seed) -> std::unique_ptr<SimProgram> {
    class OddCrash : public SimProgram {
     public:
      explicit OddCrash(uint64_t seed) : rng_(seed) {}
      std::string name() const override { return "odd-crash"; }
      void Configure(Environment& env) override {
        src_ = env.RegisterInputSource("odd.in", [this] { return rng_.Next(); });
      }
      void Main(Environment& env) override {
        if (env.ReadInput(src_) % 2 == 1) {
          env.Abort(FailureKind::kCrash, "odd input");
        }
        env.EmitOutput(1);
      }

     private:
      Rng rng_;
      ObjectId src_ = kInvalidObject;
    };
    return std::make_unique<OddCrash>(world_seed);
  };

  FailureSnapshot snapshot;
  snapshot.has_failure = true;
  snapshot.kind = FailureKind::kCrash;
  snapshot.message = "odd input";
  snapshot.node = 0;
  {
    FailureInfo info;
    info.kind = FailureKind::kCrash;
    info.message = "odd input";
    info.node = 0;
    snapshot.failure_fingerprint = info.Fingerprint();
  }

  ReplayTarget target;
  target.make_program = make_program;
  target.world_seeds_to_try = 10;
  target.sched_seeds_to_try = 1;
  InferenceEngine engine(target, InferenceBudget{});
  SynthesisResult result = engine.SynthesizeMatchingFailure(snapshot);
  ASSERT_TRUE(result.found);
  EXPECT_TRUE(result.outcome.Failed());
  EXPECT_EQ(result.outcome.primary_failure()->message, "odd input");
  EXPECT_GE(result.stats.attempts, 1u);
}

TEST(InferenceTest, BudgetBoundsAttempts) {
  auto make_program = [](uint64_t world_seed) -> std::unique_ptr<SimProgram> {
    class NeverFails : public SimProgram {
     public:
      explicit NeverFails(uint64_t) {}
      std::string name() const override { return "never"; }
      void Main(Environment& env) override { env.EmitOutput(1); }
    };
    return std::make_unique<NeverFails>(world_seed);
  };
  FailureSnapshot snapshot;
  snapshot.has_failure = true;
  snapshot.kind = FailureKind::kCrash;
  snapshot.message = "unreachable";
  snapshot.failure_fingerprint = 1234;

  ReplayTarget target;
  target.make_program = make_program;
  target.world_seeds_to_try = 100;
  target.sched_seeds_to_try = 100;
  InferenceBudget budget;
  budget.max_attempts = 25;
  InferenceEngine engine(target, budget);
  SynthesisResult result = engine.SynthesizeMatchingFailure(snapshot);
  EXPECT_FALSE(result.found);
  EXPECT_EQ(result.stats.attempts, 25u);
}

TEST(LogReplayDirectorTest, EmptyLogFallsBackToPolicy) {
  EventLog empty;
  LogReplayConfig config;
  config.fallback.preempt_probability = 0.0;
  LogReplayDirector director(empty, config);
  Environment env(Environment::Options{});
  env.SetDirector(&director);
  Outcome outcome = env.Run("fallback", [](Environment& e) {
    FiberId f = e.Spawn("child", [&] { e.Yield(); });
    e.Join(f);
    e.EmitOutput(7);
  });
  EXPECT_FALSE(outcome.Failed());
  EXPECT_EQ(outcome.outputs.size(), 1u);
}

TEST(LogReplayDirectorTest, InputOverridesComeFromLog) {
  EventLog log;
  Event input;
  input.type = EventType::kInput;
  // Object ids are assigned in creation order: the root fiber object is 0,
  // so the first source registered from Main() is object 1.
  input.obj = 1;
  input.value = 4242;
  log.Append(input);

  LogReplayConfig config;
  config.follow_schedule = false;
  LogReplayDirector director(log, config);
  Environment env(Environment::Options{});
  env.SetDirector(&director);
  uint64_t seen = 0;
  env.Run("inputs", [&](Environment& e) {
    ObjectId src = e.RegisterInputSource("src", [] { return uint64_t{1}; });
    seen = e.ReadInput(src);
    // Log exhausted: falls through to the live generator.
    EXPECT_EQ(e.ReadInput(src), 1u);
  });
  EXPECT_EQ(seen, 4242u);
}

}  // namespace
}  // namespace ddr
