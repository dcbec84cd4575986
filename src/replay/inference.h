// InferenceEngine: post-factum synthesis of executions for relaxed
// determinism models.
//
// Failure determinism (ESD) and output determinism (ODR) do not record
// enough to drive replay directly; they must *infer* the missing
// nondeterminism. This engine performs bounded deterministic search over
//   - environment schedules (seeds),
//   - world seeds (unrecorded external input content),
//   - candidate environment fault plans (crashes, OOM, congestion),
//   - and, for output determinism, input assignments from declared domains,
//     optionally pruned by a constraint-solver model (src/replay/solver.h),
// until a candidate execution satisfies the goal (same failure fingerprint,
// or same output fingerprint).
//
// The search is deterministic, so which execution is found "first" is
// stable — that is exactly how the engine exhibits §2's pitfalls: the first
// execution matching a failure may reach it through a different root cause.

#ifndef SRC_REPLAY_INFERENCE_H_
#define SRC_REPLAY_INFERENCE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/record/event_log.h"
#include "src/record/snapshot.h"
#include "src/replay/solver.h"
#include "src/sim/environment.h"
#include "src/sim/fault.h"
#include "src/sim/program.h"

namespace ddr {

// How replay/inference constructs candidate executions of the program under
// debugging. `make_program(world_seed)` builds a fresh program whose
// external input generators are seeded with `world_seed`; the production
// run's world seed is intentionally unavailable.
struct ReplayTarget {
  std::function<std::unique_ptr<SimProgram>(uint64_t world_seed)> make_program;
  Environment::Options env_options;

  // Fault plans inference may hypothesize (index 0 is implicitly "none").
  std::vector<FaultPlan> candidate_fault_plans;

  // Input sources whose values output-deterministic inference may choose
  // freely, with their declared domains, in program read order.
  struct InputDomain {
    std::string source_name;
    int64_t lo = 0;
    int64_t hi = 0;
  };
  std::vector<InputDomain> input_domains;

  // Optional symbolic model: builds a CSP over the input domains such that
  // any solution reproduces the given recorded output values. Nullptr
  // disables solver pruning (plain enumeration is used instead).
  std::function<std::unique_ptr<CspProblem>(const std::vector<uint64_t>& recorded_outputs)>
      symbolic_model;

  // Seed-search widths.
  uint64_t world_seeds_to_try = 4;
  uint64_t sched_seeds_to_try = 12;
};

// A search stops after `max_attempts` candidate executions. Each candidate
// is itself bounded by Environment::Options::max_events, so the budget
// bounds the whole search without a clock, and every InferenceStats field
// is a pure function of the recording.
struct InferenceBudget {
  uint64_t max_attempts = 4000;
};

struct InferenceStats {
  uint64_t attempts = 0;
  uint64_t total_events_simulated = 0;
  uint64_t solver_nodes = 0;
};

struct SynthesisResult {
  bool found = false;
  Outcome outcome;                    // outcome of the matching execution
  std::vector<Event> trace;           // its full event trace (for analysis)
  uint64_t world_seed = 0;
  uint64_t sched_seed = 0;
  size_t fault_plan_index = 0;        // 0 = no injected fault
  std::vector<int64_t> input_assignment;  // output-det inference only
  InferenceStats stats;
};

class InferenceEngine {
 public:
  InferenceEngine(ReplayTarget target, InferenceBudget budget)
      : target_(std::move(target)), budget_(budget) {}

  // ESD-style: find an execution exhibiting the snapshot's failure.
  SynthesisResult SynthesizeMatchingFailure(const FailureSnapshot& snapshot);

  // ODR-style: find an execution whose outputs match the recorded output
  // fingerprint. If `log` is provided and contains inputs (ODR's heavier
  // scheme), those inputs are replayed and only schedules are searched.
  SynthesisResult SynthesizeMatchingOutputs(const FailureSnapshot& snapshot,
                                            const EventLog* log);

 private:
  using Accept = std::function<bool(const Outcome&)>;

  // One candidate execution. Input reads come from `input_assignment`,
  // else from `input_log`, else from the world seed.
  struct Candidate {
    uint64_t world_seed = 1;
    uint64_t sched_seed = 1;
    size_t fault_plan_index = 0;  // 0 = no injected fault
    const std::vector<int64_t>* input_assignment = nullptr;
    const EventLog* input_log = nullptr;
  };

  // The one search step: runs `candidate` unless the budget is spent and
  // records it in `result`. Returns true when the search is over, because
  // the candidate matched or no attempts are left.
  bool TryCandidate(const Candidate& candidate, const Accept& accept,
                    SynthesisResult* result);
  // Every world x sched seed pair under one fault plan and input log.
  bool SweepSeeds(size_t fault_plan_index, const EventLog* input_log,
                  const Accept& accept, SynthesisResult* result);
  // `solutions` in order if any, else every assignment of the declared
  // input domains in lexicographic order.
  bool SweepAssignments(const std::vector<std::vector<int64_t>>& solutions,
                        const Accept& accept, SynthesisResult* result);

  ReplayTarget target_;
  InferenceBudget budget_;
};

}  // namespace ddr

#endif  // SRC_REPLAY_INFERENCE_H_
