#include "src/replay/inference.h"

#include <utility>

#include "src/replay/log_replay_director.h"
#include "src/util/logging.h"

namespace ddr {
namespace {

// Overrides input reads with a fixed assignment, one value per declared
// input domain (in program read order); scheduling falls back to the default
// seeded policy. This is how output-deterministic inference "tries" inputs.
class AssignmentDirector : public DefaultDirector {
 public:
  AssignmentDirector(SchedulingOptions scheduling,
                     const std::vector<ReplayTarget::InputDomain>& domains,
                     const std::vector<int64_t>& assignment)
      : DefaultDirector(scheduling), domains_(domains), assignment_(assignment) {
    consumed_.resize(domains.size(), false);
  }

  bool OverrideInput(Environment& env, ObjectId source, uint64_t* value) override {
    const std::string& name = env.object_info(source).name;
    for (size_t i = 0; i < domains_.size(); ++i) {
      if (!consumed_[i] && domains_[i].source_name == name) {
        consumed_[i] = true;
        *value = static_cast<uint64_t>(assignment_[i]);
        return true;
      }
    }
    return false;
  }

 private:
  const std::vector<ReplayTarget::InputDomain>& domains_;
  const std::vector<int64_t>& assignment_;
  std::vector<bool> consumed_;
};

// Odometer over input domains, lexicographic. Returns false when exhausted.
bool NextAssignment(const std::vector<ReplayTarget::InputDomain>& domains,
                    std::vector<int64_t>* assignment) {
  if (assignment->empty()) {
    assignment->reserve(domains.size());
    for (const auto& domain : domains) {
      assignment->push_back(domain.lo);
    }
    return !domains.empty();
  }
  for (size_t i = domains.size(); i-- > 0;) {
    if ((*assignment)[i] < domains[i].hi) {
      ++(*assignment)[i];
      for (size_t j = i + 1; j < domains.size(); ++j) {
        (*assignment)[j] = domains[j].lo;
      }
      return true;
    }
  }
  return false;
}

}  // namespace

bool InferenceEngine::TryCandidate(const Candidate& candidate,
                                   const Accept& accept,
                                   SynthesisResult* result) {
  if (result->stats.attempts >= budget_.max_attempts) {
    return true;
  }

  Environment::Options options = target_.env_options;
  options.seed = candidate.sched_seed;
  Environment env(options);
  if (candidate.fault_plan_index > 0) {
    env.SetFaultPlan(target_.candidate_fault_plans[candidate.fault_plan_index - 1]);
  }

  CollectingSink sink;
  env.AddTraceSink(&sink);

  std::unique_ptr<ExecutionDirector> director;
  if (candidate.input_assignment != nullptr) {
    director = std::make_unique<AssignmentDirector>(options.scheduling,
                                                    target_.input_domains,
                                                    *candidate.input_assignment);
  } else if (candidate.input_log != nullptr) {
    LogReplayConfig config;
    config.follow_schedule = false;  // ODR does not record race order
    config.override_rng = false;
    config.override_inputs = true;
    config.override_shared_reads = false;
    config.fallback = options.scheduling;
    director = std::make_unique<LogReplayDirector>(*candidate.input_log, config);
  }
  if (director != nullptr) {
    env.SetDirector(director.get());
  }

  std::unique_ptr<SimProgram> program = target_.make_program(candidate.world_seed);
  Outcome outcome = env.Run(*program);

  result->stats.attempts += 1;
  result->stats.total_events_simulated += outcome.stats.events;

  if (!accept(outcome)) {
    return false;
  }
  result->found = true;
  result->outcome = std::move(outcome);
  result->trace = sink.events();
  result->world_seed = candidate.world_seed;
  result->sched_seed = candidate.sched_seed;
  result->fault_plan_index = candidate.fault_plan_index;
  if (candidate.input_assignment != nullptr) {
    result->input_assignment = *candidate.input_assignment;
  }
  return true;
}

bool InferenceEngine::SweepSeeds(size_t fault_plan_index,
                                 const EventLog* input_log,
                                 const Accept& accept,
                                 SynthesisResult* result) {
  for (uint64_t world = 1; world <= target_.world_seeds_to_try; ++world) {
    for (uint64_t sched = 1; sched <= target_.sched_seeds_to_try; ++sched) {
      const Candidate candidate{.world_seed = world,
                                .sched_seed = sched,
                                .fault_plan_index = fault_plan_index,
                                .input_log = input_log};
      if (TryCandidate(candidate, accept, result)) {
        return true;
      }
    }
  }
  return false;
}

bool InferenceEngine::SweepAssignments(
    const std::vector<std::vector<int64_t>>& solutions, const Accept& accept,
    SynthesisResult* result) {
  for (const std::vector<int64_t>& assignment : solutions) {
    if (TryCandidate({.input_assignment = &assignment}, accept, result)) {
      return true;
    }
  }
  if (!solutions.empty()) {
    return false;
  }
  std::vector<int64_t> assignment;
  while (NextAssignment(target_.input_domains, &assignment)) {
    if (TryCandidate({.input_assignment = &assignment}, accept, result)) {
      return true;
    }
  }
  return false;
}

SynthesisResult InferenceEngine::SynthesizeMatchingFailure(
    const FailureSnapshot& snapshot) {
  SynthesisResult result;
  const Accept accept = [&snapshot](const Outcome& outcome) {
    return snapshot.MatchesFailureOf(outcome);
  };

  // Explanation candidates in increasing synthesis cost: hypothesized
  // environment faults reproduce a failure deterministically, while pure
  // schedule search must hit a rare interleaving — so, like a real
  // inference engine minimizing effort, faults are tried first. This
  // ordering is precisely what makes failure determinism liable to return
  // a *different* root cause than the production run (§2, §4).
  std::vector<size_t> plan_order;
  for (size_t i = 1; i <= target_.candidate_fault_plans.size(); ++i) {
    plan_order.push_back(i);
  }
  plan_order.push_back(0);

  for (const size_t plan_index : plan_order) {
    if (SweepSeeds(plan_index, nullptr, accept, &result)) {
      return result;
    }
  }

  // Last resort: ESD-style input synthesis — enumerate declared input
  // domains looking for inputs that drive the program into the failure.
  SweepAssignments({}, accept, &result);
  return result;
}

SynthesisResult InferenceEngine::SynthesizeMatchingOutputs(
    const FailureSnapshot& snapshot, const EventLog* log) {
  SynthesisResult result;
  const Accept accept = [&snapshot](const Outcome& outcome) {
    return outcome.output_fingerprint == snapshot.output_fingerprint;
  };

  const bool log_has_inputs =
      log != nullptr && log->CountOfType(EventType::kInput) > 0;
  if (log_has_inputs) {
    // ODR's heavier scheme: inputs come from the log; infer the schedule.
    SweepSeeds(0, log, accept, &result);
    return result;
  }

  if (target_.input_domains.empty()) {
    // No declared domains: fall back to seed search.
    SweepSeeds(0, nullptr, accept, &result);
    return result;
  }

  // Candidate input assignments: solver-pruned if a symbolic model is
  // available, otherwise plain lexicographic enumeration.
  std::vector<std::vector<int64_t>> solutions;
  if (target_.symbolic_model != nullptr && log != nullptr) {
    std::vector<uint64_t> recorded_outputs;
    for (const Event& event : log->EventsOfType(EventType::kOutput)) {
      recorded_outputs.push_back(event.value);
    }
    std::unique_ptr<CspProblem> problem = target_.symbolic_model(recorded_outputs);
    if (problem != nullptr) {
      solutions = problem->Solutions(budget_.max_attempts);
      result.stats.solver_nodes = problem->nodes_explored();
    }
  }
  SweepAssignments(solutions, accept, &result);
  return result;
}

}  // namespace ddr
