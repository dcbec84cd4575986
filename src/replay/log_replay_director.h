// LogReplayDirector: drives an Environment from a recorded EventLog.
//
// Replays whatever the log contains and leaves the rest to re-execution:
//   - thread schedule: context switches are re-forced at the recorded
//     decision points (preemptions) and recorded picks are returned at every
//     scheduler decision;
//   - environment RNG draws, input values, shared-read values: overridden
//     from per-object FIFOs built from the log — an object with no recorded
//     values falls through to live generation (this is how partial RCSE logs
//     replay: recorded control-plane data is enforced, relaxed data-plane
//     values are re-synthesized by execution).
//
// Divergences (a recorded pick not runnable, or log exhaustion) are counted,
// not fatal: the director falls back to its fallback scheduling policy.

#ifndef SRC_REPLAY_LOG_REPLAY_DIRECTOR_H_
#define SRC_REPLAY_LOG_REPLAY_DIRECTOR_H_

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "src/record/event_log.h"
#include "src/sim/director.h"

namespace ddr {

struct LogReplayConfig {
  bool follow_schedule = true;
  bool override_rng = true;
  bool override_inputs = true;
  bool override_shared_reads = true;
  // Used when not following the schedule (or after divergence).
  SchedulingOptions fallback;
};

class LogReplayDirector : public ExecutionDirector {
 public:
  LogReplayDirector(const EventLog& log, LogReplayConfig config);

  bool ShouldPreempt(Environment& env, FiberId current, uint64_t decision_seq) override;
  FiberId PickNextFiber(Environment& env, const std::vector<FiberId>& runnable,
                        uint64_t switch_seq) override;
  bool OverrideRngDraw(Environment& env, RngPurpose purpose, uint64_t* value) override;
  bool OverrideInput(Environment& env, ObjectId source, uint64_t* value) override;
  bool OverrideSharedRead(Environment& env, ObjectId cell, uint64_t* value) override;

  uint64_t divergences() const { return divergences_; }
  uint64_t schedule_cursor() const { return cursor_; }
  size_t schedule_length() const { return switches_.size(); }

  // Playback-cursor state: how many recorded values each stream has
  // consumed so far. Together with schedule_cursor() this is what a
  // ReplayCheckpoint captures (src/replay/replayer.h); partial replay
  // compares these against the checkpoint at the fast-forward boundary.
  uint64_t rng_cursor() const { return rng_consumed_; }
  uint64_t input_cursor() const { return inputs_consumed_; }
  uint64_t read_cursor() const { return reads_consumed_; }

 private:
  struct SwitchRec {
    uint64_t decision = 0;
    SwitchCause cause = SwitchCause::kNone;
    FiberId prev = kInvalidFiber;
    FiberId next = kInvalidFiber;
  };

  LogReplayConfig config_;
  std::vector<SwitchRec> switches_;
  size_t cursor_ = 0;
  uint64_t divergences_ = 0;
  bool follow_schedule_ = false;

  std::deque<uint64_t> rng_values_;
  std::map<ObjectId, std::deque<uint64_t>> input_values_;
  std::map<ObjectId, std::deque<uint64_t>> read_values_;
  uint64_t rng_consumed_ = 0;
  uint64_t inputs_consumed_ = 0;
  uint64_t reads_consumed_ = 0;

  size_t rr_cursor_ = 0;  // fallback round-robin state
};

}  // namespace ddr

#endif  // SRC_REPLAY_LOG_REPLAY_DIRECTOR_H_
