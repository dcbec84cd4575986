// Replayer: per-determinism-model replay orchestration.
//
// Given a RecordedExecution and a model, produces the replayed execution —
// either by direct log-driven replay (perfect / value / RCSE) or by
// inference (output / failure determinism). The replayer never sees the
// production run's seeds; relaxed data is re-synthesized from replay-time
// seeds, exactly as a real inference engine fills in unrecorded values.

#ifndef SRC_REPLAY_REPLAYER_H_
#define SRC_REPLAY_REPLAYER_H_

#include <string>
#include <vector>

#include "src/record/recorded_execution.h"
#include "src/replay/inference.h"
#include "src/replay/log_replay_director.h"
#include "src/util/status.h"

namespace ddr {

enum class ReplayMode {
  kPerfect,
  kValue,
  kRcse,
  kOutputOnly,
  kOutputHeavy,
  kFailure,
};

std::string_view ReplayModeName(ReplayMode mode);

// True for the modes that replay straight from the log (perfect, value,
// RCSE); the others search for an execution by inference. Only log-driven
// modes support checkpointed partial replay.
bool IsLogDriven(ReplayMode mode);

// The Huselius-style "replay starting point" before log event
// `event_index`: where the replay director's cursors stand after
// consuming the log prefix [0, event_index), plus a running fingerprint
// of that prefix. Every field is a function of the log, so partial replay
// computes it from the recording it replays instead of trusting a stored
// copy.
//
// In this simulated substrate there is no process-image snapshot, so a
// checkpoint does not eliminate prefix re-execution — it eliminates prefix
// *observation* (trace sinks, analysis, event materialization) and checks
// that the fast-forward reached exactly the recorded point.
struct ReplayCheckpoint {
  // Original-run sequence number of the first post-checkpoint event. For
  // subset logs (value/RCSE) this is how the replayed full event stream is
  // aligned with the log position.
  uint64_t resume_seq = 0;
  // Running semantic fingerprint of the log prefix.
  uint64_t prefix_fingerprint = 0;

  // Replay-director cursor state after consuming the prefix.
  uint64_t schedule_cursor = 0;  // context switches consumed
  uint64_t rng_cursor = 0;       // rng draws consumed
  uint64_t input_cursor = 0;     // input values consumed (all sources)
  uint64_t read_cursor = 0;      // shared-read values consumed (all cells)
};

// The checkpoint before `log.events()[event_index]`; requires
// event_index < log.size().
ReplayCheckpoint CheckpointAt(const EventLog& log, uint64_t event_index);

struct ReplayResult {
  std::string model;
  Outcome outcome;
  std::vector<Event> trace;
  // Whether the replayed execution exhibits the recorded failure.
  bool failure_reproduced = false;
  // Schedule divergences during log-driven replay (0 = faithful).
  uint64_t divergences = 0;
  // Filled for inference-based modes.
  InferenceStats inference;
  bool inference_found = false;
  size_t fault_plan_index = 0;
  std::vector<int64_t> input_assignment;
  // Total tool time to produce the replayed execution (drives DE).
  double wall_seconds = 0.0;

  // Partial (checkpointed) replay bookkeeping. When `partial` is set, the
  // prefix [0, started_from_event) was fast-forwarded with observation
  // disabled and `trace` holds only the suffix events.
  bool partial = false;
  uint64_t started_from_event = 0;
  // The fast-forwarded prefix matched the checkpoint computed from the log
  // (prefix fingerprint + director cursors). Only checkable for
  // full-stream logs; false also when the log is a subset.
  bool fast_forward_verified = false;
};

// Environment/world seeds used for replay runs; deliberately unrelated to
// any production seed (the replayer does not know it).
inline constexpr uint64_t kReplayEnvSeed = 0xD1CEBA5Eu;
inline constexpr uint64_t kReplayWorldSeed = 0x5EED0F0Fu;

class Replayer {
 public:
  explicit Replayer(ReplayTarget target, InferenceBudget budget = InferenceBudget())
      : target_(std::move(target)), budget_(budget) {}

  ReplayResult Replay(const RecordedExecution& recording, ReplayMode mode);

  // Checkpointed partial replay (log-driven modes only): fast-forwards to
  // log event `target_event`, observing (collecting, fingerprinting) only
  // the suffix from there on. In this re-execution substrate a checkpoint
  // does not skip prefix execution — it skips prefix *observation* and
  // verifies the fast-forward against CheckpointAt(recording.log,
  // target_event), so the debugging session can trust it landed on the
  // recorded path. Target 0 is a full replay; a target at or past the
  // log's end, or an inference mode, is InvalidArgument.
  Result<ReplayResult> PartialReplay(const RecordedExecution& recording,
                                     uint64_t target_event,
                                     ReplayMode mode = ReplayMode::kPerfect);

 private:
  ReplayResult DirectReplay(const RecordedExecution& recording,
                            const LogReplayConfig& config, std::string_view name,
                            uint64_t target_event = 0);
  ReplayResult InferredReplay(const RecordedExecution& recording, ReplayMode mode);

  ReplayTarget target_;
  InferenceBudget budget_;
};

}  // namespace ddr

#endif  // SRC_REPLAY_REPLAYER_H_
