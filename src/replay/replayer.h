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
#include "src/trace/checkpoint.h"
#include "src/trace/trace_reader.h"

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
  // The fast-forwarded prefix matched the checkpoint's recorded state
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

  // Checkpointed partial replay (direct modes only): fast-forwards to the
  // latest checkpoint at or before `target_event`, observing (collecting,
  // fingerprinting) only the suffix from there on. In this re-execution
  // substrate a checkpoint does not skip prefix execution — it skips prefix
  // *observation* and verifies the fast-forward against the checkpoint's
  // recorded cursor state, so the debugging session can trust it landed on
  // the recorded path. Falls back to full replay when `index` has no usable
  // checkpoint.
  ReplayResult PartialReplay(const RecordedExecution& recording,
                             const CheckpointIndex& index, uint64_t target_event,
                             ReplayMode mode = ReplayMode::kPerfect);

  // Same, but reading the recording through `trace` — the I/O-layer entry
  // point for debugging sessions that probe many checkpoint windows of
  // one trace (or corpus entry). Every chunk read goes through the
  // reader's backend and shared decoded-chunk cache, so the second and
  // later windows re-decode nothing; `trace.bytes_read()` before/after
  // exposes exactly what each window cost.
  Result<ReplayResult> PartialReplayFromTrace(
      const TraceReader& trace, uint64_t target_event,
      ReplayMode mode = ReplayMode::kPerfect);

 private:
  ReplayResult DirectReplay(const RecordedExecution& recording,
                            const LogReplayConfig& config, std::string_view name,
                            const CheckpointIndex* index = nullptr,
                            const ReplayCheckpoint* checkpoint = nullptr);
  ReplayResult InferredReplay(const RecordedExecution& recording, ReplayMode mode);

  ReplayTarget target_;
  InferenceBudget budget_;
};

}  // namespace ddr

#endif  // SRC_REPLAY_REPLAYER_H_
