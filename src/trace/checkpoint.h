// Checkpoint index for partial replay.
//
// Every N log events the trace writer records a ReplayCheckpoint: where the
// replay director's cursors stand after consuming the log prefix, plus a
// running fingerprint of that prefix. A replayer fast-forwarding to a
// checkpoint re-executes the prefix with observation disabled and uses the
// stored cursor state + fingerprint to verify it reached exactly the
// recorded point before it starts collecting the suffix (the Huselius-style
// "replay starting point").
//
// In this simulated substrate there is no process-image snapshot, so a
// checkpoint does not eliminate prefix re-execution — it eliminates prefix
// *observation* (trace sinks, analysis, event materialization) and, on the
// storage side, lets `ddr-trace dump`/readers decode only the chunks at or
// after the checkpoint.

#ifndef SRC_TRACE_CHECKPOINT_H_
#define SRC_TRACE_CHECKPOINT_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/record/event_log.h"
#include "src/util/codec.h"
#include "src/util/hash.h"
#include "src/util/status.h"

namespace ddr {

struct ReplayCheckpoint {
  // The checkpoint sits *before* log event `event_index`: the prefix is
  // events [0, event_index).
  uint64_t event_index = 0;
  // Chunk that holds event `event_index` in the trace file (suffix decode
  // can start there).
  uint64_t chunk_index = 0;
  // Original-run sequence number of the first post-checkpoint event. For
  // subset logs (value/RCSE) this is how the replayed full event stream is
  // aligned with the log position.
  uint64_t resume_seq = 0;
  // Running semantic fingerprint of the log prefix.
  uint64_t prefix_fingerprint = 0;
  // Virtual time of the last prefix event (diagnostics).
  uint64_t virtual_time = 0;

  // Replay-director cursor state after consuming the prefix.
  uint64_t schedule_cursor = 0;  // context switches consumed
  uint64_t rng_cursor = 0;       // rng draws consumed
  uint64_t input_cursor = 0;     // input values consumed (all sources)
  uint64_t read_cursor = 0;      // shared-read values consumed (all cells)

  void EncodeTo(Encoder* encoder) const;
  static Result<ReplayCheckpoint> DecodeFrom(Decoder* decoder);
};

struct CheckpointIndex {
  // True when the log the checkpoints were built from is a full-fidelity
  // event stream (every intercepted event recorded). Only then can a
  // replayed stream be checked against prefix_fingerprint byte-for-byte.
  bool full_stream = false;
  // Checkpoint interval the writer used (log events).
  uint64_t interval = 0;
  std::vector<ReplayCheckpoint> checkpoints;

  bool empty() const { return checkpoints.empty(); }

  // Latest checkpoint with event_index <= target, or nullptr if none
  // (replay must start from event zero).
  const ReplayCheckpoint* NearestBefore(uint64_t target_event) const;

  std::vector<uint8_t> Encode() const;
  static Result<CheckpointIndex> Decode(std::span<const uint8_t> bytes);
};

// Builds the index from a log: one checkpoint every `interval` events
// (interval 0 disables checkpointing). `events_per_chunk` mirrors the
// writer's chunking so each checkpoint knows its chunk. The trace writer
// and TraceReader::Verify both call this, so a stored index is checked
// against exactly the computation that wrote it.
CheckpointIndex BuildCheckpointIndex(const EventLog& log, uint64_t interval,
                                     uint64_t events_per_chunk,
                                     bool full_stream);

}  // namespace ddr

#endif  // SRC_TRACE_CHECKPOINT_H_
