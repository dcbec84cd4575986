#include "src/trace/checkpoint.h"

#include "src/util/hash.h"

namespace ddr {

void ReplayCheckpoint::EncodeTo(Encoder* encoder) const {
  encoder->PutVarint64(event_index);
  encoder->PutVarint64(chunk_index);
  encoder->PutVarint64(resume_seq);
  encoder->PutFixed64(prefix_fingerprint);
  encoder->PutVarint64(virtual_time);
  encoder->PutVarint64(schedule_cursor);
  encoder->PutVarint64(rng_cursor);
  encoder->PutVarint64(input_cursor);
  encoder->PutVarint64(read_cursor);
}

Result<ReplayCheckpoint> ReplayCheckpoint::DecodeFrom(Decoder* decoder) {
  ReplayCheckpoint cp;
  ASSIGN_OR_RETURN(cp.event_index, decoder->GetVarint64());
  ASSIGN_OR_RETURN(cp.chunk_index, decoder->GetVarint64());
  ASSIGN_OR_RETURN(cp.resume_seq, decoder->GetVarint64());
  ASSIGN_OR_RETURN(cp.prefix_fingerprint, decoder->GetFixed64());
  ASSIGN_OR_RETURN(cp.virtual_time, decoder->GetVarint64());
  ASSIGN_OR_RETURN(cp.schedule_cursor, decoder->GetVarint64());
  ASSIGN_OR_RETURN(cp.rng_cursor, decoder->GetVarint64());
  ASSIGN_OR_RETURN(cp.input_cursor, decoder->GetVarint64());
  ASSIGN_OR_RETURN(cp.read_cursor, decoder->GetVarint64());
  return cp;
}

const ReplayCheckpoint* CheckpointIndex::NearestBefore(uint64_t target_event) const {
  const ReplayCheckpoint* best = nullptr;
  for (const ReplayCheckpoint& cp : checkpoints) {
    if (cp.event_index <= target_event &&
        (best == nullptr || cp.event_index > best->event_index)) {
      best = &cp;
    }
  }
  return best;
}

std::vector<uint8_t> CheckpointIndex::Encode() const {
  Encoder encoder;
  encoder.PutBool(full_stream);
  encoder.PutVarint64(interval);
  encoder.PutVarint64(checkpoints.size());
  for (const ReplayCheckpoint& cp : checkpoints) {
    cp.EncodeTo(&encoder);
  }
  return encoder.TakeBuffer();
}

Result<CheckpointIndex> CheckpointIndex::Decode(std::span<const uint8_t> bytes) {
  Decoder decoder(bytes.data(), bytes.size());
  CheckpointIndex index;
  ASSIGN_OR_RETURN(index.full_stream, decoder.GetBool());
  ASSIGN_OR_RETURN(index.interval, decoder.GetVarint64());
  ASSIGN_OR_RETURN(uint64_t count, decoder.GetVarint64());
  for (uint64_t i = 0; i < count; ++i) {
    ASSIGN_OR_RETURN(ReplayCheckpoint cp, ReplayCheckpoint::DecodeFrom(&decoder));
    index.checkpoints.push_back(cp);
  }
  if (!decoder.Done()) {
    return InvalidArgumentError("trailing bytes after checkpoint index");
  }
  return index;
}

CheckpointIndex BuildCheckpointIndex(const EventLog& log, uint64_t interval,
                                     uint64_t events_per_chunk,
                                     bool full_stream) {
  CheckpointIndex index;
  index.full_stream = full_stream;
  index.interval = interval;
  Fingerprint prefix_fp;
  uint64_t last_virtual_time = 0;
  ReplayCheckpoint cursors;  // running cursor state (event_index unused)
  const std::vector<Event>& events = log.events();
  for (uint64_t i = 0; i < events.size(); ++i) {
    const Event& event = events[i];
    // A checkpoint *before* event i: emitted at every interval boundary
    // past the start (an event-zero checkpoint would be pointless).
    if (interval != 0 && i > 0 && i % interval == 0) {
      ReplayCheckpoint cp = cursors;
      cp.event_index = i;
      cp.chunk_index = events_per_chunk == 0 ? 0 : i / events_per_chunk;
      cp.resume_seq = event.seq;
      cp.prefix_fingerprint = prefix_fp.value();
      cp.virtual_time = last_virtual_time;
      index.checkpoints.push_back(cp);
    }

    prefix_fp.Mix(event.SemanticHash());
    last_virtual_time = event.time;
    switch (event.type) {
      case EventType::kContextSwitch:
        ++cursors.schedule_cursor;
        break;
      case EventType::kRngDraw:
        ++cursors.rng_cursor;
        break;
      case EventType::kInput:
        ++cursors.input_cursor;
        break;
      case EventType::kSharedRead:
        ++cursors.read_cursor;
        break;
      default:
        break;
    }
  }
  return index;
}

}  // namespace ddr
