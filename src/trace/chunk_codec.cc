#include "src/trace/chunk_codec.h"

#include <algorithm>

namespace ddr {

namespace {

// Columnar body: field arrays in this fixed order. seq and time are
// monotone per chunk, so they delta well; the rest are raw varints whose
// win comes from transposition (runs of equal bytes). The bulk span
// encoders reserve each column's worst case once instead of growing the
// buffer a byte at a time; output is byte-identical to the original
// per-value loops.
void EncodeColumnar(const Event* events, uint64_t count, Encoder* encoder) {
  const size_t n = static_cast<size_t>(count);
  encoder->PutZigzagDelta64Span(n, [events](size_t i) { return events[i].seq; });
  encoder->PutZigzagDelta64Span(
      n, [events](size_t i) { return static_cast<uint64_t>(events[i].time); });
  encoder->PutVarint64Span(
      n, [events](size_t i) { return uint64_t{events[i].fiber}; });
  encoder->PutVarint64Span(
      n, [events](size_t i) { return uint64_t{events[i].node}; });
  for (size_t i = 0; i < n; ++i) {
    encoder->PutFixed8(static_cast<uint8_t>(events[i].type));
  }
  encoder->PutVarint64Span(n, [events](size_t i) { return events[i].obj; });
  encoder->PutVarint64Span(n, [events](size_t i) { return events[i].value; });
  encoder->PutVarint64Span(n, [events](size_t i) { return events[i].aux; });
  encoder->PutVarint64Span(
      n, [events](size_t i) { return uint64_t{events[i].region}; });
  encoder->PutVarint64Span(
      n, [events](size_t i) { return uint64_t{events[i].bytes}; });
}

// Reference columnar decoder: one checked scalar Get per value. Kept as
// the ground truth the batched path is asserted against (reachable only
// through DecodeEventChunkPayloadWithPath).
Result<std::vector<Event>> DecodeColumnarScalar(Decoder* decoder,
                                                uint64_t count) {
  std::vector<Event> events(static_cast<size_t>(count));
  uint64_t prev = 0;
  for (uint64_t i = 0; i < count; ++i) {
    ASSIGN_OR_RETURN(int64_t delta, decoder->GetZigzag64());
    prev += static_cast<uint64_t>(delta);
    events[i].seq = prev;
  }
  prev = 0;
  for (uint64_t i = 0; i < count; ++i) {
    ASSIGN_OR_RETURN(int64_t delta, decoder->GetZigzag64());
    prev += static_cast<uint64_t>(delta);
    events[i].time = static_cast<SimTime>(prev);
  }
  for (uint64_t i = 0; i < count; ++i) {
    ASSIGN_OR_RETURN(uint64_t fiber, decoder->GetVarint64());
    events[i].fiber = static_cast<FiberId>(fiber);
  }
  for (uint64_t i = 0; i < count; ++i) {
    ASSIGN_OR_RETURN(uint64_t node, decoder->GetVarint64());
    events[i].node = static_cast<NodeId>(node);
  }
  for (uint64_t i = 0; i < count; ++i) {
    ASSIGN_OR_RETURN(uint8_t type, decoder->GetFixed8());
    if (type > static_cast<uint8_t>(EventType::kNodeCrash)) {
      return InvalidArgumentError("unknown event type in columnar chunk");
    }
    events[i].type = static_cast<EventType>(type);
  }
  for (uint64_t i = 0; i < count; ++i) {
    ASSIGN_OR_RETURN(uint64_t obj, decoder->GetVarint64());
    events[i].obj = static_cast<ObjectId>(obj);
  }
  for (uint64_t i = 0; i < count; ++i) {
    ASSIGN_OR_RETURN(events[i].value, decoder->GetVarint64());
  }
  for (uint64_t i = 0; i < count; ++i) {
    ASSIGN_OR_RETURN(events[i].aux, decoder->GetVarint64());
  }
  for (uint64_t i = 0; i < count; ++i) {
    ASSIGN_OR_RETURN(uint64_t region, decoder->GetVarint64());
    events[i].region = static_cast<RegionId>(region);
  }
  for (uint64_t i = 0; i < count; ++i) {
    ASSIGN_OR_RETURN(uint64_t bytes, decoder->GetVarint64());
    if (bytes > UINT32_MAX) {
      return InvalidArgumentError("event byte count overflows in chunk");
    }
    events[i].bytes = static_cast<uint32_t>(bytes);
  }
  return events;
}

// Hot-path columnar decoder: bulk span primitives write each column
// straight into the preallocated Event vector. Produces the exact Event
// values and consumes the exact bytes of DecodeColumnarScalar on every
// decodable payload, and a Status (never a crash) on every corrupt one.
Result<std::vector<Event>> DecodeColumnarBatched(Decoder* decoder,
                                                 uint64_t count) {
  std::vector<Event> events(static_cast<size_t>(count));
  const size_t n = static_cast<size_t>(count);
  Event* e = events.data();
  RETURN_IF_ERROR(decoder->GetZigzagDelta64Span(
      n, [e](size_t i, uint64_t seq) { e[i].seq = seq; }));
  RETURN_IF_ERROR(decoder->GetZigzagDelta64Span(n, [e](size_t i, uint64_t t) {
    e[i].time = static_cast<SimTime>(t);
  }));
  RETURN_IF_ERROR(decoder->GetVarint64Span(n, [e](size_t i, uint64_t fiber) {
    e[i].fiber = static_cast<FiberId>(fiber);
  }));
  RETURN_IF_ERROR(decoder->GetVarint64Span(n, [e](size_t i, uint64_t node) {
    e[i].node = static_cast<NodeId>(node);
  }));
  // The type column is a contiguous fixed8 row: bounds-check it once and
  // validate in a tight scan instead of a checked GetFixed8 per event.
  ASSIGN_OR_RETURN(const uint8_t* types, decoder->GetBytes(n));
  for (size_t i = 0; i < n; ++i) {
    if (types[i] > static_cast<uint8_t>(EventType::kNodeCrash)) {
      return InvalidArgumentError("unknown event type in columnar chunk");
    }
    e[i].type = static_cast<EventType>(types[i]);
  }
  RETURN_IF_ERROR(decoder->GetVarint64Span(n, [e](size_t i, uint64_t obj) {
    e[i].obj = static_cast<ObjectId>(obj);
  }));
  RETURN_IF_ERROR(decoder->GetVarint64Span(
      n, [e](size_t i, uint64_t value) { e[i].value = value; }));
  RETURN_IF_ERROR(decoder->GetVarint64Span(
      n, [e](size_t i, uint64_t aux) { e[i].aux = aux; }));
  RETURN_IF_ERROR(decoder->GetVarint64Span(n, [e](size_t i, uint64_t region) {
    e[i].region = static_cast<RegionId>(region);
  }));
  // Range-validate the whole bytes column after the fact: fold the high
  // halves together instead of branching per value.
  uint64_t oversized = 0;
  RETURN_IF_ERROR(
      decoder->GetVarint64Span(n, [e, &oversized](size_t i, uint64_t bytes) {
        oversized |= bytes >> 32;
        e[i].bytes = static_cast<uint32_t>(bytes);
      }));
  if (oversized != 0) {
    return InvalidArgumentError("event byte count overflows in chunk");
  }
  return events;
}

}  // namespace

std::vector<uint8_t> EncodeEventChunkPayload(const Event* events,
                                             uint64_t count,
                                             uint64_t first_event) {
  Encoder encoder;
  encoder.PutVarint64(first_event);
  encoder.PutVarint64(count);
  EncodeColumnar(events, count, &encoder);
  return encoder.TakeBuffer();
}

Result<std::vector<Event>> DecodeEventChunkPayload(
    std::span<const uint8_t> payload, uint64_t expected_first,
    uint64_t expected_count) {
  return DecodeEventChunkPayloadWithPath(payload, expected_first,
                                         expected_count,
                                         ColumnarDecodePath::kBatched);
}

Result<std::vector<Event>> DecodeEventChunkPayloadWithPath(
    std::span<const uint8_t> payload, uint64_t expected_first,
    uint64_t expected_count, ColumnarDecodePath path) {
  Decoder decoder(payload.data(), payload.size());
  ASSIGN_OR_RETURN(uint64_t first, decoder.GetVarint64());
  ASSIGN_OR_RETURN(uint64_t count, decoder.GetVarint64());
  if (first != expected_first || count != expected_count) {
    return InvalidArgumentError("chunk payload disagrees with footer index");
  }
  // Decoders allocate event storage up front, so a crafted count must
  // fail here with a Status, never abort inside the allocation. Two
  // bounds: every encoded event occupies >= 10 payload bytes (one byte
  // per column), and no conforming writer produces chunks past the
  // format ceiling — which caps the worst crafted-but-decodable payload
  // (e.g. 1 GiB of zeros, a valid varint stream) at a sane allocation.
  if (count > payload.size() / 10 || count > kMaxChunkEvents) {
    return InvalidArgumentError("chunk event count exceeds payload or ceiling");
  }
  std::vector<Event> events;
  if (path == ColumnarDecodePath::kBatched) {
    ASSIGN_OR_RETURN(events, DecodeColumnarBatched(&decoder, count));
  } else {
    ASSIGN_OR_RETURN(events, DecodeColumnarScalar(&decoder, count));
  }
  if (!decoder.Done()) {
    return InvalidArgumentError("trailing bytes after chunk events");
  }
  return events;
}

}  // namespace ddr
