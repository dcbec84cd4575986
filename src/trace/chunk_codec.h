// Event-chunk payload encodings.
//
// A chunk payload always starts `first_event varint | count varint`; what
// follows depends on the pre-filter recorded in the section framing:
//
//   kNone         row-oriented: each event's fields in Event::EncodeTo
//                 order, back to back (byte-identical to the original
//                 DDRT v1 chunks).
//   kVarintDelta  columnar: one array per field across the whole chunk,
//                 with monotone fields (seq, time) stored as a first
//                 absolute value followed by zigzag deltas. Consecutive
//                 events share types/fibers/regions, so the transposed
//                 arrays are run-heavy and the delta'd counters tiny —
//                 exactly the shape the ddrz LZ pass exploits (the raw
//                 row encoding only gave it ~1.1x).
//
// Both paths decode through DecodeEventChunkPayload, which validates the
// embedded (first, count) against the footer's chunk table entry.

#ifndef SRC_TRACE_CHUNK_CODEC_H_
#define SRC_TRACE_CHUNK_CODEC_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/sim/event.h"
#include "src/trace/trace_format.h"
#include "src/util/status.h"

namespace ddr {

// Encodes `count` events starting at `events` into a chunk payload whose
// index header says they cover [first_event, first_event + count).
std::vector<uint8_t> EncodeEventChunkPayload(const Event* events,
                                             uint64_t count,
                                             uint64_t first_event,
                                             TraceFilter filter);

// Which columnar decode implementation handles kVarintDelta chunks. Both
// produce bit-identical Event vectors from the same payload; kScalar is
// the original per-field reference loop, kBatched the hot path (bounds
// check hoisted to "a worst-case varint fits", single-byte fast case,
// columns written straight into the preallocated vector). Production
// always decodes batched; kScalar is the test and bench oracle.
enum class ColumnarDecodePath { kBatched, kScalar };

// Decodes a chunk payload written with `filter`, checking that its header
// matches the expected (first_event, count) from the footer chunk table.
// The payload span may alias an mmap'd file region: decoding reads it in
// place, and the output vector is sized from the chunk's event count up
// front. Decodes kVarintDelta chunks with the batched path.
Result<std::vector<Event>> DecodeEventChunkPayload(
    std::span<const uint8_t> payload, TraceFilter filter,
    uint64_t expected_first, uint64_t expected_count);

// Same, with an explicit columnar path. Tests use this to assert the
// batched and scalar decoders agree event-for-event on good payloads and
// both fail with a Status (never a crash) on corrupt ones.
Result<std::vector<Event>> DecodeEventChunkPayloadWithPath(
    std::span<const uint8_t> payload, TraceFilter filter,
    uint64_t expected_first, uint64_t expected_count,
    ColumnarDecodePath path);

}  // namespace ddr

#endif  // SRC_TRACE_CHUNK_CODEC_H_
