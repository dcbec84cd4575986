// On-disk trace file format (DDRT v3).
//
// A trace file is a RecordedExecution made durable: what a production site
// ships to the developer running replay. Layout:
//
//   [header]      12 bytes: magic "DDRT", version, flags
//   [chunk]*      sections: event chunks, `events_per_chunk` events each
//   [metadata]    section: model, scenario, counts, overhead ledger
//   [snapshot]    section: FailureSnapshot (the bug report)
//   [footer]      section: offsets of everything above + per-chunk table
//   [trailer]     12 bytes: footer offset + magic "TRDD"
//
// Sections are located through the footer, never by position, so their
// order in the file is a writer choice: WriteTrace emits event chunks
// first and the metadata/snapshot sections after them.
//
// Every section is independently framed, optionally block-compressed
// (src/trace/block_compress.h) and CRC-32 checked, so a reader can verify
// or decode any chunk without touching the rest of the file, and a
// truncated/corrupt file fails with a Status instead of garbage.
//
//   section := kind u8 | filter/codec u8 | uncompressed_size varint |
//              stored_size varint | payload[stored_size] | crc32 fixed32
//
// The second framing byte packs two values: the low nibble is the byte
// codec (raw / ddrz), the high nibble the payload pre-filter id. The
// filter is fixed by the section kind: event chunks are always the
// columnar varint-delta layout (src/trace/chunk_codec.h) and every other
// section carries none. The framing sits outside the payload CRC, so the
// reader rejects any other pairing instead of trusting the nibble.
//
// Versions 1 (row-encoded event chunks) and 2 (a stored checkpoint-index
// section, every field of which partial replay now computes from the log)
// are retired: readers reject them with "unsupported trace format version
// N", and neither number is reused.
//
// The trailer is fixed-width so `Open` can find the footer by reading the
// last 12 bytes; the footer then gives random access to all sections.
//
// A corpus bundle (DDRC v3, src/trace/corpus.h) embeds whole DDRT images
// back to back and indexes them with a kCorpusIndex section; the shared
// section framing (and CRC discipline) is what makes that reuse free.

#ifndef SRC_TRACE_TRACE_FORMAT_H_
#define SRC_TRACE_TRACE_FORMAT_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/util/codec.h"
#include "src/util/random_access_file.h"
#include "src/util/status.h"

namespace ddr {

inline constexpr uint32_t kTraceFileMagic = 0x54524444u;   // "DDRT"
inline constexpr uint32_t kTraceTrailerMagic = 0x44445254u;  // "TRDD"
// Never 1 or 2: those numbers named the retired row-chunk layout and the
// layout with a stored checkpoint index.
inline constexpr uint32_t kTraceFormatVersion = 3;
inline constexpr size_t kTraceHeaderBytes = 12;   // magic + version + flags
inline constexpr size_t kTraceTrailerBytes = 12;  // footer offset + magic

// Format ceiling on events per chunk, enforced by writers (options are
// clamped) and readers (larger counts are rejected). Decoders allocate
// event storage up front, so without a ceiling a crafted-but-decodable
// chunk (e.g. a tiny ddrz block inflating to 1 GiB of zeros, which *is* a
// valid varint stream) could demand tens of gigabytes; with it, the worst
// crafted allocation is ~300 MB — the same order as the section payload
// cap itself.
inline constexpr uint64_t kMaxChunkEvents = 1ull << 22;  // 4M events

enum class TraceSection : uint8_t {
  kMetadata = 1,
  kSnapshot = 2,
  kEventChunk = 3,
  // 4 named the version-2 checkpoint index; retired, never reused.
  kFooter = 5,
  kCorpusIndex = 6,  // DDRC bundles only (src/trace/corpus.h)
};

enum class TraceCodec : uint8_t {
  kRaw = 0,
  kDdrz = 1,  // block LZ from src/trace/block_compress.h
};

// Payload pre-filter id stamped into the section framing. kVarintDelta is
// the columnar delta event-chunk encoding from src/trace/chunk_codec.h and
// is what every event chunk carries; every other section carries kNone.
enum class TraceFilter : uint8_t {
  kNone = 0,
  kVarintDelta = 1,
};

// Everything about the recording that is not the event payload itself.
struct TraceMetadata {
  std::string model;     // determinism model that produced the log
  std::string scenario;  // BugScenario name (lets `ddr-trace replay` rebuild
                         // the program); empty if unknown
  uint64_t event_count = 0;
  uint64_t events_per_chunk = 0;
  uint64_t recorded_bytes = 0;
  int64_t overhead_nanos = 0;
  int64_t cpu_nanos = 0;
  uint64_t intercepted_events = 0;
  uint64_t recorded_events = 0;
  // Production-run wall time, carried so a reloaded recording scores
  // debugging efficiency identically. The full harness-side ground truth
  // (Outcome) deliberately does not ship: replayers must work from the log
  // and snapshot alone.
  double original_wall_seconds = 0.0;

  std::vector<uint8_t> Encode() const;
  static Result<TraceMetadata> Decode(std::span<const uint8_t> bytes);
};

// Footer entry describing one event chunk.
struct TraceChunkInfo {
  uint64_t file_offset = 0;  // offset of the chunk's section framing
  uint64_t first_event = 0;
  uint64_t event_count = 0;
};

struct TraceFooter {
  uint64_t metadata_offset = 0;
  uint64_t snapshot_offset = 0;
  uint64_t total_events = 0;
  std::vector<TraceChunkInfo> chunks;

  std::vector<uint8_t> Encode() const;
  static Result<TraceFooter> Decode(std::span<const uint8_t> bytes);
};

// Encodes a complete framed section (framing + payload + CRC), stamping
// the filter that sections of `kind` carry (see TraceFilter) into the
// framing; the caller has already encoded the payload in that layout.
// Compresses with ddrz when `allow_compress` and compression actually
// shrinks the payload.
std::vector<uint8_t> EncodeTraceSection(TraceSection kind,
                                        const std::vector<uint8_t>& payload,
                                        bool allow_compress);

// Appends a framed section to `out`; returns the section's offset in `out`.
uint64_t AppendTraceSection(std::vector<uint8_t>* out, TraceSection kind,
                            const std::vector<uint8_t>& payload,
                            bool allow_compress);

// One decoded (post-codec, still pre-filter) section payload. `view` is
// the payload bytes; it aliases the file's mmap region when the backend
// is zero-copy and the section was stored raw, and `storage` otherwise.
// Moving the struct keeps `view` valid (vector moves preserve the heap
// buffer; mapped views outlive the read by construction).
struct TraceSectionPayload {
  std::span<const uint8_t> view;
  std::vector<uint8_t> storage;
};

// Reads, CRC-checks, and decodes one framed section through a
// RandomAccessFile, rejecting a kind other than `expected_kind` or a
// filter other than the one that kind carries. `base + offset` is the
// section's absolute file position and `limit` the number of bytes in
// the window it must fit inside (the image size for a bare trace, the
// embedded window length for a corpus entry). Compressed payloads are decompressed directly
// from the backend's buffer (the mapped region itself under mmap); raw
// payloads are returned without any extra copy. `bytes_read`, when
// non-null, is advanced by the framing + payload bytes pulled through
// the handle. Thread-safe for concurrent calls on one const file.
Result<TraceSectionPayload> ReadTraceSection(
    const RandomAccessFile& file, uint64_t base, uint64_t offset,
    uint64_t limit, TraceSection expected_kind,
    std::atomic<uint64_t>* bytes_read);

}  // namespace ddr

#endif  // SRC_TRACE_TRACE_FORMAT_H_
