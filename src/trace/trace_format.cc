#include "src/trace/trace_format.h"

#include <algorithm>

#include "src/trace/block_compress.h"
#include "src/util/crc32.h"
#include "src/util/string_util.h"

namespace ddr {

std::vector<uint8_t> TraceMetadata::Encode() const {
  Encoder encoder;
  encoder.PutString(model);
  encoder.PutString(scenario);
  encoder.PutVarint64(event_count);
  encoder.PutVarint64(events_per_chunk);
  encoder.PutVarint64(recorded_bytes);
  encoder.PutZigzag64(overhead_nanos);
  encoder.PutZigzag64(cpu_nanos);
  encoder.PutVarint64(intercepted_events);
  encoder.PutVarint64(recorded_events);
  encoder.PutDouble(original_wall_seconds);
  return encoder.TakeBuffer();
}

Result<TraceMetadata> TraceMetadata::Decode(std::span<const uint8_t> bytes) {
  Decoder decoder(bytes.data(), bytes.size());
  TraceMetadata meta;
  ASSIGN_OR_RETURN(meta.model, decoder.GetString());
  ASSIGN_OR_RETURN(meta.scenario, decoder.GetString());
  ASSIGN_OR_RETURN(meta.event_count, decoder.GetVarint64());
  ASSIGN_OR_RETURN(meta.events_per_chunk, decoder.GetVarint64());
  ASSIGN_OR_RETURN(meta.recorded_bytes, decoder.GetVarint64());
  ASSIGN_OR_RETURN(meta.overhead_nanos, decoder.GetZigzag64());
  ASSIGN_OR_RETURN(meta.cpu_nanos, decoder.GetZigzag64());
  ASSIGN_OR_RETURN(meta.intercepted_events, decoder.GetVarint64());
  ASSIGN_OR_RETURN(meta.recorded_events, decoder.GetVarint64());
  ASSIGN_OR_RETURN(meta.original_wall_seconds, decoder.GetDouble());
  if (!decoder.Done()) {
    return InvalidArgumentError("trailing bytes after trace metadata");
  }
  return meta;
}

std::vector<uint8_t> TraceFooter::Encode() const {
  Encoder encoder;
  encoder.PutFixed64(metadata_offset);
  encoder.PutFixed64(snapshot_offset);
  encoder.PutVarint64(total_events);
  encoder.PutVarint64(chunks.size());
  for (const TraceChunkInfo& chunk : chunks) {
    encoder.PutVarint64(chunk.file_offset);
    encoder.PutVarint64(chunk.first_event);
    encoder.PutVarint64(chunk.event_count);
  }
  return encoder.TakeBuffer();
}

Result<TraceFooter> TraceFooter::Decode(std::span<const uint8_t> bytes) {
  Decoder decoder(bytes.data(), bytes.size());
  TraceFooter footer;
  ASSIGN_OR_RETURN(footer.metadata_offset, decoder.GetFixed64());
  ASSIGN_OR_RETURN(footer.snapshot_offset, decoder.GetFixed64());
  ASSIGN_OR_RETURN(footer.total_events, decoder.GetVarint64());
  ASSIGN_OR_RETURN(uint64_t chunk_count, decoder.GetVarint64());
  for (uint64_t i = 0; i < chunk_count; ++i) {
    TraceChunkInfo chunk;
    ASSIGN_OR_RETURN(chunk.file_offset, decoder.GetVarint64());
    ASSIGN_OR_RETURN(chunk.first_event, decoder.GetVarint64());
    ASSIGN_OR_RETURN(chunk.event_count, decoder.GetVarint64());
    footer.chunks.push_back(chunk);
  }
  if (!decoder.Done()) {
    return InvalidArgumentError("trailing bytes after trace footer");
  }
  return footer;
}

namespace {

// The pre-filter every section of `kind` carries.
TraceFilter SectionFilter(TraceSection kind) {
  return kind == TraceSection::kEventChunk ? TraceFilter::kVarintDelta
                                           : TraceFilter::kNone;
}

}  // namespace

std::vector<uint8_t> EncodeTraceSection(TraceSection kind,
                                        const std::vector<uint8_t>& payload,
                                        bool allow_compress) {
  TraceCodec codec = TraceCodec::kRaw;
  const std::vector<uint8_t>* stored = &payload;
  std::vector<uint8_t> compressed;
  if (allow_compress && !payload.empty()) {
    compressed = CompressBlock(payload);
    if (compressed.size() < payload.size()) {
      codec = TraceCodec::kDdrz;
      stored = &compressed;
    }
  }

  Encoder encoder;
  encoder.PutFixed8(static_cast<uint8_t>(kind));
  encoder.PutFixed8(
      static_cast<uint8_t>((static_cast<uint8_t>(SectionFilter(kind)) << 4) |
                           static_cast<uint8_t>(codec)));
  encoder.PutVarint64(payload.size());
  encoder.PutVarint64(stored->size());
  std::vector<uint8_t> out = encoder.TakeBuffer();
  out.insert(out.end(), stored->begin(), stored->end());

  const uint32_t crc = Crc32(stored->data(), stored->size());
  Encoder crc_encoder;
  crc_encoder.PutFixed32(crc);
  const std::vector<uint8_t>& crc_bytes = crc_encoder.buffer();
  out.insert(out.end(), crc_bytes.begin(), crc_bytes.end());
  return out;
}

uint64_t AppendTraceSection(std::vector<uint8_t>* out, TraceSection kind,
                            const std::vector<uint8_t>& payload,
                            bool allow_compress) {
  const uint64_t offset = out->size();
  const std::vector<uint8_t> section =
      EncodeTraceSection(kind, payload, allow_compress);
  out->insert(out->end(), section.begin(), section.end());
  return offset;
}

namespace {

// Section framing never exceeds kind + filter/codec + two max-width varints.
constexpr size_t kMaxSectionHeaderBytes = 2 + 10 + 10;

// Parsed section framing (not including payload bytes).
struct TraceSectionHeader {
  TraceSection kind = TraceSection::kMetadata;
  TraceCodec codec = TraceCodec::kRaw;
  uint64_t uncompressed_size = 0;
  uint64_t stored_size = 0;
};

Result<TraceSectionHeader> DecodeTraceSectionHeader(Decoder* decoder) {
  TraceSectionHeader header;
  ASSIGN_OR_RETURN(uint8_t kind, decoder->GetFixed8());
  if (kind < static_cast<uint8_t>(TraceSection::kMetadata) ||
      kind > static_cast<uint8_t>(TraceSection::kCorpusIndex)) {
    return InvalidArgumentError("unknown trace section kind");
  }
  header.kind = static_cast<TraceSection>(kind);
  ASSIGN_OR_RETURN(uint8_t packed, decoder->GetFixed8());
  const uint8_t codec = packed & 0x0F;
  if (codec > static_cast<uint8_t>(TraceCodec::kDdrz)) {
    return InvalidArgumentError("unknown trace section codec");
  }
  // The framing is outside the payload CRC, so the filter nibble is
  // checked against the one layout this kind of section is written in.
  if ((packed >> 4) != static_cast<uint8_t>(SectionFilter(header.kind))) {
    return InvalidArgumentError(
        StrPrintf("trace section filter %u does not match section kind %u",
                  static_cast<unsigned>(packed >> 4),
                  static_cast<unsigned>(kind)));
  }
  header.codec = static_cast<TraceCodec>(codec);
  ASSIGN_OR_RETURN(header.uncompressed_size, decoder->GetVarint64());
  ASSIGN_OR_RETURN(header.stored_size, decoder->GetVarint64());
  return header;
}

Status CheckSectionSize(uint64_t claimed, uint64_t limit, const char* what) {
  if (claimed > limit) {
    return InvalidArgumentError(StrPrintf(
        "trace %s size %llu exceeds window size %llu", what,
        static_cast<unsigned long long>(claimed),
        static_cast<unsigned long long>(limit)));
  }
  return OkStatus();
}

}  // namespace

Result<TraceSectionPayload> ReadTraceSection(
    const RandomAccessFile& file, uint64_t base, uint64_t offset,
    uint64_t limit, TraceSection expected_kind,
    std::atomic<uint64_t>* bytes_read) {
  if (offset >= limit) {
    return InvalidArgumentError("trace section offset past end of window");
  }
  const size_t header_bytes = static_cast<size_t>(
      std::min<uint64_t>(kMaxSectionHeaderBytes, limit - offset));
  std::vector<uint8_t> header_buf;
  ASSIGN_OR_RETURN(std::span<const uint8_t> header,
                   file.Read(base + offset, header_bytes, &header_buf));
  if (bytes_read != nullptr) {
    bytes_read->fetch_add(header.size(), std::memory_order_relaxed);
  }

  Decoder decoder(header.data(), header.size());
  ASSIGN_OR_RETURN(TraceSectionHeader section, DecodeTraceSectionHeader(&decoder));
  if (section.kind != expected_kind) {
    return InvalidArgumentError("trace section kind mismatch");
  }
  RETURN_IF_ERROR(CheckSectionSize(section.stored_size, limit, "section"));
  RETURN_IF_ERROR(
      CheckSectionSize(section.uncompressed_size, /*limit=*/1u << 30, "section"));
  const uint64_t payload_offset = offset + (header.size() - decoder.remaining());
  if (payload_offset + section.stored_size + 4 > limit) {
    return InvalidArgumentError("trace section payload past end of window");
  }

  const size_t stored_size = static_cast<size_t>(section.stored_size);
  TraceSectionPayload payload;
  ASSIGN_OR_RETURN(
      std::span<const uint8_t> stored,
      file.Read(base + payload_offset, stored_size + 4, &payload.storage));
  if (bytes_read != nullptr) {
    bytes_read->fetch_add(stored.size(), std::memory_order_relaxed);
  }

  // Trailing fixed32 CRC covers the stored payload bytes.
  Decoder crc_decoder(stored.data() + stored_size, 4);
  ASSIGN_OR_RETURN(uint32_t expected_crc, crc_decoder.GetFixed32());
  const uint32_t actual_crc = Crc32(stored.data(), stored_size);
  if (actual_crc != expected_crc) {
    return InvalidArgumentError(
        StrPrintf("trace section CRC mismatch: stored %08x, computed %08x",
                  expected_crc, actual_crc));
  }

  if (section.codec == TraceCodec::kRaw) {
    if (stored_size != section.uncompressed_size) {
      return InvalidArgumentError("raw trace section size mismatch");
    }
    // Zero-copy backends hand back the mapped bytes themselves; copying
    // backends already own them in payload.storage. Either way the
    // payload is served without another memcpy.
    payload.view = stored.first(stored_size);
    return payload;
  }
  // Decompress straight from the backend's buffer (the mapped region
  // itself under mmap) into the payload's own storage.
  ASSIGN_OR_RETURN(
      std::vector<uint8_t> decompressed,
      DecompressBlock(stored.data(), stored_size,
                      static_cast<size_t>(section.uncompressed_size)));
  payload.storage = std::move(decompressed);
  payload.view = std::span<const uint8_t>(payload.storage.data(),
                                          payload.storage.size());
  return payload;
}

}  // namespace ddr
