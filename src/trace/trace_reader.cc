#include "src/trace/trace_reader.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/trace/chunk_codec.h"
#include "src/util/string_util.h"

namespace ddr {

namespace {

// Sanity bound for section payloads: a section larger than the file is
// corrupt framing, not a big trace.
Status CheckSize(uint64_t claimed, uint64_t file_size, const char* what) {
  if (claimed > file_size) {
    return InvalidArgumentError(StrPrintf(
        "trace %s size %llu exceeds file size %llu", what,
        static_cast<unsigned long long>(claimed),
        static_cast<unsigned long long>(file_size)));
  }
  return OkStatus();
}

}  // namespace

TraceReader::TraceReader(TraceReader&& other) noexcept
    : path_(std::move(other.path_)),
      file_(std::move(other.file_)),
      cache_(std::move(other.cache_)),
      cache_file_id_(other.cache_file_id_),
      base_offset_(other.base_offset_),
      file_size_(other.file_size_),
      bytes_read_(other.bytes_read_.load(std::memory_order_relaxed)),
      cache_hits_(other.cache_hits_.load(std::memory_order_relaxed)),
      cache_misses_(other.cache_misses_.load(std::memory_order_relaxed)),
      footer_(std::move(other.footer_)),
      metadata_(std::move(other.metadata_)),
      snapshot_(std::move(other.snapshot_)) {}

TraceReader& TraceReader::operator=(TraceReader&& other) noexcept {
  if (this != &other) {
    path_ = std::move(other.path_);
    file_ = std::move(other.file_);
    cache_ = std::move(other.cache_);
    cache_file_id_ = other.cache_file_id_;
    base_offset_ = other.base_offset_;
    file_size_ = other.file_size_;
    bytes_read_.store(other.bytes_read_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    cache_hits_.store(other.cache_hits_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    cache_misses_.store(other.cache_misses_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    footer_ = std::move(other.footer_);
    metadata_ = std::move(other.metadata_);
    snapshot_ = std::move(other.snapshot_);
  }
  return *this;
}

Result<TraceReader> TraceReader::Open(const std::string& path,
                                      const TraceReaderOptions& options) {
  ASSIGN_OR_RETURN(std::shared_ptr<RandomAccessFile> file,
                   RandomAccessFile::Open(path, options.io));
  // Cache entries are namespaced by the open handle, not the path: a
  // path can be atomically replaced, a handle cannot change contents.
  const uint64_t size = file->size();
  const uint64_t cache_id = file->id();
  return OpenImpl(std::move(file), /*base_offset=*/0, size, options.cache,
                  cache_id);
}

Result<TraceReader> TraceReader::OpenShared(
    std::shared_ptr<RandomAccessFile> file, uint64_t base_offset,
    uint64_t image_size, std::shared_ptr<ChunkCache> cache,
    uint64_t cache_id) {
  if (file == nullptr) {
    return InvalidArgumentError("OpenShared requires an open file handle");
  }
  return OpenImpl(std::move(file), base_offset, image_size, std::move(cache),
                  cache_id);
}

Result<TraceReader> TraceReader::OpenImpl(std::shared_ptr<RandomAccessFile> file,
                                          uint64_t base_offset,
                                          uint64_t image_size,
                                          std::shared_ptr<ChunkCache> cache,
                                          uint64_t cache_id) {
  TraceReader reader;
  reader.path_ = file->path();
  reader.base_offset_ = base_offset;
  reader.file_ = std::move(file);
  reader.cache_ = std::move(cache);
  reader.cache_file_id_ = cache_id;
  const uint64_t total_size = reader.file_->size();
  if (base_offset > total_size) {
    return InvalidArgumentError("trace image offset past end of file: " +
                                reader.path_);
  }
  reader.file_size_ = image_size;
  // Subtraction form: a crafted huge image_size must not wrap the sum.
  if (image_size > total_size - base_offset) {
    return InvalidArgumentError("trace image extends past end of file: " +
                                reader.path_);
  }
  if (reader.file_size_ < kTraceHeaderBytes + kTraceTrailerBytes) {
    return InvalidArgumentError("trace file too small: " + reader.path_);
  }

  // Header.
  std::vector<uint8_t> scratch;
  {
    ASSIGN_OR_RETURN(
        std::span<const uint8_t> header,
        reader.file_->Read(base_offset, kTraceHeaderBytes, &scratch));
    reader.bytes_read_.fetch_add(header.size(), std::memory_order_relaxed);
    Decoder decoder(header.data(), header.size());
    ASSIGN_OR_RETURN(uint32_t magic, decoder.GetFixed32());
    if (magic != kTraceFileMagic) {
      return InvalidArgumentError("bad trace file magic");
    }
    ASSIGN_OR_RETURN(uint32_t version, decoder.GetFixed32());
    if (version != kTraceFormatVersion) {
      return InvalidArgumentError(
          StrPrintf("unsupported trace format version %u", version));
    }
  }

  // Trailer -> footer.
  uint64_t footer_offset = 0;
  {
    ASSIGN_OR_RETURN(
        std::span<const uint8_t> trailer,
        reader.file_->Read(base_offset + reader.file_size_ - kTraceTrailerBytes,
                           kTraceTrailerBytes, &scratch));
    reader.bytes_read_.fetch_add(trailer.size(), std::memory_order_relaxed);
    Decoder decoder(trailer.data(), trailer.size());
    ASSIGN_OR_RETURN(footer_offset, decoder.GetFixed64());
    ASSIGN_OR_RETURN(uint32_t magic, decoder.GetFixed32());
    if (magic != kTraceTrailerMagic) {
      return InvalidArgumentError("bad trace trailer magic (truncated file?)");
    }
  }
  RETURN_IF_ERROR(CheckSize(footer_offset, reader.file_size_, "footer offset"));

  ASSIGN_OR_RETURN(TraceSectionPayload footer_bytes,
                   reader.ReadSection(footer_offset, TraceSection::kFooter));
  ASSIGN_OR_RETURN(reader.footer_, TraceFooter::Decode(footer_bytes.view));
  // Chunk table: the chunks must tile [0, total_events) in order, so every
  // event index names exactly one stored event. The count bound also keeps
  // a crafted table from wrapping the running sum.
  uint64_t next_event = 0;
  for (const TraceChunkInfo& chunk : reader.footer_.chunks) {
    if (chunk.first_event != next_event ||
        chunk.event_count > reader.footer_.total_events - next_event) {
      return InvalidArgumentError(
          StrPrintf("trace chunk table does not tile the log at event %llu",
                    static_cast<unsigned long long>(next_event)));
    }
    next_event += chunk.event_count;
  }
  if (next_event != reader.footer_.total_events) {
    return InvalidArgumentError("trace chunk table does not cover all events");
  }

  ASSIGN_OR_RETURN(TraceSectionPayload meta_bytes,
                   reader.ReadSection(reader.footer_.metadata_offset,
                                      TraceSection::kMetadata));
  ASSIGN_OR_RETURN(reader.metadata_, TraceMetadata::Decode(meta_bytes.view));
  if (reader.metadata_.event_count != reader.footer_.total_events) {
    return InvalidArgumentError("metadata event count disagrees with footer");
  }

  ASSIGN_OR_RETURN(TraceSectionPayload snapshot_bytes,
                   reader.ReadSection(reader.footer_.snapshot_offset,
                                      TraceSection::kSnapshot));
  ASSIGN_OR_RETURN(reader.snapshot_,
                   FailureSnapshot::Decode(snapshot_bytes.view));

  return reader;
}

Result<TraceSectionPayload> TraceReader::ReadSection(
    uint64_t offset, TraceSection expected_kind) const {
  return ReadTraceSection(*file_, base_offset_, offset, file_size_,
                          expected_kind, &bytes_read_);
}

Result<ChunkCache::EventsPtr> TraceReader::DecodeChunk(
    size_t chunk_index) const {
  const TraceChunkInfo& chunk = footer_.chunks[chunk_index];
  const ChunkKey key{cache_file_id_, base_offset_, chunk_index};
  if (cache_ != nullptr) {
    if (ChunkCache::EventsPtr cached = cache_->Lookup(key)) {
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      return cached;
    }
    cache_misses_.fetch_add(1, std::memory_order_relaxed);
  }
  ASSIGN_OR_RETURN(TraceSectionPayload payload,
                   ReadSection(chunk.file_offset, TraceSection::kEventChunk));
  ASSIGN_OR_RETURN(
      std::vector<Event> events,
      DecodeEventChunkPayload(payload.view, chunk.first_event,
                              chunk.event_count));
  auto decoded = std::make_shared<const std::vector<Event>>(std::move(events));
  if (cache_ != nullptr) {
    cache_->Insert(key, decoded);
  }
  return ChunkCache::EventsPtr(std::move(decoded));
}

Result<EventLog> TraceReader::ReadAllEvents() const {
  EventLog log;
  // One up-front reservation from the footer's event count. The clamp
  // bounds what a crafted footer can demand before any chunk has decoded
  // (4M events, the same order as the documented worst-case section
  // allocation); genuinely larger traces grow geometrically past it via
  // AppendAll — a handful of reallocations total, never one per chunk.
  log.Reserve(static_cast<size_t>(
      std::min<uint64_t>(footer_.total_events, kMaxChunkEvents)));
  for (size_t i = 0; i < footer_.chunks.size(); ++i) {
    ASSIGN_OR_RETURN(ChunkCache::EventsPtr events, DecodeChunk(i));
    log.AppendAll(events->data(), events->size());
  }
  if (log.size() != footer_.total_events) {
    return InvalidArgumentError("decoded event count disagrees with footer");
  }
  return log;
}

Result<std::vector<Event>> TraceReader::ReadEvents(uint64_t first_event,
                                                   uint64_t count) const {
  std::vector<Event> out;
  if (count == 0) {
    return out;
  }
  // Saturating end: first_event + count may wrap for "rest of the trace"
  // style requests.
  const uint64_t end = first_event + count < first_event
                           ? std::numeric_limits<uint64_t>::max()
                           : first_event + count;
  out.reserve(static_cast<size_t>(std::min(
      {count, footer_.total_events, kMaxChunkEvents})));
  for (size_t i = 0; i < footer_.chunks.size(); ++i) {
    const TraceChunkInfo& chunk = footer_.chunks[i];
    const uint64_t chunk_end = chunk.first_event + chunk.event_count;
    if (chunk_end <= first_event || chunk.first_event >= end) {
      continue;  // no overlap: this chunk is never read from disk
    }
    ASSIGN_OR_RETURN(ChunkCache::EventsPtr events, DecodeChunk(i));
    for (uint64_t j = 0; j < events->size(); ++j) {
      const uint64_t index = chunk.first_event + j;
      if (index >= first_event && index < end) {
        out.push_back((*events)[static_cast<size_t>(j)]);
      }
    }
  }
  return out;
}

Result<RecordedExecution> TraceReader::ReadRecordedExecution() const {
  RecordedExecution recording;
  recording.model = metadata_.model;
  ASSIGN_OR_RETURN(recording.log, ReadAllEvents());
  recording.snapshot = snapshot_;
  recording.recorded_bytes = metadata_.recorded_bytes;
  recording.overhead_nanos = metadata_.overhead_nanos;
  recording.cpu_nanos = metadata_.cpu_nanos;
  recording.intercepted_events = metadata_.intercepted_events;
  recording.recorded_events = metadata_.recorded_events;
  return recording;
}

Status TraceReader::Verify() const {
  // Open already checked the chunk table. Decode everything: exercises
  // every CRC and every event decoder. Chunks already resident in a shared
  // cache are trusted — their CRC was checked when they were decoded from
  // disk.
  return ReadAllEvents().status();
}

}  // namespace ddr
