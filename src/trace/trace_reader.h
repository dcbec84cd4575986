// TraceReader: random-access reader for DDRT v1 trace files.
//
// Open() reads only the header, trailer, footer, metadata, snapshot, and
// checkpoint index (all small). Event chunks are read on demand, so
// inspecting a trace or decoding a mid-trace range does not pull the whole
// file through memory — `bytes_read()` exposes exactly how much I/O a
// given access pattern cost.
//
// All reads go through a RandomAccessFile (src/util/random_access_file.h):
// positional pread or zero-copy mmap, chosen per open. Every read method is const and safe to
// call from many threads at once, and a reader window can share its handle
// with other windows (OpenShared — how CorpusReader serves N concurrent
// replays of one bundle through a single file open).
//
// When a ChunkCache is attached, decoded chunks are shared across every
// reader of the same file: a warm re-read of a hot chunk costs zero disk
// bytes and zero decode work. `bytes_read()` counts only cold bytes, and
// `cache_hits()`/`cache_misses()` expose the split per reader.

#ifndef SRC_TRACE_TRACE_READER_H_
#define SRC_TRACE_TRACE_READER_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/record/recorded_execution.h"
#include "src/trace/checkpoint.h"
#include "src/trace/chunk_cache.h"
#include "src/trace/trace_format.h"
#include "src/util/random_access_file.h"

namespace ddr {

struct TraceReaderOptions {
  RandomAccessFileOptions io;
  // Optional decoded-chunk cache, shared across readers. One cache may
  // serve many files: entries are namespaced by the open handle's
  // process-unique id, so readers sharing a handle share chunks and a
  // re-opened (possibly replaced) path never sees stale ones.
  std::shared_ptr<ChunkCache> cache;
};

class TraceReader {
 public:
  static Result<TraceReader> Open(const std::string& path,
                                  const TraceReaderOptions& options = {});

  // Opens a DDRT image embedded in a larger file (a DDRC corpus bundle):
  // the image spans [base_offset, base_offset + image_size) of `path`.
  // `image_size` 0 means "through end of file".
  static Result<TraceReader> OpenAt(const std::string& path,
                                    uint64_t base_offset, uint64_t image_size,
                                    const TraceReaderOptions& options = {});

  // Opens a window over an already-open shared handle: no file open, no
  // lseek cursor, just the image's own section parses. This is how a
  // CorpusReader hands out per-entry readers — N threads each take a
  // cheap window onto one handle (and one decoded-chunk cache).
  static Result<TraceReader> OpenShared(std::shared_ptr<RandomAccessFile> file,
                                        uint64_t base_offset,
                                        uint64_t image_size,
                                        std::shared_ptr<ChunkCache> cache = nullptr);

  TraceReader(TraceReader&& other) noexcept;
  TraceReader& operator=(TraceReader&& other) noexcept;

  const std::string& path() const { return path_; }
  const TraceMetadata& metadata() const { return metadata_; }
  const FailureSnapshot& snapshot() const { return snapshot_; }
  const CheckpointIndex& checkpoints() const { return checkpoints_; }
  const std::vector<TraceChunkInfo>& chunks() const { return footer_.chunks; }
  uint64_t total_events() const { return footer_.total_events; }
  // Size of the DDRT image (the whole file for Open, the embedded window
  // for OpenAt/OpenShared).
  uint64_t file_size() const { return file_size_; }
  // The backend actually serving reads (after any open-time fallback).
  IoBackend io_backend() const { return file_->backend(); }
  // Cold bytes this reader pulled through the backend so far (framing +
  // payload). Cache hits add nothing here — that is the point.
  uint64_t bytes_read() const {
    return bytes_read_.load(std::memory_order_relaxed);
  }
  // Decoded-chunk cache outcomes for this reader's chunk accesses. Both
  // stay 0 when no cache is attached.
  uint64_t cache_hits() const {
    return cache_hits_.load(std::memory_order_relaxed);
  }
  uint64_t cache_misses() const {
    return cache_misses_.load(std::memory_order_relaxed);
  }

  // Decodes every chunk into an EventLog.
  Result<EventLog> ReadAllEvents() const;

  // Decodes only the chunks covering [first_event, first_event + count),
  // returning exactly those events.
  Result<std::vector<Event>> ReadEvents(uint64_t first_event,
                                        uint64_t count) const;

  // Reassembles the full RecordedExecution (original_outcome stays
  // default-initialized: ground truth does not ship in trace files).
  Result<RecordedExecution> ReadRecordedExecution() const;

  // Full structural verification: every section CRC, every event decodes,
  // chunk table contiguity, and checkpoint fingerprints recompute.
  Status Verify() const;

 private:
  TraceReader() = default;

  static Result<TraceReader> OpenImpl(std::shared_ptr<RandomAccessFile> file,
                                      uint64_t base_offset,
                                      uint64_t image_size,
                                      std::shared_ptr<ChunkCache> cache);

  Result<TraceSectionPayload> ReadSection(uint64_t offset,
                                          TraceSection expected_kind) const;
  Result<ChunkCache::EventsPtr> DecodeChunk(size_t chunk_index) const;

  std::string path_;
  std::shared_ptr<RandomAccessFile> file_;
  std::shared_ptr<ChunkCache> cache_;
  uint64_t cache_file_id_ = 0;  // file_->id(): cache namespace for this handle
  uint64_t base_offset_ = 0;    // nonzero for corpus-embedded images
  uint64_t file_size_ = 0;
  mutable std::atomic<uint64_t> bytes_read_{0};
  mutable std::atomic<uint64_t> cache_hits_{0};
  mutable std::atomic<uint64_t> cache_misses_{0};

  TraceFooter footer_;
  TraceMetadata metadata_;
  FailureSnapshot snapshot_;
  CheckpointIndex checkpoints_;
};

}  // namespace ddr

#endif  // SRC_TRACE_TRACE_READER_H_
