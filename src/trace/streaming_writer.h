// DDRT serialization: StreamingTraceWriter, the one trace write path, and
// the SerializeTrace / WriteTraceFile calls over it.
//
// The streaming writer takes a recording's events in order and flushes
// each full chunk — columnar-encoded, compressed, CRC'd, framed — through
// a TraceByteSink as soon as it fills, so the writer itself buffers at
// most one chunk of events. The metadata / snapshot / checkpoint /
// footer sections are emitted by Finish() once the totals are known.
//
//   AtomicFileSink sink(path);
//   StreamingTraceWriter writer(&sink, options);
//   CHECK(writer.Begin().ok());
//   CHECK(writer.AppendEvents(recording.log.events()).ok());
//   CHECK(writer.Finish(recording).ok());   // durable, atomically renamed
//
// SerializeTrace, WriteTraceFile and CorpusWriter::Add drive this writer
// over a finished RecordedExecution, so a bare trace file, an in-memory
// image and a corpus entry of the same recording hold identical bytes.

#ifndef SRC_TRACE_STREAMING_WRITER_H_
#define SRC_TRACE_STREAMING_WRITER_H_

#include <cstdio>
#include <string>
#include <vector>

#include "src/record/recorded_execution.h"
#include "src/record/snapshot.h"
#include "src/trace/checkpoint.h"
#include "src/trace/trace_format.h"

namespace ddr {

struct TraceWriteOptions {
  // Events per chunk; the unit of partial decode. Small chunks seek finer,
  // large chunks compress better.
  uint64_t events_per_chunk = 512;
  // Emit a ReplayCheckpoint every N log events (0 = no checkpoints).
  uint64_t checkpoint_interval = 256;
  // Scenario name stamped into metadata so `ddr-trace replay` can rebuild
  // the program. Optional.
  std::string scenario;
  // Production-run wall time for post-reload efficiency scoring. Optional.
  double original_wall_seconds = 0.0;
};

// Destination for serialized trace bytes. Append-only; offsets in the
// written stream start at 0 (a corpus embeds the stream at its own base).
class TraceByteSink {
 public:
  virtual ~TraceByteSink() = default;
  [[nodiscard]] virtual Status Append(const uint8_t* data, size_t size) = 0;
  // Durably completes the stream (flush / rename). Idempotent.
  [[nodiscard]] virtual Status Close() = 0;

  Status Append(const std::vector<uint8_t>& bytes) {
    return Append(bytes.data(), bytes.size());
  }
};

// Accumulates the stream in memory (SerializeTrace, tests).
class BufferByteSink : public TraceByteSink {
 public:
  using TraceByteSink::Append;
  Status Append(const uint8_t* data, size_t size) override {
    buffer_.insert(buffer_.end(), data, data + size);
    return OkStatus();
  }
  Status Close() override { return OkStatus(); }

  const std::vector<uint8_t>& buffer() const { return buffer_; }
  std::vector<uint8_t> TakeBuffer() { return std::move(buffer_); }

 private:
  std::vector<uint8_t> buffer_;
};

// Writes to a uniquely named temp file beside `path` and renames into
// place on Close(), so a crash or error mid-write never leaves a
// half-written file at `path`, and two concurrent writers targeting the
// same destination never clobber each other's in-progress temp (last
// rename wins with a complete file). The destructor discards the temp
// file if Close() was never reached.
class AtomicFileSink : public TraceByteSink {
 public:
  explicit AtomicFileSink(std::string path);
  ~AtomicFileSink() override;

  AtomicFileSink(const AtomicFileSink&) = delete;
  AtomicFileSink& operator=(const AtomicFileSink&) = delete;

  using TraceByteSink::Append;
  Status Append(const uint8_t* data, size_t size) override;
  Status Close() override;

  // The in-progress temp path (for tests and diagnostics).
  const std::string& tmp_path() const { return tmp_path_; }

 private:
  std::string path_;
  std::string tmp_path_;
  std::FILE* file_ = nullptr;
  bool closed_ = false;
};

class StreamingTraceWriter {
 public:
  // `sink` must outlive the writer; the writer does not own it.
  StreamingTraceWriter(TraceByteSink* sink, TraceWriteOptions options = {});

  // Writes the file header. Must be called exactly once, first.
  [[nodiscard]] Status Begin();

  // Buffers events, flushing every completed chunk through the sink.
  Status Append(const Event& event);
  Status AppendEvents(const Event* events, size_t count);
  Status AppendEvents(const std::vector<Event>& events) {
    return AppendEvents(events.data(), events.size());
  }

  // Flushes the final partial chunk, writes metadata / snapshot /
  // checkpoint / footer / trailer sections from `recording`'s model,
  // snapshot and totals, and closes the sink. `recording.log` is not read:
  // the events are the ones appended.
  [[nodiscard]] Status Finish(const RecordedExecution& recording);

  uint64_t events_written() const { return total_events_; }
  // Bytes handed to the sink so far (the eventual file size after Finish).
  uint64_t bytes_written() const { return offset_; }

 private:
  Status FlushChunk();
  // Appends a framed section and returns its offset in the stream.
  Result<uint64_t> WriteSection(TraceSection kind,
                                const std::vector<uint8_t>& payload);

  TraceByteSink* sink_;
  TraceWriteOptions options_;
  uint64_t events_per_chunk_;
  bool begun_ = false;
  bool finished_ = false;
  Status status_;  // first sink/serialization error, sticky

  std::vector<Event> pending_;  // current partial chunk
  uint64_t total_events_ = 0;
  uint64_t offset_ = 0;  // bytes written to the sink
  TraceFooter footer_;
  CheckpointBuilder checkpoints_;
};

// Serializes `recording` to the complete file image (header..trailer).
std::vector<uint8_t> SerializeTrace(const RecordedExecution& recording,
                                    const TraceWriteOptions& options = {});

// Serializes and writes atomically: the image lands in a uniquely named
// temp file beside `path` (see AtomicFileSink) and is renamed into place
// only when complete, so `path` never holds a torn file.
[[nodiscard]] Status WriteTraceFile(const std::string& path,
                                    const RecordedExecution& recording,
                                    const TraceWriteOptions& options = {});

}  // namespace ddr

#endif  // SRC_TRACE_STREAMING_WRITER_H_
