// DDRT serialization: WriteTrace, the one trace write path, and the
// SerializeTrace / WriteTraceFile calls over it.
//
// WriteTrace takes a finished recording and emits the file section by
// section through a TraceByteSink — each chunk columnar-encoded,
// compressed, CRC'd and framed as it is handed to the sink — so no whole
// image is built unless the sink itself buffers one:
//
//   AtomicFileSink sink(path);
//   CHECK(WriteTrace(recording, options, &sink).ok());  // atomically renamed
//
// SerializeTrace, WriteTraceFile and CorpusWriter::Add are each one
// WriteTrace call, so a bare trace file, an in-memory image and a corpus
// entry of the same recording hold identical bytes.

#ifndef SRC_TRACE_STREAMING_WRITER_H_
#define SRC_TRACE_STREAMING_WRITER_H_

#include <cstdio>
#include <string>
#include <vector>

#include "src/record/recorded_execution.h"
#include "src/trace/trace_format.h"

namespace ddr {

struct TraceWriteOptions {
  // Events per chunk; the unit of partial decode. Small chunks seek finer,
  // large chunks compress better.
  uint64_t events_per_chunk = 512;
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

// Writes `recording` as one complete DDRT image through `sink` and closes
// it: the header, each chunk encoded straight from `recording.log`, then
// the metadata / snapshot / footer / trailer sections. On
// error the sink is left unclosed (an AtomicFileSink then discards its
// temp file).
[[nodiscard]] Status WriteTrace(const RecordedExecution& recording,
                                const TraceWriteOptions& options,
                                TraceByteSink* sink);

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
