// RandomAccessFile: positional, thread-safe reads with interchangeable
// backends.
//
// The trace/corpus readers share one handle per file, with two backends:
//
//   kPread   positional pread(2): no shared cursor, no lock, kernel page
//            cache does the buffering.
//   kMmap    read-only mmap (the default): Read() returns a span straight
//            into the mapping — zero copy, and decoders can decompress
//            directly from the mapped region. An empty file is served
//            without a mapping; any other mmap(2) failure fails the open.
//
// The handle is the backend asked for, never a silent substitute. Both
// backends are safe for concurrent Read() calls on one const handle.

#ifndef SRC_UTIL_RANDOM_ACCESS_FILE_H_
#define SRC_UTIL_RANDOM_ACCESS_FILE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace ddr {

enum class IoBackend : uint8_t {
  kPread = 1,
  kMmap = 2,
};

std::string_view IoBackendName(IoBackend backend);
Result<IoBackend> ParseIoBackend(const std::string& name);

// The process default; callers pick another per open (`--io` on the CLI).
constexpr IoBackend DefaultIoBackend() { return IoBackend::kMmap; }

// Access-pattern hint forwarded to the kernel: posix_fadvise(2) for the
// pread backend, madvise(2) for mmap.
// Purely advisory — reads return identical bytes under every mode;
// only prefetch behavior changes. kSequential widens readahead for a cold
// front-to-back scan (corpus verify); kNormal, every handle's state at
// open, restores the kernel default.
enum class ReadaheadMode : uint8_t {
  kNormal = 0,
  kSequential = 1,
};

struct RandomAccessFileOptions {
  IoBackend backend = DefaultIoBackend();
};

class RandomAccessFile {
 public:
  // What fstat(2) reported on the handle's own descriptor at open.
  struct FileStat {
    uint64_t size = 0;
    uint64_t device = 0;
    uint64_t inode = 0;
  };

  [[nodiscard]] static Result<std::shared_ptr<RandomAccessFile>> Open(
      const std::string& path, const RandomAccessFileOptions& options = {});

  RandomAccessFile(const RandomAccessFile&) = delete;
  RandomAccessFile& operator=(const RandomAccessFile&) = delete;
  virtual ~RandomAccessFile() = default;

  // Reads exactly [offset, offset + length). The returned span either
  // aliases the file's internal mapping (mmap: zero copy, scratch is left
  // untouched) or `*scratch`, which is resized as needed. Reads past the
  // end of the file fail with OutOfRange; short reads are errors, never
  // silent truncation. Safe to call concurrently from many threads; the
  // span stays valid for the life of the handle (mmap) or until scratch
  // is next written (copying backends).
  [[nodiscard]] Result<std::span<const uint8_t>> Read(uint64_t offset, size_t length,
                                        std::vector<uint8_t>* scratch) const;

  const std::string& path() const { return path_; }
  uint64_t size() const { return size_; }
  // Process-unique id for this open handle. Caches key decoded data by
  // this (not by path): a path can be atomically replaced with new
  // contents, but an open handle keeps serving the bytes it was opened
  // on, so handle-keyed cache entries can never go stale.
  uint64_t id() const { return id_; }
  IoBackend backend() const { return backend_; }
  // True when both handles were opened on the same file: (st_dev, st_ino)
  // as fstat(2) reported them on each handle's own descriptor at open.
  // While `other` stays open its inode cannot be reused, so a match means
  // this handle sees the very file `other` does, not a replacement that
  // was renamed over the path.
  bool SameFile(const RandomAccessFile& other) const {
    return device_ == other.device_ && inode_ == other.inode_;
  }
  // True when Read() returns views into an in-memory mapping.
  bool zero_copy() const { return backend_ == IoBackend::kMmap; }
  // Total logical bytes served across all readers of this handle (mmap
  // reads count the span length: the accounting tracks what pread would
  // have pulled, so cold/warm comparisons stay meaningful).
  uint64_t bytes_read() const {
    return bytes_read_.load(std::memory_order_relaxed);
  }
  // Re-hints the whole file's expected access pattern. Advisory and
  // infallible: a kernel that ignores the hint changes nothing. Safe to
  // call concurrently with reads.
  void Advise(ReadaheadMode mode) const { AdviseImpl(mode); }

 protected:
  RandomAccessFile(std::string path, const FileStat& stat, IoBackend backend)
      : path_(std::move(path)),
        size_(stat.size),
        device_(stat.device),
        inode_(stat.inode),
        backend_(backend),
        id_(NextId()) {}

  virtual void AdviseImpl(ReadaheadMode mode) const = 0;

  virtual Result<std::span<const uint8_t>> ReadImpl(
      uint64_t offset, size_t length, std::vector<uint8_t>* scratch) const = 0;

 private:
  static uint64_t NextId();

  std::string path_;
  uint64_t size_ = 0;
  uint64_t device_ = 0;
  uint64_t inode_ = 0;
  IoBackend backend_ = IoBackend::kPread;
  uint64_t id_ = 0;
  mutable std::atomic<uint64_t> bytes_read_{0};
};

}  // namespace ddr

#endif  // SRC_UTIL_RANDOM_ACCESS_FILE_H_
