#include "src/util/random_access_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/util/fault_injection.h"
#include "src/util/string_util.h"

namespace ddr {

namespace {

Status CheckWindow(uint64_t offset, size_t length, uint64_t file_size,
                   const std::string& path) {
  // Subtraction form: offset + length must not wrap.
  if (offset > file_size || length > file_size - offset) {
    return OutOfRangeError(StrPrintf(
        "read [%llu, +%zu) past end of %s (%llu bytes)",
        static_cast<unsigned long long>(offset), length, path.c_str(),
        static_cast<unsigned long long>(file_size)));
  }
  return OkStatus();
}

// Classifies an open failure from errno: only true non-existence is
// NotFound — permission and resource errors must not masquerade as a
// missing file (callers branch on the code).
Status OpenError(const std::string& path, int err) {
  if (err == ENOENT) {
    return NotFoundError("cannot open file: " + path);
  }
  return UnavailableError(StrPrintf("cannot open file %s: %s", path.c_str(),
                                    std::strerror(err)));
}

// -------------------------------------------------------------- kPread

// Positional reads on a raw descriptor: no cursor, no lock — the kernel
// page cache is the only buffer. Concurrent readers never contend.
class PreadFile final : public RandomAccessFile {
 public:
  PreadFile(std::string path, const FileStat& stat, int fd)
      : RandomAccessFile(std::move(path), stat, IoBackend::kPread), fd_(fd) {}
  // Guarded: closing a negative descriptor (a failed or released handle)
  // would hit errno at best and, with fd 0 confusion elsewhere, a live
  // descriptor at worst.
  ~PreadFile() override {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }

 protected:
  Result<std::span<const uint8_t>> ReadImpl(
      uint64_t offset, size_t length,
      std::vector<uint8_t>* scratch) const override {
    scratch->resize(length);
    size_t done = 0;
    while (done < length) {
      const ssize_t n = ::pread(fd_, scratch->data() + done, length - done,
                                static_cast<off_t>(offset + done));
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        return UnavailableError(StrPrintf("pread(%s): %s", path().c_str(),
                                          std::strerror(errno)));
      }
      if (n == 0) {
        return UnavailableError("short pread on " + path());
      }
      done += static_cast<size_t>(n);
    }
    return std::span<const uint8_t>(scratch->data(), length);
  }

  void AdviseImpl(ReadaheadMode mode) const override {
#if defined(POSIX_FADV_SEQUENTIAL)
    const int advice = mode == ReadaheadMode::kSequential
                           ? POSIX_FADV_SEQUENTIAL
                           : POSIX_FADV_NORMAL;
    // Advisory: failure (e.g. an fs that ignores hints) changes nothing.
    (void)::posix_fadvise(fd_, 0, 0, advice);
#else
    (void)mode;
#endif
  }

 private:
  int fd_;
};

// --------------------------------------------------------------- kMmap

// An empty file has no mapping (mmap(2) rejects zero lengths): data_
// stays null, the only valid read is the zero-length one at 0, and there
// is nothing to advise or unmap.
class MmapFile final : public RandomAccessFile {
 public:
  MmapFile(std::string path, const FileStat& stat, const uint8_t* data)
      : RandomAccessFile(std::move(path), stat, IoBackend::kMmap),
        data_(data) {}
  ~MmapFile() override {
    if (data_ != nullptr) {
      ::munmap(const_cast<uint8_t*>(data_), static_cast<size_t>(size()));
    }
  }

 protected:
  Result<std::span<const uint8_t>> ReadImpl(
      uint64_t offset, size_t length,
      std::vector<uint8_t>* /*scratch*/) const override {
    if (data_ == nullptr) {
      return std::span<const uint8_t>();
    }
    return std::span<const uint8_t>(data_ + offset, length);
  }

  void AdviseImpl(ReadaheadMode mode) const override {
    if (data_ == nullptr) {
      return;
    }
    const int advice =
        mode == ReadaheadMode::kSequential ? MADV_SEQUENTIAL : MADV_NORMAL;
    (void)::madvise(const_cast<uint8_t*>(data_), static_cast<size_t>(size()),
                    advice);
  }

 private:
  const uint8_t* data_;
};

Result<int> OpenFd(const std::string& path, RandomAccessFile::FileStat* stat) {
  int fd = -1;
  do {
    fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    return OpenError(path, errno);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return UnavailableError("cannot stat file: " + path);
  }
  stat->size = static_cast<uint64_t>(st.st_size);
  stat->device = static_cast<uint64_t>(st.st_dev);
  stat->inode = static_cast<uint64_t>(st.st_ino);
  return fd;
}

Result<std::shared_ptr<RandomAccessFile>> OpenPread(const std::string& path) {
  RandomAccessFile::FileStat stat;
  ASSIGN_OR_RETURN(int fd, OpenFd(path, &stat));
  return std::shared_ptr<RandomAccessFile>(new PreadFile(path, stat, fd));
}

Result<std::shared_ptr<RandomAccessFile>> OpenMmap(const std::string& path) {
  RandomAccessFile::FileStat stat;
  ASSIGN_OR_RETURN(int fd, OpenFd(path, &stat));
  if (stat.size == 0) {
    ::close(fd);
    return std::shared_ptr<RandomAccessFile>(new MmapFile(path, stat, nullptr));
  }
  void* mapped =
      ::mmap(nullptr, static_cast<size_t>(stat.size), PROT_READ, MAP_PRIVATE,
             fd, 0);
  // The descriptor is not needed once the mapping exists.
  ::close(fd);
  if (mapped == MAP_FAILED) {
    return UnavailableError(
        StrPrintf("mmap(%s): %s", path.c_str(), std::strerror(errno)));
  }
  return std::shared_ptr<RandomAccessFile>(
      new MmapFile(path, stat, static_cast<const uint8_t*>(mapped)));
}

}  // namespace

std::string_view IoBackendName(IoBackend backend) {
  switch (backend) {
    case IoBackend::kPread:
      return "pread";
    case IoBackend::kMmap:
      return "mmap";
  }
  return "unknown";
}

Result<IoBackend> ParseIoBackend(const std::string& name) {
  if (name == "pread") {
    return IoBackend::kPread;
  }
  if (name == "mmap") {
    return IoBackend::kMmap;
  }
  return InvalidArgumentError("unknown I/O backend '" + name +
                              "' (expected pread|mmap)");
}

uint64_t RandomAccessFile::NextId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

Result<std::span<const uint8_t>> RandomAccessFile::Read(
    uint64_t offset, size_t length, std::vector<uint8_t>* scratch) const {
  if (FaultsArmed()) {
    RETURN_IF_ERROR(
        FaultPoint(zero_copy() ? "file.read.mmap" : "file.read.pread"));
  }
  RETURN_IF_ERROR(CheckWindow(offset, length, size_, path_));
  ASSIGN_OR_RETURN(std::span<const uint8_t> view,
                   ReadImpl(offset, length, scratch));
  bytes_read_.fetch_add(length, std::memory_order_relaxed);
  return view;
}

Result<std::shared_ptr<RandomAccessFile>> RandomAccessFile::Open(
    const std::string& path, const RandomAccessFileOptions& options) {
  RETURN_IF_ERROR(FaultPoint("file.open"));
  if (options.backend == IoBackend::kPread) {
    return OpenPread(path);
  }
  return OpenMmap(path);
}

}  // namespace ddr
