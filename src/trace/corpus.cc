#include "src/trace/corpus.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <iterator>
#include <optional>
#include <set>
#include <span>
#include <unordered_map>
#include <utility>

#include "src/util/crc32.h"
#include "src/util/fault_injection.h"
#include "src/util/file_lock.h"
#include "src/util/string_util.h"
#include "src/util/thread_annotations.h"

namespace ddr {

namespace {

std::vector<uint8_t> EncodeCorpusIndex(const std::vector<CorpusEntry>& entries) {
  Encoder encoder;
  encoder.PutVarint64(entries.size());
  for (const CorpusEntry& entry : entries) {
    encoder.PutString(entry.name);
    encoder.PutVarint64(entry.offset);
    encoder.PutVarint64(entry.length);
    encoder.PutString(entry.model);
    encoder.PutString(entry.scenario);
    encoder.PutVarint64(entry.event_count);
    encoder.PutDouble(entry.original_wall_seconds);
  }
  return encoder.TakeBuffer();
}

Result<std::vector<CorpusEntry>> DecodeCorpusIndex(
    std::span<const uint8_t> bytes) {
  Decoder decoder(bytes.data(), bytes.size());
  ASSIGN_OR_RETURN(uint64_t count, decoder.GetVarint64());
  std::vector<CorpusEntry> entries;
  // The smallest possible entry (empty strings, 1-byte varints, the
  // fixed-width double) encodes to 14 bytes, so the payload bounds the
  // count; the reserve is additionally capped so memory grows with
  // *decoded* entries, not the claimed count (each CorpusEntry is an
  // order of magnitude larger than its minimal encoding, and a crafted
  // count must fail in the decode loop with a Status, not abort inside
  // the allocation).
  if (count > bytes.size() / 14) {
    return InvalidArgumentError("corpus index count exceeds payload");
  }
  entries.reserve(static_cast<size_t>(std::min<uint64_t>(count, 4096)));
  for (uint64_t i = 0; i < count; ++i) {
    CorpusEntry entry;
    ASSIGN_OR_RETURN(entry.name, decoder.GetString());
    ASSIGN_OR_RETURN(entry.offset, decoder.GetVarint64());
    ASSIGN_OR_RETURN(entry.length, decoder.GetVarint64());
    ASSIGN_OR_RETURN(entry.model, decoder.GetString());
    ASSIGN_OR_RETURN(entry.scenario, decoder.GetString());
    ASSIGN_OR_RETURN(entry.event_count, decoder.GetVarint64());
    ASSIGN_OR_RETURN(entry.original_wall_seconds, decoder.GetDouble());
    entries.push_back(std::move(entry));
  }
  if (!decoder.Done()) {
    return InvalidArgumentError("trailing bytes after corpus index");
  }
  return entries;
}

}  // namespace

// ----------------------------------------------------- journal trailers

// A parsed corpus trailer: the fixed-width record that publishes an index
// generation. Either the 12-byte trailer (magic "CRDD", always generation
// 1) or the 28-byte delta trailer (index offset,
// previous trailer's offset, generation, CRC, magic "CRDL") whose index
// lists only the entries its own generation added.
struct CorpusTrailerInfo {
  uint64_t trailer_offset = 0;  // absolute offset where the trailer begins
  uint64_t index_offset = 0;
  uint64_t prev_trailer_offset = 0;  // delta form only
  uint32_t generation = 1;
  bool delta = false;

  uint64_t end() const {
    return trailer_offset +
           (delta ? kCorpusJournalTrailerBytes : kCorpusTrailerBytes);
  }
};

namespace {

std::vector<uint8_t> EncodeJournalTrailer(uint64_t index_offset,
                                          uint64_t prev_trailer_offset,
                                          uint32_t generation,
                                          uint32_t magic) {
  Encoder encoder;
  encoder.PutFixed64(index_offset);
  encoder.PutFixed64(prev_trailer_offset);
  encoder.PutFixed32(generation);
  encoder.PutFixed32(Crc32(encoder.buffer().data(), encoder.size()));
  encoder.PutFixed32(magic);
  return encoder.TakeBuffer();
}

// Field-level validation of a trailer candidate (magic, CRC for the
// journal layout, index-before-trailer ordering). The decisive check —
// the CRC'd index section it points at — is LoadIndexForTrailer's job.
bool ParseTrailerBytes(std::span<const uint8_t> bytes, uint64_t trailer_offset,
                       bool journal_form, CorpusTrailerInfo* out) {
  Decoder decoder(bytes.data(), bytes.size());
  CorpusTrailerInfo info;
  info.trailer_offset = trailer_offset;
  if (journal_form) {
    if (bytes.size() < kCorpusJournalTrailerBytes) {
      return false;
    }
    auto index_offset = decoder.GetFixed64();
    auto prev = decoder.GetFixed64();
    auto generation = decoder.GetFixed32();
    auto crc = decoder.GetFixed32();
    auto magic = decoder.GetFixed32();
    if (!index_offset.ok() || !prev.ok() || !generation.ok() || !crc.ok() ||
        !magic.ok()) {
      return false;
    }
    if (*magic != kCorpusDeltaTrailerMagic) {
      return false;
    }
    info.delta = true;
    if (*crc != Crc32(bytes.data(), kCorpusJournalTrailerBytes - 8)) {
      return false;
    }
    // Generation 1 is always published by a 12-byte trailer; a journal form
    // claiming it is junk that happened to checksum.
    if (*generation < 2) {
      return false;
    }
    info.index_offset = *index_offset;
    info.prev_trailer_offset = *prev;
    info.generation = *generation;
  } else {
    if (bytes.size() < kCorpusTrailerBytes) {
      return false;
    }
    auto index_offset = decoder.GetFixed64();
    auto magic = decoder.GetFixed32();
    if (!index_offset.ok() || !magic.ok() || *magic != kCorpusTrailerMagic) {
      return false;
    }
    info.index_offset = *index_offset;
  }
  if (info.index_offset < kCorpusHeaderBytes ||
      info.index_offset >= trailer_offset) {
    return false;
  }
  *out = info;
  return true;
}

// Reads + field-validates the trailer at a known offset, trying the
// journal form first (its magic + CRC cannot false-positive on a
// generation-1 trailer's bytes), then the generation-1 form.
bool ReadTrailerFieldsAt(const RandomAccessFile& file, uint64_t offset,
                         uint64_t file_size, CorpusTrailerInfo* out,
                         std::vector<uint8_t>* scratch) {
  if (offset + kCorpusJournalTrailerBytes <= file_size) {
    auto bytes = file.Read(offset, kCorpusJournalTrailerBytes, scratch);
    if (bytes.ok() && ParseTrailerBytes(*bytes, offset, /*journal_form=*/true,
                                        out)) {
      return true;
    }
  }
  if (offset + kCorpusTrailerBytes <= file_size) {
    auto bytes = file.Read(offset, kCorpusTrailerBytes, scratch);
    if (bytes.ok() && ParseTrailerBytes(*bytes, offset, /*journal_form=*/false,
                                        out)) {
      return true;
    }
  }
  return false;
}

// Loads and bounds-checks the index a candidate trailer points at: the
// section must parse (CRC included) inside [0, trailer) and every entry
// window must lie between the header and the index. The subtraction form
// keeps a crafted huge length from wrapping the sum past the bound.
Result<std::vector<CorpusEntry>> LoadIndexForTrailer(
    const RandomAccessFile& file, const CorpusTrailerInfo& trailer) {
  ASSIGN_OR_RETURN(
      TraceSectionPayload payload,
      ReadTraceSection(file, /*base=*/0, trailer.index_offset,
                       trailer.trailer_offset, TraceSection::kCorpusIndex,
                       /*bytes_read=*/nullptr));
  ASSIGN_OR_RETURN(std::vector<CorpusEntry> entries,
                   DecodeCorpusIndex(payload.view));
  for (const CorpusEntry& entry : entries) {
    if (entry.offset < kCorpusHeaderBytes ||
        entry.offset > trailer.index_offset ||
        entry.length < kTraceHeaderBytes + kTraceTrailerBytes ||
        entry.length > trailer.index_offset - entry.offset) {
      return InvalidArgumentError("corpus entry window out of bounds: " +
                                  entry.name);
    }
  }
  return entries;
}

uint32_t ReadWordLE(const uint8_t* bytes) {
  return static_cast<uint32_t>(bytes[0]) |
         static_cast<uint32_t>(bytes[1]) << 8 |
         static_cast<uint32_t>(bytes[2]) << 16 |
         static_cast<uint32_t>(bytes[3]) << 24;
}

// Finds the latest (highest-offset) valid trailer of a bundle.
// The common case — a clean file with its trailer flush at end-of-file —
// is the first candidate tried, through a first window just one trailer
// wide; after a crash mid-append the scan walks backward past the torn
// tail until a trailer whose magic, CRC, *and* index section all
// validate. A false candidate (magic bytes inside image data) fails index
// validation and the scan continues. A candidate at `trusted_offset` is
// the trailer a held reader already validated: it is accepted without
// re-reading its immutable index, and `*entries_out` is left untouched.
Result<CorpusTrailerInfo> FindLatestValidTrailer(
    const RandomAccessFile& file, uint64_t file_size, uint64_t trusted_offset,
    std::vector<CorpusEntry>* entries_out) {
  std::vector<uint8_t> scan_buf;
  std::vector<uint8_t> scratch;
  constexpr uint64_t kScanWindow = 1 << 16;
  uint64_t window = kCorpusJournalTrailerBytes;
  uint64_t hi = file_size;  // exclusive end of the unscanned region
  while (hi >= kCorpusHeaderBytes + 4) {
    const uint64_t lo =
        hi - kCorpusHeaderBytes >= window ? hi - window : kCorpusHeaderBytes;
    ASSIGN_OR_RETURN(
        std::span<const uint8_t> bytes_in_window,
        file.Read(lo, static_cast<size_t>(hi - lo), &scan_buf));
    for (uint64_t p = hi - 4;; --p) {
      const uint32_t word = ReadWordLE(bytes_in_window.data() + (p - lo));
      const bool delta_magic = word == kCorpusDeltaTrailerMagic;
      if (delta_magic || word == kCorpusTrailerMagic) {
        const uint64_t size =
            delta_magic ? kCorpusJournalTrailerBytes : kCorpusTrailerBytes;
        if (p + 4 >= kCorpusHeaderBytes + size) {
          const uint64_t start = p + 4 - size;
          CorpusTrailerInfo info;
          auto bytes = file.Read(start, static_cast<size_t>(size), &scratch);
          if (bytes.ok() &&
              ParseTrailerBytes(*bytes, start, delta_magic, &info)) {
            if (start == trusted_offset) {
              return info;
            }
            auto entries = LoadIndexForTrailer(file, info);
            if (entries.ok()) {
              *entries_out = std::move(*entries);
              return info;
            }
          }
        }
      }
      if (p == lo) {
        break;
      }
    }
    if (lo == kCorpusHeaderBytes) {
      break;
    }
    hi = lo + 3;  // overlap so words spanning the window boundary are seen
    window = kScanWindow;
  }
  return InvalidArgumentError(
      "no valid corpus trailer found (torn or corrupt journal)");
}

// Reads + link-validates the previous trailer in a journal chain:
// generations are strictly ordered in the file and in number, so the
// previous trailer must end before this generation's bytes begin and
// carry exactly the predecessor generation number. The chain was
// published by fsync-ordered appends, so a broken link is corruption —
// surfaced as a Status, never skipped.
Result<CorpusTrailerInfo> ReadPrevTrailer(const RandomAccessFile& file,
                                          uint64_t file_size,
                                          const CorpusTrailerInfo& current,
                                          std::vector<uint8_t>* scratch) {
  CorpusTrailerInfo prev;
  if (!ReadTrailerFieldsAt(file, current.prev_trailer_offset, file_size, &prev,
                           scratch)) {
    return InvalidArgumentError(
        StrPrintf("corpus journal chain broken below generation %u",
                  current.generation));
  }
  if (prev.end() > current.index_offset ||
      prev.generation + 1 != current.generation) {
    return InvalidArgumentError(
        StrPrintf("corpus journal chain inconsistent at generation %u",
                  current.generation));
  }
  return prev;
}

// A journal chain walked down from its latest trailer: that trailer, the
// trailer the walk stopped on, and the index of every generation read on
// the way, newest first. The stopping trailer's own index comes last,
// unless the walk stopped at `floor`, whose index the caller holds.
struct ChainWalk {
  CorpusTrailerInfo latest;
  CorpusTrailerInfo base;
  std::vector<std::vector<CorpusEntry>> indexes;
};

// Walks the prev-trailer chain down from `latest` (whose own index is
// `latest_entries`) while the current trailer is a delta that lies above
// `floor`. A full open passes floor 0 and walks to generation 1; an
// incremental reopen passes the held reader's trailer offset, whose
// index it already has, so that index is never read again. The caller
// checks where the walk stopped.
Result<ChainWalk> WalkJournalChain(const RandomAccessFile& file,
                                   uint64_t file_size,
                                   const CorpusTrailerInfo& latest,
                                   std::vector<CorpusEntry> latest_entries,
                                   uint64_t floor) {
  std::vector<uint8_t> scratch;
  ChainWalk walk;
  walk.latest = latest;
  walk.base = latest;
  if (latest.trailer_offset > floor) {
    walk.indexes.push_back(std::move(latest_entries));
  }
  while (walk.base.delta && walk.base.trailer_offset > floor) {
    ASSIGN_OR_RETURN(CorpusTrailerInfo prev,
                     ReadPrevTrailer(file, file_size, walk.base, &scratch));
    if (prev.trailer_offset > floor) {
      ASSIGN_OR_RETURN(std::vector<CorpusEntry> index,
                       LoadIndexForTrailer(file, prev));
      walk.indexes.push_back(std::move(index));
    }
    walk.base = prev;
  }
  return walk;
}

// Reads and checks the 12-byte header.
Status ReadCorpusHeader(const RandomAccessFile& file) {
  std::vector<uint8_t> scratch;
  ASSIGN_OR_RETURN(std::span<const uint8_t> header,
                   file.Read(0, kCorpusHeaderBytes, &scratch));
  Decoder decoder(header.data(), header.size());
  ASSIGN_OR_RETURN(uint32_t magic, decoder.GetFixed32());
  if (magic != kCorpusFileMagic) {
    return InvalidArgumentError("bad corpus file magic");
  }
  ASSIGN_OR_RETURN(uint32_t version, decoder.GetFixed32());
  if (version != kCorpusFormatVersion) {
    return InvalidArgumentError(
        StrPrintf("unsupported corpus format version %u", version));
  }
  return OkStatus();
}

Result<std::shared_ptr<RandomAccessFile>> OpenCorpusFile(
    const std::string& path, const RandomAccessFileOptions& io) {
  auto file = RandomAccessFile::Open(path, io);
  if (!file.ok() && file.status().code() == StatusCode::kNotFound) {
    return NotFoundError("cannot open corpus file: " + path);
  }
  return file;
}

// The generations appended in place above one a caller already holds
// (a reader, or the append base): `held` is the handle the holder
// validated them through, `file` a fresh handle on the same path, and
// `held_*` describe the holder's latest trailer. Returns the walk from
// the latest valid trailer down to the held one (walk.base), or nullopt
// when `file` is not an in-place extension of the held generation — a
// different inode (the held handle keeps the inode from being reused),
// a file shrunk below the held tail, or a chain that no longer runs
// through the held trailer — and the caller takes the full open. Every trailer and index read here is
// new to the holder and goes through the same link, CRC and window
// checks as a full open; the bytes up to the held trailer were validated
// by the holder and appends never mutate them.
Result<std::optional<ChainWalk>> WalkSinceHeld(const RandomAccessFile& held,
                                               const RandomAccessFile& file,
                                               uint64_t held_trailer_offset,
                                               uint64_t held_tail,
                                               uint32_t held_generation) {
  // An in-place append only ever grows the file.
  if (!file.SameFile(held) || file.size() < held_tail) {
    return std::optional<ChainWalk>();
  }
  RETURN_IF_ERROR(ReadCorpusHeader(file));
  std::vector<CorpusEntry> latest_entries;
  ASSIGN_OR_RETURN(CorpusTrailerInfo latest,
                   FindLatestValidTrailer(file, file.size(),
                                          held_trailer_offset,
                                          &latest_entries));
  ASSIGN_OR_RETURN(ChainWalk walk,
                   WalkJournalChain(file, file.size(), latest,
                                    std::move(latest_entries),
                                    held_trailer_offset));
  if (walk.base.trailer_offset != held_trailer_offset ||
      walk.base.generation != held_generation) {
    return std::optional<ChainWalk>();  // the chain misses the held trailer
  }
  return std::optional<ChainWalk>(std::move(walk));
}

}  // namespace

// What the last successful in-place append in this process published,
// kept so the next AppendTo of the same file reads only the generations
// appended since. It lives in one process-wide slot: AppendTo takes it
// (a second appender finds the slot empty), a successful Commit puts it
// back, and a failed or abandoned writer drops it with itself.
struct CorpusAppendBase {
  std::string path;
  std::shared_ptr<RandomAccessFile> file;  // pins the inode
  uint64_t trailer_offset = 0;             // the published trailer
  uint64_t tail_offset = 0;                // and its end
  uint32_t generation = 1;
  std::unordered_set<std::string> names;  // every live entry name
};

namespace {

struct AppendBaseSlot {
  Mutex mu;
  std::unique_ptr<CorpusAppendBase> base GUARDED_BY(mu);
};

// Puts `next` in the process-wide slot and returns what it held, so a
// replaced base is released outside the lock.
std::unique_ptr<CorpusAppendBase> ExchangeAppendBase(
    std::unique_ptr<CorpusAppendBase> next) {
  static AppendBaseSlot* slot = new AppendBaseSlot;
  MutexLock lock(slot->mu);
  std::swap(slot->base, next);
  return next;
}

}  // namespace

// In-place journal sink: appends new bytes at the tail of an existing
// bundle through an O_RDWR fd. Unlike AtomicFileSink there is no rename
// — crash safety comes from write ordering instead (Sync() barriers
// between the data and the trailer that publishes it). An abandoned or
// failed append (destruction before Commit()) is deliberately
// indistinguishable from a crash mid-append: nothing is rolled back —
// the file must never shrink under concurrent readers (an mmap-backed
// Open scanning the tail would SIGBUS past a new EOF), and no published
// byte, header included, is ever rewritten. The partial generation is
// simply left unpublished: the
// previous trailer stays the latest valid one, recovery scans past the
// torn bytes, and the next append overwrites them.
class CorpusJournalSink {
 public:
  // `expected_size` / `trailer_offset` describe the bundle as the
  // caller's reader observed it; they are re-validated, with the header
  // version, under the writer lock so an append prepared against a
  // since-mutated file fails instead of writing over published bytes.
  static Result<std::unique_ptr<CorpusJournalSink>> Open(
      const std::string& path, uint64_t tail_offset, uint64_t expected_size,
      uint64_t trailer_offset);
  ~CorpusJournalSink();

  CorpusJournalSink(const CorpusJournalSink&) = delete;
  CorpusJournalSink& operator=(const CorpusJournalSink&) = delete;

  Status Append(const uint8_t* data, size_t size);
  // Durability barrier: everything appended so far reaches disk before
  // any later write. Finish() calls this between the index and the
  // trailer, so a durable trailer implies durable data.
  Status Sync();
  // Final fsync; from here the new generation is published and the
  // destructor no longer rolls back.
  Status Commit();
  uint64_t bytes_written() const { return bytes_written_; }

 private:
  CorpusJournalSink(std::string path, int fd, uint64_t tail_offset)
      : path_(std::move(path)), fd_(fd), write_offset_(tail_offset) {}

  std::string path_;
  int fd_ = -1;
  uint64_t write_offset_ = 0;  // absolute offset of the next Append
  bool committed_ = false;
  uint64_t bytes_written_ = 0;
};

Result<std::unique_ptr<CorpusJournalSink>> CorpusJournalSink::Open(
    const std::string& path, uint64_t tail_offset, uint64_t expected_size,
    uint64_t trailer_offset) {
  int fd = -1;
  do {
    fd = ::open(path.c_str(), O_RDWR);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    return UnavailableError("cannot open corpus for in-place append: " + path);
  }
  // Exclusive advisory writer lock (released when the fd closes). Unlike
  // the rename-based mutations — where a race loses an update but never
  // corrupts the target — two in-place appenders would truncate and
  // overwrite each other's in-flight bytes, so a second one must fail
  // loudly, not serialize (its view of the entry set is stale anyway).
  // CorpusWriterActive is the read-side probe of this same lock.
  if (Status locked = TryFlockExclusive(fd, path); !locked.ok()) {
    ::close(fd);
    return locked;
  }
  // Under the lock, the file must still be what the caller's reader saw
  // — not just the same size: a same-size rename swap (another bundle
  // of equal length, say) would otherwise slip past, and
  // this writer would stamp a journal generation onto a file whose
  // header or trailer no longer match, bricking it. Size, header
  // version, and the trailer bytes at the observed tail must all agree
  // before a byte is written.
  const auto changed = [&]() -> Result<std::unique_ptr<CorpusJournalSink>> {
    ::close(fd);
    return FailedPreconditionError(
        "corpus changed while preparing in-place append (concurrent "
        "mutation?): " +
        path);
  };
  struct stat st;
  if (::fstat(fd, &st) != 0 ||
      static_cast<uint64_t>(st.st_size) != expected_size) {
    return changed();
  }
  const auto pread_exact = [&](uint64_t offset, uint8_t* out,
                               size_t size) -> bool {
    size_t done = 0;
    while (done < size) {
      const ssize_t n = ::pread(fd, out + done, size - done,
                                static_cast<off_t>(offset + done));
      if (n <= 0) {
        if (n < 0 && errno == EINTR) {
          continue;
        }
        return false;
      }
      done += static_cast<size_t>(n);
    }
    return true;
  };
  {
    uint8_t version_bytes[4];
    if (!pread_exact(4, version_bytes, sizeof(version_bytes))) {
      return changed();
    }
    const uint32_t version = ReadWordLE(version_bytes);
    if (version != kCorpusFormatVersion) {
      return changed();
    }
  }
  {
    const uint64_t trailer_bytes = tail_offset - trailer_offset;
    uint8_t buffer[kCorpusJournalTrailerBytes];
    CorpusTrailerInfo trailer;
    if ((trailer_bytes != kCorpusTrailerBytes &&
         trailer_bytes != kCorpusJournalTrailerBytes) ||
        !pread_exact(trailer_offset, buffer,
                     static_cast<size_t>(trailer_bytes)) ||
        !ParseTrailerBytes(
            std::span<const uint8_t>(buffer,
                                     static_cast<size_t>(trailer_bytes)),
            trailer_offset, trailer_bytes == kCorpusJournalTrailerBytes,
            &trailer)) {
      return changed();
    }
  }
  std::unique_ptr<CorpusJournalSink> sink(
      new CorpusJournalSink(path, fd, tail_offset));
  RETURN_IF_ERROR(FaultPoint("corpus.journal.open"));
  // Note: a torn tail from a crashed append is NOT truncated here — the
  // file must never shrink while concurrent readers may be scanning it
  // (an mmap-backed Open touching pages past a new EOF would SIGBUS).
  // The new generation is simply written over the garbage from
  // tail_offset; whatever torn bytes extend past the new trailer stay
  // accounted as dead bytes (no valid trailer can exist up there: the
  // crashed append never committed one) until a compact reclaims them.
  return sink;
}

CorpusJournalSink::~CorpusJournalSink() {
  if (fd_ < 0) {
    return;
  }
  // No rollback (see the class comment): closing the fd releases the
  // writer lock, and an uncommitted partial generation is just a torn
  // tail the next Open scans past.
  ::close(fd_);
  fd_ = -1;
}

Status CorpusJournalSink::Append(const uint8_t* data, size_t size) {
  if (committed_) {
    return FailedPreconditionError("append to a committed corpus journal");
  }
  static constexpr char site[] = "corpus.journal.append";
  const uint64_t offset = write_offset_;
  size_t allow = size;
  Status injected = OkStatus();
  if (FaultsArmed()) {
    WriteFaultOutcome fault = FaultWritePoint(site, size);
    allow = fault.allowed;
    injected = std::move(fault.failure);
  }
  size_t written = 0;
  while (written < allow) {
    if (FaultEintr(site)) {
      continue;  // simulated interrupted pwrite; the loop retries for real
    }
    const ssize_t n = ::pwrite(fd_, data + written, allow - written,
                               static_cast<off_t>(offset + written));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return UnavailableError(StrPrintf(
          "write to corpus journal %s failed at offset %llu: %s",
          path_.c_str(),
          static_cast<unsigned long long>(offset + written),
          std::strerror(errno)));
    }
    if (n == 0) {
      // pwrite(2) returning 0 for a non-empty buffer means no progress is
      // possible (e.g. past a hard resource limit); looping would spin.
      return UnavailableError(StrPrintf(
          "short write to corpus journal %s: pwrite returned 0 at offset "
          "%llu (%zu of %zu bytes written): %s",
          path_.c_str(),
          static_cast<unsigned long long>(offset + written), written, size,
          std::strerror(errno != 0 ? errno : ENOSPC)));
    }
    written += static_cast<size_t>(n);
  }
  if (!injected.ok()) {
    return Status(injected.code(),
                  "corpus journal " + path_ + ": " + injected.message());
  }
  write_offset_ += size;
  bytes_written_ += size;
  return OkStatus();
}

Status CorpusJournalSink::Sync() {
  RETURN_IF_ERROR(FaultPoint("corpus.journal.sync"));
  int rc = 0;
  do {
    if (FaultEintr("corpus.journal.sync")) {
      errno = EINTR;
      rc = -1;
      continue;  // simulated interrupted fsync; the loop retries for real
    }
    rc = ::fsync(fd_);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    return UnavailableError(StrPrintf("fsync of corpus journal %s failed: %s",
                                      path_.c_str(), std::strerror(errno)));
  }
  return OkStatus();
}

Status CorpusJournalSink::Commit() {
  RETURN_IF_ERROR(FaultPoint("corpus.journal.commit"));
  RETURN_IF_ERROR(Sync());
  committed_ = true;
  return OkStatus();
}

// Forwards an embedded DDRT stream into the corpus file. Close() is a
// no-op: the embedded image ends, the corpus file stays open for the next
// recording and the index.
class CorpusEmbeddedSink : public TraceByteSink {
 public:
  explicit CorpusEmbeddedSink(CorpusWriter* owner) : owner_(owner) {}

  using TraceByteSink::Append;
  Status Append(const uint8_t* data, size_t size) override {
    RETURN_IF_ERROR(owner_->WriteBytes(data, size));
    owner_->offset_ += size;
    return OkStatus();
  }
  Status Close() override { return OkStatus(); }

 private:
  CorpusWriter* owner_;
};

CorpusWriter::CorpusWriter(std::string path)
    : path_(std::move(path)),
      atomic_(std::make_unique<AtomicFileSink>(path_)) {}

CorpusWriter::CorpusWriter(std::string path, AppendTag)
    : path_(std::move(path)) {}

CorpusWriter::~CorpusWriter() = default;

Result<std::unique_ptr<CorpusWriter>> CorpusWriter::AppendTo(
    const std::string& path, const CorpusAppendOptions& options) {
  std::unique_ptr<CorpusWriter> writer(new CorpusWriter(path, AppendTag{}));
  RETURN_IF_ERROR(writer->BeginAppend(options));
  return writer;
}

Status CorpusWriter::WriteBytes(const uint8_t* data, size_t size) {
  if (journal_ != nullptr) {
    return journal_->Append(data, size);
  }
  if (atomic_ != nullptr) {
    return atomic_->Append(data, size);
  }
  return FailedPreconditionError("corpus writer has no open sink");
}

Status CorpusWriter::BeginAppend(const CorpusAppendOptions& options) {
  // Resume from the base this process's last append published when the
  // file is an in-place extension of it: only generations appended since
  // (by another process) are read, and their names join the base's set.
  // Taken before the handle opens, so the handle never predates the base
  // (a concurrent append could publish one in between).
  std::unique_ptr<CorpusAppendBase> base = ExchangeAppendBase(nullptr);
  ASSIGN_OR_RETURN(std::shared_ptr<RandomAccessFile> file,
                   OpenCorpusFile(path_, options.io));
  std::optional<ChainWalk> walk;
  if (base != nullptr && base->path == path_) {
    ASSIGN_OR_RETURN(walk, WalkSinceHeld(*base->file, *file,
                                         base->trailer_offset,
                                         base->tail_offset, base->generation));
  }
  if (walk.has_value()) {
    for (const std::vector<CorpusEntry>& index : walk->indexes) {
      for (const CorpusEntry& entry : index) {
        base->names.insert(entry.name);
      }
    }
    base->trailer_offset = walk->latest.trailer_offset;
    base->tail_offset = walk->latest.end();
    base->generation = walk->latest.generation;
  } else {
    // Validate the existing bundle and lift its names through the normal
    // reader path (header/trailer/CRC/window checks all apply, and a torn
    // journal tail is scanned past). No chunk ever decodes here, so the
    // cache is disabled.
    CorpusReaderOptions read_options;
    read_options.io = options.io;
    read_options.cache_bytes = 0;
    ASSIGN_OR_RETURN(CorpusReader existing,
                     CorpusReader::OpenImpl(path_, read_options, nullptr,
                                            file));
    base = std::make_unique<CorpusAppendBase>();
    base->path = path_;
    base->trailer_offset = existing.trailer_offset();
    base->tail_offset = existing.tail_offset();
    base->generation = existing.generation();
    base->names.reserve(existing.entry_count());
    for (const auto& block : existing.blocks_) {
      for (const auto& entry : *block) {
        base->names.insert(entry->name);
      }
    }
  }
  base->file = file;
  // No existing byte is copied: the new generation starts at the held
  // tail, and the duplicate-name check runs on the base's set.
  bytes_read_ = file->bytes_read();
  offset_ = base->tail_offset;
  names_ = std::move(base->names);
  base_ = std::move(base);
  begun_ = true;
  ASSIGN_OR_RETURN(journal_,
                   CorpusJournalSink::Open(path_, offset_, file->size(),
                                           base_->trailer_offset));
  return OkStatus();
}

Status CorpusWriter::Begin() {
  if (begun_) {
    return FailedPreconditionError("CorpusWriter::Begin called twice");
  }
  begun_ = true;
  Encoder encoder;
  encoder.PutFixed32(kCorpusFileMagic);
  encoder.PutFixed32(kCorpusFormatVersion);
  encoder.PutFixed32(0);  // flags, reserved
  status_ = WriteBytes(encoder.buffer());
  if (status_.ok()) {
    offset_ = encoder.size();
  }
  return status_;
}

Status CorpusWriter::CheckOpenForNewEntry(const std::string& name) {
  if (!begun_ || finished_) {
    return FailedPreconditionError("corpus writer not open for new entries");
  }
  if (!status_.ok()) {
    return status_;
  }
  if (name.empty()) {
    return InvalidArgumentError("corpus entry name must not be empty");
  }
  if (names_.count(name) != 0) {
    return AlreadyExistsError("duplicate corpus entry name: " + name);
  }
  return OkStatus();
}

Status CorpusWriter::Add(const std::string& name,
                         const RecordedExecution& recording,
                         const TraceWriteOptions& options) {
  RETURN_IF_ERROR(CheckOpenForNewEntry(name));
  const uint64_t start = offset_;
  CorpusEmbeddedSink sink(this);
  const Status written = WriteTrace(recording, options, &sink);
  if (!written.ok()) {
    status_ = written;
    return written;
  }
  CorpusEntry entry;
  entry.name = name;
  entry.offset = start;
  entry.length = offset_ - start;
  entry.model = recording.model;
  entry.scenario = options.scenario;
  entry.event_count = recording.log.size();
  entry.original_wall_seconds = options.original_wall_seconds;
  entries_.push_back(std::move(entry));
  names_.insert(name);
  return OkStatus();
}

Status CorpusWriter::AddImage(const std::string& name,
                              const std::vector<uint8_t>& image,
                              const std::string& model,
                              const std::string& scenario,
                              uint64_t event_count,
                              double original_wall_seconds) {
  RETURN_IF_ERROR(CheckOpenForNewEntry(name));
  if (image.size() < kTraceHeaderBytes + kTraceTrailerBytes) {
    return InvalidArgumentError("corpus entry image too small to be a trace");
  }
  Status appended = WriteBytes(image.data(), image.size());
  if (!appended.ok()) {
    status_ = appended;
    return appended;
  }
  CorpusEntry entry;
  entry.name = name;
  entry.offset = offset_;
  entry.length = image.size();
  entry.model = model;
  entry.scenario = scenario;
  entry.event_count = event_count;
  entry.original_wall_seconds = original_wall_seconds;
  offset_ += image.size();
  entries_.push_back(std::move(entry));
  names_.insert(name);
  return OkStatus();
}

Status CorpusWriter::AddImageWindow(const CorpusEntry& entry,
                                    const CorpusReader& source) {
  RETURN_IF_ERROR(CheckOpenForNewEntry(entry.name));
  if (entry.length < kTraceHeaderBytes + kTraceTrailerBytes) {
    return InvalidArgumentError("corpus entry image too small to be a trace");
  }
  const RandomAccessFile& file = *source.file_;
  std::vector<uint8_t> scratch;
  constexpr uint64_t kCopyChunkBytes = 1 << 20;
  for (uint64_t copied = 0; copied < entry.length;) {
    const uint64_t want = std::min(kCopyChunkBytes, entry.length - copied);
    ASSIGN_OR_RETURN(std::span<const uint8_t> bytes,
                     file.Read(entry.offset + copied,
                               static_cast<size_t>(want), &scratch));
    status_ = WriteBytes(bytes.data(), bytes.size());
    if (!status_.ok()) {
      return status_;
    }
    copied += want;
  }
  CorpusEntry copy = entry;
  copy.offset = offset_;
  offset_ += entry.length;
  names_.insert(copy.name);
  entries_.push_back(std::move(copy));
  return OkStatus();
}

Status CorpusWriter::Finish() {
  if (!begun_) {
    return FailedPreconditionError("CorpusWriter::Finish before Begin");
  }
  if (finished_) {
    return FailedPreconditionError("CorpusWriter::Finish called twice");
  }
  if (!status_.ok()) {
    return status_;
  }
  finished_ = true;

  // entries_ holds only what this writer added: for a build that is the
  // canonical full index, for an in-place append the *delta* index, so
  // the bytes written stay O(new entries) no matter how large the
  // bundle's live entry set is.
  const std::vector<uint8_t> index_section = EncodeTraceSection(
      TraceSection::kCorpusIndex, EncodeCorpusIndex(entries_),
      /*allow_compress=*/true);
  RETURN_IF_ERROR(FaultPoint(journal_ != nullptr ? "corpus.journal.index"
                                                 : "corpus.index"));
  RETURN_IF_ERROR(WriteBytes(index_section));
  const uint64_t index_offset = offset_;
  offset_ += index_section.size();

  if (journal_ != nullptr) {
    // Publish ordering: the images and the new index must be durable
    // before the trailer that makes them reachable exists on disk; the
    // trailer itself is made durable by Commit. A crash between the two
    // fsyncs recovers to the previous generation.
    RETURN_IF_ERROR(journal_->Sync());
    RETURN_IF_ERROR(FaultPoint("corpus.journal.trailer"));
    const uint64_t trailer_offset = offset_;
    const uint32_t generation = base_->generation + 1;
    const std::vector<uint8_t> trailer =
        EncodeJournalTrailer(index_offset, base_->trailer_offset, generation,
                             kCorpusDeltaTrailerMagic);
    RETURN_IF_ERROR(journal_->Append(trailer.data(), trailer.size()));
    offset_ += trailer.size();
    RETURN_IF_ERROR(journal_->Commit());
    // Published: the next AppendTo in this process resumes from here.
    base_->trailer_offset = trailer_offset;
    base_->tail_offset = offset_;
    base_->generation = generation;
    base_->names = std::move(names_);
    ExchangeAppendBase(std::move(base_));
    return OkStatus();
  }

  RETURN_IF_ERROR(FaultPoint("corpus.trailer"));
  Encoder encoder;
  encoder.PutFixed64(index_offset);
  encoder.PutFixed32(kCorpusTrailerMagic);
  RETURN_IF_ERROR(WriteBytes(encoder.buffer()));
  offset_ += encoder.size();
  return atomic_->Close();
}

uint64_t CorpusWriter::bytes_written() const {
  return journal_ != nullptr ? journal_->bytes_written() : offset_;
}

// ---------------------------------------------------------------- Reader

Result<CorpusReader> CorpusReader::Open(const std::string& path,
                                        const CorpusReaderOptions& options) {
  ASSIGN_OR_RETURN(std::shared_ptr<RandomAccessFile> file,
                   OpenCorpusFile(path, options.io));
  return OpenImpl(path, options, nullptr, std::move(file));
}

Result<CorpusReader> CorpusReader::Reopen() const {
  ASSIGN_OR_RETURN(std::shared_ptr<RandomAccessFile> file,
                   OpenCorpusFile(path_, options_.io));
  ASSIGN_OR_RETURN(std::optional<ChainWalk> walk,
                   WalkSinceHeld(*file_, *file, trailer_offset_, tail_offset_,
                                 generation_));
  if (!walk.has_value()) {
    return OpenImpl(path_, options_, cache_, std::move(file));
  }
  // Shares the entry table and keeps cache_id_: every byte the held
  // reader could have cached is below its tail, which an in-place append
  // never rewrites.
  CorpusReader next = *this;
  next.file_ = std::move(file);
  next.file_size_ = next.file_->size();
  next.SetLatestTrailer(walk->latest);
  next.AddGenerations(std::move(walk->indexes));
  return next;
}

void CorpusReader::SetLatestTrailer(const CorpusTrailerInfo& trailer) {
  index_offset_ = trailer.index_offset;
  trailer_offset_ = trailer.trailer_offset;
  tail_offset_ = trailer.end();
  generation_ = trailer.generation;
  dead_bytes_ = file_size_ - trailer.end();
}

// An open-addressing table of (name hash, slot + 1) cells, slot + 1 == 0
// marking an empty cell, kept at most half full. Names whose hashes
// collide are told apart by the entries' own names. A name is never
// removed: a re-listed one keeps its slot.
struct CorpusReader::NameShard {
  size_t used = 0;
  std::vector<std::pair<size_t, size_t>> cells;

  // The first cell to probe: the hash's low bits already chose the shard.
  size_t Home(size_t hash) const {
    return (hash / kNameShards) & (cells.size() - 1);
  }

  void Insert(size_t hash, size_t slot) {
    if (2 * (used + 1) > cells.size()) {
      std::vector<std::pair<size_t, size_t>> old(
          std::max<size_t>(16, 2 * cells.size()));
      old.swap(cells);
      used = 0;
      for (const auto& [old_hash, old_slot] : old) {
        if (old_slot != 0) {
          Insert(old_hash, old_slot - 1);
        }
      }
    }
    size_t i = Home(hash);
    while (cells[i].second != 0) {
      i = (i + 1) & (cells.size() - 1);
    }
    cells[i] = {hash, slot + 1};
    ++used;
  }
};

void CorpusReader::AddGenerations(
    std::vector<std::vector<CorpusEntry>> newest_first) {
  // Blocks and shards this call copied or created: writable until it
  // returns, then as immutable as the ones still shared.
  std::unordered_map<size_t, EntryBlock*> own_blocks;
  std::array<NameShard*, kNameShards> own_shards{};
  const auto writable_block = [&](size_t b) -> EntryBlock& {
    const auto [own, added] = own_blocks.try_emplace(b, nullptr);
    if (added) {
      auto copy = b < blocks_.size() ? std::make_shared<EntryBlock>(*blocks_[b])
                                     : std::make_shared<EntryBlock>();
      copy->reserve(kEntryBlockSize);
      own->second = copy.get();
      if (b < blocks_.size()) {
        blocks_[b] = std::move(copy);
      } else {
        blocks_.push_back(std::move(copy));
      }
    }
    return *own->second;
  };
  // The entries this call adds share one allocation, oldest first; the
  // table's per-entry pointers alias it.
  size_t new_entries = 0;
  for (const std::vector<CorpusEntry>& index : newest_first) {
    new_entries += index.size();
  }
  auto storage = std::make_shared<std::vector<CorpusEntry>>();
  storage->reserve(new_entries);
  for (auto index = newest_first.rbegin(); index != newest_first.rend();
       ++index) {
    std::move(index->begin(), index->end(), std::back_inserter(*storage));
  }
  for (const CorpusEntry& entry : *storage) {
    std::shared_ptr<const CorpusEntry> shared(storage, &entry);
    const size_t hash = std::hash<std::string>{}(entry.name);
    const size_t held = FindSlot(hash, entry.name);
    if (held != kNoSlot) {
      writable_block(held / kEntryBlockSize)[held % kEntryBlockSize] =
          std::move(shared);
      continue;
    }
    const size_t s = hash % kNameShards;
    if (own_shards[s] == nullptr) {
      auto copy = shards_[s] != nullptr
                      ? std::make_shared<NameShard>(*shards_[s])
                      : std::make_shared<NameShard>();
      own_shards[s] = copy.get();
      shards_[s] = std::move(copy);
    }
    own_shards[s]->Insert(hash, entry_count_);
    writable_block(entry_count_ / kEntryBlockSize).push_back(std::move(shared));
    ++entry_count_;
  }
}

Result<CorpusReader> CorpusReader::OpenImpl(
    const std::string& path, const CorpusReaderOptions& options,
    std::shared_ptr<ChunkCache> cache, std::shared_ptr<RandomAccessFile> file) {
  CorpusReader reader;
  reader.path_ = path;
  reader.options_ = options;
  reader.file_ = std::move(file);
  reader.cache_ = cache != nullptr
                      ? std::move(cache)
                      : std::make_shared<ChunkCache>(options.cache_bytes);
  reader.cache_id_ = reader.file_->id();
  reader.file_size_ = reader.file_->size();
  if (reader.file_size_ < kCorpusHeaderBytes + kCorpusTrailerBytes) {
    return InvalidArgumentError("corpus file too small: " + path);
  }
  RETURN_IF_ERROR(ReadCorpusHeader(*reader.file_));

  // Chain-load the latest valid trailer, scanning back past a torn tail
  // if a crashed append left one, then stitch the index chain (just
  // generation 1's index for a fresh build).
  std::vector<CorpusEntry> latest_entries;
  ASSIGN_OR_RETURN(CorpusTrailerInfo trailer,
                   FindLatestValidTrailer(*reader.file_, reader.file_size_,
                                          /*trusted_offset=*/0,
                                          &latest_entries));
  ASSIGN_OR_RETURN(ChainWalk walk,
                   WalkJournalChain(*reader.file_, reader.file_size_, trailer,
                                    std::move(latest_entries), /*floor=*/0));
  if (walk.base.generation != 1) {
    return InvalidArgumentError(
        "corpus journal chain does not reach generation 1");
  }
  reader.SetLatestTrailer(trailer);
  reader.AddGenerations(std::move(walk.indexes));
  return reader;
}

const std::vector<CorpusEntry>& CorpusReader::entries() const {
  return list_.Get([this](std::vector<CorpusEntry>* list) {
    list->reserve(entry_count_);
    for (const auto& block : blocks_) {
      for (const auto& entry : *block) {
        list->push_back(*entry);
      }
    }
  });
}

size_t CorpusReader::FindSlot(size_t hash, const std::string& name) const {
  const NameShard* shard = shards_[hash % kNameShards].get();
  if (shard == nullptr) {
    return kNoSlot;
  }
  const size_t mask = shard->cells.size() - 1;
  for (size_t i = shard->Home(hash);; i = (i + 1) & mask) {
    const auto& [cell_hash, cell_slot] = shard->cells[i];
    if (cell_slot == 0) {
      return kNoSlot;
    }
    if (cell_hash == hash && EntryAt(cell_slot - 1).name == name) {
      return cell_slot - 1;
    }
  }
}

const CorpusEntry* CorpusReader::Find(const std::string& name) const {
  const size_t slot = FindSlot(std::hash<std::string>{}(name), name);
  return slot == kNoSlot ? nullptr : &EntryAt(slot);
}

Result<TraceReader> CorpusReader::OpenTrace(const CorpusEntry& entry) const {
  return TraceReader::OpenShared(file_, entry.offset, entry.length, cache_,
                                 cache_id_);
}

Result<TraceReader> CorpusReader::OpenTrace(const std::string& name) const {
  const CorpusEntry* entry = Find(name);
  if (entry == nullptr) {
    return NotFoundError("no corpus entry named '" + name + "'");
  }
  return OpenTrace(*entry);
}

Status CorpusReader::VerifyAll() const {
  // A full verify is the canonical cold sequential scan — every image
  // front to back — so widen kernel readahead for its duration and
  // restore the kernel default after (serving traffic is point-lookup
  // shaped; a sticky sequential hint would hurt it).
  file_->Advise(ReadaheadMode::kSequential);
  const Status status = VerifyAllImpl();
  file_->Advise(ReadaheadMode::kNormal);
  return status;
}

Status CorpusReader::VerifyAllImpl() const {
  for (const auto& block : blocks_) {
    for (const auto& held : *block) {
      const CorpusEntry& entry = *held;
      auto trace = OpenTrace(entry);
      const Status verified = trace.ok() ? trace->Verify() : trace.status();
      if (!verified.ok()) {
        return Status(verified.code(), "corpus entry '" + entry.name +
                                           "': " + verified.message());
      }
      if (trace->metadata().event_count != entry.event_count ||
          trace->metadata().model != entry.model ||
          trace->metadata().scenario != entry.scenario ||
          trace->metadata().original_wall_seconds !=
              entry.original_wall_seconds) {
        return InvalidArgumentError(
            "corpus index metadata disagrees with embedded trace: " +
            entry.name);
      }
    }
  }
  return OkStatus();
}

// ----------------------------------------------------------- Mutations

std::string_view NameCollisionPolicyName(NameCollisionPolicy policy) {
  switch (policy) {
    case NameCollisionPolicy::kFail:
      return "fail";
    case NameCollisionPolicy::kSkip:
      return "skip";
    case NameCollisionPolicy::kRenameSuffix:
      return "rename-suffix";
  }
  return "unknown";
}

Result<NameCollisionPolicy> ParseNameCollisionPolicy(const std::string& name) {
  if (name == "fail") {
    return NameCollisionPolicy::kFail;
  }
  if (name == "skip") {
    return NameCollisionPolicy::kSkip;
  }
  if (name == "rename-suffix" || name == "rename") {
    return NameCollisionPolicy::kRenameSuffix;
  }
  return InvalidArgumentError("unknown collision policy '" + name +
                              "' (expected fail|skip|rename-suffix)");
}

Result<CorpusMutationStats> MergeCorpora(const std::vector<std::string>& inputs,
                                         const std::string& output,
                                         const MergeCorporaOptions& options) {
  if (inputs.empty()) {
    return InvalidArgumentError("corpus merge needs at least one input");
  }

  // Open every input before writing a byte of output: an unreadable input
  // must fail the merge with the target untouched. Readers decode nothing
  // here, so every cache is disabled. Because each input is read through
  // the handle opened here — which keeps serving its inode after any
  // rename, on every backend — `output` may safely name one of the
  // inputs.
  CorpusReaderOptions read_options;
  read_options.io = options.io;
  read_options.cache_bytes = 0;
  std::vector<CorpusReader> readers;
  readers.reserve(inputs.size());
  for (const std::string& input : inputs) {
    ASSIGN_OR_RETURN(CorpusReader reader,
                     CorpusReader::Open(input, read_options));
    readers.push_back(std::move(reader));
  }

  // Rename-suffix targets are computed against the full original name
  // set of *all* inputs, not just the names emitted so far: a later
  // input literally named "foo~2" reserves that name, so an earlier
  // collision renames past it and the final name set is identical
  // whatever the input order.
  std::set<std::string> reserved;
  for (const CorpusReader& reader : readers) {
    for (const CorpusEntry& entry : reader.entries()) {
      reserved.insert(entry.name);
    }
  }

  CorpusMutationStats stats;
  CorpusWriter writer(output);
  RETURN_IF_ERROR(writer.Begin());
  std::set<std::string> taken;
  for (size_t r = 0; r < readers.size(); ++r) {
    const CorpusReader& reader = readers[r];
    for (const CorpusEntry& entry : reader.entries()) {
      std::string name = entry.name;
      if (taken.count(name) != 0) {
        switch (options.on_collision) {
          case NameCollisionPolicy::kFail:
            return AlreadyExistsError("corpus merge: entry '" + entry.name +
                                      "' from " + inputs[r] +
                                      " collides with an earlier input");
          case NameCollisionPolicy::kSkip:
            ++stats.skipped;
            continue;
          case NameCollisionPolicy::kRenameSuffix: {
            uint64_t suffix = 2;
            do {
              name = entry.name + "~" + std::to_string(suffix++);
            } while (taken.count(name) != 0 || reserved.count(name) != 0);
            ++stats.renamed;
            break;
          }
        }
      }
      CorpusEntry renamed = entry;
      renamed.name = name;
      // The writer reads the image bytes through the input's own handle:
      // byte-for-byte copy, nothing decoded.
      RETURN_IF_ERROR(writer.AddImageWindow(renamed, reader));
      taken.insert(std::move(name));
      ++stats.added;
    }
  }
  RETURN_IF_ERROR(writer.Finish());
  return stats;
}

Result<CorpusMutationStats> CompactCorpus(
    const std::string& path, const std::vector<std::string>& drop_names,
    const RandomAccessFileOptions& io) {
  CorpusReaderOptions read_options;
  read_options.io = io;
  read_options.cache_bytes = 0;
  ASSIGN_OR_RETURN(CorpusReader reader, CorpusReader::Open(path, read_options));

  // Every requested drop must name a real entry — a typo'd compact that
  // silently "succeeds" would be indistinguishable from the intended one.
  // (An empty drop set is the journal-squash case: rewrite the live
  // entries into one generation, folding the delta chain and dropping
  // any torn tail.)
  std::set<std::string> drop(drop_names.begin(), drop_names.end());
  for (const std::string& name : drop) {
    if (reader.Find(name) == nullptr) {
      return NotFoundError("corpus compact: no entry named '" + name + "' in " +
                           path);
    }
  }

  CorpusMutationStats stats;
  CorpusWriter writer(path);
  RETURN_IF_ERROR(writer.Begin());
  for (const CorpusEntry& entry : reader.entries()) {
    if (drop.count(entry.name) != 0) {
      ++stats.dropped;
      continue;
    }
    RETURN_IF_ERROR(writer.AddImageWindow(entry, reader));
    ++stats.added;
  }
  RETURN_IF_ERROR(writer.Finish());
  return stats;
}

Result<bool> CorpusWriterActive(const std::string& path) {
  return FileExclusivelyLocked(path);
}

}  // namespace ddr
