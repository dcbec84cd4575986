#include "src/trace/streaming_writer.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "src/trace/chunk_codec.h"
#include "src/util/fault_injection.h"
#include "src/util/logging.h"
#include "src/util/string_util.h"

namespace ddr {

// ------------------------------------------------------------ AtomicFileSink

namespace {

// Unique per process lifetime, so concurrent writers (threads or
// processes) targeting the same destination get distinct temp files.
std::string MakeTempPath(const std::string& path) {
  static std::atomic<uint64_t> counter{0};
  // The pid names a scratch file that is renamed away or deleted; it
  // never reaches recorded bytes.
  // NOLINTNEXTLINE(ddr-nondeterminism): temp-file naming only (see above)
  return StrPrintf("%s.tmp.%d.%llu", path.c_str(), static_cast<int>(getpid()),
                   static_cast<unsigned long long>(
                       counter.fetch_add(1, std::memory_order_relaxed)));
}

#if defined(__unix__) || defined(__APPLE__)
#define DDR_HAVE_FSYNC 1
#else
#define DDR_HAVE_FSYNC 0
#endif

// Durability for the temp file's bytes before rename. Without this, a
// crash right after the "atomic" rename can still leave a zero-length or
// torn file at the target path: rename only orders the directory entry,
// not the data blocks behind it.
Status SyncFile(std::FILE* file, const std::string& tmp_path) {
  RETURN_IF_ERROR(FaultPoint("trace.sink.sync"));
#if DDR_HAVE_FSYNC
  int rc = 0;
  do {
    if (FaultEintr("trace.sink.sync")) {
      errno = EINTR;
      rc = -1;
      continue;  // simulated interrupted fsync; the loop retries for real
    }
    rc = ::fsync(::fileno(file));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    return UnavailableError(StrPrintf("fsync of trace temp file %s failed: %s",
                                      tmp_path.c_str(),
                                      std::strerror(errno)));
  }
#else
  (void)file;
  (void)tmp_path;
#endif
  return OkStatus();
}

// Durability for the rename itself: fsync the parent directory so the new
// directory entry survives a crash. Best-effort — some filesystems refuse
// directory fsync, and by this point the data is already safe on disk.
void SyncParentDir(const std::string& path) {
  // Best-effort (see below), so an injected fault just skips the sync —
  // but the site still participates in crash enumeration.
  if (!FaultPoint("trace.sink.dirsync").ok()) {
    return;
  }
#if DDR_HAVE_FSYNC
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? std::string(".")
                                                     : path.substr(0, slash);
  int fd = -1;
  do {
    fd = ::open(dir.empty() ? "/" : dir.c_str(), O_RDONLY);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    return;
  }
  int rc = 0;
  do {
    rc = ::fsync(fd);
  } while (rc != 0 && errno == EINTR);
  ::close(fd);
#else
  (void)path;
#endif
}

}  // namespace

AtomicFileSink::AtomicFileSink(std::string path)
    : path_(std::move(path)), tmp_path_(MakeTempPath(path_)) {
  file_ = std::fopen(tmp_path_.c_str(), "wb");
}

AtomicFileSink::~AtomicFileSink() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  if (!closed_) {
    std::remove(tmp_path_.c_str());
  }
}

Status AtomicFileSink::Append(const uint8_t* data, size_t size) {
  if (closed_) {
    return FailedPreconditionError("append to a closed trace file sink");
  }
  if (file_ == nullptr) {
    return UnavailableError("cannot open trace temp file for writing: " +
                            tmp_path_);
  }
  size_t allow = size;
  Status injected = OkStatus();
  if (FaultsArmed()) {
    WriteFaultOutcome fault = FaultWritePoint("trace.sink.append", size);
    allow = fault.allowed;
    injected = std::move(fault.failure);
  }
  errno = 0;
  if (std::fwrite(data, 1, allow, file_) != allow) {
    return UnavailableError(StrPrintf(
        "short write to trace temp file %s: %s", tmp_path_.c_str(),
        std::strerror(errno != 0 ? errno : EIO)));
  }
  if (!injected.ok()) {
    return Status(injected.code(),
                  "trace temp file " + tmp_path_ + ": " + injected.message());
  }
  return OkStatus();
}

Status AtomicFileSink::Close() {
  if (closed_) {
    return OkStatus();
  }
  if (file_ == nullptr) {
    return UnavailableError("cannot open trace temp file for writing: " +
                            tmp_path_);
  }
  errno = 0;
  const bool flushed =
      std::fflush(file_) == 0 && FaultPoint("trace.sink.flush").ok();
  const bool file_ok = std::ferror(file_) == 0;
  const int flush_errno = errno;
  const Status synced = flushed && file_ok ? SyncFile(file_, tmp_path_)
                                           : OkStatus();
  std::fclose(file_);
  file_ = nullptr;
  if (!flushed || !file_ok) {
    std::remove(tmp_path_.c_str());
    return UnavailableError(StrPrintf(
        "short write to trace temp file %s: %s", tmp_path_.c_str(),
        std::strerror(flush_errno != 0 ? flush_errno : EIO)));
  }
  if (!synced.ok()) {
    std::remove(tmp_path_.c_str());
    return synced;
  }
  errno = 0;
  const bool renamed = FaultPoint("trace.sink.rename").ok() &&
                       std::rename(tmp_path_.c_str(), path_.c_str()) == 0;
  if (!renamed) {
    std::remove(tmp_path_.c_str());
    return UnavailableError(StrPrintf(
        "cannot rename trace temp file into place at %s: %s", path_.c_str(),
        std::strerror(errno != 0 ? errno : EIO)));
  }
  SyncParentDir(path_);
  closed_ = true;
  return OkStatus();
}

// --------------------------------------------------------------- WriteTrace

namespace {

// Per-section fault sites: a crash plan can target exactly one stage of
// the stream (e.g. "the metadata made it, the footer did not").
const char* SectionFaultSite(TraceSection kind) {
  switch (kind) {
    case TraceSection::kMetadata:
      return "trace.section.metadata";
    case TraceSection::kSnapshot:
      return "trace.section.snapshot";
    case TraceSection::kEventChunk:
      return "trace.section.chunk";
    case TraceSection::kFooter:
      return "trace.section.footer";
    case TraceSection::kCorpusIndex:
      return "trace.section.index";
  }
  return "trace.section";
}

// Appends a framed section at stream offset `*offset`, advances it, and
// returns the section's offset.
Result<uint64_t> WriteSection(TraceByteSink* sink, uint64_t* offset,
                              TraceSection kind,
                              const std::vector<uint8_t>& payload) {
  RETURN_IF_ERROR(FaultPoint(SectionFaultSite(kind)));
  // Every section tries ddrz (stored raw when that does not shrink it)
  // except the footer, which stays raw so its offset math never depends
  // on compression behavior.
  const std::vector<uint8_t> section = EncodeTraceSection(
      kind, payload, /*allow_compress=*/kind != TraceSection::kFooter);
  RETURN_IF_ERROR(sink->Append(section));
  const uint64_t section_offset = *offset;
  *offset += section.size();
  return section_offset;
}

}  // namespace

Status WriteTrace(const RecordedExecution& recording,
                  const TraceWriteOptions& options, TraceByteSink* sink) {
  const uint64_t events_per_chunk = std::min<uint64_t>(
      options.events_per_chunk == 0 ? 512 : options.events_per_chunk,
      kMaxChunkEvents);
  const std::vector<Event>& events = recording.log.events();

  RETURN_IF_ERROR(FaultPoint("trace.header"));
  Encoder header;
  header.PutFixed32(kTraceFileMagic);
  header.PutFixed32(kTraceFormatVersion);
  header.PutFixed32(0);  // flags, reserved
  RETURN_IF_ERROR(sink->Append(header.buffer()));
  uint64_t offset = header.size();

  TraceFooter footer;
  footer.total_events = events.size();
  for (uint64_t first = 0; first < events.size(); first += events_per_chunk) {
    TraceChunkInfo chunk;
    chunk.first_event = first;
    chunk.event_count = std::min<uint64_t>(events_per_chunk,
                                           events.size() - first);
    ASSIGN_OR_RETURN(
        chunk.file_offset,
        WriteSection(sink, &offset, TraceSection::kEventChunk,
                     EncodeEventChunkPayload(events.data() + first,
                                             chunk.event_count, first)));
    footer.chunks.push_back(chunk);
  }

  TraceMetadata meta;
  meta.model = recording.model;
  meta.scenario = options.scenario;
  meta.event_count = events.size();
  meta.events_per_chunk = events_per_chunk;
  meta.recorded_bytes = recording.recorded_bytes;
  meta.overhead_nanos = recording.overhead_nanos;
  meta.cpu_nanos = recording.cpu_nanos;
  meta.intercepted_events = recording.intercepted_events;
  meta.recorded_events = recording.recorded_events;
  meta.original_wall_seconds = options.original_wall_seconds;
  ASSIGN_OR_RETURN(footer.metadata_offset,
                   WriteSection(sink, &offset, TraceSection::kMetadata,
                                meta.Encode()));

  ASSIGN_OR_RETURN(footer.snapshot_offset,
                   WriteSection(sink, &offset, TraceSection::kSnapshot,
                                recording.snapshot.Encode()));

  // Footer (stored raw, see WriteSection) + trailer.
  ASSIGN_OR_RETURN(const uint64_t footer_offset,
                   WriteSection(sink, &offset, TraceSection::kFooter,
                                footer.Encode()));
  RETURN_IF_ERROR(FaultPoint("trace.trailer"));
  Encoder trailer;
  trailer.PutFixed64(footer_offset);
  trailer.PutFixed32(kTraceTrailerMagic);
  RETURN_IF_ERROR(sink->Append(trailer.buffer()));
  return sink->Close();
}

// ------------------------------------------------- whole-recording writes

std::vector<uint8_t> SerializeTrace(const RecordedExecution& recording,
                                    const TraceWriteOptions& options) {
  BufferByteSink sink;
  // A buffer sink cannot fail, so the status is a structural invariant.
  CHECK(WriteTrace(recording, options, &sink).ok());
  return sink.TakeBuffer();
}

Status WriteTraceFile(const std::string& path,
                      const RecordedExecution& recording,
                      const TraceWriteOptions& options) {
  AtomicFileSink sink(path);
  return WriteTrace(recording, options, &sink);
}

}  // namespace ddr
