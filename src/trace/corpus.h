// DDRC corpus bundles: many named DDRT recordings in one file.
//
// A corpus is how replay traffic ships at scale: instead of one trace file
// per bug, a site packs every scenario x determinism-model recording of an
// evaluation run into a single indexed bundle. Layout (header version 3):
//
//   [header]   12 bytes: magic "DDRC", version, flags
//   [image]*   complete DDRT file images (header..trailer), back to back
//   [index]    section (kind kCorpusIndex): name -> (offset, length) plus
//              skim metadata (model, scenario, event count), CRC-checked
//              and framed exactly like a DDRT section
//   [trailer]  12 bytes: index offset + magic "CRDD" (generation 1)
//
// Because each embedded image is a complete, self-contained DDRT stream,
// all of the trace machinery applies per entry for free: TraceReader
// opens an entry through a (offset, length) window, partial reads touch
// only covering chunks, and Verify runs every CRC. The reader side is
// built for concurrent serving: one CorpusReader owns one
// RandomAccessFile handle (pread/mmap) plus one shared
// decoded-chunk cache, and OpenTrace hands out cheap per-entry windows
// over both — N threads replaying one bundle pay one file open and share
// every decoded hot chunk. Fresh builds go through AtomicFileSink, so an
// interrupted build never leaves a half-indexed bundle at the target
// path.
//
//   CorpusWriter writer("eval.ddrc");
//   CHECK(writer.Begin().ok());
//   CHECK(writer.Add("sum/perfect", recording, options).ok());
//   CHECK(writer.Finish().ok());
//
//   ASSIGN_OR_RETURN(CorpusReader corpus, CorpusReader::Open("eval.ddrc"));
//   ASSIGN_OR_RETURN(TraceReader trace, corpus.OpenTrace("sum/perfect"));
//
// ------------------------------------------------- index journal
//
// Bundles are mutable after the fact. The copying mutations (merge,
// compact) go through the atomic temp + rename discipline; an in-place
// append instead grows the bundle as an *index journal* and never
// rewrites an existing byte:
//
//   [header 12B: "DDRC" v3]
//   [image]* [index g1] [trailer g1 12B]      <- generation 1 (every build)
//   [image]* [delta g2] [trailer g2 28B]      <- appended generation
//   ...
//   [image]* [delta gN] [trailer gN 28B]      <- latest generation
//
// Each appended generation writes its new images, an index section
// listing only the entries *it* added, and a 28-byte trailer (index
// offset, prev trailer offset, generation, CRC, magic "CRDL"). Appends
// are O(new entries) in bytes written, independent of how many entries
// the bundle already holds, and mutate nothing a pre-append reader can
// see, so concurrent readers of the same inode are undisturbed.
//
// Readers stitch: CorpusReader::Open walks the prev-trailer chain from
// the newest valid trailer down to generation 1, then overlays each
// delta on top, oldest first, newest generation winning a name. Every
// index in the chain is live; the only dead bytes are a torn tail
// (reported by `dead_bytes()` / `corpus info`, reclaimed by
// CompactCorpus). A held reader's Reopen walks the chain only down to
// its own trailer and overlays just the generations above it; AppendTo
// does the same from the append base the process's last append left.
//
// Versions 1 and 2 are retired and rejected by every open: their bundles
// embed trace images no build reads any more. Neither number is reused.
//
// Crash durability is by write ordering, not rename:
//
//   1. new images + the new index are written past the old trailer and
//      fsync'd;
//   2. only then is the new trailer (CRC'd, with its generation number
//      and the previous trailer's offset) appended and fsync'd.
//
// A crash at any point leaves the previous generation's trailer intact
// and reachable: CorpusReader::Open first tries the trailer at
// end-of-file and otherwise scans backward past the torn tail for the
// latest trailer whose CRC *and* index section validate, then
// chain-loads the prev-trailer offsets. The next in-place append writes
// the new generation over the torn region (never truncating — the file
// must not shrink under concurrent readers).
//
//   append   CorpusWriter::AppendTo re-opens an existing bundle (from
//            the held append base when it can) and journals as above.
//   merge    MergeCorpora copies embedded images byte-for-byte through
//            RandomAccessFile windows (zero decode, bounded memory) and
//            rebuilds one single-generation index, resolving name
//            collisions by policy. `output` may equal one of the inputs:
//            every input is read through a handle opened before the
//            output's temp-file rename, and an open handle keeps serving
//            the replaced inode's bytes (mmap mapping and pread fd alike).
//   compact  CompactCorpus drops named entries (the drop set may be
//            empty) and rewrites the survivors' images, byte-identical,
//            into a single-generation bundle at the same path — the
//            explicit "squash the journal" step. Append then compact
//            yields the bytes of a single-shot build of the same entries.

#ifndef SRC_TRACE_CORPUS_H_
#define SRC_TRACE_CORPUS_H_

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/trace/chunk_cache.h"
#include "src/trace/streaming_writer.h"
#include "src/trace/trace_reader.h"
#include "src/util/random_access_file.h"

namespace ddr {

inline constexpr uint32_t kCorpusFileMagic = 0x43524444u;     // "DDRC"
inline constexpr uint32_t kCorpusTrailerMagic = 0x44445243u;  // "CRDD"
// Delta-index trailers end with their own magic so a backward scan can
// tell them from generation-1 trailers (and from image bytes) before
// validating; the index section each points at lists only the entries
// its own generation added.
inline constexpr uint32_t kCorpusDeltaTrailerMagic = 0x4C445243u;  // "CRDL"
// The only version any reader accepts or writer stamps.
inline constexpr uint32_t kCorpusFormatVersion = 3;
inline constexpr size_t kCorpusHeaderBytes = 12;   // magic + version + flags
inline constexpr size_t kCorpusTrailerBytes = 12;  // index offset + magic
// index offset + prev trailer offset + generation + CRC + magic.
inline constexpr size_t kCorpusJournalTrailerBytes = 28;

// One recording in the bundle. The metadata fields mirror the embedded
// trace's own metadata section so listing a corpus does not decode any
// entry.
struct CorpusEntry {
  std::string name;     // unique within the corpus, e.g. "msgdrop/perfect"
  uint64_t offset = 0;  // absolute file offset of the DDRT image
  uint64_t length = 0;  // image size in bytes
  std::string model;
  std::string scenario;
  uint64_t event_count = 0;
  double original_wall_seconds = 0.0;
};

class CorpusReader;
class CorpusJournalSink;
struct CorpusAppendBase;
struct CorpusTrailerInfo;

struct CorpusAppendOptions {
  // Backend used to read the existing bundle's index.
  RandomAccessFileOptions io;
};

class CorpusWriter {
 public:
  explicit CorpusWriter(std::string path);
  ~CorpusWriter();

  CorpusWriter(const CorpusWriter&) = delete;
  CorpusWriter& operator=(const CorpusWriter&) = delete;

  // Re-opens the existing bundle at `path` for appending: the returned
  // writer holds the bundle's live entry names (so duplicate-name
  // detection spans old + new) and accepts Add/AddImage/AddImageWindow
  // exactly like a writer after Begin(). Nothing is published until
  // Finish(), which appends a delta index generation and fsync-ordered
  // journal trailer after the existing bytes; no existing byte is copied,
  // so bytes_written() is O(new entries). Abandoning the writer before
  // Finish is crash-equivalent: nothing is published (the previous
  // trailer stays the latest valid one) and the staged bytes remain as
  // an unpublished torn tail — the file is never truncated, because a
  // shrink could SIGBUS concurrent mmap readers scanning the tail. Torn
  // bytes, whether from a crash or an abandoned append, are overwritten
  // by the next append and accounted as dead_bytes until then.
  //
  // Appends are single-writer: the writer holds an exclusive advisory
  // lock (flock) on the bundle until Finish or destruction, and a second
  // concurrent appender fails loudly with Unavailable — unlike the
  // rename-based paths, racing in-place writers would corrupt the file,
  // not just lose an update. The bundle is also re-validated under the
  // lock, so an append prepared against a since-mutated file fails with
  // FailedPrecondition instead of truncating published bytes. Readers
  // holding an open handle keep serving the old index (appends never
  // mutate bytes a published index points at).
  //
  // Preparing an append reads O(new generations), not O(bundle), when
  // the same process appended to the same file last: a successful Finish
  // leaves an *append base* (the published trailer, the live names and
  // an open handle that pins the file's inode until the next append) in
  // one process-wide slot. The next AppendTo takes the slot — it is never
  // shared, so a concurrent second appender finds it empty, takes the
  // full open and then fails on the lock — and, when the path names the
  // same inode and the journal chain still runs through the held
  // trailer, reads only the generations other processes appended since,
  // through the same checks as CorpusReader::Reopen. Anything else (a
  // compacted or rewritten file, another path) takes the full open, as
  // does the first append of every process. A failed or abandoned writer
  // drops the base.
  [[nodiscard]] static Result<std::unique_ptr<CorpusWriter>> AppendTo(
      const std::string& path, const CorpusAppendOptions& options = {});

  // Writes the corpus header. Must be called exactly once, first (the
  // AppendTo factory takes its place when extending an existing bundle).
  [[nodiscard]] Status Begin();

  // Serializes `recording` into the bundle under `name` (unique; reuse is
  // an error) with one WriteTrace call, section by section straight into
  // the file: the image is never buffered whole, and its bytes equal
  // SerializeTrace(recording, options). The index's event count is
  // `recording.log.size()`; `options.scenario` /
  // `options.original_wall_seconds` land in both the embedded trace
  // metadata and the corpus index. A failed Add makes Finish fail.
  Status Add(const std::string& name, const RecordedExecution& recording,
             const TraceWriteOptions& options = {});

  // Appends a pre-serialized DDRT image (SerializeTrace output).
  // The caller supplies the index metadata the image was built from; batch
  // workers use this so serialization parallelizes while the bundle is
  // still written in deterministic order.
  Status AddImage(const std::string& name, const std::vector<uint8_t>& image,
                  const std::string& model, const std::string& scenario,
                  uint64_t event_count, double original_wall_seconds);

  // Copies the embedded image described by `entry` byte-for-byte out of
  // `source`'s open handle into this bundle, in bounded-size chunks — no
  // decode, no whole-image buffering. `entry`'s metadata (and possibly
  // rewritten name) is carried over; its offset is recomputed for this
  // bundle. MergeCorpora and CompactCorpus are built on this.
  Status AddImageWindow(const CorpusEntry& entry, const CorpusReader& source);

  // Writes the index + trailer and publishes the bundle (rename for a
  // build, ordered fsyncs for an append).
  [[nodiscard]] Status Finish();

  // Physical bytes this writer has pushed to disk so far: the whole file
  // for a build, only the delta (new images + index + trailer) for an
  // append — the number the O(delta) append guarantee is asserted on.
  uint64_t bytes_written() const;
  // Bytes AppendTo read through the bundle's handle to prepare this
  // append (0 for a build): flat in the chain length when resuming from
  // the append base, a full open otherwise.
  uint64_t bytes_read() const { return bytes_read_; }

 private:
  friend class CorpusEmbeddedSink;

  struct AppendTag {};
  CorpusWriter(std::string path, AppendTag);

  Status CheckOpenForNewEntry(const std::string& name);
  // AppendTo's instance half: takes or rebuilds the append base, seeds
  // names_/offset_ from it and opens the journal sink.
  Status BeginAppend(const CorpusAppendOptions& options);
  // Routes bytes to whichever sink this writer runs on.
  Status WriteBytes(const uint8_t* data, size_t size);
  Status WriteBytes(const std::vector<uint8_t>& bytes) {
    return WriteBytes(bytes.data(), bytes.size());
  }

  std::string path_;
  std::unique_ptr<AtomicFileSink> atomic_;      // build path
  std::unique_ptr<CorpusJournalSink> journal_;  // append path
  bool begun_ = false;
  bool finished_ = false;
  Status status_;  // first error, sticky
  uint64_t offset_ = 0;

  // In-place append only: the generation being superseded (its names
  // are moved into names_ for the duplicate check, and back on commit).
  std::unique_ptr<CorpusAppendBase> base_;
  uint64_t bytes_read_ = 0;

  // The entries this writer added, and every name it must not reuse.
  std::vector<CorpusEntry> entries_;
  std::unordered_set<std::string> names_;
};

struct CorpusReaderOptions {
  RandomAccessFileOptions io;
  // Capacity of the decoded-chunk cache shared by every TraceReader window
  // this corpus hands out; 0 disables caching — every read is cold.
  uint64_t cache_bytes = kDefaultChunkCacheBytes;
};

// A CorpusReader holds exactly one RandomAccessFile handle and one shared
// decoded-chunk cache; every OpenTrace window borrows both, so N threads
// replaying N entries (or the same hot entry) perform one file open total
// and never decode the same chunk twice while it stays cached.
class CorpusReader {
 public:
  [[nodiscard]] static Result<CorpusReader> Open(const std::string& path,
                                   const CorpusReaderOptions& options = {});

  // Opens the same path with the same options again and returns the next
  // reader: a fresh handle on the current file, the latest index. *this
  // is never modified, so it keeps serving (and windows it handed out
  // stay valid) whether Reopen succeeds or fails, and a caller can build
  // the next reader while others still read this one.
  //
  // When the fresh handle is the same file as this one (same st_dev and
  // st_ino; the held handle keeps the inode from being reused) and the
  // journal chain from the latest trailer runs down to this reader's
  // trailer, the pickup is incremental: only the new generations'
  // trailers and delta indexes are read, each through the same link, CRC
  // and window checks as a full open, and overlaid on this reader's
  // entries. Bytes this reader already validated are immutable under the
  // append protocol and are not read again (VerifyAll remains the full
  // check). Anything else — a path replaced by compact or merge, a chain
  // that misses this trailer — takes the full open.
  //
  // The incremental pickup costs O(new entries) in CPU and memory as
  // well: the next reader shares every entry block and name shard the
  // new generations do not touch (see the entry table below).
  //
  // The decoded-chunk cache object is carried over, so its accumulated
  // counters survive. The cache identity (the file id its chunk keys
  // carry) is carried too on the incremental path, which has proved the
  // file is an in-place extension whose published bytes never change:
  // replayed chunks stay warm across the pickup. The full open takes a
  // fresh identity, so a replaced or rewritten path can never serve
  // stale chunks.
  [[nodiscard]] Result<CorpusReader> Reopen() const;

  const std::string& path() const { return path_; }
  uint64_t file_size() const { return file_size_; }
  // Absolute file offset of the (latest) index section.
  uint64_t index_offset() const { return index_offset_; }
  // Number of index generations in the journal chain (1 for a fresh
  // build, merge or compact).
  uint32_t generation() const { return generation_; }
  // Bytes no live read can reach: the torn tail past the latest valid
  // trailer (every index in the chain is live). CompactCorpus reclaims
  // them.
  uint64_t dead_bytes() const { return dead_bytes_; }
  // Absolute offset of the latest valid trailer, and of its end (the
  // logical tail — equal to file_size() unless a torn tail was scanned
  // past; the next in-place append writes from tail_offset()).
  uint64_t trailer_offset() const { return trailer_offset_; }
  uint64_t tail_offset() const { return tail_offset_; }
  // Every live entry, in add order. The list is built on the first call
  // and kept for this reader's lifetime, so references into it stay
  // valid as long as the reader does; Reopen never builds it, and a
  // copied or reopened reader starts without one. Callers that need only
  // the count use entry_count().
  const std::vector<CorpusEntry>& entries() const;
  size_t entry_count() const { return entry_count_; }
  // The backend serving reads.
  IoBackend io_backend() const { return file_->backend(); }
  // Total cold bytes pulled through the shared handle, across every
  // window and thread. Warm (cached) chunk reads add nothing.
  uint64_t bytes_read() const { return file_->bytes_read(); }
  // The shared decoded-chunk cache (never null; may be disabled).
  const std::shared_ptr<ChunkCache>& chunk_cache() const { return cache_; }
  ChunkCacheStats cache_stats() const { return cache_->stats(); }

  // nullptr when no entry has that name. One name-shard lookup; the
  // pointer stays valid while this reader lives.
  const CorpusEntry* Find(const std::string& name) const;

  // Opens the embedded DDRT image as a full-featured TraceReader window
  // over the corpus's shared handle and cache: no new file open, safe to
  // call (and use) from many threads concurrently.
  Result<TraceReader> OpenTrace(const CorpusEntry& entry) const;
  Result<TraceReader> OpenTrace(const std::string& name) const;

  // Structural + CRC verification of every embedded trace (and, via Open,
  // of the index itself and the journal chain), plus index-vs-embedded-
  // metadata consistency. Hints kernel readahead sequential for the
  // duration of the scan (the one front-to-back read path) and restores
  // the kernel default after.
  [[nodiscard]] Status VerifyAll() const;

 private:
  // AddImageWindow copies bytes through file_; BeginAppend opens through
  // OpenImpl on the handle it already holds.
  friend class CorpusWriter;

  CorpusReader() = default;

  Status VerifyAllImpl() const;

  static Result<CorpusReader> OpenImpl(const std::string& path,
                                       const CorpusReaderOptions& options,
                                       std::shared_ptr<ChunkCache> cache,
                                       std::shared_ptr<RandomAccessFile> file);
  void SetLatestTrailer(const CorpusTrailerInfo& trailer);
  // Adds index generations, given newest first, to the entry table as if
  // applied oldest first: a name the table holds is replaced in place
  // (same slot, so add order is kept), any other name is appended.
  void AddGenerations(std::vector<std::vector<CorpusEntry>> newest_first);

  // The entry table. Entries live in fixed-size blocks of immutable
  // entries, and a name index maps each live name to its slot (add
  // order) through a fixed number of shards. Blocks and shards are
  // shared between a reader and the readers Reopen builds from it:
  // adding a generation copies only the blocks and shards its names land
  // in, plus the block-pointer table, never the entries themselves.
  static constexpr size_t kEntryBlockSize = 64;
  static constexpr size_t kNameShards = 64;
  static constexpr size_t kNoSlot = SIZE_MAX;
  using EntryBlock = std::vector<std::shared_ptr<const CorpusEntry>>;
  // One shard of the name index. It holds no strings, so copying one is
  // a flat copy.
  struct NameShard;
  const CorpusEntry& EntryAt(size_t slot) const {
    return *(*blocks_[slot / kEntryBlockSize])[slot % kEntryBlockSize];
  }
  // The slot of `name`, whose hash is `hash`, or kNoSlot.
  size_t FindSlot(size_t hash, const std::string& name) const;

  // The list entries() builds on first call. Heap-held so the reader
  // stays movable; a copy starts unbuilt, because the list belongs to
  // one reader.
  class EntryList {
   public:
    EntryList() : state_(std::make_unique<State>()) {}
    EntryList(const EntryList&) : EntryList() {}
    EntryList& operator=(const EntryList&) {
      state_ = std::make_unique<State>();
      return *this;
    }
    EntryList(EntryList&&) noexcept = default;
    EntryList& operator=(EntryList&&) noexcept = default;

    template <typename Build>
    const std::vector<CorpusEntry>& Get(Build build) const {
      std::call_once(state_->once, [&] { build(&state_->entries); });
      return state_->entries;
    }

   private:
    struct State {
      std::once_flag once;
      std::vector<CorpusEntry> entries;
    };
    std::unique_ptr<State> state_;
  };

  std::string path_;
  CorpusReaderOptions options_;
  std::shared_ptr<RandomAccessFile> file_;
  std::shared_ptr<ChunkCache> cache_;
  uint64_t file_size_ = 0;
  uint64_t index_offset_ = 0;
  uint32_t generation_ = 1;
  uint64_t dead_bytes_ = 0;
  uint64_t trailer_offset_ = 0;
  uint64_t tail_offset_ = 0;
  // Namespaces this reader's chunks in cache_: file_->id() after a full
  // open, carried from the held reader by an incremental Reopen.
  uint64_t cache_id_ = 0;
  std::vector<std::shared_ptr<const EntryBlock>> blocks_;
  std::array<std::shared_ptr<const NameShard>, kNameShards> shards_;
  size_t entry_count_ = 0;
  EntryList list_;
};

// ------------------------------------------------- corpus-level mutations

// What MergeCorpora does when two inputs carry the same entry name.
enum class NameCollisionPolicy : uint8_t {
  kFail = 0,          // AlreadyExists error naming the entry and input
  kSkip = 1,          // first occurrence wins, later ones are dropped
  kRenameSuffix = 2,  // later ones land as "name~2", "name~3", ...
};

std::string_view NameCollisionPolicyName(NameCollisionPolicy policy);
Result<NameCollisionPolicy> ParseNameCollisionPolicy(const std::string& name);

// Per-entry accounting for a merge or compact pass.
struct CorpusMutationStats {
  size_t added = 0;    // entries written to the output bundle
  size_t skipped = 0;  // collisions dropped under kSkip
  size_t renamed = 0;  // collisions re-labelled under kRenameSuffix
  size_t dropped = 0;  // entries removed by CompactCorpus
};

struct MergeCorporaOptions {
  NameCollisionPolicy on_collision = NameCollisionPolicy::kFail;
  // Backend used to read the input bundles.
  RandomAccessFileOptions io;
};

// Merges `inputs` (in order) into one single-generation bundle at
// `output`.
// Embedded images are copied byte-for-byte through RandomAccessFile
// windows — nothing is decoded, memory stays bounded — and a single
// merged index is rebuilt. The output is written atomically, so `output`
// may equal one of the inputs (the inputs' handles are opened before the
// rename and keep serving the replaced inode). Rename-suffix targets are
// computed against the full name set of *all* inputs, so the final name
// set does not depend on input order (a later input literally named
// "foo~2" keeps that name; an earlier collision renames past it). Fails
// without touching `output` if any input is unreadable or, under kFail,
// on the first name collision.
Result<CorpusMutationStats> MergeCorpora(const std::vector<std::string>& inputs,
                                         const std::string& output,
                                         const MergeCorporaOptions& options = {});

// Rewrites the bundle at `path` without the entries in `drop_names`,
// copying the survivors' images byte-for-byte into a single-generation
// bundle — with an empty drop set this is the explicit "squash the
// journal" step, bit-identical to a single-shot build of the live
// entries. Every drop name must exist (NotFound otherwise, and the
// bundle is untouched); dropping every entry leaves a valid empty
// bundle. Atomic: readers of the old bundle are unaffected until they
// Reopen.
Result<CorpusMutationStats> CompactCorpus(
    const std::string& path, const std::vector<std::string>& drop_names,
    const RandomAccessFileOptions& io = {});

// True when an in-place appender currently holds the bundle's exclusive
// writer flock — the non-blocking TryLockShared probe behind the
// "writer: active" line of `corpus info` and the server's info response.
// Never blocks and never disturbs the writer; the answer is a snapshot.
Result<bool> CorpusWriterActive(const std::string& path);

}  // namespace ddr

#endif  // SRC_TRACE_CORPUS_H_
