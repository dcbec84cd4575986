// Tests for DDRC corpus bundles (src/trace/corpus.h), the scenario
// registry, and the BatchRunner / ReplayCorpus pipeline.
//
// The acceptance properties: a corpus packs many named recordings into one
// indexed, CRC-checked file whose entries round-trip exactly; BatchRunner
// with N threads produces the same deterministic rows as 1 thread; and
// replaying a corpus from disk scores identically to the in-memory
// record->replay path.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/apps/scenarios.h"
#include "src/core/batch_runner.h"
#include "src/core/experiment.h"
#include "src/trace/chunk_cache.h"
#include "src/trace/corpus.h"
#include "src/trace/trace_format.h"
#include "src/util/codec.h"
#include "src/util/crc32.h"
#include "src/util/fault_injection.h"
#include "src/util/random_access_file.h"
#include "src/util/rng.h"
#include "src/util/string_util.h"
#include "tests/trace_forge.h"

namespace ddr {
namespace {

const IoBackend kAllBackends[] = {IoBackend::kPread, IoBackend::kMmap};

CorpusReaderOptions WithBackend(IoBackend backend, uint64_t cache_bytes) {
  CorpusReaderOptions options;
  options.io.backend = backend;
  options.cache_bytes = cache_bytes;
  return options;
}

class ScopedPath {
 public:
  explicit ScopedPath(const std::string& tag)
      : path_("corpus_test_" + tag + ".ddrc") {}
  ~ScopedPath() { std::remove(path_.c_str()); }
  const std::string& get() const { return path_; }

 private:
  std::string path_;
};

RecordedExecution MakeSyntheticRecording(uint64_t num_events,
                                         uint64_t seed = 7) {
  RecordedExecution recording;
  recording.model = "synthetic";
  Rng rng(seed);
  for (uint64_t seq = 0; seq < num_events; ++seq) {
    Event event;
    event.seq = seq;
    event.time = seq * 13;
    event.fiber = static_cast<FiberId>(seq % 3);
    event.obj = 2 + seq % 5;
    event.value = rng.NextIndex(1 << 18);
    event.type = seq % 2 == 0 ? EventType::kSharedRead : EventType::kRngDraw;
    recording.log.Append(event);
  }
  recording.recorded_events = num_events;
  recording.intercepted_events = num_events;
  recording.recorded_bytes = recording.log.encoded_size_bytes();
  recording.cpu_nanos = 500;
  recording.overhead_nanos = 70;
  return recording;
}

// The deployed read chain for one entry: OpenTrace, then
// ReadRecordedExecution.
Result<RecordedExecution> LoadEntry(const CorpusReader& corpus,
                                    const std::string& name) {
  ASSIGN_OR_RETURN(TraceReader trace, corpus.OpenTrace(name));
  return trace.ReadRecordedExecution();
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// Appends one hand-rolled generation to `bytes`: an index section
// listing `entries` plus a CRC'd 28-byte trailer ending in `magic`.
// Returns the trailer's offset.
uint64_t AppendCraftedGeneration(std::vector<uint8_t>* bytes,
                                 const std::vector<CorpusEntry>& entries,
                                 uint64_t prev_trailer_offset,
                                 uint32_t generation, uint32_t magic) {
  Encoder index;
  index.PutVarint64(entries.size());
  for (const CorpusEntry& entry : entries) {
    index.PutString(entry.name);
    index.PutVarint64(entry.offset);
    index.PutVarint64(entry.length);
    index.PutString(entry.model);
    index.PutString(entry.scenario);
    index.PutVarint64(entry.event_count);
    index.PutDouble(entry.original_wall_seconds);
  }
  const uint64_t index_offset = bytes->size();
  const std::vector<uint8_t> section = EncodeTraceSection(
      TraceSection::kCorpusIndex, index.buffer(), /*allow_compress=*/true);
  bytes->insert(bytes->end(), section.begin(), section.end());
  Encoder trailer;
  trailer.PutFixed64(index_offset);
  trailer.PutFixed64(prev_trailer_offset);
  trailer.PutFixed32(generation);
  trailer.PutFixed32(Crc32(trailer.buffer().data(), trailer.size()));
  trailer.PutFixed32(magic);
  const uint64_t trailer_offset = bytes->size();
  bytes->insert(bytes->end(), trailer.buffer().begin(), trailer.buffer().end());
  return trailer_offset;
}

// ----------------------------------------------------------------- Corpus

TEST(CorpusTest, EmptyCorpusRoundtrips) {
  ScopedPath path("empty");
  CorpusWriter writer(path.get());
  ASSERT_TRUE(writer.Begin().ok());
  ASSERT_TRUE(writer.Finish().ok());

  auto corpus = CorpusReader::Open(path.get());
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  EXPECT_TRUE(corpus->entries().empty());
  EXPECT_TRUE(corpus->VerifyAll().ok());
  EXPECT_EQ(corpus->Find("anything"), nullptr);
}

TEST(CorpusTest, SingleRecordingRoundtripsEveryField) {
  const RecordedExecution recording = MakeSyntheticRecording(700);
  ScopedPath path("single");
  TraceWriteOptions options;
  options.events_per_chunk = 128;
  options.scenario = "synthetic-scenario";
  options.original_wall_seconds = 1.25;

  CorpusWriter writer(path.get());
  ASSERT_TRUE(writer.Begin().ok());
  ASSERT_TRUE(writer.Add("bugs/one", recording, options).ok());
  ASSERT_TRUE(writer.Finish().ok());

  auto corpus = CorpusReader::Open(path.get());
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  ASSERT_EQ(corpus->entries().size(), 1u);
  const CorpusEntry& entry = corpus->entries()[0];
  EXPECT_EQ(entry.name, "bugs/one");
  EXPECT_EQ(entry.model, "synthetic");
  EXPECT_EQ(entry.scenario, "synthetic-scenario");
  EXPECT_EQ(entry.event_count, 700u);
  EXPECT_DOUBLE_EQ(entry.original_wall_seconds, 1.25);

  auto embedded = corpus->OpenTrace("bugs/one");
  ASSERT_TRUE(embedded.ok()) << embedded.status();
  EXPECT_DOUBLE_EQ(embedded->metadata().original_wall_seconds, 1.25);
  auto loaded = embedded->ReadRecordedExecution();
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->log.size(), recording.log.size());
  for (size_t i = 0; i < recording.log.size(); ++i) {
    EXPECT_EQ(loaded->log.events()[i].SemanticHash(),
              recording.log.events()[i].SemanticHash());
  }
  EXPECT_EQ(loaded->recorded_bytes, recording.recorded_bytes);
  EXPECT_EQ(loaded->intercepted_events, recording.intercepted_events);

  // The embedded trace is a full TraceReader: partial reads work through
  // the corpus window.
  auto trace = corpus->OpenTrace(entry);
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace->total_events(), 700u);
  auto mid = trace->ReadEvents(300, 10);
  ASSERT_TRUE(mid.ok());
  ASSERT_EQ(mid->size(), 10u);
  EXPECT_EQ((*mid)[0].SemanticHash(),
            recording.log.events()[300].SemanticHash());

  EXPECT_TRUE(corpus->VerifyAll().ok());
}

// Add streams a recording into the bundle; BatchRunner writes its entries
// with AddImage(SerializeTrace(...)). Both must produce identical bytes,
// in a fresh build and in an in-place appended generation.
TEST(CorpusTest, AddMatchesAddImageOfSerializedTrace) {
  const RecordedExecution base = MakeSyntheticRecording(90, 3);
  const RecordedExecution recording = MakeSyntheticRecording(500);
  TraceWriteOptions options;
  options.events_per_chunk = 64;
  options.scenario = "synthetic-scenario";
  options.original_wall_seconds = 0.5;

  auto add = [&](CorpusWriter& writer, const std::string& name) {
    return writer.Add(name, recording, options);
  };
  auto add_image = [&](CorpusWriter& writer, const std::string& name) {
    return writer.AddImage(name, SerializeTrace(recording, options),
                           recording.model, options.scenario,
                           recording.log.size(), options.original_wall_seconds);
  };
  using AddFn = std::function<Status(CorpusWriter&, const std::string&)>;
  auto build = [&](const std::string& path, const AddFn& fn) {
    CorpusWriter writer(path);
    ASSERT_TRUE(writer.Begin().ok());
    ASSERT_TRUE(writer.Add("base", base).ok());
    ASSERT_TRUE(fn(writer, "built").ok());
    ASSERT_TRUE(writer.Finish().ok());
  };
  auto append = [&](const std::string& path, const AddFn& fn) {
    auto writer = CorpusWriter::AppendTo(path);
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE(fn(**writer, "appended").ok());
    ASSERT_TRUE((*writer)->Finish().ok());
  };

  ScopedPath streamed("add_streamed");
  ScopedPath imaged("add_imaged");
  build(streamed.get(), add);
  build(imaged.get(), add_image);
  EXPECT_EQ(ReadFileBytes(streamed.get()), ReadFileBytes(imaged.get()));

  append(streamed.get(), add);
  append(imaged.get(), add_image);
  EXPECT_EQ(ReadFileBytes(streamed.get()), ReadFileBytes(imaged.get()));

  auto corpus = CorpusReader::Open(streamed.get());
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  EXPECT_EQ(corpus->generation(), 2u);
  EXPECT_TRUE(corpus->VerifyAll().ok());
}

// A failed Add poisons the writer: Finish reports the failure and never
// publishes an index over the torn entry.
TEST(CorpusTest, FailedAddMakesFinishFail) {
  const RecordedExecution recording = MakeSyntheticRecording(60);
  ScopedPath path("failedadd");
  CorpusWriter writer(path.get());
  ASSERT_TRUE(writer.Begin().ok());
  ASSERT_TRUE(SetFaultPlan("trace.trailer:eio").ok());
  const Status added = writer.Add("torn", recording);
  ClearFaultPlan();
  ASSERT_FALSE(added.ok());
  EXPECT_FALSE(writer.Add("next", recording).ok());
  const Status finished = writer.Finish();
  EXPECT_EQ(finished.code(), added.code()) << finished;
  EXPECT_FALSE(CorpusReader::Open(path.get()).ok());
}

TEST(CorpusTest, DuplicateNamesRejected) {
  const RecordedExecution recording = MakeSyntheticRecording(50);
  ScopedPath path("dup");
  CorpusWriter writer(path.get());
  ASSERT_TRUE(writer.Begin().ok());
  ASSERT_TRUE(writer.Add("same", recording).ok());
  const Status duplicate = writer.Add("same", recording);
  EXPECT_EQ(duplicate.code(), StatusCode::kAlreadyExists);
  EXPECT_TRUE(writer.Add("different", recording).ok());
  ASSERT_TRUE(writer.Finish().ok());

  auto corpus = CorpusReader::Open(path.get());
  ASSERT_TRUE(corpus.ok());
  EXPECT_EQ(corpus->entries().size(), 2u);
}

TEST(CorpusTest, AtomicWriteLeavesNoPartialFile) {
  const RecordedExecution recording = MakeSyntheticRecording(50);
  ScopedPath path("atomic");
  {
    CorpusWriter writer(path.get());
    ASSERT_TRUE(writer.Begin().ok());
    ASSERT_TRUE(writer.Add("r", recording).ok());
    // No Finish: the bundle must not appear at the target path (the
    // sink's own temp-file cleanup is covered by
    // TraceWriterTest.AbandonedSinkRemovesItsTempFile).
  }
  std::ifstream target(path.get(), std::ios::binary);
  EXPECT_FALSE(target.good());
}

// Every backend must fail identically on damaged bundles: corruption and
// truncation always surface as a Status, never as garbage events — under
// zero-copy mmap just as under pread.
TEST(CorpusTest, DetectsCorruptionAndTruncationOnEveryBackend) {
  ScopedPath path("corrupt");
  {
    CorpusWriter writer(path.get());
    ASSERT_TRUE(writer.Begin().ok());
    ASSERT_TRUE(writer.Add("a", MakeSyntheticRecording(300, 1)).ok());
    ASSERT_TRUE(writer.Add("b", MakeSyntheticRecording(300, 2)).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  const std::vector<uint8_t> image = ReadFileBytes(path.get());

  for (IoBackend backend : kAllBackends) {
    const CorpusReaderOptions options = WithBackend(backend, 1 << 20);

    // A flipped byte inside an embedded trace: the index still opens, but
    // verification of that entry fails.
    {
      std::vector<uint8_t> bad = image;
      bad[bad.size() / 3] ^= 0x20;
      WriteFileBytes(path.get(), bad);
      auto corpus = CorpusReader::Open(path.get(), options);
      ASSERT_TRUE(corpus.ok()) << corpus.status();
      EXPECT_FALSE(corpus->VerifyAll().ok()) << IoBackendName(backend);
    }

    // A flipped byte inside the index section (just before the trailer):
    // Open itself fails on the index CRC.
    {
      std::vector<uint8_t> bad = image;
      bad[bad.size() - kCorpusTrailerBytes - 4] ^= 0x40;
      WriteFileBytes(path.get(), bad);
      EXPECT_FALSE(CorpusReader::Open(path.get(), options).ok())
          << IoBackendName(backend);
    }

    // Truncations: the trailer (and with it the index) is gone, so Open
    // fails cleanly at every cut point.
    for (size_t keep = 0; keep < image.size(); keep += image.size() / 13 + 1) {
      WriteFileBytes(path.get(),
                     std::vector<uint8_t>(image.begin(), image.begin() + keep));
      EXPECT_FALSE(CorpusReader::Open(path.get(), options).ok())
          << IoBackendName(backend) << " prefix " << keep;
    }
  }
}

// Both I/O backends decode the same DDRC bundle to bit-identical
// event logs, with VerifyAll green everywhere — zero-copy mmap reads are
// not allowed to change a single decoded byte.
TEST(CorpusTest, BackendsDecodeBitIdentically) {
  ScopedPath path("backends");
  TraceWriteOptions small_chunks;
  small_chunks.events_per_chunk = 128;
  {
    CorpusWriter writer(path.get());
    ASSERT_TRUE(writer.Begin().ok());
    ASSERT_TRUE(writer.Add("a", MakeSyntheticRecording(700, 1)).ok());
    ASSERT_TRUE(
        writer.Add("b", MakeSyntheticRecording(900, 2), small_chunks).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }

  std::vector<std::vector<uint8_t>> logs_by_backend;
  for (IoBackend backend : kAllBackends) {
    auto corpus =
        CorpusReader::Open(path.get(), WithBackend(backend, 1 << 20));
    ASSERT_TRUE(corpus.ok()) << corpus.status();
    ASSERT_EQ(corpus->io_backend(), backend);
    EXPECT_TRUE(corpus->VerifyAll().ok()) << IoBackendName(backend);

    std::vector<uint8_t> combined;
    for (const CorpusEntry& entry : corpus->entries()) {
      auto trace = corpus->OpenTrace(entry);
      ASSERT_TRUE(trace.ok()) << trace.status();
      auto log = trace->ReadAllEvents();
      ASSERT_TRUE(log.ok()) << log.status();
      const std::vector<uint8_t> encoded = log->Encode();
      combined.insert(combined.end(), encoded.begin(), encoded.end());
    }
    logs_by_backend.push_back(std::move(combined));
  }
  ASSERT_EQ(logs_by_backend.size(), 2u);
  EXPECT_EQ(logs_by_backend[0], logs_by_backend[1]);
}

// The cache-counter truthfulness property: a warm re-read of a chunk
// already decoded through the shared cache costs exactly 0 disk bytes,
// and the hit/miss counters on reader and cache agree with that story.
TEST(CorpusTest, WarmChunkRereadCostsZeroDiskBytes) {
  ScopedPath path("warm");
  TraceWriteOptions options;
  options.events_per_chunk = 128;
  {
    CorpusWriter writer(path.get());
    ASSERT_TRUE(writer.Begin().ok());
    ASSERT_TRUE(writer.Add("r", MakeSyntheticRecording(1000)).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }

  for (IoBackend backend : kAllBackends) {
    auto corpus =
        CorpusReader::Open(path.get(), WithBackend(backend, 8 << 20));
    ASSERT_TRUE(corpus.ok()) << corpus.status();
    auto trace = corpus->OpenTrace("r");
    ASSERT_TRUE(trace.ok()) << trace.status();

    auto cold = trace->ReadEvents(300, 10);
    ASSERT_TRUE(cold.ok());
    const uint64_t cold_bytes = trace->bytes_read();
    EXPECT_EQ(trace->cache_hits(), 0u);
    EXPECT_EQ(trace->cache_misses(), 1u);

    // Warm re-read, same reader: 0 new disk bytes, one cache hit.
    auto warm = trace->ReadEvents(300, 10);
    ASSERT_TRUE(warm.ok());
    EXPECT_EQ(trace->bytes_read(), cold_bytes) << IoBackendName(backend);
    EXPECT_EQ(trace->cache_hits(), 1u);

    // Warm read through a *different* window of the same corpus: the
    // chunk decode is shared, so the new window pays only its own open.
    auto window = corpus->OpenTrace("r");
    ASSERT_TRUE(window.ok());
    const uint64_t open_bytes = window->bytes_read();
    auto shared = window->ReadEvents(300, 10);
    ASSERT_TRUE(shared.ok());
    EXPECT_EQ(window->bytes_read(), open_bytes) << IoBackendName(backend);
    EXPECT_EQ(window->cache_hits(), 1u);
    ASSERT_EQ(shared->size(), cold->size());
    for (size_t i = 0; i < shared->size(); ++i) {
      EXPECT_EQ((*shared)[i].SemanticHash(), (*cold)[i].SemanticHash());
    }

    const ChunkCacheStats stats = corpus->cache_stats();
    EXPECT_EQ(stats.hits, 2u);
    EXPECT_EQ(stats.insertions, 1u);
  }

  // Control: with the cache disabled, the same warm re-read pays the
  // chunk's disk bytes again.
  auto cold_corpus =
      CorpusReader::Open(path.get(), WithBackend(IoBackend::kPread, 0));
  ASSERT_TRUE(cold_corpus.ok());
  auto trace = cold_corpus->OpenTrace("r");
  ASSERT_TRUE(trace.ok());
  ASSERT_TRUE(trace->ReadEvents(300, 10).ok());
  const uint64_t first = trace->bytes_read();
  ASSERT_TRUE(trace->ReadEvents(300, 10).ok());
  EXPECT_GT(trace->bytes_read(), first);
  EXPECT_EQ(trace->cache_hits(), 0u);
}

// 8 threads replaying distinct and overlapping entries of one shared
// CorpusReader decode exactly what a single thread decodes.
TEST(CorpusTest, ConcurrentWindowsMatchSingleThreadedReads) {
  ScopedPath path("threads");
  constexpr size_t kEntries = 6;
  {
    CorpusWriter writer(path.get());
    ASSERT_TRUE(writer.Begin().ok());
    for (size_t i = 0; i < kEntries; ++i) {
      ASSERT_TRUE(writer
                      .Add("entry/" + std::to_string(i),
                           MakeSyntheticRecording(400 + 50 * i, i + 1))
                      .ok());
    }
    ASSERT_TRUE(writer.Finish().ok());
  }

  auto corpus =
      CorpusReader::Open(path.get(), WithBackend(IoBackend::kMmap, 16 << 20));
  ASSERT_TRUE(corpus.ok()) << corpus.status();

  // Single-threaded ground truth.
  std::vector<std::vector<uint8_t>> expected(kEntries);
  for (size_t e = 0; e < kEntries; ++e) {
    auto trace = corpus->OpenTrace(corpus->entries()[e]);
    ASSERT_TRUE(trace.ok());
    auto log = trace->ReadAllEvents();
    ASSERT_TRUE(log.ok());
    expected[e] = log->Encode();
  }

  // Distinct entries (threads partition the corpus), then overlapping
  // (every thread reads every entry, hammering the shared cache).
  for (const bool overlapping : {false, true}) {
    std::vector<int> mismatches(8, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&, t]() {
        for (size_t e = 0; e < kEntries; ++e) {
          if (!overlapping && e % 8 != static_cast<size_t>(t)) {
            continue;
          }
          auto trace = corpus->OpenTrace(corpus->entries()[e]);
          if (!trace.ok()) {
            ++mismatches[t];
            continue;
          }
          auto log = trace->ReadAllEvents();
          if (!log.ok() || log->Encode() != expected[e]) {
            ++mismatches[t];
          }
        }
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
    for (int t = 0; t < 8; ++t) {
      EXPECT_EQ(mismatches[t], 0)
          << (overlapping ? "overlapping" : "distinct") << " thread " << t;
    }
  }
  // The overlapping pass re-read every entry from 8 threads: the shared
  // cache must have served the bulk of those chunk reads.
  EXPECT_GT(corpus->cache_stats().hits, corpus->cache_stats().misses);
}

// A crafted entry whose window length wraps uint64 past the index offset
// must be rejected at Open, not reach the embedded-trace reader.
TEST(CorpusTest, CraftedEntryWindowWrapFailsCleanly) {
  ScopedPath path("wrap");
  Encoder index_payload;
  index_payload.PutVarint64(1);  // one entry
  index_payload.PutString("evil");
  index_payload.PutVarint64(16);                      // offset
  index_payload.PutVarint64(~0ull - 7);               // length: wraps the sum
  index_payload.PutString("model");
  index_payload.PutString("scenario");
  index_payload.PutVarint64(1);
  index_payload.PutDouble(0.0);

  std::vector<uint8_t> image;
  Encoder header;
  header.PutFixed32(kCorpusFileMagic);
  header.PutFixed32(kCorpusFormatVersion);
  header.PutFixed32(0);
  image = header.TakeBuffer();
  image.resize(image.size() + 64);  // fake embedded-trace bytes
  const uint64_t index_offset = AppendTraceSection(
      &image, TraceSection::kCorpusIndex, index_payload.buffer(),
      /*allow_compress=*/false);
  Encoder trailer;
  trailer.PutFixed64(index_offset);
  trailer.PutFixed32(kCorpusTrailerMagic);
  for (uint8_t byte : trailer.buffer()) {
    image.push_back(byte);
  }
  WriteFileBytes(path.get(), image);

  auto corpus = CorpusReader::Open(path.get());
  ASSERT_FALSE(corpus.ok());
  EXPECT_EQ(corpus.status().code(), StatusCode::kInvalidArgument);
}

// A crafted index whose entry count vastly exceeds what its payload can
// hold must fail with a Status in the guard, not abort inside the
// entries allocation.
TEST(CorpusTest, CraftedIndexCountFailsCleanly) {
  ScopedPath path("crafted");
  Encoder index_payload;
  index_payload.PutVarint64(1u << 28);  // claimed entries, ~4-byte payload

  std::vector<uint8_t> image;
  Encoder header;
  header.PutFixed32(kCorpusFileMagic);
  header.PutFixed32(kCorpusFormatVersion);
  header.PutFixed32(0);
  image = header.TakeBuffer();
  const uint64_t index_offset = AppendTraceSection(
      &image, TraceSection::kCorpusIndex, index_payload.buffer(),
      /*allow_compress=*/false);
  Encoder trailer;
  trailer.PutFixed64(index_offset);
  trailer.PutFixed32(kCorpusTrailerMagic);
  for (uint8_t byte : trailer.buffer()) {
    image.push_back(byte);
  }
  WriteFileBytes(path.get(), image);

  auto corpus = CorpusReader::Open(path.get());
  ASSERT_FALSE(corpus.ok());
  EXPECT_EQ(corpus.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------- Mutable corpus lifecycle

std::vector<uint8_t> SliceImage(const std::vector<uint8_t>& file,
                                const CorpusEntry& entry) {
  return std::vector<uint8_t>(
      file.begin() + static_cast<ptrdiff_t>(entry.offset),
      file.begin() + static_cast<ptrdiff_t>(entry.offset + entry.length));
}

uint64_t FileSizeBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  EXPECT_TRUE(in.good()) << path;
  return static_cast<uint64_t>(in.tellg());
}

// Appending N entries to an M-entry bundle and then compacting produces
// the byte-identical file a single (M+N)-entry build would — same image
// placement, same merged index, same trailer.
TEST(CorpusLifecycleTest, AppendToMatchesSingleShotBitForBit) {
  const RecordedExecution r1 = MakeSyntheticRecording(400, 1);
  const RecordedExecution r2 = MakeSyntheticRecording(500, 2);
  const RecordedExecution r3 = MakeSyntheticRecording(300, 3);
  TraceWriteOptions options;
  options.events_per_chunk = 64;

  ScopedPath single("appendsingle");
  {
    CorpusWriter writer(single.get());
    ASSERT_TRUE(writer.Begin().ok());
    ASSERT_TRUE(writer.Add("a", r1, options).ok());
    ASSERT_TRUE(writer.Add("b", r2, options).ok());
    ASSERT_TRUE(writer.Add("c", r3, options).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }

  ScopedPath grown("appendgrown");
  {
    CorpusWriter writer(grown.get());
    ASSERT_TRUE(writer.Begin().ok());
    ASSERT_TRUE(writer.Add("a", r1, options).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  {
    auto writer = CorpusWriter::AppendTo(grown.get());
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE((*writer)->Add("b", r2, options).ok());
    ASSERT_TRUE((*writer)->Finish().ok());
  }
  {
    auto writer = CorpusWriter::AppendTo(grown.get());
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE((*writer)->Add("c", r3, options).ok());
    ASSERT_TRUE((*writer)->Finish().ok());
  }
  EXPECT_NE(ReadFileBytes(single.get()), ReadFileBytes(grown.get()));
  ASSERT_TRUE(CompactCorpus(grown.get(), {}).ok());

  EXPECT_EQ(ReadFileBytes(single.get()), ReadFileBytes(grown.get()));

  auto corpus = CorpusReader::Open(grown.get());
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  ASSERT_EQ(corpus->entries().size(), 3u);
  EXPECT_TRUE(corpus->VerifyAll().ok());
}

TEST(CorpusLifecycleTest, AppendToRejectsDuplicateOfExistingEntry) {
  const RecordedExecution recording = MakeSyntheticRecording(60);
  ScopedPath path("appenddup");
  {
    CorpusWriter writer(path.get());
    ASSERT_TRUE(writer.Begin().ok());
    ASSERT_TRUE(writer.Add("taken", recording).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  auto writer = CorpusWriter::AppendTo(path.get());
  ASSERT_TRUE(writer.ok()) << writer.status();
  const Status duplicate = (*writer)->Add("taken", recording);
  EXPECT_EQ(duplicate.code(), StatusCode::kAlreadyExists);
  EXPECT_NE(duplicate.message().find("taken"), std::string::npos)
      << duplicate.message();
  // Begin on an append writer is a state-machine error, not a reset.
  EXPECT_EQ((*writer)->Begin().code(), StatusCode::kFailedPrecondition);
}

TEST(CorpusLifecycleTest, AppendToMissingOrCorruptBundleFails) {
  EXPECT_EQ(CorpusWriter::AppendTo("no_such_bundle.ddrc").status().code(),
            StatusCode::kNotFound);

  ScopedPath path("appendcorrupt");
  WriteFileBytes(path.get(), std::vector<uint8_t>(64, 0xAB));
  EXPECT_FALSE(CorpusWriter::AppendTo(path.get()).ok());
}

// An interrupted append (writer destroyed before Finish) must never
// publish the partial entries. It is deliberately crash-equivalent —
// nothing is truncated (the file must not shrink under concurrent
// readers), so the staged bytes remain as an unpublished torn tail the
// recovery path scans past and accounts dead until the next append
// overwrites it.
TEST(CorpusLifecycleTest, InterruptedAppendLeavesOriginalIntact) {
  ScopedPath path("appendinterruptip");
  {
    CorpusWriter writer(path.get());
    ASSERT_TRUE(writer.Begin().ok());
    ASSERT_TRUE(writer.Add("keep", MakeSyntheticRecording(200)).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  const uint64_t before_size = FileSizeBytes(path.get());
  {
    auto writer = CorpusWriter::AppendTo(path.get());
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE((*writer)->Add("lost", MakeSyntheticRecording(300)).ok());
    // No Finish: no trailer was written, so nothing is published.
  }
  EXPECT_GE(FileSizeBytes(path.get()), before_size);  // never shrinks
  auto corpus = CorpusReader::Open(path.get());
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  ASSERT_EQ(corpus->entries().size(), 1u);
  EXPECT_EQ(corpus->Find("lost"), nullptr);
  EXPECT_EQ(corpus->generation(), 1u);
  EXPECT_GT(corpus->dead_bytes(), 0u);  // the torn staged bytes
  EXPECT_TRUE(corpus->VerifyAll().ok());

  // A later append overwrites the torn bytes and publishes normally.
  {
    auto writer = CorpusWriter::AppendTo(path.get());
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE((*writer)->Add("next", MakeSyntheticRecording(100)).ok());
    ASSERT_TRUE((*writer)->Finish().ok());
  }
  auto reopened = corpus->Reopen();
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  corpus = std::move(*reopened);
  ASSERT_EQ(corpus->entries().size(), 2u);
  EXPECT_EQ(corpus->generation(), 2u);
  EXPECT_NE(corpus->Find("next"), nullptr);
  EXPECT_EQ(corpus->Find("lost"), nullptr);
  EXPECT_TRUE(corpus->VerifyAll().ok());
}

// ------------------------------------------- In-place journal appends

// The O(delta) acceptance property, asserted on sink byte accounting: an
// in-place append to an N-entry bundle writes the new images + a delta
// index listing only the new entries + one trailer — never a copy of
// the existing bytes, never a rewrite of the header and never a re-list
// of the existing entries — so the cost is flat in both the size and the
// entry count of the base bundle.
TEST(CorpusJournalTest, InPlaceAppendWritesOnlyTheDelta) {
  TraceWriteOptions options;
  options.events_per_chunk = 128;

  ScopedPath small_base("journalsmall");
  ScopedPath big_base("journalbig");
  const auto build = [&](const std::string& path, size_t entries) {
    CorpusWriter writer(path);
    ASSERT_TRUE(writer.Begin().ok());
    for (size_t i = 0; i < entries; ++i) {
      ASSERT_TRUE(writer
                      .Add("base/" + std::to_string(i),
                           MakeSyntheticRecording(3000, i + 1), options)
                      .ok());
    }
    ASSERT_TRUE(writer.Finish().ok());
  };
  build(small_base.get(), 2);
  build(big_base.get(), 12);

  const auto append_one = [&](const std::string& path) -> uint64_t {
    auto writer = CorpusWriter::AppendTo(path);
    EXPECT_TRUE(writer.ok()) << writer.status();
    EXPECT_TRUE((*writer)
                    ->Add("appended/one", MakeSyntheticRecording(50, 99),
                          options)
                    .ok());
    EXPECT_TRUE((*writer)->Finish().ok());
    return (*writer)->bytes_written();
  };

  const uint64_t small_before = FileSizeBytes(small_base.get());
  const uint64_t small_written = append_one(small_base.get());
  EXPECT_EQ(small_written, FileSizeBytes(small_base.get()) - small_before);

  const uint64_t big_before = FileSizeBytes(big_base.get());
  const uint64_t big_written = append_one(big_base.get());
  // Bytes written are exactly the on-disk delta...
  EXPECT_EQ(big_written, FileSizeBytes(big_base.get()) - big_before);
  // ...and flat in the base: the 6x-larger, 6x-more-entry base writes
  // the same delta index (one entry) as the small one — the only drift
  // allowed is varint width of the larger file offsets.
  EXPECT_GT(big_before, 4 * small_before);
  EXPECT_LT(big_written, big_before / 4);
  EXPECT_LT(big_written, small_written + 64);

  for (IoBackend backend : kAllBackends) {
    auto corpus =
        CorpusReader::Open(big_base.get(), WithBackend(backend, 1 << 20));
    ASSERT_TRUE(corpus.ok()) << corpus.status();
    EXPECT_EQ(corpus->generation(), 2u);
    ASSERT_EQ(corpus->entries().size(), 13u);
    EXPECT_TRUE(corpus->VerifyAll().ok()) << IoBackendName(backend);
    auto loaded = LoadEntry(*corpus, "appended/one");
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_EQ(loaded->log.size(), 50u);
  }

  // Nothing is dead: the generation-1 index is the stitch base the
  // delta chain resolves against, so every index byte in the file is
  // still reachable by Open.
  auto small_after = CorpusReader::Open(small_base.get());
  ASSERT_TRUE(small_after.ok()) << small_after.status();
  EXPECT_EQ(small_after->format_version(), kCorpusFormatVersion);
  EXPECT_EQ(small_after->dead_bytes(), 0u);
}

// Repeated in-place appends chain generations; every generation's
// entries stay readable, the whole delta chain stays live (zero dead
// bytes — every index section is needed for the stitch), and
// duplicate-name detection spans the whole chain.
TEST(CorpusJournalTest, SequentialAppendsChainGenerations) {
  ScopedPath path("journalchain");
  TraceWriteOptions options;
  options.events_per_chunk = 64;
  {
    CorpusWriter writer(path.get());
    ASSERT_TRUE(writer.Begin().ok());
    ASSERT_TRUE(
        writer.Add("gen1/a", MakeSyntheticRecording(300, 1), options).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  for (uint32_t gen = 2; gen <= 4; ++gen) {
    auto writer = CorpusWriter::AppendTo(path.get());
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE((*writer)
                    ->Add("gen" + std::to_string(gen) + "/a",
                          MakeSyntheticRecording(200 + gen * 10, gen), options)
                    .ok());
    ASSERT_TRUE((*writer)->Finish().ok());

    auto corpus = CorpusReader::Open(path.get());
    ASSERT_TRUE(corpus.ok()) << corpus.status();
    EXPECT_EQ(corpus->generation(), gen);
    EXPECT_EQ(corpus->entries().size(), gen);
    // Entry order matches the equivalent single-shot build: add order.
    EXPECT_EQ(corpus->entries().front().name, "gen1/a");
    EXPECT_EQ(corpus->entries().back().name,
              "gen" + std::to_string(gen) + "/a");
    EXPECT_EQ(corpus->dead_bytes(), 0u);
    EXPECT_EQ(corpus->tail_offset(), corpus->file_size());
    EXPECT_TRUE(corpus->VerifyAll().ok());
  }
  auto writer = CorpusWriter::AppendTo(path.get());
  ASSERT_TRUE(writer.ok()) << writer.status();
  EXPECT_EQ((*writer)->Add("gen2/a", MakeSyntheticRecording(10)).code(),
            StatusCode::kAlreadyExists);
}

// Crash-mid-append simulation: any prefix of a generation-3 bundle that
// still covers generation 2 recovers to generation 2's entries (the
// previous trailer stays reachable past the torn tail) on every backend;
// the full file serves generation 3; and the next append writes the new
// generation over the garbage — never truncating — before chaining on.
TEST(CorpusJournalTest, TornTailRecoversPreviousGeneration) {
  ScopedPath path("journaltorn");
  TraceWriteOptions options;
  options.events_per_chunk = 64;
  {
    CorpusWriter writer(path.get());
    ASSERT_TRUE(writer.Begin().ok());
    ASSERT_TRUE(writer.Add("a", MakeSyntheticRecording(400, 1), options).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  {
    auto writer = CorpusWriter::AppendTo(path.get());
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE((*writer)->Add("b", MakeSyntheticRecording(500, 2), options).ok());
    ASSERT_TRUE((*writer)->Finish().ok());
  }
  const std::vector<uint8_t> gen2 = ReadFileBytes(path.get());
  {
    auto writer = CorpusWriter::AppendTo(path.get());
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE((*writer)->Add("c", MakeSyntheticRecording(600, 3), options).ok());
    ASSERT_TRUE((*writer)->Finish().ok());
  }
  const std::vector<uint8_t> gen3 = ReadFileBytes(path.get());
  ASSERT_GT(gen3.size(), gen2.size());

  const size_t step = std::max<size_t>(1, (gen3.size() - gen2.size()) / 9);
  for (size_t keep = gen2.size(); keep < gen3.size(); keep += step) {
    WriteFileBytes(path.get(),
                   std::vector<uint8_t>(gen3.begin(), gen3.begin() + keep));
    for (IoBackend backend : kAllBackends) {
      auto corpus = CorpusReader::Open(path.get(), WithBackend(backend, 0));
      ASSERT_TRUE(corpus.ok())
          << corpus.status() << " keep " << keep << " " << IoBackendName(backend);
      EXPECT_EQ(corpus->generation(), 2u) << "keep " << keep;
      ASSERT_EQ(corpus->entries().size(), 2u);
      EXPECT_EQ(corpus->Find("c"), nullptr);
      // The torn tail is accounted as dead bytes past the live trailer.
      EXPECT_EQ(corpus->file_size() - corpus->tail_offset(),
                keep - gen2.size());
      EXPECT_TRUE(corpus->VerifyAll().ok()) << IoBackendName(backend);
    }
  }
  // The complete file serves generation 3.
  WriteFileBytes(path.get(), gen3);
  {
    auto corpus = CorpusReader::Open(path.get());
    ASSERT_TRUE(corpus.ok()) << corpus.status();
    EXPECT_EQ(corpus->generation(), 3u);
    EXPECT_EQ(corpus->entries().size(), 3u);
  }

  // Appending onto a torn file writes the new generation over the
  // garbage — the file is never truncated (shrinking it could SIGBUS a
  // concurrent mmap reader scanning the tail), so whatever torn bytes
  // extend past the new trailer stay accounted as dead until a compact.
  WriteFileBytes(path.get(), std::vector<uint8_t>(
                                 gen3.begin(), gen3.begin() + gen2.size() +
                                                   (gen3.size() - gen2.size()) / 2));
  const uint64_t torn_size = FileSizeBytes(path.get());
  {
    auto writer = CorpusWriter::AppendTo(path.get());
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE((*writer)->Add("c2", MakeSyntheticRecording(120, 7), options).ok());
    ASSERT_TRUE((*writer)->Finish().ok());
  }
  auto corpus = CorpusReader::Open(path.get());
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  EXPECT_EQ(corpus->generation(), 3u);
  EXPECT_GE(corpus->file_size(), torn_size);  // never shrank
  ASSERT_EQ(corpus->entries().size(), 3u);
  EXPECT_NE(corpus->Find("c2"), nullptr);
  EXPECT_EQ(corpus->Find("c"), nullptr);
  EXPECT_TRUE(corpus->VerifyAll().ok());

  // Compact reclaims everything: leftover torn bytes and superseded
  // index generations alike.
  auto squashed = CompactCorpus(path.get(), {});
  ASSERT_TRUE(squashed.ok()) << squashed.status();
  auto compacted = CorpusReader::Open(path.get());
  ASSERT_TRUE(compacted.ok()) << compacted.status();
  EXPECT_EQ(compacted->dead_bytes(), 0u);
  EXPECT_EQ(compacted->tail_offset(), compacted->file_size());
  EXPECT_TRUE(compacted->VerifyAll().ok());
}

// Every append, the first included, syncs exactly twice: its images and
// index, then the trailer that publishes them. An EIO on the first sync
// fails the append before its trailer exists, so nothing is published;
// on the second it fails after the trailer landed, so the generation
// still advances; a third sync never happens.
TEST(CorpusJournalTest, EveryAppendSyncsDataThenTrailer) {
  ScopedPath path("journalsyncs");
  {
    CorpusWriter writer(path.get());
    ASSERT_TRUE(writer.Begin().ok());
    ASSERT_TRUE(writer.Add("base/a", MakeSyntheticRecording(200, 1)).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  const auto append_with_sync_failing = [&](int nth, const std::string& name) {
    EXPECT_TRUE(
        SetFaultPlan(StrPrintf("corpus.journal.sync:eio@%d", nth)).ok());
    auto writer = CorpusWriter::AppendTo(path.get());
    Status status = writer.status();
    if (writer.ok()) {
      status = (*writer)->Add(name, MakeSyntheticRecording(100));
    }
    if (status.ok()) {
      status = (*writer)->Finish();
    }
    ClearFaultPlan();
    return status;
  };
  uint32_t generation = 1;
  size_t entries = 1;
  const auto expect_published = [&](const std::string& name, bool present) {
    auto corpus = CorpusReader::Open(path.get());
    ASSERT_TRUE(corpus.ok()) << corpus.status();
    EXPECT_EQ(corpus->generation(), generation) << name;
    EXPECT_EQ(corpus->entry_count(), entries) << name;
    EXPECT_EQ(corpus->Find(name) != nullptr, present) << name;
    EXPECT_TRUE(corpus->VerifyAll().ok()) << name;
  };
  // Round 0 appends to a one-generation bundle, round 1 to a chain.
  for (int round = 0; round < 2; ++round) {
    const std::string tag = std::to_string(round);
    EXPECT_FALSE(append_with_sync_failing(1, "data-" + tag).ok());
    expect_published("data-" + tag, false);

    EXPECT_FALSE(append_with_sync_failing(2, "trailer-" + tag).ok());
    ++generation;
    ++entries;
    expect_published("trailer-" + tag, true);

    EXPECT_TRUE(append_with_sync_failing(3, "clean-" + tag).ok());
    ++generation;
    ++entries;
    expect_published("clean-" + tag, true);
  }
}

// Older builds stamped version 1 on every fresh build: the
// one-generation layout under another version word. It is read through
// the same path, refused for appends until compacted, and bytes past its
// one trailer are corruption rather than a torn append.
TEST(CorpusJournalTest, LegacyVersionOneIsReadOnlyAlias) {
  for (IoBackend backend : kAllBackends) {
    const std::string tag(IoBackendName(backend));
    const CorpusReaderOptions options = WithBackend(backend, 1 << 20);
    ScopedPath path("legacy_" + tag);
    {
      CorpusWriter writer(path.get());
      ASSERT_TRUE(writer.Begin().ok());
      ASSERT_TRUE(writer.Add("a", MakeSyntheticRecording(300, 1)).ok());
      ASSERT_TRUE(writer.Add("b", MakeSyntheticRecording(200, 2)).ok());
      ASSERT_TRUE(writer.Finish().ok());
    }
    const std::vector<uint8_t> fresh = ReadFileBytes(path.get());
    ASSERT_EQ(fresh[4], kCorpusFormatVersion);  // the version field's low byte
    std::vector<uint8_t> legacy = fresh;
    legacy[4] = kCorpusFormatVersionLegacy;
    WriteFileBytes(path.get(), legacy);

    {
      auto corpus = CorpusReader::Open(path.get(), options);
      ASSERT_TRUE(corpus.ok()) << corpus.status();
      EXPECT_EQ(corpus->format_version(), kCorpusFormatVersionLegacy);
      EXPECT_EQ(corpus->generation(), 1u);
      EXPECT_EQ(corpus->dead_bytes(), 0u);
      ASSERT_EQ(corpus->entries().size(), 2u);
      EXPECT_EQ(corpus->entries()[1].name, "b");
      EXPECT_TRUE(corpus->VerifyAll().ok()) << tag;
      auto loaded = LoadEntry(*corpus, "a");
      ASSERT_TRUE(loaded.ok()) << loaded.status();
      EXPECT_EQ(loaded->log.size(), 300u);
    }

    CorpusAppendOptions append_options;
    append_options.io = options.io;
    auto refused = CorpusWriter::AppendTo(path.get(), append_options);
    ASSERT_FALSE(refused.ok()) << tag;
    EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(refused.status().message().find("corpus compact"),
              std::string::npos)
        << refused.status().message();
    EXPECT_EQ(ReadFileBytes(path.get()), legacy);

    // Junk past the one trailer: a torn tail behind version 3, corruption
    // behind version 1.
    ScopedPath junk("legacy_junk_" + tag);
    std::vector<uint8_t> junked = fresh;
    junked.insert(junked.end(), 100, 0xA5);
    WriteFileBytes(junk.get(), junked);
    auto torn = CorpusReader::Open(junk.get(), options);
    ASSERT_TRUE(torn.ok()) << torn.status();
    EXPECT_EQ(torn->dead_bytes(), 100u);
    junked[4] = kCorpusFormatVersionLegacy;
    WriteFileBytes(junk.get(), junked);
    auto rejected = CorpusReader::Open(junk.get(), options);
    ASSERT_FALSE(rejected.ok()) << tag;
    EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);

    // Compact rewrites it as the version-3 build it aliases, which
    // accepts an append.
    auto compacted = CompactCorpus(path.get(), {}, options.io);
    ASSERT_TRUE(compacted.ok()) << compacted.status();
    EXPECT_EQ(ReadFileBytes(path.get()), fresh);
    {
      auto writer = CorpusWriter::AppendTo(path.get(), append_options);
      ASSERT_TRUE(writer.ok()) << writer.status();
      ASSERT_TRUE((*writer)->Add("c", MakeSyntheticRecording(100, 3)).ok());
      ASSERT_TRUE((*writer)->Finish().ok());
    }
    auto corpus = CorpusReader::Open(path.get(), options);
    ASSERT_TRUE(corpus.ok()) << corpus.status();
    EXPECT_EQ(corpus->format_version(), kCorpusFormatVersion);
    EXPECT_EQ(corpus->generation(), 2u);
    EXPECT_EQ(corpus->entry_count(), 3u);
    EXPECT_TRUE(corpus->VerifyAll().ok()) << tag;
  }
}

// In-place appends are single-writer: a second concurrent in-place
// appender must fail loudly (racing journal writers would truncate and
// interleave each other's bytes — corruption, not just a lost update),
// and the lock releases when the writer finishes or is abandoned.
TEST(CorpusJournalTest, ConcurrentInPlaceAppendersAreExcluded) {
  ScopedPath path("journallock");
  {
    CorpusWriter writer(path.get());
    ASSERT_TRUE(writer.Begin().ok());
    ASSERT_TRUE(writer.Add("base", MakeSyntheticRecording(200, 1)).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }

  auto first = CorpusWriter::AppendTo(path.get());
  ASSERT_TRUE(first.ok()) << first.status();

  auto second = CorpusWriter::AppendTo(path.get());
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(second.status().message().find("lock"), std::string::npos)
      << second.status().message();

  // The first appender still works and commits normally...
  ASSERT_TRUE((*first)->Add("locked", MakeSyntheticRecording(100, 2)).ok());
  ASSERT_TRUE((*first)->Finish().ok());
  first->reset();  // ...and releases the lock, so the next append runs.

  auto third = CorpusWriter::AppendTo(path.get());
  ASSERT_TRUE(third.ok()) << third.status();
  ASSERT_TRUE((*third)->Add("after", MakeSyntheticRecording(100, 3)).ok());
  ASSERT_TRUE((*third)->Finish().ok());

  auto corpus = CorpusReader::Open(path.get());
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  EXPECT_EQ(corpus->entries().size(), 3u);
  EXPECT_EQ(corpus->generation(), 3u);
  EXPECT_TRUE(corpus->VerifyAll().ok());
}

// Cross-version guard: logic that only understands the v1 single-trailer
// layout must reject a journaled bundle with a clean unsupported-version
// error, never a garbage decode — and a version-blind v1 trailer parse
// cannot misfire either, because the journal trailer ends in a different
// magic.
TEST(CorpusJournalTest, V1SingleTrailerLogicRejectsJournaledBundles) {
  ScopedPath path("journalcompat");
  {
    CorpusWriter writer(path.get());
    ASSERT_TRUE(writer.Begin().ok());
    ASSERT_TRUE(writer.Add("a", MakeSyntheticRecording(200, 1)).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  {
    auto writer = CorpusWriter::AppendTo(path.get());
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE((*writer)->Add("b", MakeSyntheticRecording(250, 2)).ok());
    ASSERT_TRUE((*writer)->Finish().ok());
  }
  const std::vector<uint8_t> bytes = ReadFileBytes(path.get());

  // The PR-4 era open sequence: header magic + version check expecting
  // exactly version 1.
  const auto open_v1_strict = [&]() -> Status {
    Decoder header(bytes.data(), kCorpusHeaderBytes);
    auto magic = header.GetFixed32();
    EXPECT_TRUE(magic.ok());
    EXPECT_EQ(*magic, kCorpusFileMagic);
    auto version = header.GetFixed32();
    EXPECT_TRUE(version.ok());
    if (*version != kCorpusFormatVersionLegacy) {
      return InvalidArgumentError(
          StrPrintf("unsupported corpus format version %u", *version));
    }
    return OkStatus();
  };
  const Status rejected = open_v1_strict();
  EXPECT_EQ(rejected.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rejected.message().find("version 3"), std::string::npos)
      << rejected.message();

  // A version-ignoring v1 reader would parse the last 12 bytes as
  // [index offset | magic]: the magic mismatch stops it before the bogus
  // offset is ever used.
  Decoder trailer(bytes.data() + bytes.size() - kCorpusTrailerBytes,
                  kCorpusTrailerBytes);
  ASSERT_TRUE(trailer.GetFixed64().ok());
  auto trailer_magic = trailer.GetFixed32();
  ASSERT_TRUE(trailer_magic.ok());
  EXPECT_NE(*trailer_magic, kCorpusTrailerMagic);

  // An unknown future version is a clean error from the real reader too.
  std::vector<uint8_t> future = bytes;
  future[4] = 9;
  WriteFileBytes(path.get(), future);
  auto opened = CorpusReader::Open(path.get());
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(opened.status().message().find("version"), std::string::npos);
}

// CompactCorpus is the explicit journal squash: compacting a journaled
// bundle with an empty drop set produces the bit-identical file a
// single-shot build of the same entries would.
TEST(CorpusJournalTest, CompactSquashesJournalToSingleShotBytes) {
  const RecordedExecution r1 = MakeSyntheticRecording(400, 1);
  const RecordedExecution r2 = MakeSyntheticRecording(500, 2);
  const RecordedExecution r3 = MakeSyntheticRecording(300, 3);
  TraceWriteOptions options;
  options.events_per_chunk = 64;

  ScopedPath single("squashsingle");
  {
    CorpusWriter writer(single.get());
    ASSERT_TRUE(writer.Begin().ok());
    ASSERT_TRUE(writer.Add("a", r1, options).ok());
    ASSERT_TRUE(writer.Add("b", r2, options).ok());
    ASSERT_TRUE(writer.Add("c", r3, options).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }

  ScopedPath journaled("squashjournal");
  {
    CorpusWriter writer(journaled.get());
    ASSERT_TRUE(writer.Begin().ok());
    ASSERT_TRUE(writer.Add("a", r1, options).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  for (const auto& [name, recording] :
       {std::pair{"b", &r2}, std::pair{"c", &r3}}) {
    auto writer = CorpusWriter::AppendTo(journaled.get());
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE((*writer)->Add(name, *recording, options).ok());
    ASSERT_TRUE((*writer)->Finish().ok());
  }
  EXPECT_NE(ReadFileBytes(single.get()), ReadFileBytes(journaled.get()));

  auto stats = CompactCorpus(journaled.get(), {});
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->added, 3u);
  EXPECT_EQ(stats->dropped, 0u);
  EXPECT_EQ(ReadFileBytes(single.get()), ReadFileBytes(journaled.get()));
  auto corpus = CorpusReader::Open(journaled.get());
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  EXPECT_EQ(corpus->format_version(), kCorpusFormatVersion);
  EXPECT_EQ(corpus->generation(), 1u);
  EXPECT_EQ(corpus->dead_bytes(), 0u);
  EXPECT_TRUE(corpus->VerifyAll().ok());
}

// A delta-chained bundle is observationally identical to the single-shot
// build of the same entries on every backend: same entry list (order,
// metadata), byte-identical embedded images, same replayed recordings,
// full verification — only the journal scaffolding differs.
TEST(CorpusJournalTest, DeltaChainMatchesFullIndexEquivalent) {
  std::vector<RecordedExecution> recordings;
  for (uint64_t i = 0; i < 5; ++i) {
    recordings.push_back(MakeSyntheticRecording(200 + i * 60, i + 1));
  }
  TraceWriteOptions options;
  options.events_per_chunk = 64;
  const auto name = [](size_t i) { return "entry/" + std::to_string(i); };

  ScopedPath single("deltaeqsingle");
  {
    CorpusWriter writer(single.get());
    ASSERT_TRUE(writer.Begin().ok());
    for (size_t i = 0; i < recordings.size(); ++i) {
      ASSERT_TRUE(writer.Add(name(i), recordings[i], options).ok());
    }
    ASSERT_TRUE(writer.Finish().ok());
  }

  // Chained: generation 1 holds entries 0-1, then one append per batch
  // {2}, {3,4} — two delta generations on top of generation 1.
  ScopedPath chained("deltaeqchain");
  {
    CorpusWriter writer(chained.get());
    ASSERT_TRUE(writer.Begin().ok());
    ASSERT_TRUE(writer.Add(name(0), recordings[0], options).ok());
    ASSERT_TRUE(writer.Add(name(1), recordings[1], options).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  for (const std::vector<size_t>& batch :
       std::vector<std::vector<size_t>>{{2}, {3, 4}}) {
    auto writer = CorpusWriter::AppendTo(chained.get());
    ASSERT_TRUE(writer.ok()) << writer.status();
    for (size_t i : batch) {
      ASSERT_TRUE((*writer)->Add(name(i), recordings[i], options).ok());
    }
    ASSERT_TRUE((*writer)->Finish().ok());
  }

  const std::vector<uint8_t> single_bytes = ReadFileBytes(single.get());
  const std::vector<uint8_t> chained_bytes = ReadFileBytes(chained.get());
  for (IoBackend backend : kAllBackends) {
    auto want = CorpusReader::Open(single.get(), WithBackend(backend, 1 << 20));
    auto got = CorpusReader::Open(chained.get(), WithBackend(backend, 1 << 20));
    ASSERT_TRUE(want.ok()) << want.status();
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got->format_version(), kCorpusFormatVersion);
    EXPECT_EQ(got->generation(), 3u);
    ASSERT_EQ(got->entries().size(), want->entries().size());
    for (size_t i = 0; i < want->entries().size(); ++i) {
      const CorpusEntry& w = want->entries()[i];
      const CorpusEntry& g = got->entries()[i];
      EXPECT_EQ(g.name, w.name);
      EXPECT_EQ(g.model, w.model);
      EXPECT_EQ(g.scenario, w.scenario);
      EXPECT_EQ(g.event_count, w.event_count);
      EXPECT_EQ(g.length, w.length);
      // The embedded DDRT images are byte-identical; only their offsets
      // (and the surrounding journal scaffolding) may differ.
      ASSERT_LE(w.offset + w.length, single_bytes.size());
      ASSERT_LE(g.offset + g.length, chained_bytes.size());
      EXPECT_TRUE(std::equal(single_bytes.begin() + w.offset,
                             single_bytes.begin() + w.offset + w.length,
                             chained_bytes.begin() + g.offset))
          << w.name << " on " << IoBackendName(backend);
      auto want_rec = LoadEntry(*want, w.name);
      auto got_rec = LoadEntry(*got, g.name);
      ASSERT_TRUE(want_rec.ok()) << want_rec.status();
      ASSERT_TRUE(got_rec.ok()) << got_rec.status();
      EXPECT_EQ(got_rec->log.size(), want_rec->log.size());
    }
    EXPECT_TRUE(got->VerifyAll().ok()) << IoBackendName(backend);
  }

  // Squashing the chain reproduces the single-shot file bit for bit.
  auto stats = CompactCorpus(chained.get(), {});
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(ReadFileBytes(chained.get()), single_bytes);
}

// Header version 2 (the retired full-index journal, whose generations
// end in "CRDJ" trailers re-listing every entry) is rejected loudly by
// both the reader and the appender, which leave the file untouched. A
// v3 chain whose link is a "CRDJ" trailer is a broken chain, never
// stitched. The bundles are hand-rolled: no writer emits either form.
TEST(CorpusJournalTest, RetiredV2JournalsAreRejected) {
  constexpr uint32_t kRetiredFullIndexMagic = 0x4A445243u;  // "CRDJ"
  ScopedPath path("journalv2");
  TraceWriteOptions options;
  options.events_per_chunk = 64;
  {
    CorpusWriter writer(path.get());
    ASSERT_TRUE(writer.Begin().ok());
    ASSERT_TRUE(writer.Add("a", MakeSyntheticRecording(300, 1), options).ok());
    ASSERT_TRUE(writer.Add("b", MakeSyntheticRecording(400, 2), options).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  std::vector<CorpusEntry> base_entries;
  {
    auto corpus = CorpusReader::Open(path.get());
    ASSERT_TRUE(corpus.ok()) << corpus.status();
    base_entries = corpus->entries();
  }
  const std::vector<uint8_t> built_bytes = ReadFileBytes(path.get());
  const uint64_t built_trailer_offset =
      built_bytes.size() - kCorpusTrailerBytes;

  // Opening and appending must both fail with `want` in the message,
  // and neither may change a byte of the file.
  const auto expect_rejected = [&](const std::vector<uint8_t>& bytes,
                                   const std::string& want) {
    WriteFileBytes(path.get(), bytes);
    for (IoBackend backend : kAllBackends) {
      auto corpus = CorpusReader::Open(path.get(), WithBackend(backend, 0));
      ASSERT_FALSE(corpus.ok()) << IoBackendName(backend);
      EXPECT_EQ(corpus.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(corpus.status().message().find(want), std::string::npos)
          << corpus.status().message();
    }
    auto writer = CorpusWriter::AppendTo(path.get());
    ASSERT_FALSE(writer.ok());
    EXPECT_NE(writer.status().message().find(want), std::string::npos)
        << writer.status().message();
    EXPECT_EQ(ReadFileBytes(path.get()), bytes);
  };

  // Case 1: a v2 bundle as the retired writer produced it — header 2, a
  // generation-2 full index published by a "CRDJ" trailer.
  std::vector<uint8_t> v2 = built_bytes;
  v2[4] = 2;
  AppendCraftedGeneration(&v2, base_entries, built_trailer_offset, 2,
                          kRetiredFullIndexMagic);
  expect_rejected(v2, "unsupported corpus format version 2");

  // Case 2: a v3 header whose newest (valid) delta trailer chains onto a
  // "CRDJ" generation.
  const auto v3_chain_via = [&](uint32_t link_magic) {
    std::vector<uint8_t> bytes = built_bytes;
    const uint64_t link = AppendCraftedGeneration(
        &bytes, base_entries, built_trailer_offset, 2, link_magic);
    AppendCraftedGeneration(&bytes, {}, link, 3, kCorpusDeltaTrailerMagic);
    return bytes;
  };
  expect_rejected(v3_chain_via(kRetiredFullIndexMagic),
                  "chain broken below generation 3");

  // Control: the same hand-rolled chain with a delta link stitches.
  WriteFileBytes(path.get(), v3_chain_via(kCorpusDeltaTrailerMagic));
  auto corpus = CorpusReader::Open(path.get());
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  EXPECT_EQ(corpus->generation(), 3u);
  EXPECT_EQ(corpus->entries().size(), 2u);
  EXPECT_TRUE(corpus->VerifyAll().ok());
}

// A bundle embedding a DDRT image from a retired version (1: row chunks,
// 2: a stored checkpoint index) still opens (the corpus index is intact)
// but fails VerifyAll, naming the version.
TEST(CorpusTest, EmbeddedVersionOneImageFailsVerifyAll) {
  const RecordedExecution recording = MakeSyntheticRecording(300, 3);
  for (const unsigned version : {1u, 2u}) {
    std::vector<uint8_t> image = SerializeTrace(recording);
    ASSERT_EQ(image[4], 3);
    // Trace header version fixed32, little-endian.
    image[4] = static_cast<uint8_t>(version);
    ScopedPath path(StrPrintf("tracev%u", version));
    {
      CorpusWriter writer(path.get());
      ASSERT_TRUE(writer.Begin().ok());
      ASSERT_TRUE(writer.Add("good", MakeSyntheticRecording(200, 4)).ok());
      ASSERT_TRUE(writer
                      .AddImage("old", image, recording.model, "",
                                recording.log.size(), 0.0)
                      .ok());
      ASSERT_TRUE(writer.Finish().ok());
    }
    const std::string expected =
        StrPrintf("unsupported trace format version %u", version);
    for (IoBackend backend : kAllBackends) {
      auto corpus = CorpusReader::Open(path.get(), WithBackend(backend, 0));
      ASSERT_TRUE(corpus.ok()) << corpus.status();
      const Status verified = corpus->VerifyAll();
      ASSERT_FALSE(verified.ok()) << IoBackendName(backend);
      EXPECT_EQ(verified.code(), StatusCode::kInvalidArgument);
      EXPECT_NE(verified.message().find(expected), std::string::npos)
          << verified.ToString();
      EXPECT_TRUE(corpus->OpenTrace(corpus->entries()[0]).ok());
      EXPECT_FALSE(corpus->OpenTrace(corpus->entries()[1]).ok());
    }
  }
}

// A CRC-valid image whose footer lists its one chunk twice is refused by
// every open: as a bare trace file, as a corpus window (the server's
// replay path, which never runs Verify), and by VerifyAll, which names
// the entry.
TEST(CorpusTest, ForgedChunkTableFailsEveryOpen) {
  const RecordedExecution recording = MakeSyntheticRecording(128, 3);
  TraceWriteOptions options;
  options.events_per_chunk = 128;
  ScopedPath scratch("forge_scratch");
  const std::vector<uint8_t> forged = ForgeTrace(
      SerializeTrace(recording, options), scratch.get(),
      [](TraceMetadata* meta, TraceFooter* footer) {
        footer->chunks.push_back(footer->chunks[0]);
        footer->total_events *= 2;
        meta->event_count = footer->total_events;
      });
  ASSERT_FALSE(forged.empty());

  ScopedPath bare("forged_bare");
  WriteFileBytes(bare.get(), forged);
  const Status opened = TraceReader::Open(bare.get()).status();
  EXPECT_EQ(opened.code(), StatusCode::kInvalidArgument) << opened;

  ScopedPath path("forged_chunks");
  {
    CorpusWriter writer(path.get());
    ASSERT_TRUE(writer.Begin().ok());
    ASSERT_TRUE(writer.Add("good", MakeSyntheticRecording(200, 4)).ok());
    ASSERT_TRUE(
        writer.AddImage("forged", forged, recording.model, "", 256, 0.0).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  for (IoBackend backend : kAllBackends) {
    auto corpus = CorpusReader::Open(path.get(), WithBackend(backend, 0));
    ASSERT_TRUE(corpus.ok()) << corpus.status();
    EXPECT_TRUE(corpus->OpenTrace("good").ok());
    const Status window = corpus->OpenTrace("forged").status();
    EXPECT_EQ(window.code(), StatusCode::kInvalidArgument) << window;
    const Status verified = corpus->VerifyAll();
    EXPECT_EQ(verified.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(verified.message().find("corpus entry 'forged'"),
              std::string::npos)
        << verified;
  }
}

// Merging the split halves of a grid reproduces every embedded image of
// the single-shot build byte-for-byte (the whole file, in fact: same
// order, same offsets, same index).
TEST(CorpusLifecycleTest, MergeOfSplitBundlesMatchesSingleShotBuild) {
  const RecordedExecution r1 = MakeSyntheticRecording(350, 4);
  const RecordedExecution r2 = MakeSyntheticRecording(450, 5);
  const RecordedExecution r3 = MakeSyntheticRecording(250, 6);

  ScopedPath single("mergesingle");
  {
    CorpusWriter writer(single.get());
    ASSERT_TRUE(writer.Begin().ok());
    ASSERT_TRUE(writer.Add("g/a", r1).ok());
    ASSERT_TRUE(writer.Add("g/b", r2).ok());
    ASSERT_TRUE(writer.Add("g/c", r3).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  ScopedPath left("mergeleft");
  {
    CorpusWriter writer(left.get());
    ASSERT_TRUE(writer.Begin().ok());
    ASSERT_TRUE(writer.Add("g/a", r1).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  ScopedPath right("mergeright");
  {
    CorpusWriter writer(right.get());
    ASSERT_TRUE(writer.Begin().ok());
    ASSERT_TRUE(writer.Add("g/b", r2).ok());
    ASSERT_TRUE(writer.Add("g/c", r3).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }

  ScopedPath merged("mergeout");
  auto stats = MergeCorpora({left.get(), right.get()}, merged.get());
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->added, 3u);
  EXPECT_EQ(stats->skipped, 0u);
  EXPECT_EQ(stats->renamed, 0u);

  EXPECT_EQ(ReadFileBytes(merged.get()), ReadFileBytes(single.get()));
  auto corpus = CorpusReader::Open(merged.get());
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  EXPECT_TRUE(corpus->VerifyAll().ok());
}

TEST(CorpusLifecycleTest, MergeCollisionPolicies) {
  ScopedPath one("collide1");
  ScopedPath two("collide2");
  {
    CorpusWriter writer(one.get());
    ASSERT_TRUE(writer.Begin().ok());
    ASSERT_TRUE(writer.Add("same", MakeSyntheticRecording(100, 1)).ok());
    ASSERT_TRUE(writer.Add("only1", MakeSyntheticRecording(120, 2)).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  {
    CorpusWriter writer(two.get());
    ASSERT_TRUE(writer.Begin().ok());
    ASSERT_TRUE(writer.Add("same", MakeSyntheticRecording(140, 3)).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }

  // fail: error names the entry, output never appears.
  ScopedPath failed("collidefail");
  {
    MergeCorporaOptions options;
    options.on_collision = NameCollisionPolicy::kFail;
    auto stats = MergeCorpora({one.get(), two.get()}, failed.get(), options);
    ASSERT_FALSE(stats.ok());
    EXPECT_EQ(stats.status().code(), StatusCode::kAlreadyExists);
    EXPECT_NE(stats.status().message().find("same"), std::string::npos);
    std::ifstream target(failed.get(), std::ios::binary);
    EXPECT_FALSE(target.good());
  }

  // skip: the first occurrence wins.
  ScopedPath skipped("collideskip");
  {
    MergeCorporaOptions options;
    options.on_collision = NameCollisionPolicy::kSkip;
    auto stats = MergeCorpora({one.get(), two.get()}, skipped.get(), options);
    ASSERT_TRUE(stats.ok()) << stats.status();
    EXPECT_EQ(stats->added, 2u);
    EXPECT_EQ(stats->skipped, 1u);
    auto corpus = CorpusReader::Open(skipped.get());
    ASSERT_TRUE(corpus.ok());
    ASSERT_EQ(corpus->entries().size(), 2u);
    EXPECT_TRUE(corpus->VerifyAll().ok());
    // The survivor is input one's image, byte-for-byte.
    const std::vector<uint8_t> merged_bytes = ReadFileBytes(skipped.get());
    const std::vector<uint8_t> one_bytes = ReadFileBytes(one.get());
    auto one_corpus = CorpusReader::Open(one.get());
    ASSERT_TRUE(one_corpus.ok());
    EXPECT_EQ(SliceImage(merged_bytes, *corpus->Find("same")),
              SliceImage(one_bytes, *one_corpus->Find("same")));
  }

  // rename-suffix: the later image lands under "same~2", byte-identical
  // to its source.
  ScopedPath renamed("colliderename");
  {
    MergeCorporaOptions options;
    options.on_collision = NameCollisionPolicy::kRenameSuffix;
    auto stats = MergeCorpora({one.get(), two.get()}, renamed.get(), options);
    ASSERT_TRUE(stats.ok()) << stats.status();
    EXPECT_EQ(stats->added, 3u);
    EXPECT_EQ(stats->renamed, 1u);
    auto corpus = CorpusReader::Open(renamed.get());
    ASSERT_TRUE(corpus.ok());
    ASSERT_EQ(corpus->entries().size(), 3u);
    EXPECT_TRUE(corpus->VerifyAll().ok());
    const CorpusEntry* alias = corpus->Find("same~2");
    ASSERT_NE(alias, nullptr);
    const std::vector<uint8_t> merged_bytes = ReadFileBytes(renamed.get());
    const std::vector<uint8_t> two_bytes = ReadFileBytes(two.get());
    auto two_corpus = CorpusReader::Open(two.get());
    ASSERT_TRUE(two_corpus.ok());
    EXPECT_EQ(SliceImage(merged_bytes, *alias),
              SliceImage(two_bytes, *two_corpus->Find("same")));
  }

  EXPECT_TRUE(ParseNameCollisionPolicy("rename-suffix").ok());
  EXPECT_FALSE(ParseNameCollisionPolicy("clobber").ok());
}

// `output` may equal one of the inputs on every backend: each input is
// read through a handle opened before the output's temp-file rename, and
// an open handle (mmap mapping and pread fd alike) keeps
// serving the replaced inode's bytes, so a self-merge is an ordinary
// atomic rewrite.
TEST(CorpusLifecycleTest, MergeOutputMayEqualAnInput) {
  for (IoBackend backend : kAllBackends) {
    ScopedPath target("selfmerge_" +
                      std::string(IoBackendName(backend)));
    ScopedPath other("selfmergeother_" +
                     std::string(IoBackendName(backend)));
    {
      CorpusWriter writer(target.get());
      ASSERT_TRUE(writer.Begin().ok());
      ASSERT_TRUE(writer.Add("x", MakeSyntheticRecording(200, 1)).ok());
      ASSERT_TRUE(writer.Add("y", MakeSyntheticRecording(240, 2)).ok());
      ASSERT_TRUE(writer.Finish().ok());
    }
    {
      CorpusWriter writer(other.get());
      ASSERT_TRUE(writer.Begin().ok());
      ASSERT_TRUE(writer.Add("z", MakeSyntheticRecording(180, 3)).ok());
      ASSERT_TRUE(writer.Finish().ok());
    }
    const std::vector<uint8_t> target_before = ReadFileBytes(target.get());
    const std::vector<uint8_t> other_before = ReadFileBytes(other.get());
    auto target_pre = CorpusReader::Open(target.get());
    ASSERT_TRUE(target_pre.ok());
    auto other_pre = CorpusReader::Open(other.get());
    ASSERT_TRUE(other_pre.ok());
    const CorpusEntry x_before = *target_pre->Find("x");
    const CorpusEntry z_before = *other_pre->Find("z");

    MergeCorporaOptions options;
    options.io.backend = backend;
    auto stats =
        MergeCorpora({target.get(), other.get()}, target.get(), options);
    ASSERT_TRUE(stats.ok()) << IoBackendName(backend) << ": "
                            << stats.status();
    EXPECT_EQ(stats->added, 3u);

    auto merged = CorpusReader::Open(target.get());
    ASSERT_TRUE(merged.ok()) << merged.status();
    ASSERT_EQ(merged->entries().size(), 3u);
    EXPECT_TRUE(merged->VerifyAll().ok()) << IoBackendName(backend);
    const std::vector<uint8_t> merged_bytes = ReadFileBytes(target.get());
    EXPECT_EQ(SliceImage(merged_bytes, *merged->Find("x")),
              SliceImage(target_before, x_before));
    EXPECT_EQ(SliceImage(merged_bytes, *merged->Find("z")),
              SliceImage(other_before, z_before));

    // A failing self-merge (collision under kFail against a bundle that
    // re-lists "x") leaves the input byte-identical: the temp file never
    // renames in.
    ScopedPath clash("selfmergeclash_" +
                     std::string(IoBackendName(backend)));
    {
      CorpusWriter writer(clash.get());
      ASSERT_TRUE(writer.Begin().ok());
      ASSERT_TRUE(writer.Add("x", MakeSyntheticRecording(90, 4)).ok());
      ASSERT_TRUE(writer.Finish().ok());
    }
    auto failed =
        MergeCorpora({target.get(), clash.get()}, target.get(), options);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), StatusCode::kAlreadyExists);
    EXPECT_EQ(ReadFileBytes(target.get()), merged_bytes);
  }
}

// Rename-suffix targets are computed against the full name set of all
// inputs, so the final name set is identical whatever the input order —
// a later input literally named "foo~2" keeps its name and an earlier
// collision renames past it (the order-dependent bug gave "foo~2~2" in
// one order and "foo~3" in the other).
TEST(CorpusLifecycleTest, RenameSuffixStableAcrossInputOrder) {
  ScopedPath a("suffixa");
  ScopedPath b("suffixb");
  ScopedPath c("suffixc");
  const RecordedExecution ra = MakeSyntheticRecording(110, 1);
  const RecordedExecution rb = MakeSyntheticRecording(130, 2);
  const RecordedExecution rc = MakeSyntheticRecording(150, 3);
  const auto build_one = [](const std::string& path, const std::string& name,
                            const RecordedExecution& recording) {
    CorpusWriter writer(path);
    ASSERT_TRUE(writer.Begin().ok());
    ASSERT_TRUE(writer.Add(name, recording).ok());
    ASSERT_TRUE(writer.Finish().ok());
  };
  build_one(a.get(), "foo", ra);
  build_one(b.get(), "foo", rb);
  build_one(c.get(), "foo~2", rc);

  MergeCorporaOptions options;
  options.on_collision = NameCollisionPolicy::kRenameSuffix;

  const auto merged_names = [&](const std::vector<std::string>& inputs,
                                const std::string& output) {
    auto stats = MergeCorpora(inputs, output, options);
    EXPECT_TRUE(stats.ok()) << stats.status();
    EXPECT_EQ(stats->renamed, 1u);
    auto corpus = CorpusReader::Open(output);
    EXPECT_TRUE(corpus.ok()) << corpus.status();
    std::vector<std::string> names;
    for (const CorpusEntry& entry : corpus->entries()) {
      names.push_back(entry.name);
    }
    std::sort(names.begin(), names.end());
    return names;
  };

  ScopedPath out1("suffixout1");
  ScopedPath out2("suffixout2");
  const std::vector<std::string> names1 =
      merged_names({a.get(), b.get(), c.get()}, out1.get());
  const std::vector<std::string> names2 =
      merged_names({a.get(), c.get(), b.get()}, out2.get());
  EXPECT_EQ(names1, names2);
  EXPECT_EQ(names1,
            (std::vector<std::string>{"foo", "foo~2", "foo~3"}));

  // The literal "foo~2" keeps its own image; the colliding "foo" from
  // input b landed as "foo~3" — in both orders.
  for (const std::string& out : {out1.get(), out2.get()}) {
    auto corpus = CorpusReader::Open(out);
    ASSERT_TRUE(corpus.ok()) << corpus.status();
    EXPECT_TRUE(corpus->VerifyAll().ok());
    const std::vector<uint8_t> out_bytes = ReadFileBytes(out);
    auto b_corpus = CorpusReader::Open(b.get());
    auto c_corpus = CorpusReader::Open(c.get());
    ASSERT_TRUE(b_corpus.ok());
    ASSERT_TRUE(c_corpus.ok());
    EXPECT_EQ(SliceImage(out_bytes, *corpus->Find("foo~2")),
              SliceImage(ReadFileBytes(c.get()), *c_corpus->Find("foo~2")));
    EXPECT_EQ(SliceImage(out_bytes, *corpus->Find("foo~3")),
              SliceImage(ReadFileBytes(b.get()), *b_corpus->Find("foo")));
  }
}

TEST(CorpusLifecycleTest, CompactDropsEntriesAndSurvivorsVerify) {
  ScopedPath path("compact");
  {
    CorpusWriter writer(path.get());
    ASSERT_TRUE(writer.Begin().ok());
    ASSERT_TRUE(writer.Add("keep/a", MakeSyntheticRecording(200, 1)).ok());
    ASSERT_TRUE(writer.Add("drop/b", MakeSyntheticRecording(300, 2)).ok());
    ASSERT_TRUE(writer.Add("keep/c", MakeSyntheticRecording(250, 3)).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  const std::vector<uint8_t> before = ReadFileBytes(path.get());
  auto original = CorpusReader::Open(path.get());
  ASSERT_TRUE(original.ok());
  const CorpusEntry keep_a = *original->Find("keep/a");
  const CorpusEntry keep_c = *original->Find("keep/c");

  // Unknown drop name: NotFound, bundle untouched.
  auto missing = CompactCorpus(path.get(), {"keep/a", "no-such"});
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(ReadFileBytes(path.get()), before);

  auto stats = CompactCorpus(path.get(), {"drop/b"});
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->dropped, 1u);
  EXPECT_EQ(stats->added, 2u);

  auto corpus = CorpusReader::Open(path.get());
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  ASSERT_EQ(corpus->entries().size(), 2u);
  EXPECT_EQ(corpus->Find("drop/b"), nullptr);
  EXPECT_TRUE(corpus->VerifyAll().ok());
  // Survivor images are byte-identical to the originals.
  const std::vector<uint8_t> after = ReadFileBytes(path.get());
  EXPECT_EQ(SliceImage(after, *corpus->Find("keep/a")),
            SliceImage(before, keep_a));
  EXPECT_EQ(SliceImage(after, *corpus->Find("keep/c")),
            SliceImage(before, keep_c));

  // Dropping everything leaves a valid empty bundle.
  auto empty = CompactCorpus(path.get(), {"keep/a", "keep/c"});
  ASSERT_TRUE(empty.ok()) << empty.status();
  auto empty_corpus = CorpusReader::Open(path.get());
  ASSERT_TRUE(empty_corpus.ok()) << empty_corpus.status();
  EXPECT_TRUE(empty_corpus->entries().empty());
  EXPECT_TRUE(empty_corpus->VerifyAll().ok());
}

// Readers opened before an append keep serving the old bundle (their
// handle pins the replaced bytes); Reopen picks up the grown index.
TEST(CorpusLifecycleTest, ReopenPicksUpGrownIndex) {
  ScopedPath path("reopen");
  {
    CorpusWriter writer(path.get());
    ASSERT_TRUE(writer.Begin().ok());
    ASSERT_TRUE(writer.Add("old", MakeSyntheticRecording(300, 1)).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  auto corpus = CorpusReader::Open(path.get());
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  ASSERT_EQ(corpus->entries().size(), 1u);

  {
    auto writer = CorpusWriter::AppendTo(path.get());
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE((*writer)->Add("new", MakeSyntheticRecording(400, 2)).ok());
    ASSERT_TRUE((*writer)->Finish().ok());
  }

  // Pre-append reader: old index, old bytes, still fully verifiable (the
  // in-place append only adds bytes past the trailer the old index knew).
  EXPECT_EQ(corpus->entries().size(), 1u);
  EXPECT_TRUE(corpus->VerifyAll().ok());
  EXPECT_EQ(corpus->Find("new"), nullptr);

  auto reopened = corpus->Reopen();
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  corpus = std::move(*reopened);
  ASSERT_EQ(corpus->entries().size(), 2u);
  EXPECT_EQ(corpus->generation(), 2u);
  EXPECT_NE(corpus->Find("new"), nullptr);
  EXPECT_TRUE(corpus->VerifyAll().ok());
  auto loaded = LoadEntry(*corpus, "new");
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->log.size(), 400u);
}

// 8 reader threads hammer a shared CorpusReader while an in-place append
// grows the bundle underneath them: every read stays consistent with the
// old index (the journal append never touches a byte the old index
// points at), and a Reopen afterwards serves the appended bundle.
TEST(CorpusLifecycleTest, ConcurrentReadersSurviveAppendThenReopen) {
  ScopedPath path("appendrace");
  constexpr size_t kOldEntries = 4;
  {
    CorpusWriter writer(path.get());
    ASSERT_TRUE(writer.Begin().ok());
    for (size_t i = 0; i < kOldEntries; ++i) {
      ASSERT_TRUE(writer
                      .Add("old/" + std::to_string(i),
                           MakeSyntheticRecording(300 + 40 * i, i + 1))
                      .ok());
    }
    ASSERT_TRUE(writer.Finish().ok());
  }

  for (IoBackend backend : kAllBackends) {
    auto corpus =
        CorpusReader::Open(path.get(), WithBackend(backend, 8 << 20));
    ASSERT_TRUE(corpus.ok()) << corpus.status();

    std::vector<std::vector<uint8_t>> expected(kOldEntries);
    for (size_t e = 0; e < kOldEntries; ++e) {
      auto trace = corpus->OpenTrace(corpus->entries()[e]);
      ASSERT_TRUE(trace.ok());
      auto log = trace->ReadAllEvents();
      ASSERT_TRUE(log.ok());
      expected[e] = log->Encode();
    }

    std::atomic<bool> stop{false};
    std::vector<int> mismatches(8, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&, t]() {
        while (!stop.load(std::memory_order_relaxed)) {
          for (size_t e = 0; e < kOldEntries; ++e) {
            auto trace = corpus->OpenTrace(corpus->entries()[e]);
            if (!trace.ok()) {
              ++mismatches[t];
              continue;
            }
            auto log = trace->ReadAllEvents();
            if (!log.ok() || log->Encode() != expected[e]) {
              ++mismatches[t];
            }
          }
        }
      });
    }

    // Append in place while the readers run. A fresh name per backend
    // round keeps duplicate checks happy.
    const std::string appended =
        "race/" + std::string(IoBackendName(backend));
    {
      auto writer = CorpusWriter::AppendTo(path.get());
      ASSERT_TRUE(writer.ok()) << writer.status();
      ASSERT_TRUE(
          (*writer)->Add(appended, MakeSyntheticRecording(500, 99)).ok());
      ASSERT_TRUE((*writer)->Finish().ok());
    }
    stop.store(true);
    for (std::thread& thread : threads) {
      thread.join();
    }
    for (int t = 0; t < 8; ++t) {
      EXPECT_EQ(mismatches[t], 0) << IoBackendName(backend) << " thread " << t;
    }

    // The shared object still serves the old index until Reopen.
    EXPECT_EQ(corpus->Find(appended), nullptr);
    auto reopened = corpus->Reopen();
    ASSERT_TRUE(reopened.ok()) << IoBackendName(backend) << ": "
                               << reopened.status();
    corpus = std::move(*reopened);
    EXPECT_NE(corpus->Find(appended), nullptr);
    EXPECT_TRUE(corpus->VerifyAll().ok()) << IoBackendName(backend);
  }
}

// ------------------------------------------------- Incremental Reopen

// Appends one generation holding `names` (one small entry each).
void AppendGeneration(const std::string& path,
                      const std::vector<std::string>& names,
                      uint64_t events = 300) {
  auto writer = CorpusWriter::AppendTo(path);
  ASSERT_TRUE(writer.ok()) << writer.status();
  for (const std::string& name : names) {
    ASSERT_TRUE((*writer)->Add(name, MakeSyntheticRecording(events, 5)).ok());
  }
  ASSERT_TRUE((*writer)->Finish().ok());
}

void BuildSingleShot(const std::string& path,
                     const std::vector<std::string>& names,
                     uint64_t events = 300) {
  CorpusWriter writer(path);
  ASSERT_TRUE(writer.Begin().ok());
  for (const std::string& name : names) {
    ASSERT_TRUE(writer.Add(name, MakeSyntheticRecording(events, 5)).ok());
  }
  ASSERT_TRUE(writer.Finish().ok());
}

// Overwrites one byte in place: same inode, no truncation, so a held
// reader's handle (mmap or pread) stays valid.
void FlipByteInPlace(const std::string& path, uint64_t offset) {
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(file.good()) << path;
  file.seekg(static_cast<std::streamoff>(offset));
  const int byte = file.get();
  file.seekp(static_cast<std::streamoff>(offset));
  file.put(static_cast<char>(byte ^ 0x5A));
  ASSERT_TRUE(file.good()) << path;
}

// The result of Reopen must be indistinguishable from a fresh Open of
// the same file. Returns the fresh reader's bytes_read(), the cost of a
// full open, so callers can tell which path Reopen took.
uint64_t ExpectMatchesFreshOpen(const CorpusReader& reopened) {
  auto fresh = CorpusReader::Open(reopened.path());
  EXPECT_TRUE(fresh.ok()) << fresh.status();
  if (!fresh.ok()) {
    return 0;
  }
  EXPECT_EQ(reopened.generation(), fresh->generation());
  EXPECT_EQ(reopened.trailer_offset(), fresh->trailer_offset());
  EXPECT_EQ(reopened.tail_offset(), fresh->tail_offset());
  EXPECT_EQ(reopened.index_offset(), fresh->index_offset());
  EXPECT_EQ(reopened.file_size(), fresh->file_size());
  EXPECT_EQ(reopened.dead_bytes(), fresh->dead_bytes());
  EXPECT_EQ(reopened.format_version(), fresh->format_version());
  EXPECT_EQ(reopened.entries().size(), fresh->entries().size());
  for (size_t i = 0;
       i < std::min(reopened.entries().size(), fresh->entries().size());
       ++i) {
    const CorpusEntry& got = reopened.entries()[i];
    const CorpusEntry& want = fresh->entries()[i];
    EXPECT_EQ(got.name, want.name) << "entry " << i;
    EXPECT_EQ(got.offset, want.offset) << want.name;
    EXPECT_EQ(got.length, want.length) << want.name;
    EXPECT_EQ(got.model, want.model) << want.name;
    EXPECT_EQ(got.scenario, want.scenario) << want.name;
    EXPECT_EQ(got.event_count, want.event_count) << want.name;
    EXPECT_EQ(got.original_wall_seconds, want.original_wall_seconds)
        << want.name;
  }
  return fresh->bytes_read();
}

// After each of k appends, the reader Reopen returns equals a fresh Open,
// reads less than that full open does (only the new generation), and
// leaves the held reader untouched.
TEST(CorpusReopenTest, EachAppendMatchesFreshOpenOnEveryBackend) {
  for (IoBackend backend : kAllBackends) {
    ScopedPath path("reopen_incr_" + std::string(IoBackendName(backend)));
    BuildSingleShot(path.get(), {"base/a", "base/b"});
    auto held = CorpusReader::Open(path.get(), WithBackend(backend, 1 << 20));
    ASSERT_TRUE(held.ok()) << held.status();
    EXPECT_EQ(held->format_version(), kCorpusFormatVersion);
    for (uint32_t k = 1; k <= 5; ++k) {
      std::vector<std::string> names = {"gen" + std::to_string(k) + "/x"};
      if (k % 2 == 0) {
        names.push_back("gen" + std::to_string(k) + "/y");
      }
      AppendGeneration(path.get(), names);
      const uint32_t held_generation = held->generation();
      const size_t held_entries = held->entries().size();

      auto next = held->Reopen();
      ASSERT_TRUE(next.ok()) << next.status();
      EXPECT_EQ(held->generation(), held_generation);
      EXPECT_EQ(held->entries().size(), held_entries);
      EXPECT_EQ(next->generation(), k + 1);
      EXPECT_EQ(next->format_version(), kCorpusFormatVersion);
      EXPECT_EQ(next->io_backend(), backend);
      EXPECT_EQ(next->chunk_cache(), held->chunk_cache());
      const uint64_t full_open_bytes = ExpectMatchesFreshOpen(*next);
      EXPECT_LT(next->bytes_read(), full_open_bytes) << "generation " << k + 1;
      auto loaded = LoadEntry(*next, names.back());
      ASSERT_TRUE(loaded.ok()) << loaded.status();
      EXPECT_EQ(loaded->log.size(), 300u);
      held = std::move(*next);
    }
    EXPECT_TRUE(held->VerifyAll().ok());
  }
}

// A torn tail (an abandoned append) under a held reader reopens to the
// same generation with the tail counted dead; the next append writes
// over the torn bytes and is picked up incrementally.
TEST(CorpusReopenTest, TornTailThenLaterAppendMatchesFreshOpen) {
  ScopedPath path("reopen_torn");
  BuildSingleShot(path.get(), {"base/a"});
  AppendGeneration(path.get(), {"gen2/a"});
  auto held = CorpusReader::Open(path.get());
  ASSERT_TRUE(held.ok()) << held.status();
  {
    auto writer = CorpusWriter::AppendTo(path.get());
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE(
        (*writer)->Add("lost", MakeSyntheticRecording(900, 6)).ok());
    // No Finish: the staged bytes stay behind as a torn tail.
  }
  auto torn = held->Reopen();
  ASSERT_TRUE(torn.ok()) << torn.status();
  EXPECT_EQ(torn->generation(), 2u);
  EXPECT_GT(torn->dead_bytes(), 0u);
  EXPECT_EQ(torn->Find("lost"), nullptr);
  ExpectMatchesFreshOpen(*torn);

  AppendGeneration(path.get(), {"gen3/a"});
  auto next = torn->Reopen();
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_EQ(next->generation(), 3u);
  EXPECT_NE(next->Find("gen3/a"), nullptr);
  EXPECT_EQ(next->Find("lost"), nullptr);
  const uint64_t full_open_bytes = ExpectMatchesFreshOpen(*next);
  EXPECT_LT(next->bytes_read(), full_open_bytes);
  EXPECT_TRUE(next->VerifyAll().ok());
}

// A path replaced by CompactCorpus is a new inode, and a bundle
// rewritten in place whose chain no longer runs through the held trailer
// is not an extension of it: both take the full open and match a fresh
// Open.
TEST(CorpusReopenTest, ReplacedOrRewrittenFileTakesTheFullOpen) {
  ScopedPath path("reopen_replaced");
  BuildSingleShot(path.get(), {"base/a", "base/b"});
  AppendGeneration(path.get(), {"gen2/a"});
  AppendGeneration(path.get(), {"gen3/a"});
  auto held = CorpusReader::Open(path.get());
  ASSERT_TRUE(held.ok()) << held.status();

  auto compacted = CompactCorpus(path.get(), {"base/b"});
  ASSERT_TRUE(compacted.ok()) << compacted.status();
  auto next = held->Reopen();
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_EQ(next->format_version(), kCorpusFormatVersion);
  EXPECT_EQ(next->generation(), 1u);
  EXPECT_EQ(next->entries().size(), 3u);
  EXPECT_EQ(next->Find("base/b"), nullptr);
  EXPECT_EQ(next->bytes_read(), ExpectMatchesFreshOpen(*next));
  // The held reader still serves the replaced inode.
  EXPECT_EQ(held->generation(), 3u);
  EXPECT_TRUE(LoadEntry(*held, "base/b").ok());

  // Same inode, different chain: overwrite the file in place with a
  // larger journal whose generations sit at other offsets.
  held = std::move(*next);
  ASSERT_EQ(held->generation(), 1u);
  const std::string other = path.get() + ".other";
  BuildSingleShot(other, {"other/a"});
  for (int g = 2; g <= 4; ++g) {
    AppendGeneration(other, {"other/gen" + std::to_string(g)}, 400);
  }
  const std::vector<uint8_t> replacement = ReadFileBytes(other);
  std::remove(other.c_str());
  ASSERT_GT(replacement.size(), FileSizeBytes(path.get()));
  {
    std::fstream file(path.get(),
                      std::ios::binary | std::ios::in | std::ios::out);
    file.write(reinterpret_cast<const char*>(replacement.data()),
               static_cast<std::streamsize>(replacement.size()));
    ASSERT_TRUE(file.good());
  }
  auto rewritten = held->Reopen();
  ASSERT_TRUE(rewritten.ok()) << rewritten.status();
  EXPECT_EQ(rewritten->generation(), 4u);
  EXPECT_NE(rewritten->Find("other/gen4"), nullptr);
  EXPECT_EQ(rewritten->Find("base/a"), nullptr);
  // The abandoned walk's reads land on the new handle before the full
  // open's.
  EXPECT_GT(rewritten->bytes_read(), ExpectMatchesFreshOpen(*rewritten));
}

// A corrupt index in a newly appended generation below the latest one
// fails the pickup loudly — exactly like a fresh Open — while the held
// reader keeps serving its generation.
TEST(CorpusReopenTest, CorruptNewIndexFailsLoudlyAndHeldReaderServes) {
  for (IoBackend backend : kAllBackends) {
    ScopedPath path("reopen_flip_" + std::string(IoBackendName(backend)));
    BuildSingleShot(path.get(), {"base/a"});
    AppendGeneration(path.get(), {"gen2/a"});
    auto held = CorpusReader::Open(path.get(), WithBackend(backend, 0));
    ASSERT_TRUE(held.ok()) << held.status();

    AppendGeneration(path.get(), {"gen3/a"});
    uint64_t index_offset = 0;
    uint64_t trailer_offset = 0;
    {
      auto gen3 = CorpusReader::Open(path.get());
      ASSERT_TRUE(gen3.ok()) << gen3.status();
      index_offset = gen3->index_offset();
      trailer_offset = gen3->trailer_offset();
    }
    AppendGeneration(path.get(), {"gen4/a"});
    FlipByteInPlace(path.get(), (index_offset + trailer_offset) / 2);

    auto next = held->Reopen();
    ASSERT_FALSE(next.ok()) << IoBackendName(backend);
    EXPECT_EQ(next.status().code(), StatusCode::kInvalidArgument)
        << next.status();
    auto fresh = CorpusReader::Open(path.get());
    ASSERT_FALSE(fresh.ok());
    EXPECT_EQ(fresh.status().code(), next.status().code());

    EXPECT_EQ(held->generation(), 2u);
    EXPECT_TRUE(held->VerifyAll().ok()) << IoBackendName(backend);
    auto loaded = LoadEntry(*held, "gen2/a");
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_EQ(loaded->log.size(), 300u);
  }
}

// The pickup cost is a count, not a timing: with equal-length names the
// bytes the returned reader's handle reads while Reopen picks up one
// appended generation are identical at chain lengths 16 and 512.
TEST(CorpusReopenTest, PickupBytesAreFlatInChainLength) {
  uint64_t pickup_bytes[2] = {0, 0};
  const uint32_t chains[2] = {16, 512};
  for (int c = 0; c < 2; ++c) {
    ScopedPath path("reopen_flat_" + std::to_string(chains[c]));
    const auto name = [](uint32_t generation) {
      return StrPrintf("gen/%05u", generation);
    };
    BuildSingleShot(path.get(), {name(1)});
    for (uint32_t g = 2; g <= chains[c]; ++g) {
      AppendGeneration(path.get(), {name(g)});
    }
    auto held = CorpusReader::Open(path.get());
    ASSERT_TRUE(held.ok()) << held.status();
    ASSERT_EQ(held->generation(), chains[c]);
    AppendGeneration(path.get(), {name(chains[c] + 1)});
    auto next = held->Reopen();
    ASSERT_TRUE(next.ok()) << next.status();
    EXPECT_EQ(next->generation(), chains[c] + 1);
    EXPECT_EQ(next->entries().back().name, name(chains[c] + 1));
    pickup_bytes[c] = next->bytes_read();
  }
  EXPECT_GT(pickup_bytes[0], 0u);
  EXPECT_EQ(pickup_bytes[0], pickup_bytes[1]);
}

// Pins the stitch: when two later deltas both re-list a held name (no
// writer does this; the chain is hand-rolled), the newest generation's
// entry replaces the held slot in place, names new to the deltas follow
// in first-listed order, and a fresh Open, an incremental Reopen from
// either held generation, and AppendTo's duplicate check all agree.
TEST(CorpusReopenTest, RelistedNamesReplaceInPlaceOnOpenAndReopen) {
  ScopedPath path("reopen_relist");
  BuildSingleShot(path.get(), {"a", "b"});
  const std::vector<uint8_t> built_bytes = ReadFileBytes(path.get());
  const uint64_t built_trailer_offset =
      built_bytes.size() - kCorpusTrailerBytes;
  auto held1 = CorpusReader::Open(path.get());
  ASSERT_TRUE(held1.ok()) << held1.status();
  const CorpusEntry a = held1->entries()[0];
  const CorpusEntry b = held1->entries()[1];
  const auto relabel = [](CorpusEntry entry, const std::string& name,
                          const std::string& model) {
    entry.name = name;
    entry.model = model;
    return entry;
  };

  // Generations land in place (same inode, never shrinking) so both held
  // readers can take the incremental path.
  std::vector<uint8_t> bytes = built_bytes;
  const auto write_tail = [&](size_t from) {
    std::fstream file(path.get(),
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(static_cast<std::streamoff>(from));
    file.write(reinterpret_cast<const char*>(bytes.data() + from),
               static_cast<std::streamsize>(bytes.size() - from));
    ASSERT_TRUE(file.good()) << path.get();
  };
  const size_t gen2_from = bytes.size();
  const uint64_t gen2 = AppendCraftedGeneration(
      &bytes, {relabel(a, "a", "gen2"), relabel(a, "d", "gen2")},
      built_trailer_offset, 2, kCorpusDeltaTrailerMagic);
  write_tail(gen2_from);
  auto held2 = CorpusReader::Open(path.get());
  ASSERT_TRUE(held2.ok()) << held2.status();
  const size_t gen3_from = bytes.size();
  AppendCraftedGeneration(&bytes,
                          {relabel(b, "c", "gen3"), relabel(b, "a", "gen3"),
                           relabel(b, "d", "gen3")},
                          gen2, 3, kCorpusDeltaTrailerMagic);
  write_tail(gen3_from);

  auto fresh = CorpusReader::Open(path.get());
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  const std::vector<std::pair<std::string, std::string>> want = {
      {"a", "gen3"}, {"b", "synthetic"}, {"d", "gen3"}, {"c", "gen3"}};
  ASSERT_EQ(fresh->entries().size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(fresh->entries()[i].name, want[i].first) << i;
    EXPECT_EQ(fresh->entries()[i].model, want[i].second) << i;
    // Every surviving slot holds b's window: gen3's entries carry it,
    // and b itself was never re-listed.
    EXPECT_EQ(fresh->entries()[i].offset, b.offset) << i;
  }
  for (const CorpusReader* held : {&*held1, &*held2}) {
    auto next = held->Reopen();
    ASSERT_TRUE(next.ok()) << next.status();
    EXPECT_EQ(next->generation(), 3u);
    EXPECT_LT(next->bytes_read(), ExpectMatchesFreshOpen(*next))
        << "held generation " << held->generation();
  }

  auto writer = CorpusWriter::AppendTo(path.get());
  ASSERT_TRUE(writer.ok()) << writer.status();
  for (const char* name : {"a", "b", "c", "d"}) {
    EXPECT_EQ((*writer)->Add(name, MakeSyntheticRecording(10)).code(),
              StatusCode::kAlreadyExists)
        << name;
  }
  EXPECT_TRUE((*writer)->Add("e", MakeSyntheticRecording(10)).ok());
}

// Reads every event of `name` through `reader` and returns the window's
// decoded-chunk cache {hits, misses}.
std::pair<uint64_t, uint64_t> ReadThroughCache(const CorpusReader& reader,
                                               const std::string& name) {
  auto trace = reader.OpenTrace(name);
  EXPECT_TRUE(trace.ok()) << name << ": " << trace.status();
  if (!trace.ok()) {
    return {0, 0};
  }
  EXPECT_TRUE(trace->ReadAllEvents().ok()) << name;
  return {trace->cache_hits(), trace->cache_misses()};
}

using HitsMisses = std::pair<uint64_t, uint64_t>;

// An incremental Reopen keeps the held reader's cache identity, over
// more than one hop: an entry a held reader decoded is all hits through
// the next reader, and an entry the new generation added misses once
// per chunk, then hits. 1500 events at 512 per chunk is 3 chunks.
TEST(CorpusReopenTest, IncrementalReopenKeepsTheCacheWarm) {
  for (IoBackend backend : kAllBackends) {
    ScopedPath path("reopen_warm_" + std::string(IoBackendName(backend)));
    BuildSingleShot(path.get(), {"base/a"}, 1500);
    auto held = CorpusReader::Open(path.get(), WithBackend(backend, 8 << 20));
    ASSERT_TRUE(held.ok()) << held.status();
    EXPECT_EQ(ReadThroughCache(*held, "base/a"), HitsMisses(0, 3));

    AppendGeneration(path.get(), {"gen2/a"}, 1500);
    auto next = held->Reopen();
    ASSERT_TRUE(next.ok()) << next.status();
    ASSERT_EQ(next->generation(), 2u);
    const uint64_t insertions = held->cache_stats().insertions;
    EXPECT_EQ(ReadThroughCache(*next, "base/a"), HitsMisses(3, 0));
    EXPECT_EQ(next->cache_stats().insertions, insertions);
    EXPECT_EQ(ReadThroughCache(*next, "gen2/a"), HitsMisses(0, 3));
    EXPECT_EQ(ReadThroughCache(*next, "gen2/a"), HitsMisses(3, 0));

    AppendGeneration(path.get(), {"gen3/a"}, 1500);
    auto third = next->Reopen();
    ASSERT_TRUE(third.ok()) << third.status();
    ASSERT_EQ(third->generation(), 3u);
    EXPECT_EQ(ReadThroughCache(*third, "base/a"), HitsMisses(3, 0));
    EXPECT_EQ(ReadThroughCache(*third, "gen2/a"), HitsMisses(3, 0));
    EXPECT_EQ(ReadThroughCache(*third, "gen3/a"), HitsMisses(0, 3));
  }
}

// The full open takes a fresh cache identity: after CompactCorpus
// rewrites the path, an entry the held reader decoded misses through the
// next reader, though the shared cache object still holds its chunks
// (and its image sits at the same offset in the new file). The held
// reader keeps its own identity and stays warm.
TEST(CorpusReopenTest, FullOpenStartsCold) {
  ScopedPath path("reopen_cold");
  BuildSingleShot(path.get(), {"base/a", "base/b"}, 1500);
  AppendGeneration(path.get(), {"gen2/a"});
  auto held = CorpusReader::Open(path.get(), WithBackend(IoBackend::kMmap,
                                                         8 << 20));
  ASSERT_TRUE(held.ok()) << held.status();
  EXPECT_EQ(ReadThroughCache(*held, "base/a"), HitsMisses(0, 3));

  auto compacted = CompactCorpus(path.get(), {});
  ASSERT_TRUE(compacted.ok()) << compacted.status();
  auto next = held->Reopen();
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_EQ(next->format_version(), kCorpusFormatVersion);
  EXPECT_EQ(next->chunk_cache(), held->chunk_cache());
  EXPECT_EQ(next->Find("base/a")->offset, held->Find("base/a")->offset);
  EXPECT_EQ(ReadThroughCache(*next, "base/a"), HitsMisses(0, 3));
  EXPECT_EQ(ReadThroughCache(*held, "base/a"), HitsMisses(3, 0));
}

// The pickup shares the held entry table instead of copying it. After
// one appended generation, Find through the next reader returns the held
// reader's own entry object for every held name, at 16 held entries and
// at 4096 alike; only the appended entries are new. A list the held
// reader built is not inherited: the next reader's lists its own
// entries.
TEST(CorpusReopenTest, ReopenSharesHeldEntries) {
  const size_t sizes[2] = {16, 4096};
  size_t moved[2] = {0, 0};
  for (int c = 0; c < 2; ++c) {
    ScopedPath path("reopen_shared_" + std::to_string(sizes[c]));
    std::vector<std::string> names;
    for (size_t i = 0; i < sizes[c]; ++i) {
      names.push_back(StrPrintf("held/%05zu", i));
    }
    BuildSingleShot(path.get(), names, 10);
    auto held = CorpusReader::Open(path.get());
    ASSERT_TRUE(held.ok()) << held.status();
    ASSERT_EQ(held->entries().size(), sizes[c]);
    AppendGeneration(path.get(), {"new/a", "new/b"}, 10);

    auto next = held->Reopen();
    ASSERT_TRUE(next.ok()) << next.status();
    ASSERT_EQ(next->generation(), 2u);
    EXPECT_EQ(next->entry_count(), sizes[c] + 2);
    for (const std::string& name : names) {
      const CorpusEntry* entry = next->Find(name);
      ASSERT_NE(entry, nullptr) << name;
      if (entry != held->Find(name)) {
        ++moved[c];
      }
    }
    EXPECT_EQ(held->Find("new/a"), nullptr);
    ASSERT_NE(next->Find("new/b"), nullptr);
    ASSERT_EQ(next->entries().size(), sizes[c] + 2);
    EXPECT_EQ(next->entries()[sizes[c]].name, "new/a");
    EXPECT_EQ(next->entries().back().name, "new/b");
    EXPECT_EQ(held->entries().size(), sizes[c]);
  }
  EXPECT_EQ(moved[0], 0u);
  EXPECT_EQ(moved[1], moved[0]);
}

// ------------------------------------------------------ Append base

// Appends one generation from a forked child: to this process it is a
// foreign generation its append base has not seen.
void AppendGenerationInChild(const std::string& path,
                             const std::vector<std::string>& names) {
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    auto writer = CorpusWriter::AppendTo(path);
    bool ok = writer.ok();
    for (const std::string& name : names) {
      ok = ok && (*writer)->Add(name, MakeSyntheticRecording(300, 5)).ok();
    }
    ok = ok && (*writer)->Finish().ok();
    _exit(ok ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << status;
}

// Opens an append writer and returns the bytes it read to prepare.
uint64_t AppendOpenBytes(const std::string& path) {
  auto writer = CorpusWriter::AppendTo(path);
  EXPECT_TRUE(writer.ok()) << writer.status();
  return writer.ok() ? (*writer)->bytes_read() : 0;
}

// The append cost is a count, not a timing: with equal-length names, an
// append that resumes from the append base reads the same bytes at chain
// lengths 16 and 512, and the first append after the base was dropped
// (here by an abandoned writer) reads more — the full open.
TEST(CorpusAppendTest, WarmAppendReadsAreFlatInChainLength) {
  uint64_t warm_bytes[2] = {0, 0};
  const uint32_t chains[2] = {16, 512};
  for (int c = 0; c < 2; ++c) {
    ScopedPath path("append_flat_" + std::to_string(chains[c]));
    const auto name = [](uint32_t generation) {
      return StrPrintf("gen/%05u", generation);
    };
    BuildSingleShot(path.get(), {name(1)});
    for (uint32_t g = 2; g <= chains[c]; ++g) {
      AppendGeneration(path.get(), {name(g)});
    }
    auto writer = CorpusWriter::AppendTo(path.get());
    ASSERT_TRUE(writer.ok()) << writer.status();
    warm_bytes[c] = (*writer)->bytes_read();
    EXPECT_EQ((*writer)->Add(name(1), MakeSyntheticRecording(10)).code(),
              StatusCode::kAlreadyExists);
    writer->reset();  // abandoned: the base is dropped

    auto cold = CorpusWriter::AppendTo(path.get());
    ASSERT_TRUE(cold.ok()) << cold.status();
    EXPECT_GT((*cold)->bytes_read(), warm_bytes[c]) << "chain " << chains[c];
    EXPECT_EQ((*cold)->Add(name(chains[c]), MakeSyntheticRecording(10)).code(),
              StatusCode::kAlreadyExists);
    ASSERT_TRUE(
        (*cold)->Add(name(chains[c] + 1), MakeSyntheticRecording(300, 5)).ok());
    ASSERT_TRUE((*cold)->Finish().ok());
    auto corpus = CorpusReader::Open(path.get());
    ASSERT_TRUE(corpus.ok()) << corpus.status();
    EXPECT_EQ(corpus->generation(), chains[c] + 1);
    EXPECT_EQ(corpus->entries().size(), chains[c] + 1);
  }
  EXPECT_GT(warm_bytes[0], 0u);
  EXPECT_EQ(warm_bytes[0], warm_bytes[1]);
}

// A generation another process appended joins the held base on the
// incremental path: its names are duplicates from then on, and the file
// this process then appends matches a fresh Open.
TEST(CorpusAppendTest, ForeignGenerationJoinsTheHeldBase) {
  ScopedPath path("append_foreign");
  BuildSingleShot(path.get(), {"base/a"});
  AppendGeneration(path.get(), {"parent/1"});
  AppendGenerationInChild(path.get(), {"child/x"});
  uint64_t full_open_bytes = 0;
  {
    auto fresh = CorpusReader::Open(path.get());
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    full_open_bytes = fresh->bytes_read();
  }

  auto writer = CorpusWriter::AppendTo(path.get());
  ASSERT_TRUE(writer.ok()) << writer.status();
  EXPECT_LT((*writer)->bytes_read(), full_open_bytes);
  const Status duplicate =
      (*writer)->Add("child/x", MakeSyntheticRecording(10));
  EXPECT_EQ(duplicate.code(), StatusCode::kAlreadyExists) << duplicate;
  ASSERT_TRUE((*writer)->Add("parent/2", MakeSyntheticRecording(300, 5)).ok());
  ASSERT_TRUE((*writer)->Finish().ok());
  writer->reset();

  auto corpus = CorpusReader::Open(path.get());
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  EXPECT_EQ(corpus->generation(), 4u);
  std::vector<std::string> names;
  for (const CorpusEntry& entry : corpus->entries()) {
    names.push_back(entry.name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"base/a", "parent/1", "child/x",
                                             "parent/2"}));
  EXPECT_TRUE(corpus->VerifyAll().ok());
  // The base now holds the child's name too.
  auto next = CorpusWriter::AppendTo(path.get());
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_LT((*next)->bytes_read(), corpus->bytes_read());
  EXPECT_EQ((*next)->Add("child/x", MakeSyntheticRecording(10)).code(),
            StatusCode::kAlreadyExists);
}

// A writer that fails or is abandoned drops the base, so names it staged
// but never published are free again, and the next append takes the
// full open.
TEST(CorpusAppendTest, FailedOrAbandonedWriterDropsTheBase) {
  ScopedPath path("append_dropped");
  BuildSingleShot(path.get(), {"base/a"});
  AppendGeneration(path.get(), {"gen2/a"});
  const uint64_t warm = AppendOpenBytes(path.get());  // abandoned, too
  const uint64_t cold = AppendOpenBytes(path.get());
  EXPECT_GT(cold, warm);
  AppendGeneration(path.get(), {"gen3/a"});

  // Abandoned before Finish.
  {
    auto writer = CorpusWriter::AppendTo(path.get());
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE((*writer)->Add("lost/1", MakeSyntheticRecording(300)).ok());
  }
  {
    auto writer = CorpusWriter::AppendTo(path.get());
    ASSERT_TRUE(writer.ok()) << writer.status();
    EXPECT_GT((*writer)->bytes_read(), warm);
    ASSERT_TRUE((*writer)->Add("lost/1", MakeSyntheticRecording(300)).ok());
    ASSERT_TRUE((*writer)->Finish().ok());
  }

  // Failed before the trailer: nothing is published, the name is free.
  {
    ASSERT_TRUE(SetFaultPlan("corpus.journal.trailer:eio").ok());
    auto writer = CorpusWriter::AppendTo(path.get());
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE((*writer)->Add("lost/2", MakeSyntheticRecording(300)).ok());
    EXPECT_FALSE((*writer)->Finish().ok());
    ClearFaultPlan();
  }
  {
    auto writer = CorpusWriter::AppendTo(path.get());
    ASSERT_TRUE(writer.ok()) << writer.status();
    EXPECT_GT((*writer)->bytes_read(), warm);
    ASSERT_TRUE((*writer)->Add("lost/2", MakeSyntheticRecording(300)).ok());
    ASSERT_TRUE((*writer)->Finish().ok());
  }

  // Failed at the final sync: the trailer already landed, so the
  // generation is visible, and the next append — a full open — sees the
  // name exactly as a fresh Open does.
  {
    ASSERT_TRUE(SetFaultPlan("corpus.journal.commit:eio").ok());
    auto writer = CorpusWriter::AppendTo(path.get());
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE((*writer)->Add("lost/3", MakeSyntheticRecording(300)).ok());
    EXPECT_FALSE((*writer)->Finish().ok());
    ClearFaultPlan();
  }
  auto fresh = CorpusReader::Open(path.get());
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_NE(fresh->Find("lost/3"), nullptr);
  EXPECT_TRUE(fresh->VerifyAll().ok());
  {
    auto writer = CorpusWriter::AppendTo(path.get());
    ASSERT_TRUE(writer.ok()) << writer.status();
    EXPECT_GT((*writer)->bytes_read(), warm);
    EXPECT_EQ((*writer)->Add("lost/3", MakeSyntheticRecording(300)).code(),
              StatusCode::kAlreadyExists);
  }
}

// Mirrors CorpusReopenTest.ReplacedOrRewrittenFileTakesTheFullOpen: a
// path replaced by CompactCorpus (or by a byte-identical copy) is a new
// inode, and a bundle rewritten in place whose chain no longer runs
// through the held trailer is not an extension of the base; all take
// the full open.
TEST(CorpusAppendTest, CompactedOrRewrittenFileTakesTheFullOpen) {
  ScopedPath path("append_replaced");
  // The replacement is built first: appending to another path would take
  // (and drop) this path's base.
  const std::string other = path.get() + ".other";
  BuildSingleShot(other, {"other/a"});
  for (int g = 2; g <= 6; ++g) {
    AppendGeneration(other, {"other/gen" + std::to_string(g)}, 400);
  }
  const std::vector<uint8_t> replacement = ReadFileBytes(other);
  std::remove(other.c_str());

  BuildSingleShot(path.get(), {"base/a", "base/b"});
  AppendGeneration(path.get(), {"gen2/a"});
  {
    const std::string copy = path.get() + ".copy";
    WriteFileBytes(copy, ReadFileBytes(path.get()));
    ASSERT_EQ(std::rename(copy.c_str(), path.get().c_str()), 0);
    auto fresh = CorpusReader::Open(path.get());
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    EXPECT_EQ(AppendOpenBytes(path.get()), fresh->bytes_read());
  }
  AppendGeneration(path.get(), {"gen3/a"});
  auto compacted = CompactCorpus(path.get(), {"base/b"});
  ASSERT_TRUE(compacted.ok()) << compacted.status();
  uint64_t full_open_bytes = 0;
  {
    auto fresh = CorpusReader::Open(path.get());
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    full_open_bytes = fresh->bytes_read();
  }
  {
    auto writer = CorpusWriter::AppendTo(path.get());
    ASSERT_TRUE(writer.ok()) << writer.status();
    EXPECT_EQ((*writer)->bytes_read(), full_open_bytes);
    ASSERT_TRUE((*writer)->Add("base/b", MakeSyntheticRecording(300)).ok());
    ASSERT_TRUE((*writer)->Finish().ok());
  }

  // Same inode, different chain.
  ASSERT_GT(replacement.size(), FileSizeBytes(path.get()));
  {
    std::fstream file(path.get(),
                      std::ios::binary | std::ios::in | std::ios::out);
    file.write(reinterpret_cast<const char*>(replacement.data()),
               static_cast<std::streamsize>(replacement.size()));
    ASSERT_TRUE(file.good());
  }
  {
    auto fresh = CorpusReader::Open(path.get());
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    full_open_bytes = fresh->bytes_read();
  }
  {
    auto writer = CorpusWriter::AppendTo(path.get());
    ASSERT_TRUE(writer.ok()) << writer.status();
    // The abandoned walk's reads land on the handle before the full
    // open's.
    EXPECT_GT((*writer)->bytes_read(), full_open_bytes);
    EXPECT_EQ((*writer)->Add("other/gen6", MakeSyntheticRecording(10)).code(),
              StatusCode::kAlreadyExists);
    ASSERT_TRUE((*writer)->Add("base/a", MakeSyntheticRecording(300)).ok());
    ASSERT_TRUE((*writer)->Finish().ok());
  }
  auto corpus = CorpusReader::Open(path.get());
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  EXPECT_EQ(corpus->generation(), 7u);
  EXPECT_EQ(corpus->entries().size(), 7u);
  EXPECT_EQ(corpus->Find("gen2/a"), nullptr);
  EXPECT_NE(corpus->Find("base/a"), nullptr);
  EXPECT_TRUE(corpus->VerifyAll().ok());
}

// A corrupt delta index in a generation another process appended fails
// the append loudly, before the sink opens: not a byte of the file moves.
TEST(CorpusAppendTest, CorruptForeignIndexFailsAndLeavesTheFileAlone) {
  ScopedPath path("append_corrupt");
  BuildSingleShot(path.get(), {"base/a"});
  AppendGeneration(path.get(), {"gen2/a"});
  AppendGenerationInChild(path.get(), {"gen3/a"});
  uint64_t index_offset = 0;
  uint64_t trailer_offset = 0;
  {
    auto gen3 = CorpusReader::Open(path.get());
    ASSERT_TRUE(gen3.ok()) << gen3.status();
    index_offset = gen3->index_offset();
    trailer_offset = gen3->trailer_offset();
  }
  AppendGenerationInChild(path.get(), {"gen4/a"});
  FlipByteInPlace(path.get(), (index_offset + trailer_offset) / 2);
  const std::vector<uint8_t> before = ReadFileBytes(path.get());

  auto writer = CorpusWriter::AppendTo(path.get());
  ASSERT_FALSE(writer.ok());
  EXPECT_EQ(writer.status().code(), StatusCode::kInvalidArgument)
      << writer.status();
  auto fresh = CorpusReader::Open(path.get());
  ASSERT_FALSE(fresh.ok());
  EXPECT_EQ(fresh.status().code(), writer.status().code());
  EXPECT_EQ(ReadFileBytes(path.get()), before);
}

// ------------------------------------------- Writer state-machine holes

TEST(CorpusWriterStateTest, OperationsOutsideBeginFinishReturnStatus) {
  const RecordedExecution recording = MakeSyntheticRecording(40);
  ScopedPath path("state");
  CorpusWriter writer(path.get());

  // Everything before Begin is a FailedPrecondition, not sink corruption.
  EXPECT_EQ(writer.Add("early", recording).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(writer.AddImage("early", std::vector<uint8_t>(64, 0), "m", "s", 1,
                            0.0)
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(writer.Finish().code(), StatusCode::kFailedPrecondition);

  ASSERT_TRUE(writer.Begin().ok());
  EXPECT_EQ(writer.Begin().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(writer.Add("ok", recording).ok());
  ASSERT_TRUE(writer.Finish().ok());

  // Double Finish and post-Finish adds are errors; the finished file
  // stays valid.
  EXPECT_EQ(writer.Finish().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(writer.Add("late", recording).code(),
            StatusCode::kFailedPrecondition);
  auto corpus = CorpusReader::Open(path.get());
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  ASSERT_EQ(corpus->entries().size(), 1u);
  EXPECT_TRUE(corpus->VerifyAll().ok());
}

TEST(CorpusWriterStateTest, DuplicateNameErrorNamesTheOffender) {
  const RecordedExecution recording = MakeSyntheticRecording(30);
  ScopedPath path("dupname");
  CorpusWriter writer(path.get());
  ASSERT_TRUE(writer.Begin().ok());
  ASSERT_TRUE(writer.Add("grid/cell-7", recording).ok());
  const Status duplicate = writer.Add("grid/cell-7", recording);
  EXPECT_EQ(duplicate.code(), StatusCode::kAlreadyExists);
  EXPECT_NE(duplicate.message().find("grid/cell-7"), std::string::npos)
      << duplicate.message();
  ASSERT_TRUE(writer.Finish().ok());
}

// --------------------------------------------------------------- Registry

TEST(ScenarioRegistryTest, EnumeratesAllScenariosUniquely) {
  const std::vector<BugScenario> scenarios = AllBugScenarios();
  ASSERT_EQ(scenarios.size(), 4u);
  std::vector<std::string> names;
  for (const BugScenario& scenario : scenarios) {
    names.push_back(scenario.name);
    EXPECT_NE(scenario.make_program, nullptr);
    auto found = FindBugScenario(scenario.name);
    ASSERT_TRUE(found.ok());
    EXPECT_EQ(found->name, scenario.name);
  }
  std::sort(names.begin(), names.end());
  EXPECT_TRUE(std::unique(names.begin(), names.end()) == names.end());
  EXPECT_EQ(FindBugScenario("no-such-bug").status().code(),
            StatusCode::kNotFound);
}

TEST(ScenarioRegistryTest, ParseDeterminismModelRoundtrips) {
  for (DeterminismModel model : AllDeterminismModels()) {
    auto parsed = ParseDeterminismModel(DeterminismModelName(model));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, model);
  }
  // Recorder model-name strings map back too.
  for (const char* name : {"rcse-code", "rcse-combined", "rcse-data", "rcse",
                           "debug-rcse"}) {
    auto parsed = ParseDeterminismModel(name);
    ASSERT_TRUE(parsed.ok()) << name;
    EXPECT_EQ(*parsed, DeterminismModel::kDebugRcse);
  }
  EXPECT_FALSE(ParseDeterminismModel("quantum").ok());
}

// ------------------------------------------------------------ BatchRunner

std::vector<BugScenario> FastScenarios() {
  std::vector<BugScenario> scenarios;
  scenarios.push_back(MakeSumScenario());
  scenarios.push_back(MakeOverflowScenario());
  return scenarios;
}

TEST(BatchRunnerTest, ParallelRowsMatchSequentialRows) {
  BatchOptions sequential;
  sequential.threads = 1;
  sequential.models = {DeterminismModel::kPerfect, DeterminismModel::kValue,
                       DeterminismModel::kFailure};
  BatchOptions parallel = sequential;
  parallel.threads = 4;

  auto seq_report = BatchRunner(FastScenarios(), sequential).Run();
  ASSERT_TRUE(seq_report.ok()) << seq_report.status();
  auto par_report = BatchRunner(FastScenarios(), parallel).Run();
  ASSERT_TRUE(par_report.ok()) << par_report.status();

  ASSERT_EQ(seq_report->cells.size(), 6u);
  ASSERT_EQ(par_report->cells.size(), seq_report->cells.size());
  for (size_t i = 0; i < seq_report->cells.size(); ++i) {
    EXPECT_EQ(RowSignature(par_report->cells[i]),
              RowSignature(seq_report->cells[i]))
        << "cell " << i;
  }
}

TEST(BatchRunnerTest, WritesCorpusAndReportEndToEnd) {
  ScopedPath corpus_path("batch");
  BatchOptions options;
  options.threads = 4;
  options.models = {DeterminismModel::kPerfect, DeterminismModel::kFailure};
  options.corpus_path = corpus_path.get();
  options.trace_options.events_per_chunk = 64;

  auto report = BatchRunner(FastScenarios(), options).Run();
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->cells.size(), 4u);

  auto corpus = CorpusReader::Open(corpus_path.get());
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  ASSERT_EQ(corpus->entries().size(), 4u);
  EXPECT_TRUE(corpus->VerifyAll().ok());
  for (size_t i = 0; i < report->cells.size(); ++i) {
    EXPECT_EQ(corpus->entries()[i].name, report->cells[i].recording_name);
    EXPECT_EQ(corpus->entries()[i].scenario, report->cells[i].scenario);
  }

  // The machine-readable report has one JSON object per cell.
  const std::string json = report->ToJsonLines();
  size_t lines = 0;
  for (char c : json) {
    lines += c == '\n';
  }
  EXPECT_EQ(lines, report->cells.size());
  EXPECT_NE(json.find("\"scenario\":\"sum\""), std::string::npos);
}

// A write error that surfaces only when the stdio buffer is flushed at
// close (a full device) must fail the report, not report OK.
TEST(BatchRunnerTest, ReportWriteErrorAtCloseFails) {
  if (!std::ifstream("/dev/full").good()) {
    GTEST_SKIP() << "/dev/full is not available";
  }
  BatchReport report;
  report.cells.resize(1);
  report.cells[0].scenario = "sum";
  const Status written = report.WriteJsonLines("/dev/full");
  ASSERT_FALSE(written.ok());
  EXPECT_EQ(written.code(), StatusCode::kUnavailable);
}

// Replaying the corpus from disk scores identically to the in-memory
// record -> replay pipeline (the PR's acceptance property).
TEST(BatchRunnerTest, CorpusReplayMatchesInMemoryRows) {
  ScopedPath corpus_path("replaymatch");
  BatchOptions options;
  options.threads = 2;
  options.models = {DeterminismModel::kPerfect, DeterminismModel::kValue,
                    DeterminismModel::kFailure, DeterminismModel::kDebugRcse};
  options.corpus_path = corpus_path.get();

  auto built = BatchRunner(FastScenarios(), options).Run();
  ASSERT_TRUE(built.ok()) << built.status();

  auto replayed = ReplayCorpus(corpus_path.get(), FastScenarios(),
                               /*threads=*/4);
  ASSERT_TRUE(replayed.ok()) << replayed.status();

  ASSERT_EQ(replayed->cells.size(), built->cells.size());
  for (size_t i = 0; i < built->cells.size(); ++i) {
    EXPECT_EQ(RowSignature(replayed->cells[i]), RowSignature(built->cells[i]))
        << "cell " << i;
  }
}

// The serve path at full concurrency: 8 workers sharing one CorpusReader
// handle and one decoded-chunk cache produce the same deterministic row
// signatures as a single worker on the cold pread backend — for every
// I/O backend.
TEST(BatchRunnerTest, SharedReaderParallelReplayMatchesAcrossBackends) {
  ScopedPath corpus_path("sharedreplay");
  BatchOptions options;
  options.threads = 2;
  options.models = {DeterminismModel::kPerfect, DeterminismModel::kValue,
                    DeterminismModel::kFailure};
  options.corpus_path = corpus_path.get();
  auto built = BatchRunner(FastScenarios(), options).Run();
  ASSERT_TRUE(built.ok()) << built.status();

  // Baseline: sequential, pread, no cache.
  ReplayCorpusOptions baseline;
  baseline.threads = 1;
  baseline.reader = WithBackend(IoBackend::kPread, 0);
  auto sequential = ReplayCorpus(corpus_path.get(), FastScenarios(), baseline);
  ASSERT_TRUE(sequential.ok()) << sequential.status();
  ASSERT_EQ(sequential->cells.size(), 6u);
  EXPECT_EQ(sequential->io_backend, "pread");
  EXPECT_EQ(sequential->cache_stats.hits, 0u);
  EXPECT_GT(sequential->corpus_bytes_read, 0u);

  for (IoBackend backend : kAllBackends) {
    ReplayCorpusOptions parallel;
    parallel.threads = 8;
    parallel.reader = WithBackend(backend, 32 << 20);
    auto replayed = ReplayCorpus(corpus_path.get(), FastScenarios(), parallel);
    ASSERT_TRUE(replayed.ok()) << replayed.status();
    ASSERT_EQ(replayed->cells.size(), sequential->cells.size());
    for (size_t i = 0; i < sequential->cells.size(); ++i) {
      EXPECT_EQ(RowSignature(replayed->cells[i]),
                RowSignature(sequential->cells[i]))
          << IoBackendName(backend) << " cell " << i;
    }
    EXPECT_EQ(replayed->io_backend, IoBackendName(backend));
  }
}

// A bundle truncated to 0 by another process under a held pread reader
// fails every read loudly with a Status: verify and replay both report it,
// neither dies of a signal. (A held mmap reader would fault instead.)
TEST(CorpusTruncationTest, PreadReaderReportsOutsideTruncation) {
  BugScenario scenario = MakeSumScenario();
  ExperimentHarness harness(scenario);
  ASSERT_TRUE(harness.Prepare().ok());
  const RecordedExecution recording = harness.Record(DeterminismModel::kPerfect);
  TraceWriteOptions options;
  options.scenario = scenario.name;

  ScopedPath path("truncated");
  CorpusWriter writer(path.get());
  ASSERT_TRUE(writer.Begin().ok());
  ASSERT_TRUE(writer.Add("sum/perfect", recording, options).ok());
  ASSERT_TRUE(writer.Finish().ok());

  auto corpus = CorpusReader::Open(path.get(),
                                   WithBackend(IoBackend::kPread, 0));
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  ASSERT_EQ(corpus->entries().size(), 1u);
  ASSERT_EQ(::truncate(path.get().c_str(), 0), 0);

  const Status verified = corpus->VerifyAll();
  EXPECT_EQ(verified.code(), StatusCode::kUnavailable) << verified;
  CorpusEntryScorer scorer({scenario});
  auto scored = scorer.ScoreEntry(*corpus, corpus->entries()[0]);
  ASSERT_FALSE(scored.ok());
  EXPECT_EQ(scored.status().code(), StatusCode::kUnavailable)
      << scored.status();
}

// The PR's acceptance property: build a sub-grid, resume twice to fill in
// the missing cells, and the final bundle verifies everywhere and replays
// to the same deterministic rows as a single-shot build of the full grid.
TEST(BatchRunnerTest, ResumeAppendsOnlyMissingCells) {
  const std::vector<DeterminismModel> grid_models = {
      DeterminismModel::kPerfect, DeterminismModel::kValue,
      DeterminismModel::kFailure};

  ScopedPath single_path("resumesingle");
  BatchOptions single;
  single.threads = 2;
  single.models = grid_models;
  single.corpus_path = single_path.get();
  auto single_report = BatchRunner(FastScenarios(), single).Run();
  ASSERT_TRUE(single_report.ok()) << single_report.status();
  ASSERT_EQ(single_report->cells.size(), 6u);

  // Pass 1: one model only. Pass 2 (resume): two models — appends the
  // missing cells. Pass 3 (resume): full grid — appends the rest.
  ScopedPath grown_path("resumegrown");
  size_t ran = 0;
  for (size_t pass = 1; pass <= grid_models.size(); ++pass) {
    BatchOptions options;
    options.threads = 2;
    options.models.assign(grid_models.begin(),
                          grid_models.begin() + static_cast<ptrdiff_t>(pass));
    options.corpus_path = grown_path.get();
    options.resume = pass > 1;
    auto report = BatchRunner(FastScenarios(), options).Run();
    ASSERT_TRUE(report.ok()) << report.status();
    // Each pass runs exactly the new model's cells (2 scenarios x 1).
    EXPECT_EQ(report->cells.size(), 2u) << "pass " << pass;
    EXPECT_GT(report->corpus_bytes_written, 0u) << "pass " << pass;
    if (pass > 1) {
      // The in-place resume wrote only the new cells + index, never a
      // copy of the whole bundle.
      EXPECT_LT(report->corpus_bytes_written,
                FileSizeBytes(grown_path.get()))
          << "pass " << pass;
    }
    ran += report->cells.size();
  }
  EXPECT_EQ(ran, 6u);

  // Resuming a complete grid runs nothing and leaves the bundle alone.
  const std::vector<uint8_t> before = ReadFileBytes(grown_path.get());
  {
    BatchOptions options;
    options.threads = 2;
    options.models = grid_models;
    options.corpus_path = grown_path.get();
    options.resume = true;
    auto report = BatchRunner(FastScenarios(), options).Run();
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_TRUE(report->cells.empty());
    EXPECT_EQ(ReadFileBytes(grown_path.get()), before);
  }

  auto corpus = CorpusReader::Open(grown_path.get());
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  ASSERT_EQ(corpus->entries().size(), 6u);
  // Two resume passes journaled two generations onto the base build.
  EXPECT_EQ(corpus->generation(), 3u);
  EXPECT_TRUE(corpus->VerifyAll().ok());

  // The grown bundle replays to the same deterministic rows as the
  // single-shot grid. Entry order differs (cells landed append-pass by
  // append-pass), so compare the signature multisets.
  auto single_replay = ReplayCorpus(single_path.get(), FastScenarios());
  ASSERT_TRUE(single_replay.ok()) << single_replay.status();
  auto grown_replay = ReplayCorpus(grown_path.get(), FastScenarios());
  ASSERT_TRUE(grown_replay.ok()) << grown_replay.status();
  std::vector<std::string> single_sigs;
  std::vector<std::string> grown_sigs;
  for (const BatchCell& cell : single_replay->cells) {
    single_sigs.push_back(RowSignature(cell));
  }
  for (const BatchCell& cell : grown_replay->cells) {
    grown_sigs.push_back(RowSignature(cell));
  }
  std::sort(single_sigs.begin(), single_sigs.end());
  std::sort(grown_sigs.begin(), grown_sigs.end());
  EXPECT_EQ(single_sigs, grown_sigs);

  // Merging the per-pass layout back into grid order is byte-exact per
  // image, so a scenario-split resume (which preserves grid order) is
  // bit-identical to single-shot — asserted at the corpus layer in
  // CorpusLifecycleTest.AppendToMatchesSingleShotBitForBit.
}

TEST(BatchRunnerTest, ResumeRefusesCorruptBundle) {
  ScopedPath path("resumecorrupt");
  WriteFileBytes(path.get(), std::vector<uint8_t>(128, 0x5A));
  BatchOptions options;
  options.models = {DeterminismModel::kPerfect};
  options.corpus_path = path.get();
  options.resume = true;
  auto report = BatchRunner(FastScenarios(), options).Run();
  ASSERT_FALSE(report.ok());
  // The junk file is still there, untouched — not silently rebuilt.
  EXPECT_EQ(ReadFileBytes(path.get()), std::vector<uint8_t>(128, 0x5A));
}

TEST(BatchRunnerTest, ReplayCorpusRejectsUnknownScenario) {
  const RecordedExecution recording = MakeSyntheticRecording(20);
  ScopedPath path("unknown");
  TraceWriteOptions options;
  options.scenario = "not-a-registered-scenario";
  CorpusWriter writer(path.get());
  ASSERT_TRUE(writer.Begin().ok());
  ASSERT_TRUE(writer.Add("x", recording, options).ok());
  ASSERT_TRUE(writer.Finish().ok());

  auto replayed = ReplayCorpus(path.get(), AllBugScenarios());
  ASSERT_FALSE(replayed.ok());
  EXPECT_EQ(replayed.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace ddr
