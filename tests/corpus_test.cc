// Tests for DDRC corpus bundles (src/trace/corpus.h), the scenario
// registry, and the BatchRunner / ReplayCorpus pipeline.
//
// The acceptance properties: a corpus packs many named recordings into one
// indexed, CRC-checked file whose entries round-trip exactly; BatchRunner
// with N threads produces the same deterministic rows as 1 thread; and
// replaying a corpus from disk scores identically to the in-memory
// record->replay path.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "src/apps/scenarios.h"
#include "src/core/batch_runner.h"
#include "src/core/experiment.h"
#include "src/trace/chunk_cache.h"
#include "src/trace/corpus.h"
#include "src/trace/trace_format.h"
#include "src/trace/trace_writer.h"
#include "src/util/codec.h"
#include "src/util/crc32.h"
#include "src/util/random_access_file.h"
#include "src/util/rng.h"
#include "src/util/string_util.h"

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
  options.checkpoint_interval = 200;
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

  double wall = 0.0;
  auto loaded = corpus->LoadRecording("bugs/one", &wall);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_DOUBLE_EQ(wall, 1.25);
  ASSERT_EQ(loaded->log.size(), recording.log.size());
  for (size_t i = 0; i < recording.log.size(); ++i) {
    EXPECT_EQ(loaded->log.events()[i].SemanticHash(),
              recording.log.events()[i].SemanticHash());
  }
  EXPECT_EQ(loaded->recorded_bytes, recording.recorded_bytes);
  EXPECT_EQ(loaded->intercepted_events, recording.intercepted_events);

  // The embedded trace is a full TraceReader: partial reads and checkpoint
  // access work through the corpus window.
  auto trace = corpus->OpenTrace(entry);
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace->total_events(), 700u);
  EXPECT_FALSE(trace->checkpoints().empty());
  auto mid = trace->ReadEvents(300, 10);
  ASSERT_TRUE(mid.ok());
  ASSERT_EQ(mid->size(), 10u);
  EXPECT_EQ((*mid)[0].SemanticHash(),
            recording.log.events()[300].SemanticHash());

  EXPECT_TRUE(corpus->VerifyAll().ok());
}

TEST(CorpusTest, StreamingAddMatchesBufferedAdd) {
  const RecordedExecution recording = MakeSyntheticRecording(500);
  TraceWriteOptions options;
  options.events_per_chunk = 64;

  ScopedPath buffered("buffered");
  {
    CorpusWriter writer(buffered.get());
    ASSERT_TRUE(writer.Begin().ok());
    ASSERT_TRUE(writer.Add("r", recording, options).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }

  // Same recording streamed in odd-sized batches: identical file bytes.
  ScopedPath streamed("streamed");
  {
    CorpusWriter writer(streamed.get());
    ASSERT_TRUE(writer.Begin().ok());
    auto stream = writer.BeginRecording("r", options);
    ASSERT_TRUE(stream.ok()) << stream.status();
    const std::vector<Event>& events = recording.log.events();
    for (size_t i = 0; i < events.size();) {
      const size_t batch = std::min<size_t>(1 + i % 37, events.size() - i);
      ASSERT_TRUE((*stream)->AppendEvents(events.data() + i, batch).ok());
      i += batch;
    }
    ASSERT_TRUE(writer.FinishRecording(FinishInfoFor(recording)).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }

  EXPECT_EQ(ReadFileBytes(buffered.get()), ReadFileBytes(streamed.get()));
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
  TraceWriteOptions delta;
  delta.events_per_chunk = 128;
  delta.chunk_filter = TraceFilter::kVarintDelta;
  {
    CorpusWriter writer(path.get());
    ASSERT_TRUE(writer.Begin().ok());
    ASSERT_TRUE(writer.Add("row/a", MakeSyntheticRecording(700, 1)).ok());
    ASSERT_TRUE(writer.Add("col/b", MakeSyntheticRecording(900, 2), delta).ok());
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
  ASSERT_TRUE(corpus->Reopen().ok());
  ASSERT_EQ(corpus->entries().size(), 2u);
  EXPECT_EQ(corpus->generation(), 2u);
  EXPECT_NE(corpus->Find("next"), nullptr);
  EXPECT_EQ(corpus->Find("lost"), nullptr);
  EXPECT_TRUE(corpus->VerifyAll().ok());
}

// ------------------------------------------- In-place journal appends

// The O(delta) acceptance property, asserted on sink byte accounting: an
// in-place append to an N-entry bundle writes the new images + a delta
// index listing only the new entries + one trailer (+ the 4-byte header
// version flip) — never a copy of the existing bytes and never a re-list
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
  EXPECT_EQ(small_written,
            FileSizeBytes(small_base.get()) - small_before + 4);

  const uint64_t big_before = FileSizeBytes(big_base.get());
  const uint64_t big_written = append_one(big_base.get());
  // Bytes written are exactly the on-disk delta plus the header flip...
  EXPECT_EQ(big_written, FileSizeBytes(big_base.get()) - big_before + 4);
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
    EXPECT_TRUE(corpus->journaled());
    EXPECT_EQ(corpus->generation(), 2u);
    ASSERT_EQ(corpus->entries().size(), 13u);
    EXPECT_TRUE(corpus->VerifyAll().ok()) << IoBackendName(backend);
    auto loaded = corpus->LoadRecording("appended/one");
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_EQ(loaded->log.size(), 50u);
  }

  // Nothing is dead: the generation-1 index is the stitch base the
  // delta chain resolves against, so every index byte in the file is
  // still reachable by Open.
  auto small_after = CorpusReader::Open(small_base.get());
  ASSERT_TRUE(small_after.ok()) << small_after.status();
  EXPECT_EQ(small_after->format_version(), kCorpusFormatVersionDelta);
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

// A crash after the header version flip but before any appended byte
// leaves a version-3 header over a v1 body: the journal recovery path
// serves it (generation 1, zero dead bytes) and the next append chains
// normally.
TEST(CorpusJournalTest, HeaderFlipAloneStaysReadable) {
  ScopedPath path("journalflip");
  {
    CorpusWriter writer(path.get());
    ASSERT_TRUE(writer.Begin().ok());
    ASSERT_TRUE(writer.Add("only", MakeSyntheticRecording(300, 1)).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  std::vector<uint8_t> bytes = ReadFileBytes(path.get());
  bytes[4] = kCorpusFormatVersionDelta;  // the little-endian version field
  WriteFileBytes(path.get(), bytes);
  for (IoBackend backend : kAllBackends) {
    auto corpus = CorpusReader::Open(path.get(), WithBackend(backend, 0));
    ASSERT_TRUE(corpus.ok()) << corpus.status();
    EXPECT_TRUE(corpus->journaled());
    EXPECT_EQ(corpus->format_version(), kCorpusFormatVersionDelta);
    EXPECT_EQ(corpus->generation(), 1u);
    EXPECT_EQ(corpus->dead_bytes(), 0u);
    EXPECT_TRUE(corpus->VerifyAll().ok()) << IoBackendName(backend);
  }
  {
    auto writer = CorpusWriter::AppendTo(path.get());
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE((*writer)->Add("second", MakeSyntheticRecording(100, 2)).ok());
    ASSERT_TRUE((*writer)->Finish().ok());
  }
  auto corpus = CorpusReader::Open(path.get());
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  EXPECT_EQ(corpus->generation(), 2u);
  ASSERT_EQ(corpus->entries().size(), 2u);
  EXPECT_TRUE(corpus->VerifyAll().ok());
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
  // exactly kCorpusFormatVersion.
  const auto open_v1_strict = [&]() -> Status {
    Decoder header(bytes.data(), kCorpusHeaderBytes);
    auto magic = header.GetFixed32();
    EXPECT_TRUE(magic.ok());
    EXPECT_EQ(*magic, kCorpusFileMagic);
    auto version = header.GetFixed32();
    EXPECT_TRUE(version.ok());
    if (*version != kCorpusFormatVersion) {
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
  EXPECT_FALSE(corpus->journaled());
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
  // {2}, {3,4} — two delta generations on top of the v1 base.
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
    EXPECT_EQ(got->format_version(), kCorpusFormatVersionDelta);
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
      auto want_rec = want->LoadRecording(w.name);
      auto got_rec = got->LoadRecording(g.name);
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
  const std::vector<uint8_t> v1_bytes = ReadFileBytes(path.get());
  const uint64_t v1_trailer_offset = v1_bytes.size() - kCorpusTrailerBytes;

  // Appends one generation (index section listing `entries` + a CRC'd
  // 28-byte trailer ending in `magic`); returns the trailer's offset.
  const auto append_generation = [](std::vector<uint8_t>* bytes,
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
    bytes->insert(bytes->end(), trailer.buffer().begin(),
                  trailer.buffer().end());
    return trailer_offset;
  };
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
  std::vector<uint8_t> v2 = v1_bytes;
  v2[4] = 2;
  append_generation(&v2, base_entries, v1_trailer_offset, 2,
                    kRetiredFullIndexMagic);
  expect_rejected(v2, "unsupported corpus format version 2");

  // Case 2: a v3 header whose newest (valid) delta trailer chains onto a
  // "CRDJ" generation.
  const auto v3_chain_via = [&](uint32_t link_magic) {
    std::vector<uint8_t> bytes = v1_bytes;
    bytes[4] = kCorpusFormatVersionDelta;
    const uint64_t link = append_generation(&bytes, base_entries,
                                            v1_trailer_offset, 2, link_magic);
    append_generation(&bytes, {}, link, 3, kCorpusDeltaTrailerMagic);
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

  ASSERT_TRUE(corpus->Reopen().ok());
  ASSERT_EQ(corpus->entries().size(), 2u);
  EXPECT_TRUE(corpus->journaled());
  EXPECT_EQ(corpus->generation(), 2u);
  EXPECT_NE(corpus->Find("new"), nullptr);
  EXPECT_TRUE(corpus->VerifyAll().ok());
  auto loaded = corpus->LoadRecording("new");
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
    ASSERT_TRUE(corpus->Reopen().ok()) << IoBackendName(backend);
    EXPECT_NE(corpus->Find(appended), nullptr);
    EXPECT_TRUE(corpus->VerifyAll().ok()) << IoBackendName(backend);
  }
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
  EXPECT_EQ(writer.BeginRecording("early").status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(writer.FinishRecording({}).code(), StatusCode::kFailedPrecondition);
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
  // A streaming duplicate fails at BeginRecording time, same message.
  const Status streaming = writer.BeginRecording("grid/cell-7").status();
  EXPECT_EQ(streaming.code(), StatusCode::kAlreadyExists);
  EXPECT_NE(streaming.message().find("grid/cell-7"), std::string::npos);
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
  options.trace_options.chunk_filter = TraceFilter::kVarintDelta;

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
  options.trace_options.chunk_filter = TraceFilter::kVarintDelta;
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

// A harness can stream a live recording directly into a corpus entry:
// RecordStreaming hands back the finish info and the corpus owns the
// writer lifecycle.
TEST(BatchRunnerTest, HarnessStreamsDirectlyIntoCorpus) {
  BugScenario scenario = MakeSumScenario();
  ExperimentHarness harness(scenario);
  ASSERT_TRUE(harness.Prepare().ok());

  ScopedPath path("streamed_entry");
  CorpusWriter corpus(path.get());
  ASSERT_TRUE(corpus.Begin().ok());
  auto writer = corpus.BeginRecording("sum/streamed");
  ASSERT_TRUE(writer.ok()) << writer.status();
  auto info = harness.RecordStreaming(DeterminismModel::kPerfect, *writer);
  ASSERT_TRUE(info.ok()) << info.status();
  ASSERT_TRUE(corpus.FinishRecording(*info).ok());
  ASSERT_TRUE(corpus.Finish().ok());

  auto reader = CorpusReader::Open(path.get());
  ASSERT_TRUE(reader.ok()) << reader.status();
  ASSERT_EQ(reader->entries().size(), 1u);
  EXPECT_EQ(reader->entries()[0].scenario, "sum");
  EXPECT_EQ(reader->entries()[0].model, "perfect");
  EXPECT_TRUE(reader->VerifyAll().ok());

  // The streamed entry replays like any other recording.
  auto replayed = ReplayCorpus(path.get(), AllBugScenarios());
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  ASSERT_EQ(replayed->cells.size(), 1u);
  EXPECT_TRUE(replayed->cells[0].row.failure_reproduced);
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
  EXPECT_TRUE(corpus->journaled());
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
