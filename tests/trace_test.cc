// Tests for src/trace: the DDRT file format (chunking, compression, CRCs,
// footer index), checkpoint index construction, TraceStore round-trips,
// harness save/load hooks, and checkpointed partial replay.
//
// The acceptance property: a RecordedExecution saved via TraceStore and
// reloaded from disk replays to the same failure fingerprint and output
// fingerprint as the in-memory original, and partial replay from a
// mid-trace checkpoint reaches the same outcome as full replay.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include "src/apps/scenarios.h"
#include "src/core/experiment.h"
#include "src/trace/block_compress.h"
#include "src/trace/checkpoint.h"
#include "src/trace/chunk_codec.h"
#include "src/trace/trace_reader.h"
#include "src/trace/trace_store.h"
#include "src/trace/trace_writer.h"
#include "src/util/rng.h"

namespace ddr {
namespace {

// Temp-file helper: unique path in the test working directory, removed on
// scope exit.
class ScopedTracePath {
 public:
  explicit ScopedTracePath(const std::string& tag)
      : path_("trace_test_" + tag + ".ddrt") {}
  ~ScopedTracePath() { std::remove(path_.c_str()); }
  const std::string& get() const { return path_; }

 private:
  std::string path_;
};

RecordedExecution MakeSyntheticRecording(uint64_t num_events,
                                         uint64_t seed = 99) {
  RecordedExecution recording;
  recording.model = "synthetic";
  Rng rng(seed);
  for (uint64_t seq = 0; seq < num_events; ++seq) {
    Event event;
    event.seq = seq;
    event.time = seq * 37;
    event.fiber = static_cast<FiberId>(seq % 4);
    event.obj = 5 + seq % 7;
    event.value = rng.NextIndex(1 << 20);
    switch (seq % 4) {
      case 0:
        event.type = EventType::kSharedRead;
        break;
      case 1:
        event.type = EventType::kContextSwitch;
        event.aux = PackSwitchAux(seq, SwitchCause::kPreempt);
        break;
      case 2:
        event.type = EventType::kRngDraw;
        break;
      default:
        event.type = EventType::kInput;
        break;
    }
    recording.log.Append(event);
  }
  recording.recorded_events = num_events;
  recording.intercepted_events = num_events;
  recording.recorded_bytes = recording.log.encoded_size_bytes();
  recording.cpu_nanos = 1000;
  recording.overhead_nanos = 150;
  return recording;
}

// ---------------------------------------------------------------- Compress

TEST(BlockCompressTest, RoundtripCompressible) {
  std::vector<uint8_t> input;
  for (int i = 0; i < 4000; ++i) {
    input.push_back(static_cast<uint8_t>(i % 16));
  }
  const std::vector<uint8_t> compressed = CompressBlock(input);
  EXPECT_LT(compressed.size(), input.size());
  auto out = DecompressBlock(compressed.data(), compressed.size(), input.size());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, input);
}

TEST(BlockCompressTest, RoundtripIncompressibleAndTiny) {
  Rng rng(7);
  for (size_t size : {0u, 1u, 3u, 5u, 100u, 5000u}) {
    std::vector<uint8_t> input;
    for (size_t i = 0; i < size; ++i) {
      input.push_back(static_cast<uint8_t>(rng.NextIndex(256)));
    }
    const std::vector<uint8_t> compressed = CompressBlock(input);
    auto out =
        DecompressBlock(compressed.data(), compressed.size(), input.size());
    ASSERT_TRUE(out.ok()) << "size " << size << ": " << out.status();
    EXPECT_EQ(*out, input);
  }
}

TEST(BlockCompressTest, RoundtripOverlappingRuns) {
  // RLE-like data exercises overlapping match copies (distance < length).
  std::vector<uint8_t> input(3000, 0xAA);
  const std::vector<uint8_t> compressed = CompressBlock(input);
  EXPECT_LT(compressed.size(), 100u);
  auto out = DecompressBlock(compressed.data(), compressed.size(), input.size());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, input);
}

TEST(BlockCompressTest, CorruptStreamsFailCleanly) {
  std::vector<uint8_t> input(1000, 0x42);
  std::vector<uint8_t> compressed = CompressBlock(input);
  // Truncations.
  for (size_t keep = 0; keep < compressed.size(); keep += 3) {
    auto out = DecompressBlock(compressed.data(), keep, input.size());
    EXPECT_FALSE(out.ok()) << "prefix " << keep;
  }
  // Wrong declared size.
  EXPECT_FALSE(
      DecompressBlock(compressed.data(), compressed.size(), input.size() + 1)
          .ok());
  // Bogus distance: a match token pointing before the start of the block.
  Encoder bogus;
  bogus.PutVarint64(0);   // no literals
  bogus.PutVarint64(8);   // match of 8
  bogus.PutVarint64(50);  // distance 50 with empty history
  EXPECT_FALSE(
      DecompressBlock(bogus.buffer().data(), bogus.buffer().size(), 8).ok());

  // Huge match length crafted to wrap the size guard: must be rejected,
  // not enter an unbounded copy loop.
  Encoder wrap;
  wrap.PutVarint64(1);      // one literal
  wrap.PutVarint64(~0ull);  // match_len that wraps out.size()+lit+match
  wrap.PutFixed8('x');
  wrap.PutVarint64(1);  // distance 1
  EXPECT_FALSE(
      DecompressBlock(wrap.buffer().data(), wrap.buffer().size(), 100).ok());

  // Same for a wrapping literal length.
  Encoder wrap_lit;
  wrap_lit.PutVarint64(~0ull);
  wrap_lit.PutVarint64(0);
  EXPECT_FALSE(
      DecompressBlock(wrap_lit.buffer().data(), wrap_lit.buffer().size(), 100)
          .ok());
}

// -------------------------------------------------------------- Checkpoint

TEST(CheckpointIndexTest, BuildCountsCursorsAndFingerprints) {
  const RecordedExecution recording = MakeSyntheticRecording(100);
  const CheckpointIndex index =
      BuildCheckpointIndex(recording.log, /*interval=*/25,
                           /*events_per_chunk=*/40, /*full_stream=*/true);
  ASSERT_EQ(index.checkpoints.size(), 3u);  // before events 25, 50, 75
  EXPECT_TRUE(index.full_stream);

  const ReplayCheckpoint& cp = index.checkpoints[1];
  EXPECT_EQ(cp.event_index, 50u);
  EXPECT_EQ(cp.chunk_index, 1u);  // event 50 lives in chunk [40, 80)
  EXPECT_EQ(cp.resume_seq, recording.log.events()[50].seq);

  // Cursor state must equal the per-type counts of the prefix.
  uint64_t switches = 0, rngs = 0, inputs = 0, reads = 0;
  Fingerprint fp;
  for (size_t i = 0; i < 50; ++i) {
    const Event& event = recording.log.events()[i];
    fp.Mix(event.SemanticHash());
    switches += event.type == EventType::kContextSwitch;
    rngs += event.type == EventType::kRngDraw;
    inputs += event.type == EventType::kInput;
    reads += event.type == EventType::kSharedRead;
  }
  EXPECT_EQ(cp.schedule_cursor, switches);
  EXPECT_EQ(cp.rng_cursor, rngs);
  EXPECT_EQ(cp.input_cursor, inputs);
  EXPECT_EQ(cp.read_cursor, reads);
  EXPECT_EQ(cp.prefix_fingerprint, fp.value());
}

TEST(CheckpointIndexTest, NearestBefore) {
  const RecordedExecution recording = MakeSyntheticRecording(100);
  const CheckpointIndex index =
      BuildCheckpointIndex(recording.log, 25, 40, true);
  EXPECT_EQ(index.NearestBefore(10), nullptr);
  ASSERT_NE(index.NearestBefore(30), nullptr);
  EXPECT_EQ(index.NearestBefore(30)->event_index, 25u);
  EXPECT_EQ(index.NearestBefore(75)->event_index, 75u);
  EXPECT_EQ(index.NearestBefore(~0ull)->event_index, 75u);
}

TEST(CheckpointIndexTest, EncodeDecodeRoundtrip) {
  const RecordedExecution recording = MakeSyntheticRecording(100);
  const CheckpointIndex index =
      BuildCheckpointIndex(recording.log, 25, 40, true);
  auto decoded = CheckpointIndex::Decode(index.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->full_stream, index.full_stream);
  EXPECT_EQ(decoded->interval, index.interval);
  ASSERT_EQ(decoded->checkpoints.size(), index.checkpoints.size());
  for (size_t i = 0; i < index.checkpoints.size(); ++i) {
    EXPECT_EQ(decoded->checkpoints[i].prefix_fingerprint,
              index.checkpoints[i].prefix_fingerprint);
    EXPECT_EQ(decoded->checkpoints[i].schedule_cursor,
              index.checkpoints[i].schedule_cursor);
  }
}

// -------------------------------------------------------------- TraceStore

TEST(TraceStoreTest, SaveLoadRoundtripsEveryField) {
  const RecordedExecution recording = MakeSyntheticRecording(1000);
  ScopedTracePath path("roundtrip");
  TraceWriteOptions options;
  options.events_per_chunk = 128;
  options.checkpoint_interval = 100;
  ASSERT_TRUE(TraceStore::Save(path.get(), recording, options).ok());

  auto loaded = TraceStore::Load(path.get());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->model, recording.model);
  ASSERT_EQ(loaded->log.size(), recording.log.size());
  EXPECT_EQ(loaded->log.encoded_size_bytes(), recording.log.encoded_size_bytes());
  for (size_t i = 0; i < recording.log.size(); ++i) {
    EXPECT_EQ(loaded->log.events()[i].SemanticHash(),
              recording.log.events()[i].SemanticHash());
    EXPECT_EQ(loaded->log.events()[i].seq, recording.log.events()[i].seq);
    EXPECT_EQ(loaded->log.events()[i].time, recording.log.events()[i].time);
  }
  EXPECT_EQ(loaded->snapshot.failure_fingerprint,
            recording.snapshot.failure_fingerprint);
  EXPECT_EQ(loaded->snapshot.output_fingerprint,
            recording.snapshot.output_fingerprint);
  EXPECT_EQ(loaded->recorded_bytes, recording.recorded_bytes);
  EXPECT_EQ(loaded->overhead_nanos, recording.overhead_nanos);
  EXPECT_EQ(loaded->cpu_nanos, recording.cpu_nanos);
  EXPECT_EQ(loaded->intercepted_events, recording.intercepted_events);
  EXPECT_EQ(loaded->recorded_events, recording.recorded_events);
  EXPECT_DOUBLE_EQ(loaded->OverheadMultiplier(), recording.OverheadMultiplier());

  EXPECT_TRUE(TraceStore::Verify(path.get()).ok());
}

TEST(TraceStoreTest, SerializeIsDeterministic) {
  const RecordedExecution recording = MakeSyntheticRecording(500);
  const TraceWriter writer;
  EXPECT_EQ(writer.Serialize(recording), writer.Serialize(recording));
}

TEST(TraceStoreTest, EmptyLogRoundtrips) {
  RecordedExecution recording;
  recording.model = "failure";  // ESD-style: snapshot only, no events
  recording.snapshot.has_failure = true;
  recording.snapshot.kind = FailureKind::kCrash;
  recording.snapshot.message = "boom";
  recording.snapshot.failure_fingerprint = 0xDEAD;
  ScopedTracePath path("empty");
  ASSERT_TRUE(TraceStore::Save(path.get(), recording).ok());
  auto loaded = TraceStore::Load(path.get());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->log.size(), 0u);
  EXPECT_EQ(loaded->snapshot.message, "boom");
  EXPECT_TRUE(TraceStore::Verify(path.get()).ok());
}

TEST(TraceStoreTest, MissingFileIsNotFound) {
  auto loaded = TraceStore::Load("no_such_trace_file.ddrt");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(TraceStoreTest, DetectsCorruptionAndTruncation) {
  const RecordedExecution recording = MakeSyntheticRecording(1000);
  ScopedTracePath path("corrupt");
  TraceWriteOptions options;
  options.events_per_chunk = 100;
  ASSERT_TRUE(TraceStore::Save(path.get(), recording, options).ok());

  // Read the good image.
  const TraceWriter writer(options);
  std::vector<uint8_t> image = writer.Serialize(recording);

  // Flip one byte in the middle (inside some event chunk): load must fail
  // with a CRC mismatch, not produce garbage events.
  {
    std::vector<uint8_t> bad = image;
    bad[bad.size() / 2] ^= 0x40;
    std::FILE* f = std::fopen(path.get().c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(bad.data(), 1, bad.size(), f);
    std::fclose(f);
    auto loaded = TraceStore::Load(path.get());
    EXPECT_FALSE(loaded.ok());
    EXPECT_FALSE(TraceStore::Verify(path.get()).ok());
  }

  // Truncations at many points: Open or Load must fail cleanly.
  for (size_t keep = 0; keep < image.size(); keep += image.size() / 17 + 1) {
    std::FILE* f = std::fopen(path.get().c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(image.data(), 1, keep, f);
    std::fclose(f);
    EXPECT_FALSE(TraceStore::Load(path.get()).ok()) << "prefix " << keep;
  }
}

TEST(TraceReaderTest, PartialRangeReadsTouchOnlyCoveringChunks) {
  const RecordedExecution recording = MakeSyntheticRecording(10000);
  ScopedTracePath path("partial");
  TraceWriteOptions options;
  options.events_per_chunk = 256;
  options.checkpoint_interval = 512;
  ASSERT_TRUE(TraceStore::Save(path.get(), recording, options).ok());

  auto reader = TraceReader::Open(path.get());
  ASSERT_TRUE(reader.ok());
  const uint64_t open_bytes = reader->bytes_read();
  EXPECT_LT(open_bytes, reader->file_size() / 2);

  auto events = reader->ReadEvents(5000, 100);
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->size(), 100u);
  EXPECT_EQ((*events)[0].seq, recording.log.events()[5000].seq);
  // One chunk of 256 events decoded; nowhere near the whole file.
  EXPECT_LT(reader->bytes_read() - open_bytes, reader->file_size() / 10);

  // A count that would wrap first_event + count saturates to "rest of the
  // trace" instead of silently matching nothing.
  auto tail = reader->ReadEvents(9990, ~0ull);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail->size(), 10u);
}

// The same DDRT file decodes to bit-identical logs through the pread and
// mmap backends, filtered chunks included, and Verify stays green on
// both.
TEST(TraceReaderTest, IoBackendsDecodeBitIdentically) {
  for (TraceFilter filter : {TraceFilter::kNone, TraceFilter::kVarintDelta}) {
    const RecordedExecution recording = MakeSyntheticRecording(3000);
    ScopedTracePath path("backends");
    TraceWriteOptions options;
    options.events_per_chunk = 256;
    options.chunk_filter = filter;
    ASSERT_TRUE(TraceStore::Save(path.get(), recording, options).ok());

    std::vector<std::vector<uint8_t>> logs;
    for (IoBackend backend : {IoBackend::kPread, IoBackend::kMmap}) {
      TraceReaderOptions reader_options;
      reader_options.io.backend = backend;
      auto reader = TraceReader::Open(path.get(), reader_options);
      ASSERT_TRUE(reader.ok()) << reader.status();
      EXPECT_EQ(reader->io_backend(), backend);
      EXPECT_TRUE(reader->Verify().ok()) << IoBackendName(backend);
      auto log = reader->ReadAllEvents();
      ASSERT_TRUE(log.ok()) << log.status();
      logs.push_back(log->Encode());
      EXPECT_GT(reader->bytes_read(), 0u);
    }
    EXPECT_EQ(logs[0], logs[1]);
  }
}

// A TraceReader with an attached ChunkCache decodes every chunk once:
// the second full read costs zero disk bytes.
TEST(TraceReaderTest, AttachedCacheMakesRereadsFree) {
  const RecordedExecution recording = MakeSyntheticRecording(2000);
  ScopedTracePath path("cached");
  TraceWriteOptions options;
  options.events_per_chunk = 128;
  ASSERT_TRUE(TraceStore::Save(path.get(), recording, options).ok());

  TraceReaderOptions reader_options;
  reader_options.cache = std::make_shared<ChunkCache>(16 << 20);
  auto reader = TraceReader::Open(path.get(), reader_options);
  ASSERT_TRUE(reader.ok()) << reader.status();

  auto first = reader->ReadAllEvents();
  ASSERT_TRUE(first.ok());
  const uint64_t cold_bytes = reader->bytes_read();
  const uint64_t chunk_count = reader->chunks().size();
  EXPECT_EQ(reader->cache_misses(), chunk_count);

  auto second = reader->ReadAllEvents();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(reader->bytes_read(), cold_bytes);
  EXPECT_EQ(reader->cache_hits(), chunk_count);
  EXPECT_EQ(first->Encode(), second->Encode());

  // Partial replay through the cached reader is the serve-side use: the
  // second window re-decodes nothing.
  const uint64_t before = reader->bytes_read();
  ASSERT_TRUE(reader->ReadEvents(500, 100).ok());
  EXPECT_EQ(reader->bytes_read(), before);
}

// ------------------------------------------------- Streaming + filters

// The streaming writer produces byte-identical output to the buffered
// Serialize path, whatever the append batching — so recordings streamed
// during a run and recordings serialized afterwards are interchangeable.
TEST(StreamingWriterTest, MatchesBufferedSerializeForBothFilters) {
  const RecordedExecution recording = MakeSyntheticRecording(1000);
  for (TraceFilter filter : {TraceFilter::kNone, TraceFilter::kVarintDelta}) {
    TraceWriteOptions options;
    options.events_per_chunk = 128;
    options.checkpoint_interval = 100;
    options.chunk_filter = filter;
    const std::vector<uint8_t> buffered = TraceWriter(options).Serialize(recording);

    BufferByteSink sink;
    StreamingTraceWriter writer(&sink, options);
    ASSERT_TRUE(writer.Begin().ok());
    const std::vector<Event>& events = recording.log.events();
    for (size_t i = 0; i < events.size();) {
      const size_t batch = std::min<size_t>(1 + i % 53, events.size() - i);
      ASSERT_TRUE(writer.AppendEvents(events.data() + i, batch).ok());
      i += batch;
    }
    ASSERT_TRUE(writer.Finish(FinishInfoFor(recording)).ok());

    EXPECT_EQ(sink.buffer(), buffered)
        << "filter " << static_cast<int>(filter);
    EXPECT_EQ(writer.bytes_written(), buffered.size());
    EXPECT_EQ(writer.events_written(), events.size());
  }
}

TEST(StreamingWriterTest, RejectsOutOfOrderLifecycle) {
  BufferByteSink sink;
  StreamingTraceWriter writer(&sink, {});
  Event event;
  EXPECT_FALSE(writer.AppendEvents(&event, 1).ok());  // before Begin
  ASSERT_TRUE(writer.Begin().ok());
  EXPECT_FALSE(writer.Begin().ok());  // twice
  ASSERT_TRUE(writer.Finish({}).ok());
  EXPECT_FALSE(writer.AppendEvents(&event, 1).ok());  // after Finish
  EXPECT_FALSE(writer.Finish({}).ok());  // twice
}

// The varint-delta chunk filter round-trips every event and beats the
// unfiltered encoding on disk (ddrz alone got only ~1.1x on varint-dense
// chunks; the columnar delta layout is what gives it runs to work with).
TEST(ChunkFilterTest, VarintDeltaRoundtripsAndShrinks) {
  const RecordedExecution recording = MakeSyntheticRecording(4000);
  TraceWriteOptions plain;
  plain.events_per_chunk = 512;
  TraceWriteOptions delta = plain;
  delta.chunk_filter = TraceFilter::kVarintDelta;

  const std::vector<uint8_t> plain_image = TraceWriter(plain).Serialize(recording);
  const std::vector<uint8_t> delta_image = TraceWriter(delta).Serialize(recording);
  EXPECT_LT(delta_image.size(), plain_image.size());

  for (const TraceWriteOptions& options : {plain, delta}) {
    ScopedTracePath path("filter");
    ASSERT_TRUE(TraceStore::Save(path.get(), recording, options).ok());
    auto loaded = TraceStore::Load(path.get());
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    ASSERT_EQ(loaded->log.size(), recording.log.size());
    for (size_t i = 0; i < recording.log.size(); ++i) {
      EXPECT_EQ(loaded->log.events()[i].SemanticHash(),
                recording.log.events()[i].SemanticHash());
      EXPECT_EQ(loaded->log.events()[i].seq, recording.log.events()[i].seq);
      EXPECT_EQ(loaded->log.events()[i].time, recording.log.events()[i].time);
    }
    EXPECT_EQ(loaded->log.encoded_size_bytes(),
              recording.log.encoded_size_bytes());
    EXPECT_TRUE(TraceStore::Verify(path.get()).ok());
  }
}

// Filtered files advertise themselves through the header version, so a
// reader that only understands version 1 diagnoses them cleanly.
TEST(ChunkFilterTest, FilteredFilesStampHeaderVersionTwo) {
  const RecordedExecution recording = MakeSyntheticRecording(100);
  for (TraceFilter filter : {TraceFilter::kNone, TraceFilter::kVarintDelta}) {
    TraceWriteOptions options;
    options.chunk_filter = filter;
    const std::vector<uint8_t> image = TraceWriter(options).Serialize(recording);
    Decoder decoder(image.data(), 8);
    ASSERT_TRUE(decoder.GetFixed32().ok());
    auto version = decoder.GetFixed32();
    ASSERT_TRUE(version.ok());
    EXPECT_EQ(*version, filter == TraceFilter::kNone
                            ? kTraceFormatVersion
                            : kTraceFormatVersionFiltered);
  }
}

// A crafted type byte must fail at Event::DecodeFrom (the row-path decode
// chokepoint), never reach EventLog's per-type counter array.
TEST(ChunkFilterTest, CraftedEventTypeFailsCleanly) {
  Encoder encoder;
  encoder.PutVarint64(0);    // seq
  encoder.PutVarint64(0);    // time
  encoder.PutVarint64(0);    // fiber
  encoder.PutVarint64(0);    // node
  encoder.PutFixed8(200);    // type far past kNodeCrash
  encoder.PutVarint64(0);    // obj
  encoder.PutVarint64(0);    // value
  encoder.PutVarint64(0);    // aux
  encoder.PutVarint64(0);    // region
  encoder.PutVarint64(0);    // bytes
  Decoder decoder(encoder.buffer());
  auto decoded = Event::DecodeFrom(&decoder);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

// A self-consistent but crafted columnar count must fail with a Status in
// the guard, not abort inside the up-front event allocation.
TEST(ChunkFilterTest, CraftedColumnarCountFailsCleanly) {
  Encoder encoder;
  encoder.PutVarint64(0);    // first_event
  encoder.PutVarint64(500);  // count far beyond what the payload can hold
  for (int i = 0; i < 100; ++i) {
    encoder.PutFixed8(0);
  }
  auto decoded = DecodeEventChunkPayload(encoder.buffer(),
                                         TraceFilter::kVarintDelta,
                                         /*expected_first=*/0,
                                         /*expected_count=*/500);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(ChunkFilterTest, CorruptDeltaChunksFailCleanly) {
  const RecordedExecution recording = MakeSyntheticRecording(1000);
  TraceWriteOptions options;
  options.events_per_chunk = 100;
  options.chunk_filter = TraceFilter::kVarintDelta;
  const std::vector<uint8_t> image = TraceWriter(options).Serialize(recording);

  ScopedTracePath path("deltacorrupt");
  std::vector<uint8_t> bad = image;
  bad[bad.size() / 2] ^= 0x10;
  std::FILE* f = std::fopen(path.get().c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(bad.data(), 1, bad.size(), f);
  std::fclose(f);
  EXPECT_FALSE(TraceStore::Load(path.get()).ok());
  EXPECT_FALSE(TraceStore::Verify(path.get()).ok());
}

// All fields of two decoded events must agree, not just the semantic hash
// (which excludes seq/time by design).
void ExpectEventsIdentical(const std::vector<Event>& a,
                           const std::vector<Event>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seq, b[i].seq) << "event " << i;
    EXPECT_EQ(a[i].time, b[i].time) << "event " << i;
    EXPECT_EQ(a[i].fiber, b[i].fiber) << "event " << i;
    EXPECT_EQ(a[i].node, b[i].node) << "event " << i;
    EXPECT_EQ(a[i].type, b[i].type) << "event " << i;
    EXPECT_EQ(a[i].obj, b[i].obj) << "event " << i;
    EXPECT_EQ(a[i].value, b[i].value) << "event " << i;
    EXPECT_EQ(a[i].aux, b[i].aux) << "event " << i;
    EXPECT_EQ(a[i].region, b[i].region) << "event " << i;
    EXPECT_EQ(a[i].bytes, b[i].bytes) << "event " << i;
  }
}

// The batched columnar decoder is only a speedup if it is observationally
// equal to the scalar reference: identical events from good payloads.
TEST(ChunkFilterTest, ScalarAndBatchedDecodeBitIdentical) {
  const RecordedExecution recording = MakeSyntheticRecording(1500);
  const std::vector<Event>& events = recording.log.events();
  for (const TraceFilter filter :
       {TraceFilter::kNone, TraceFilter::kVarintDelta}) {
    const std::vector<uint8_t> payload = EncodeEventChunkPayload(
        events.data(), events.size(), /*first_event=*/0, filter);
    auto scalar = DecodeEventChunkPayloadWithPath(
        payload, filter, 0, events.size(), ColumnarDecodePath::kScalar);
    auto batched = DecodeEventChunkPayloadWithPath(
        payload, filter, 0, events.size(), ColumnarDecodePath::kBatched);
    ASSERT_TRUE(scalar.ok()) << scalar.status();
    ASSERT_TRUE(batched.ok()) << batched.status();
    ExpectEventsIdentical(*scalar, *batched);
    ExpectEventsIdentical(*batched, events);
  }

  // Real recordings: every grid scenario x model log, cut into chunks of
  // the writer's default size and encoded columnar, decodes identically
  // on both paths.
  const uint64_t chunk = TraceWriteOptions{}.events_per_chunk;
  for (const BugScenario& scenario : AllBugScenarios()) {
    ExperimentHarness harness(scenario);
    ASSERT_TRUE(harness.Prepare().ok()) << scenario.name;
    for (const DeterminismModel model : AllDeterminismModels()) {
      const RecordedExecution real = harness.Record(model);
      const std::vector<Event>& log = real.log.events();
      for (uint64_t first = 0; first < log.size(); first += chunk) {
        const uint64_t count = std::min<uint64_t>(chunk, log.size() - first);
        const std::vector<uint8_t> payload = EncodeEventChunkPayload(
            log.data() + first, count, first, TraceFilter::kVarintDelta);
        auto scalar = DecodeEventChunkPayloadWithPath(
            payload, TraceFilter::kVarintDelta, first, count,
            ColumnarDecodePath::kScalar);
        auto batched = DecodeEventChunkPayloadWithPath(
            payload, TraceFilter::kVarintDelta, first, count,
            ColumnarDecodePath::kBatched);
        ASSERT_TRUE(scalar.ok()) << scalar.status();
        ASSERT_TRUE(batched.ok()) << batched.status();
        ExpectEventsIdentical(*scalar, *batched);
        ExpectEventsIdentical(
            *batched, std::vector<Event>(log.begin() + first,
                                         log.begin() + first + count));
      }
    }
  }
}

// The count clamp must fire before the up-front vector allocation for
// absurd counts too — 2^60 would otherwise be a ~74 EiB resize — on both
// decode paths.
TEST(ChunkFilterTest, CraftedHugeColumnarCountFailsOnBothPaths) {
  Encoder encoder;
  encoder.PutVarint64(0);           // first_event
  encoder.PutVarint64(1ull << 60);  // count
  for (int i = 0; i < 64; ++i) {
    encoder.PutFixed8(0);
  }
  for (const ColumnarDecodePath path :
       {ColumnarDecodePath::kScalar, ColumnarDecodePath::kBatched}) {
    auto decoded = DecodeEventChunkPayloadWithPath(
        encoder.buffer(), TraceFilter::kVarintDelta,
        /*expected_first=*/0, /*expected_count=*/1ull << 60, path);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
}

// Deterministic corruption sweep over a columnar payload: truncate at
// every stride boundary and flip a byte at every stride. Each mutant must
// decode to a Status — never crash, never read out of bounds (ASan/UBSan
// jobs run this) — and the two decode paths must agree: same ok-ness,
// and identical events whenever a mutant still parses (a value-column
// flip is caught by the chunk CRC one layer up, not here).
TEST(ChunkFilterTest, CorruptionSweepAgreesAcrossDecodePaths) {
  const RecordedExecution recording = MakeSyntheticRecording(600, /*seed=*/7);
  const std::vector<Event>& events = recording.log.events();
  const std::vector<uint8_t> payload = EncodeEventChunkPayload(
      events.data(), events.size(), /*first_event=*/0,
      TraceFilter::kVarintDelta);

  const auto decode_both = [&](const std::vector<uint8_t>& bytes,
                               const char* what, size_t at) {
    auto scalar = DecodeEventChunkPayloadWithPath(
        bytes, TraceFilter::kVarintDelta, 0, events.size(),
        ColumnarDecodePath::kScalar);
    auto batched = DecodeEventChunkPayloadWithPath(
        bytes, TraceFilter::kVarintDelta, 0, events.size(),
        ColumnarDecodePath::kBatched);
    ASSERT_EQ(scalar.ok(), batched.ok()) << what << " at " << at;
    if (scalar.ok()) {
      ExpectEventsIdentical(*scalar, *batched);
    }
  };

  for (size_t keep = 0; keep < payload.size();
       keep += payload.size() / 97 + 1) {
    std::vector<uint8_t> truncated(payload.begin(), payload.begin() + keep);
    decode_both(truncated, "truncate", keep);
  }
  for (size_t pos = 0; pos < payload.size(); pos += payload.size() / 211 + 1) {
    std::vector<uint8_t> flipped = payload;
    flipped[pos] ^= 0x20;
    decode_both(flipped, "flip", pos);
  }
}

TEST(TraceWriterTest, WriteFileIsAtomic) {
  const RecordedExecution recording = MakeSyntheticRecording(200);
  ScopedTracePath path("atomicfile");
  ASSERT_TRUE(TraceWriter().WriteFile(path.get(), recording).ok());
  EXPECT_TRUE(TraceStore::Verify(path.get()).ok());

  // An unwritable destination directory fails with a Status and leaves
  // nothing behind at the target path.
  const std::string bad_path = "no_such_dir_for_traces/x.ddrt";
  EXPECT_FALSE(TraceWriter().WriteFile(bad_path, recording).ok());
  std::ifstream target(bad_path, std::ios::binary);
  EXPECT_FALSE(target.good());
}

TEST(TraceWriterTest, AbandonedSinkRemovesItsTempFile) {
  ScopedTracePath path("abandoned");
  std::string tmp_path;
  {
    AtomicFileSink sink(path.get());
    const uint8_t byte = 0x42;
    ASSERT_TRUE(sink.Append(&byte, 1).ok());
    tmp_path = sink.tmp_path();
    std::ifstream tmp(tmp_path, std::ios::binary);
    EXPECT_TRUE(tmp.good());
    // No Close(): destruction must discard the temp and never publish.
  }
  std::ifstream tmp(tmp_path, std::ios::binary);
  EXPECT_FALSE(tmp.good());
  std::ifstream target(path.get(), std::ios::binary);
  EXPECT_FALSE(target.good());
}

// Streaming a recorder through the harness bounds recorder memory (the
// in-memory log stays empty) and produces a trace whose decoded contents
// equal the buffered SaveRecording path.
TEST(StreamingWriterTest, HarnessRecordStreamingMatchesBufferedSave) {
  BugScenario scenario = MakeMsgDropScenario();
  ExperimentHarness harness(scenario);
  ASSERT_TRUE(harness.Prepare().ok());

  const RecordedExecution buffered = harness.Record(DeterminismModel::kPerfect);
  ScopedTracePath buffered_path("streamharness_buf");
  ASSERT_TRUE(harness.SaveRecording(buffered, buffered_path.get()).ok());

  ScopedTracePath streamed_path("streamharness_stream");
  {
    TraceWriteOptions options;
    options.scenario = scenario.name;
    AtomicFileSink sink(streamed_path.get());
    StreamingTraceWriter writer(&sink, options);
    ASSERT_TRUE(writer.Begin().ok());
    auto info = harness.RecordStreaming(DeterminismModel::kPerfect, &writer);
    ASSERT_TRUE(info.ok()) << info.status();
    ASSERT_TRUE(writer.Finish(*info).ok());
    EXPECT_EQ(writer.events_written(), buffered.log.size());
  }

  auto from_buffered = TraceReader::Open(buffered_path.get());
  auto from_streamed = TraceReader::Open(streamed_path.get());
  ASSERT_TRUE(from_buffered.ok());
  ASSERT_TRUE(from_streamed.ok()) << from_streamed.status();
  EXPECT_TRUE(from_streamed->Verify().ok());

  // Identical metadata (bar the real-time wall stamp) and identical logs.
  EXPECT_EQ(from_streamed->metadata().model, from_buffered->metadata().model);
  EXPECT_EQ(from_streamed->metadata().scenario,
            from_buffered->metadata().scenario);
  EXPECT_EQ(from_streamed->metadata().event_count,
            from_buffered->metadata().event_count);
  EXPECT_EQ(from_streamed->metadata().recorded_events,
            from_buffered->metadata().recorded_events);
  EXPECT_EQ(from_streamed->metadata().intercepted_events,
            from_buffered->metadata().intercepted_events);
  auto streamed_log = from_streamed->ReadAllEvents();
  ASSERT_TRUE(streamed_log.ok());
  ASSERT_EQ(streamed_log->size(), buffered.log.size());
  for (size_t i = 0; i < buffered.log.size(); ++i) {
    EXPECT_EQ(streamed_log->events()[i].SemanticHash(),
              buffered.log.events()[i].SemanticHash());
  }
}

// ------------------------------------------------- Harness + acceptance

// Saved-and-reloaded recording replays to the same failure and output
// fingerprints as the in-memory original, for every determinism model's
// direct replay path + the inference paths.
TEST(TraceRoundtripReplayTest, ReloadedRecordingReplaysIdentically) {
  BugScenario scenario = MakeSumScenario();
  ExperimentHarness harness(scenario);
  ASSERT_TRUE(harness.Prepare().ok());

  for (DeterminismModel model :
       {DeterminismModel::kPerfect, DeterminismModel::kValue,
        DeterminismModel::kFailure}) {
    const RecordedExecution recording = harness.Record(model);
    ScopedTracePath path(std::string("replay_") +
                         std::string(DeterminismModelName(model)));
    ASSERT_TRUE(harness.SaveRecording(recording, path.get()).ok());
    auto loaded = ExperimentHarness::LoadRecording(path.get());
    ASSERT_TRUE(loaded.ok()) << loaded.status();

    ReplayTarget target;
    target.make_program = scenario.make_program;
    target.env_options = scenario.env_options;
    target.candidate_fault_plans = scenario.candidate_fault_plans;
    target.input_domains = scenario.input_domains;
    target.symbolic_model = scenario.symbolic_model;

    const ReplayMode mode = ReplayModeFor(model);
    ReplayResult original = Replayer(target).Replay(recording, mode);
    ReplayResult reloaded = Replayer(target).Replay(*loaded, mode);

    EXPECT_EQ(reloaded.failure_reproduced, original.failure_reproduced)
        << DeterminismModelName(model);
    EXPECT_EQ(reloaded.outcome.output_fingerprint,
              original.outcome.output_fingerprint)
        << DeterminismModelName(model);
    EXPECT_EQ(reloaded.outcome.trace_fingerprint,
              original.outcome.trace_fingerprint)
        << DeterminismModelName(model);
    const FailureInfo* original_failure = original.outcome.primary_failure();
    const FailureInfo* reloaded_failure = reloaded.outcome.primary_failure();
    ASSERT_EQ(original_failure == nullptr, reloaded_failure == nullptr);
    if (original_failure != nullptr) {
      EXPECT_EQ(reloaded_failure->Fingerprint(), original_failure->Fingerprint());
    }
    EXPECT_EQ(reloaded.divergences, original.divergences);
  }
}

// The harness-level one-call disk round trip scores like the in-memory path.
TEST(TraceRoundtripReplayTest, RunModelFromFileMatchesRunModel) {
  ExperimentHarness harness(MakeSumScenario());
  ASSERT_TRUE(harness.Prepare().ok());

  const ExperimentRow in_memory = harness.RunModel(DeterminismModel::kPerfect);
  ScopedTracePath path("runmodel");
  auto from_file =
      harness.RunModelFromFile(DeterminismModel::kPerfect, path.get());
  ASSERT_TRUE(from_file.ok()) << from_file.status();

  EXPECT_EQ(from_file->failure_reproduced, in_memory.failure_reproduced);
  EXPECT_EQ(from_file->divergences, in_memory.divergences);
  EXPECT_EQ(from_file->log_bytes, in_memory.log_bytes);
  EXPECT_EQ(from_file->recorded_events, in_memory.recorded_events);
  EXPECT_DOUBLE_EQ(from_file->fidelity, in_memory.fidelity);
  EXPECT_EQ(from_file->diagnosed_cause, in_memory.diagnosed_cause);
}

// The I/O-layer partial-replay entry point: replaying straight off a
// cached TraceReader matches the in-memory PartialReplay result, and a
// second window against the same reader decodes nothing new.
TEST(PartialReplayTest, PartialReplayFromTraceMatchesInMemoryAndCaches) {
  BugScenario scenario = MakeMsgDropScenario();
  ExperimentHarness harness(scenario);
  ASSERT_TRUE(harness.Prepare().ok());
  const RecordedExecution recording = harness.Record(DeterminismModel::kPerfect);
  ASSERT_GT(recording.log.size(), 64u);

  ScopedTracePath path("fromtrace");
  TraceWriteOptions options;
  options.events_per_chunk = 64;
  options.checkpoint_interval = recording.log.size() / 3;
  ASSERT_TRUE(harness.SaveRecording(recording, path.get(), options).ok());

  TraceReaderOptions reader_options;
  reader_options.cache = std::make_shared<ChunkCache>(16 << 20);
  auto reader = TraceReader::Open(path.get(), reader_options);
  ASSERT_TRUE(reader.ok()) << reader.status();
  ASSERT_GE(reader->checkpoints().checkpoints.size(), 2u);
  const uint64_t target =
      reader->checkpoints().checkpoints.back().event_index;

  ReplayTarget replay_target;
  replay_target.make_program = scenario.make_program;
  replay_target.env_options = scenario.env_options;
  Replayer replayer(replay_target);

  auto loaded = reader->ReadRecordedExecution();
  ASSERT_TRUE(loaded.ok());
  const ReplayResult in_memory =
      replayer.PartialReplay(*loaded, reader->checkpoints(), target);

  const uint64_t warm_bytes = reader->bytes_read();
  auto from_trace = replayer.PartialReplayFromTrace(*reader, target);
  ASSERT_TRUE(from_trace.ok()) << from_trace.status();
  // The reader had already decoded every chunk: this window was free.
  EXPECT_EQ(reader->bytes_read(), warm_bytes);

  EXPECT_TRUE(from_trace->partial);
  EXPECT_EQ(from_trace->started_from_event, in_memory.started_from_event);
  EXPECT_TRUE(from_trace->fast_forward_verified);
  EXPECT_EQ(from_trace->outcome.trace_fingerprint,
            in_memory.outcome.trace_fingerprint);
  EXPECT_EQ(from_trace->outcome.output_fingerprint,
            in_memory.outcome.output_fingerprint);
  EXPECT_EQ(from_trace->trace.size(), in_memory.trace.size());
}

// Partial replay from a mid-trace checkpoint reaches the same outcome as
// full replay, verifies the fast-forward against the checkpoint, and
// collects exactly the suffix of the full trace.
TEST(PartialReplayTest, CheckpointedReplayMatchesFullReplay) {
  BugScenario scenario = MakeMsgDropScenario();
  ExperimentHarness harness(scenario);
  ASSERT_TRUE(harness.Prepare().ok());

  const RecordedExecution recording = harness.Record(DeterminismModel::kPerfect);
  ASSERT_GT(recording.log.size(), 64u) << "scenario too small to checkpoint";

  // Persist with a checkpoint interval that guarantees mid-trace points.
  ScopedTracePath path("checkpointed");
  TraceWriteOptions options;
  options.events_per_chunk = 64;
  options.checkpoint_interval = recording.log.size() / 4;
  ASSERT_TRUE(harness.SaveRecording(recording, path.get(), options).ok());

  auto reader = TraceReader::Open(path.get());
  ASSERT_TRUE(reader.ok());
  const CheckpointIndex& index = reader->checkpoints();
  ASSERT_GE(index.checkpoints.size(), 2u);
  ASSERT_TRUE(index.full_stream);
  auto recording_or = reader->ReadRecordedExecution();
  ASSERT_TRUE(recording_or.ok());

  ReplayTarget target;
  target.make_program = scenario.make_program;
  target.env_options = scenario.env_options;

  Replayer full_replayer(target);
  const ReplayResult full =
      full_replayer.Replay(*recording_or, ReplayMode::kPerfect);

  // Partial replay from every checkpoint: identical outcome, suffix trace.
  for (const ReplayCheckpoint& cp : index.checkpoints) {
    Replayer partial_replayer(target);
    const ReplayResult partial = partial_replayer.PartialReplay(
        *recording_or, index, cp.event_index, ReplayMode::kPerfect);

    EXPECT_TRUE(partial.partial);
    EXPECT_EQ(partial.started_from_event, cp.event_index);
    EXPECT_TRUE(partial.fast_forward_verified)
        << "checkpoint @" << cp.event_index
        << ": fast-forward did not land on the recorded state";

    // Same outcome as full replay.
    EXPECT_EQ(partial.outcome.trace_fingerprint, full.outcome.trace_fingerprint);
    EXPECT_EQ(partial.outcome.output_fingerprint,
              full.outcome.output_fingerprint);
    EXPECT_EQ(partial.failure_reproduced, full.failure_reproduced);
    EXPECT_EQ(partial.divergences, full.divergences);

    // The collected trace is exactly the suffix of the full trace.
    ASSERT_EQ(partial.trace.size() + cp.resume_seq, full.trace.size());
    for (size_t i = 0; i < partial.trace.size(); ++i) {
      ASSERT_EQ(partial.trace[i].SemanticHash(),
                full.trace[cp.resume_seq + i].SemanticHash())
          << "suffix event " << i;
    }
  }

  // A target before the first checkpoint falls back to full replay.
  Replayer fallback_replayer(target);
  const ReplayResult fallback =
      fallback_replayer.PartialReplay(*recording_or, index, 1);
  EXPECT_FALSE(fallback.partial);
  EXPECT_EQ(fallback.trace.size(), full.trace.size());
}

}  // namespace
}  // namespace ddr
