// Tests for src/trace: the DDRT file format (chunking, compression, CRCs,
// footer index), WriteTraceFile / TraceReader round-trips, harness
// save/load hooks, and checkpointed partial replay of a reloaded trace
// (checkpoints computed from the log by CheckpointAt).
//
// The acceptance property: a RecordedExecution saved via WriteTraceFile
// and reloaded from disk replays to the same failure fingerprint and output
// fingerprint as the in-memory original, and partial replay from any
// mid-trace event reaches the same outcome as full replay.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include "src/apps/scenarios.h"
#include "src/core/experiment.h"
#include "src/replay/replayer.h"
#include "src/trace/block_compress.h"
#include "src/trace/chunk_codec.h"
#include "src/trace/streaming_writer.h"
#include "src/trace/trace_reader.h"
#include "src/util/crc32.h"
#include "src/util/rng.h"
#include "src/util/string_util.h"
#include "tests/trace_forge.h"

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

Result<RecordedExecution> LoadTrace(const std::string& path) {
  ASSIGN_OR_RETURN(TraceReader reader, TraceReader::Open(path));
  return reader.ReadRecordedExecution();
}

Status VerifyTrace(const std::string& path) {
  ASSIGN_OR_RETURN(TraceReader reader, TraceReader::Open(path));
  return reader.Verify();
}

void WriteBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  if (!bytes.empty()) {  // an empty vector's data() may be null
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  ASSERT_EQ(std::fclose(f), 0);
}

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

TEST(CheckpointAtTest, CountsCursorsAndFingerprints) {
  const RecordedExecution recording = MakeSyntheticRecording(100);
  // Off the old 25-event grid on purpose: any event can be a checkpoint.
  const ReplayCheckpoint cp = CheckpointAt(recording.log, 53);
  EXPECT_EQ(cp.resume_seq, recording.log.events()[53].seq);

  // Cursor state must equal the per-type counts of the prefix [0, 53).
  uint64_t switches = 0, rngs = 0, inputs = 0, reads = 0;
  Fingerprint fp;
  for (size_t i = 0; i < 53; ++i) {
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

  // The checkpoint before event 0 has an empty prefix.
  const ReplayCheckpoint first = CheckpointAt(recording.log, 0);
  EXPECT_EQ(first.resume_seq, recording.log.events()[0].seq);
  EXPECT_EQ(first.prefix_fingerprint, Fingerprint().value());
  EXPECT_EQ(first.schedule_cursor + first.rng_cursor + first.input_cursor +
                first.read_cursor,
            0u);
}

// ------------------------------------------------------ whole-file writes

TEST(TraceFileTest, SaveLoadRoundtripsEveryField) {
  const RecordedExecution recording = MakeSyntheticRecording(1000);
  ScopedTracePath path("roundtrip");
  TraceWriteOptions options;
  options.events_per_chunk = 128;
  ASSERT_TRUE(WriteTraceFile(path.get(), recording, options).ok());

  auto loaded = LoadTrace(path.get());
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

  EXPECT_TRUE(VerifyTrace(path.get()).ok());
}

TEST(TraceFileTest, SerializeIsDeterministic) {
  const RecordedExecution recording = MakeSyntheticRecording(500);
  EXPECT_EQ(SerializeTrace(recording), SerializeTrace(recording));
}

TEST(TraceFileTest, EmptyLogRoundtrips) {
  RecordedExecution recording;
  recording.model = "failure";  // ESD-style: snapshot only, no events
  recording.snapshot.has_failure = true;
  recording.snapshot.kind = FailureKind::kCrash;
  recording.snapshot.message = "boom";
  recording.snapshot.failure_fingerprint = 0xDEAD;
  ScopedTracePath path("empty");
  ASSERT_TRUE(WriteTraceFile(path.get(), recording).ok());
  auto loaded = LoadTrace(path.get());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->log.size(), 0u);
  EXPECT_EQ(loaded->snapshot.message, "boom");
  EXPECT_TRUE(VerifyTrace(path.get()).ok());
}

// The writer's bytes, pinned: the CRC-32 of SerializeTrace for six
// recording shapes — an empty log, a log shorter than one chunk, many
// chunks, a subset log with scenario and wall time stamped, an odd chunk
// size, and chunk size 0 (clamped to 512). Any change to these digests is
// a format change, not a refactor. WriteTraceFile must land the same
// bytes on disk.
TEST(TraceFileTest, SerializedBytesArePinned) {
  struct Shape {
    const char* name;
    RecordedExecution recording;
    TraceWriteOptions options;
    uint32_t crc;
  };
  auto options = [](uint64_t events_per_chunk) {
    TraceWriteOptions out;
    out.events_per_chunk = events_per_chunk;
    return out;
  };
  RecordedExecution empty = MakeSyntheticRecording(0);
  empty.snapshot.has_failure = true;
  empty.snapshot.kind = FailureKind::kCrash;
  empty.snapshot.message = "boom";
  empty.snapshot.failure_fingerprint = 0xDEAD;
  RecordedExecution subset = MakeSyntheticRecording(300);
  subset.model = "value";
  subset.intercepted_events = 1000;
  TraceWriteOptions subset_options = options(64);
  subset_options.scenario = "synthetic-scenario";
  subset_options.original_wall_seconds = 0.25;

  const Shape shapes[] = {
      {"empty", empty, {}, 2995177558u},
      {"seven", MakeSyntheticRecording(7), {}, 897849614u},
      {"chunked", MakeSyntheticRecording(1024), options(128), 3883913479u},
      {"subset", subset, subset_options, 2677488034u},
      {"odd-chunk", MakeSyntheticRecording(100), options(7), 958574500u},
      {"clamped", MakeSyntheticRecording(1500), options(0), 900949197u},
  };
  ScopedTracePath path("pinned");
  for (const Shape& shape : shapes) {
    const std::vector<uint8_t> image =
        SerializeTrace(shape.recording, shape.options);
    EXPECT_EQ(Crc32(image.data(), image.size()), shape.crc) << shape.name;
    ASSERT_TRUE(
        WriteTraceFile(path.get(), shape.recording, shape.options).ok());
    std::ifstream in(path.get(), std::ios::binary);
    const std::vector<uint8_t> written((std::istreambuf_iterator<char>(in)),
                                       std::istreambuf_iterator<char>());
    EXPECT_EQ(written, image) << shape.name;
  }
}

TEST(TraceFileTest, MissingFileIsNotFound) {
  auto loaded = LoadTrace("no_such_trace_file.ddrt");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(TraceFileTest, DetectsCorruptionAndTruncation) {
  const RecordedExecution recording = MakeSyntheticRecording(1000);
  ScopedTracePath path("corrupt");
  TraceWriteOptions options;
  options.events_per_chunk = 100;
  const std::vector<uint8_t> image = SerializeTrace(recording, options);

  // Flip one byte in the middle (inside some event chunk): load must fail
  // with a CRC mismatch, not produce garbage events.
  {
    std::vector<uint8_t> bad = image;
    bad[bad.size() / 2] ^= 0x40;
    WriteBytes(path.get(), bad);
    EXPECT_FALSE(LoadTrace(path.get()).ok());
    EXPECT_FALSE(VerifyTrace(path.get()).ok());
  }

  // Truncations at many points: Open or Load must fail cleanly.
  for (size_t keep = 0; keep < image.size(); keep += image.size() / 17 + 1) {
    WriteBytes(path.get(),
               std::vector<uint8_t>(image.begin(), image.begin() + keep));
    EXPECT_FALSE(LoadTrace(path.get()).ok()) << "prefix " << keep;
  }
}

// A CRC-valid footer whose chunk table does not tile [0, total_events),
// or whose event count disagrees with the metadata, is rejected by Open
// itself: no read path ever sees the forged table.
TEST(TraceReaderTest, OpenRejectsForgedChunkTable) {
  TraceWriteOptions options;
  options.events_per_chunk = 128;
  const std::vector<uint8_t> image =
      SerializeTrace(MakeSyntheticRecording(384), options);
  ScopedTracePath scratch("forge_scratch");
  ScopedTracePath path("forged_chunks");
  auto open_forged = [&](const TraceForgery& forge) {
    WriteBytes(path.get(), ForgeTrace(image, scratch.get(), forge));
    return TraceReader::Open(path.get()).status();
  };

  // Control: re-sealing without an edit yields a trace that opens and
  // verifies, so each rejection below is the edit's doing.
  EXPECT_TRUE(open_forged([](TraceMetadata*, TraceFooter*) {}).ok());
  EXPECT_TRUE(VerifyTrace(path.get()).ok());

  const TraceForgery forgeries[] = {
      // The first chunk listed twice, totals raised to match.
      [](TraceMetadata* meta, TraceFooter* footer) {
        footer->chunks.insert(footer->chunks.begin() + 1, footer->chunks[0]);
        footer->total_events += 128;
        meta->event_count = footer->total_events;
      },
      // A chunk dropped: a gap in the middle of the log.
      [](TraceMetadata* meta, TraceFooter* footer) {
        footer->chunks.erase(footer->chunks.begin() + 1);
        footer->total_events -= 128;
        meta->event_count = footer->total_events;
      },
      // Counts that wrap the running sum back onto the claimed total.
      [](TraceMetadata* meta, TraceFooter* footer) {
        footer->chunks[0].event_count = ~0ull - 127;
        footer->chunks[1].first_event = ~0ull - 127;
        footer->chunks[1].event_count = 256;
        footer->chunks.resize(2);
        footer->total_events = 128;
        meta->event_count = 128;
      },
      // A sound table, but metadata claiming another count.
      [](TraceMetadata* meta, TraceFooter*) {
        meta->event_count += 1;
      },
  };
  for (size_t i = 0; i < std::size(forgeries); ++i) {
    const Status status = open_forged(forgeries[i]);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << "forgery " << i << ": " << status;
  }
}

TEST(TraceReaderTest, PartialRangeReadsTouchOnlyCoveringChunks) {
  const RecordedExecution recording = MakeSyntheticRecording(10000);
  ScopedTracePath path("partial");
  TraceWriteOptions options;
  options.events_per_chunk = 256;
  ASSERT_TRUE(WriteTraceFile(path.get(), recording, options).ok());

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
// mmap backends, and Verify stays green on both.
TEST(TraceReaderTest, IoBackendsDecodeBitIdentically) {
  const RecordedExecution recording = MakeSyntheticRecording(3000);
  ScopedTracePath path("backends");
  TraceWriteOptions options;
  options.events_per_chunk = 256;
  ASSERT_TRUE(WriteTraceFile(path.get(), recording, options).ok());

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

// A TraceReader with an attached ChunkCache decodes every chunk once:
// the second full read costs zero disk bytes.
TEST(TraceReaderTest, AttachedCacheMakesRereadsFree) {
  const RecordedExecution recording = MakeSyntheticRecording(2000);
  ScopedTracePath path("cached");
  TraceWriteOptions options;
  options.events_per_chunk = 128;
  ASSERT_TRUE(WriteTraceFile(path.get(), recording, options).ok());

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

// ------------------------------------------------------------- Chunk codec

// The columnar varint-delta chunk layout round-trips every event.
TEST(ChunkFilterTest, VarintDeltaRoundtrips) {
  const RecordedExecution recording = MakeSyntheticRecording(4000);
  TraceWriteOptions options;
  options.events_per_chunk = 512;
  ScopedTracePath path("filter");
  ASSERT_TRUE(WriteTraceFile(path.get(), recording, options).ok());
  auto loaded = LoadTrace(path.get());
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
  EXPECT_TRUE(VerifyTrace(path.get()).ok());
}

uint32_t HeaderVersion(const std::vector<uint8_t>& image) {
  Decoder decoder(image.data(), kTraceHeaderBytes);
  EXPECT_TRUE(decoder.GetFixed32().ok());
  auto version = decoder.GetFixed32();
  EXPECT_TRUE(version.ok());
  return version.ok() ? *version : 0;
}

// Every image is format version 3, whatever the options.
TEST(ChunkFilterTest, EveryImageStampsHeaderVersionThree) {
  const RecordedExecution recording = MakeSyntheticRecording(100);
  TraceWriteOptions small_chunks;
  small_chunks.events_per_chunk = 7;
  for (const TraceWriteOptions& options : {TraceWriteOptions{}, small_chunks}) {
    EXPECT_EQ(HeaderVersion(SerializeTrace(recording, options)), 3u);
  }
  EXPECT_EQ(HeaderVersion(SerializeTrace(RecordedExecution{})), 3u);
}

// The footer of a serialized image, parsed straight from its bytes: the
// trailer's offset, then the raw footer section's payload.
Result<TraceFooter> FooterOf(const std::vector<uint8_t>& image) {
  Decoder trailer(image.data() + image.size() - kTraceTrailerBytes,
                  kTraceTrailerBytes);
  ASSIGN_OR_RETURN(uint64_t offset, trailer.GetFixed64());
  Decoder section(image.data() + offset, image.size() - offset);
  RETURN_IF_ERROR(section.GetBytes(2).status());  // kind, filter/codec
  RETURN_IF_ERROR(section.GetVarint64().status());
  ASSIGN_OR_RETURN(uint64_t stored, section.GetVarint64());
  ASSIGN_OR_RETURN(const uint8_t* payload, section.GetBytes(stored));
  return TraceFooter::Decode(std::span<const uint8_t>(payload, stored));
}

// The filter nibble sits in the section framing, outside the payload CRC,
// so the reader checks it against the section kind: a flipped nibble is a
// loud error, never a silent reinterpretation of the payload.
TEST(ChunkFilterTest, FilterNibbleMustMatchSectionKind) {
  const RecordedExecution recording = MakeSyntheticRecording(1000);
  TraceWriteOptions options;
  options.events_per_chunk = 100;
  const std::vector<uint8_t> image = SerializeTrace(recording, options);
  auto footer = FooterOf(image);
  ASSERT_TRUE(footer.ok()) << footer.status();
  ASSERT_FALSE(footer->chunks.empty());
  ScopedTracePath path("nibble");

  // An event chunk claiming no filter: metadata still opens, but reading
  // or verifying the chunk fails.
  std::vector<uint8_t> bad = image;
  const size_t chunk_codec_byte = footer->chunks[3].file_offset + 1;
  ASSERT_EQ(bad[chunk_codec_byte] >> 4, 1);
  bad[chunk_codec_byte] &= 0x0F;
  WriteBytes(path.get(), bad);
  auto reader = TraceReader::Open(path.get());
  ASSERT_TRUE(reader.ok()) << reader.status();
  const Status verified = reader->Verify();
  EXPECT_EQ(verified.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(verified.message().find("filter"), std::string::npos)
      << verified.ToString();
  EXPECT_FALSE(reader->ReadEvents(300, 10).ok());
  EXPECT_TRUE(reader->ReadEvents(0, 10).ok());  // untouched chunk

  // A metadata section claiming varint-delta: Open fails.
  bad = image;
  const size_t meta_codec_byte = footer->metadata_offset + 1;
  ASSERT_EQ(bad[meta_codec_byte] >> 4, 0);
  bad[meta_codec_byte] |= 0x10;
  WriteBytes(path.get(), bad);
  auto opened = TraceReader::Open(path.get());
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(opened.status().message().find("filter"), std::string::npos)
      << opened.status().ToString();
  EXPECT_FALSE(VerifyTrace(path.get()).ok());
}

// Versions 1 (row-encoded chunks) and 2 (a stored checkpoint index) are
// retired: a header claiming either is rejected at Open by name, before
// any section is trusted.
TEST(ChunkFilterTest, VersionOneIsRejected) {
  for (const unsigned version : {1u, 2u}) {
    std::vector<uint8_t> image = SerializeTrace(MakeSyntheticRecording(200));
    image[4] = static_cast<uint8_t>(version);  // version fixed32, little-endian
    ASSERT_EQ(HeaderVersion(image), version);
    ScopedTracePath path("retired_version");
    WriteBytes(path.get(), image);
    auto opened = TraceReader::Open(path.get());
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(opened.status().message().find(
                  StrPrintf("unsupported trace format version %u", version)),
              std::string::npos)
        << opened.status().ToString();
  }
}

// A crafted type byte must fail at Event::DecodeFrom (the EventLog decode
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
                                         /*expected_first=*/0,
                                         /*expected_count=*/500);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(ChunkFilterTest, CorruptDeltaChunksFailCleanly) {
  const RecordedExecution recording = MakeSyntheticRecording(1000);
  TraceWriteOptions options;
  options.events_per_chunk = 100;
  const std::vector<uint8_t> image = SerializeTrace(recording, options);

  ScopedTracePath path("deltacorrupt");
  std::vector<uint8_t> bad = image;
  bad[bad.size() / 2] ^= 0x10;
  WriteBytes(path.get(), bad);
  EXPECT_FALSE(LoadTrace(path.get()).ok());
  EXPECT_FALSE(VerifyTrace(path.get()).ok());
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
  {
    const std::vector<uint8_t> payload = EncodeEventChunkPayload(
        events.data(), events.size(), /*first_event=*/0);
    auto scalar = DecodeEventChunkPayloadWithPath(
        payload, 0, events.size(), ColumnarDecodePath::kScalar);
    auto batched = DecodeEventChunkPayloadWithPath(
        payload, 0, events.size(), ColumnarDecodePath::kBatched);
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
        const std::vector<uint8_t> payload =
            EncodeEventChunkPayload(log.data() + first, count, first);
        auto scalar = DecodeEventChunkPayloadWithPath(
            payload, first, count, ColumnarDecodePath::kScalar);
        auto batched = DecodeEventChunkPayloadWithPath(
            payload, first, count, ColumnarDecodePath::kBatched);
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
        encoder.buffer(), /*expected_first=*/0,
        /*expected_count=*/1ull << 60, path);
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
      events.data(), events.size(), /*first_event=*/0);

  const auto decode_both = [&](const std::vector<uint8_t>& bytes,
                               const char* what, size_t at) {
    auto scalar = DecodeEventChunkPayloadWithPath(
        bytes, 0, events.size(), ColumnarDecodePath::kScalar);
    auto batched = DecodeEventChunkPayloadWithPath(
        bytes, 0, events.size(), ColumnarDecodePath::kBatched);
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

TEST(WriteTraceFileTest, WriteFileIsAtomic) {
  const RecordedExecution recording = MakeSyntheticRecording(200);
  ScopedTracePath path("atomicfile");
  ASSERT_TRUE(WriteTraceFile(path.get(), recording).ok());
  EXPECT_TRUE(VerifyTrace(path.get()).ok());

  // An unwritable destination directory fails with a Status and leaves
  // nothing behind at the target path.
  const std::string bad_path = "no_such_dir_for_traces/x.ddrt";
  EXPECT_FALSE(WriteTraceFile(bad_path, recording).ok());
  std::ifstream target(bad_path, std::ios::binary);
  EXPECT_FALSE(target.good());
}

TEST(AtomicFileSinkTest, AbandonedSinkRemovesItsTempFile) {
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
    auto reader = TraceReader::Open(path.get());
    ASSERT_TRUE(reader.ok()) << reader.status();
    auto loaded = reader->ReadRecordedExecution();
    ASSERT_TRUE(loaded.ok()) << loaded.status();

    const ReplayTarget target = ReplayTargetFor(scenario);
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

// The file round trip ddr-trace and CorpusEntryScorer run (save, open,
// read back, score) scores like the in-memory path under every model, and
// the model stamped in the file selects the same replay as the harness.
TEST(TraceRoundtripReplayTest, SavedRecordingScoresLikeRunModel) {
  BugScenario scenario = MakeSumScenario();
  ExperimentHarness harness(scenario);
  ASSERT_TRUE(harness.Prepare().ok());

  for (DeterminismModel model : AllDeterminismModels()) {
    const std::string name(DeterminismModelName(model));
    const RecordedExecution recording = harness.Record(model);
    const ExperimentRow in_memory = harness.ReplayAndScore(
        model, recording, recording.original_outcome.stats.wall_seconds);
    ScopedTracePath path("runmodel");
    ASSERT_TRUE(harness.SaveRecording(recording, path.get()).ok());
    auto reader = TraceReader::Open(path.get());
    ASSERT_TRUE(reader.ok()) << reader.status();
    auto loaded = reader->ReadRecordedExecution();
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    const ExperimentRow from_file = harness.ReplayAndScore(
        model, *loaded, reader->metadata().original_wall_seconds);

    EXPECT_EQ(from_file.failure_reproduced, in_memory.failure_reproduced)
        << name;
    EXPECT_EQ(from_file.divergences, in_memory.divergences) << name;
    EXPECT_EQ(from_file.log_bytes, in_memory.log_bytes) << name;
    EXPECT_EQ(from_file.recorded_events, in_memory.recorded_events) << name;
    EXPECT_EQ(from_file.inference.attempts, in_memory.inference.attempts)
        << name;
    EXPECT_DOUBLE_EQ(from_file.fidelity, in_memory.fidelity) << name;
    EXPECT_EQ(from_file.diagnosed_cause, in_memory.diagnosed_cause) << name;

    auto stamped = ParseDeterminismModel(reader->metadata().model);
    ASSERT_TRUE(stamped.ok()) << stamped.status();
    EXPECT_EQ(*stamped, model) << name;
    const ReplayResult replayed =
        Replayer(ReplayTargetFor(scenario), scenario.inference_budget)
            .Replay(*loaded, ReplayModeFor(*stamped));
    EXPECT_EQ(replayed.failure_reproduced, in_memory.failure_reproduced)
        << name;
  }
}

// Partial replay of a reloaded trace under every log-driven model. Each
// target, on or off any grid, is where replay starts; the outcome, failure
// verdict and divergences equal a full replay in the same mode; the
// collected trace is exactly the full replay's trace from the target's
// resume_seq on; and the fast-forward is verified exactly when the log is
// the full event stream.
TEST(PartialReplayTest, EveryTargetMatchesFullReplayInEveryLogDrivenMode) {
  const BugScenario scenario = MakeMsgDropScenario();
  ExperimentHarness harness(scenario);
  ASSERT_TRUE(harness.Prepare().ok());
  const ReplayTarget target = ReplayTargetFor(scenario);

  for (const DeterminismModel model :
       {DeterminismModel::kPerfect, DeterminismModel::kValue,
        DeterminismModel::kDebugRcse}) {
    const ReplayMode mode = ReplayModeFor(model);
    const std::string name(ReplayModeName(mode));
    ScopedTracePath path("partial_" + name);
    TraceWriteOptions options;
    options.events_per_chunk = 64;
    ASSERT_TRUE(
        harness.SaveRecording(harness.Record(model), path.get(), options).ok());
    auto recording = LoadTrace(path.get());
    ASSERT_TRUE(recording.ok()) << recording.status();
    const std::vector<Event>& log = recording->log.events();
    ASSERT_GT(log.size(), 500u) << name;
    const bool full_stream =
        recording->intercepted_events == recording->recorded_events &&
        recording->recorded_events == log.size();
    EXPECT_EQ(full_stream, mode == ReplayMode::kPerfect) << name;

    const ReplayResult full = Replayer(target).Replay(*recording, mode);
    std::vector<uint64_t> targets;
    for (uint64_t t = 97; t < log.size(); t += 97) {
      targets.push_back(t);
    }
    targets.push_back(log.size() - 1);
    for (const uint64_t t : targets) {
      auto partial = Replayer(target).PartialReplay(*recording, t, mode);
      ASSERT_TRUE(partial.ok()) << name << " @" << t << ": " << partial.status();
      EXPECT_TRUE(partial->partial);
      EXPECT_EQ(partial->started_from_event, t);
      EXPECT_EQ(partial->outcome.trace_fingerprint,
                full.outcome.trace_fingerprint)
          << name << " @" << t;
      EXPECT_EQ(partial->outcome.output_fingerprint,
                full.outcome.output_fingerprint)
          << name << " @" << t;
      EXPECT_EQ(partial->failure_reproduced, full.failure_reproduced);
      EXPECT_EQ(partial->divergences, full.divergences);
      EXPECT_EQ(partial->fast_forward_verified, full_stream)
          << name << " @" << t;

      const uint64_t resume_seq = log[t].seq;
      ASSERT_EQ(partial->trace.size() + resume_seq, full.trace.size())
          << name << " @" << t;
      for (size_t i = 0; i < partial->trace.size(); ++i) {
        ASSERT_EQ(partial->trace[i].SemanticHash(),
                  full.trace[resume_seq + i].SemanticHash())
            << name << " @" << t << ": suffix event " << i;
      }
    }

    // Target 0 has an empty prefix: a full replay.
    auto from_start = Replayer(target).PartialReplay(*recording, 0, mode);
    ASSERT_TRUE(from_start.ok()) << from_start.status();
    EXPECT_FALSE(from_start->partial);
    EXPECT_EQ(from_start->started_from_event, 0u);
    EXPECT_EQ(from_start->trace.size(), full.trace.size());
    EXPECT_EQ(from_start->outcome.trace_fingerprint,
              full.outcome.trace_fingerprint);

    // A target at or past the log's end names no event.
    for (const uint64_t past : {uint64_t{log.size()}, uint64_t{log.size()} + 1,
                                ~uint64_t{0}}) {
      EXPECT_EQ(Replayer(target).PartialReplay(*recording, past, mode)
                    .status()
                    .code(),
                StatusCode::kInvalidArgument)
          << name << " @" << past;
    }
  }
}

// Inference modes cannot start from a checkpoint.
TEST(PartialReplayTest, InferenceModeIsInvalidArgument) {
  const RecordedExecution recording = MakeSyntheticRecording(10);
  const BugScenario scenario = MakeMsgDropScenario();
  EXPECT_EQ(Replayer(ReplayTargetFor(scenario))
                .PartialReplay(recording, 1, ReplayMode::kFailure)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace ddr
