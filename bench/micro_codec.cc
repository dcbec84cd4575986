// Microbenchmark for the decode hot path introduced by the batched
// columnar codec: scalar vs batched chunk decode throughput (Mev/s),
// bulk vs per-value columnar encode, and bytewise vs slicing-by-8
// CRC-32 (GB/s). Plain-main (no google-benchmark) so it runs
// everywhere; emits BENCH_micro_codec.json lines for cross-PR tracking.
//
// Every timed pair is also an equivalence check: the batched decode must
// reproduce the scalar decode's events exactly, the bulk encode the
// per-value encode's bytes exactly, and the sliced CRC the bytewise
// CRC's value exactly — a throughput win that changed a bit would be a
// regression, not a win.

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/sim/event.h"
#include "src/trace/chunk_codec.h"
#include "src/util/crc32.h"
#include "src/util/logging.h"
#include "src/util/rng.h"

namespace ddr {
namespace {

constexpr uint64_t kEventsPerChunk = 512;
constexpr uint64_t kChunks = 256;
constexpr int kDecodeRepeats = 20;

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

// Same realistically-shaped synthetic events as the corpus benches:
// small monotone deltas, a few distinct ids, occasional larger values.
std::vector<Event> MakeEvents(uint64_t count, uint64_t seed) {
  std::vector<Event> events;
  events.reserve(count);
  Rng rng(seed);
  SimTime now = 0;
  for (uint64_t seq = 0; seq < count; ++seq) {
    Event event;
    event.seq = seq;
    now += 20 + rng.NextIndex(80);
    event.time = now;
    event.fiber = static_cast<FiberId>(seq % 6);
    event.node = static_cast<NodeId>(seq % 3);
    event.obj = 10 + seq % 12;
    event.region = static_cast<RegionId>(seq % 4);
    event.type = seq % 2 == 0 ? EventType::kSharedRead : EventType::kRngDraw;
    event.value = rng.NextIndex(1u << 20);
    event.aux = seq % 16 == 0 ? rng.NextIndex(1u << 30) : 0;
    event.bytes = 8;
    events.push_back(event);
  }
  return events;
}

void RunDecodeBench(BenchJsonWriter& json) {
  PrintBanner("columnar chunk decode: scalar vs batched");
  std::vector<std::vector<Event>> chunks;
  std::vector<std::vector<uint8_t>> payloads;
  for (uint64_t c = 0; c < kChunks; ++c) {
    chunks.push_back(MakeEvents(kEventsPerChunk, c + 1));
    payloads.push_back(EncodeEventChunkPayload(
        chunks.back().data(), kEventsPerChunk, c * kEventsPerChunk));
  }
  const uint64_t total_events = kChunks * kEventsPerChunk * kDecodeRepeats;

  const auto run = [&](ColumnarDecodePath path) -> double {
    const auto start = std::chrono::steady_clock::now();
    uint64_t sum = 0;
    for (int r = 0; r < kDecodeRepeats; ++r) {
      for (uint64_t c = 0; c < kChunks; ++c) {
        auto events = DecodeEventChunkPayloadWithPath(
            payloads[c], c * kEventsPerChunk, kEventsPerChunk, path);
        CHECK(events.ok()) << events.status();
        sum += events->back().seq;
      }
    }
    CHECK_GT(sum, 0u);
    return Seconds(start);
  };

  // Equivalence before speed: both paths must produce identical events.
  for (uint64_t c = 0; c < kChunks; ++c) {
    auto scalar = DecodeEventChunkPayloadWithPath(
        payloads[c], c * kEventsPerChunk, kEventsPerChunk,
        ColumnarDecodePath::kScalar);
    auto batched = DecodeEventChunkPayloadWithPath(
        payloads[c], c * kEventsPerChunk, kEventsPerChunk,
        ColumnarDecodePath::kBatched);
    CHECK(scalar.ok() && batched.ok());
    for (uint64_t i = 0; i < kEventsPerChunk; ++i) {
      CHECK_EQ((*scalar)[i].seq, (*batched)[i].seq);
      CHECK_EQ((*scalar)[i].value, (*batched)[i].value);
    }
  }

  const double scalar_seconds = run(ColumnarDecodePath::kScalar);
  const double batched_seconds = run(ColumnarDecodePath::kBatched);
  const double scalar_meps = total_events / scalar_seconds / 1e6;
  const double batched_meps = total_events / batched_seconds / 1e6;
  std::printf("decode scalar  : %7.2f Mev/s\n", scalar_meps);
  std::printf("decode batched : %7.2f Mev/s  (%.2fx)\n", batched_meps,
              scalar_seconds / batched_seconds);

  JsonLine line = json.Line();
  line.Str("section", "codec")
      .Str("op", "decode")
      .Int("events", total_events)
      .Num("scalar_mevents_per_sec", scalar_meps)
      .Num("batched_mevents_per_sec", batched_meps)
      .Num("batched_vs_scalar_speedup", scalar_seconds / batched_seconds);
  json.Write(line);
}

void RunEncodeBench(BenchJsonWriter& json) {
  PrintBanner("columnar chunk encode");
  const std::vector<Event> events =
      MakeEvents(kEventsPerChunk * kChunks, 1234);
  const uint64_t total_events = events.size() * kDecodeRepeats;

  const auto start = std::chrono::steady_clock::now();
  uint64_t bytes = 0;
  for (int r = 0; r < kDecodeRepeats; ++r) {
    for (uint64_t c = 0; c < kChunks; ++c) {
      bytes += EncodeEventChunkPayload(events.data() + c * kEventsPerChunk,
                                       kEventsPerChunk, c * kEventsPerChunk)
                   .size();
    }
  }
  const double seconds = Seconds(start);
  const double meps = total_events / seconds / 1e6;
  std::printf("encode bulk    : %7.2f Mev/s (%llu payload bytes/pass)\n", meps,
              static_cast<unsigned long long>(bytes / kDecodeRepeats));

  JsonLine line = json.Line();
  line.Str("section", "codec")
      .Str("op", "encode")
      .Int("events", total_events)
      .Int("payload_bytes", bytes / kDecodeRepeats)
      .Num("mevents_per_sec", meps);
  json.Write(line);
}

void RunCrcBench(BenchJsonWriter& json) {
  PrintBanner("crc32: bytewise vs slicing-by-8");
  constexpr size_t kBufBytes = 8 << 20;
  constexpr int kRepeats = 16;
  std::vector<uint8_t> buffer(kBufBytes);
  Rng rng(99);
  for (uint8_t& byte : buffer) {
    byte = static_cast<uint8_t>(rng.NextIndex(256));
  }

  // Equivalence first (also warms the tables + the buffer).
  CHECK_EQ(Crc32Finish(Crc32Update(kCrc32Init, buffer.data(), buffer.size())),
           Crc32Finish(
               Crc32UpdateBytewise(kCrc32Init, buffer.data(), buffer.size())));

  const auto time_crc = [&](auto&& update) -> double {
    const auto start = std::chrono::steady_clock::now();
    uint32_t state = kCrc32Init;
    for (int r = 0; r < kRepeats; ++r) {
      state = update(state, buffer.data(), buffer.size());
    }
    CHECK_NE(state, 0u);
    return Seconds(start);
  };

  const double bytewise_seconds = time_crc(Crc32UpdateBytewise);
  const double sliced_seconds = time_crc(Crc32Update);
  const double total_gb =
      static_cast<double>(kBufBytes) * kRepeats / (1024.0 * 1024.0 * 1024.0);
  std::printf("crc32 bytewise : %6.2f GB/s\n", total_gb / bytewise_seconds);
  std::printf("crc32 sliced   : %6.2f GB/s  (%.2fx)\n",
              total_gb / sliced_seconds, bytewise_seconds / sliced_seconds);

  JsonLine line = json.Line();
  line.Str("section", "codec")
      .Str("op", "crc32")
      .Int("bytes_per_pass", kBufBytes)
      .Num("bytewise_gb_per_sec", total_gb / bytewise_seconds)
      .Num("sliced_gb_per_sec", total_gb / sliced_seconds)
      .Num("sliced_vs_bytewise_speedup", bytewise_seconds / sliced_seconds);
  json.Write(line);
}

void RunAll() {
  BenchJsonWriter json("micro_codec");
  RunDecodeBench(json);
  RunEncodeBench(json);
  RunCrcBench(json);
}

}  // namespace
}  // namespace ddr

int main() {
  ddr::RunAll();
  return 0;
}
