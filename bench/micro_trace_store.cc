// Microbenchmark of the persistent trace store: serialize / deserialize
// throughput, on-disk bytes per event, compression ratio, and the I/O cost
// of chunk-table-indexed partial reads. Plain-main (no google-benchmark) so
// it runs everywhere; emits BENCH_micro_trace_store.json lines for
// cross-PR tracking.

#include <chrono>
#include <cstdio>
#include <iostream>

#include "bench/bench_util.h"
#include "src/trace/block_compress.h"
#include "src/trace/streaming_writer.h"
#include "src/trace/trace_reader.h"
#include "src/util/logging.h"

namespace ddr {
namespace {

constexpr char kTmpPath[] = "micro_trace_store.tmp.ddrt";

void RunBench(uint64_t num_events, int iterations, BenchJsonWriter& json) {
  const RecordedExecution recording = MakeRecording(num_events);
  // Serialize (in-memory image, no disk).
  std::vector<uint8_t> image;
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iterations; ++i) {
    image = SerializeTrace(recording);
  }
  const double encode_seconds = Seconds(start) / iterations;

  // Compression ratio vs. the flat event-log encoding.
  const double raw_bytes = static_cast<double>(recording.log.Encode().size());
  const double file_bytes = static_cast<double>(image.size());

  // Save + full load through disk.
  CHECK(WriteTraceFile(kTmpPath, recording).ok());
  start = std::chrono::steady_clock::now();
  uint64_t decoded_events = 0;
  for (int i = 0; i < iterations; ++i) {
    auto reader = TraceReader::Open(kTmpPath);
    CHECK(reader.ok()) << reader.status();
    auto loaded = reader->ReadRecordedExecution();
    CHECK(loaded.ok()) << loaded.status();
    decoded_events = loaded->log.size();
  }
  const double decode_seconds = Seconds(start) / iterations;
  CHECK_EQ(decoded_events, num_events);

  // Partial read through the footer's chunk table: decode 256 events from
  // the middle and count how much of the file was touched.
  auto reader_or = TraceReader::Open(kTmpPath);
  CHECK(reader_or.ok());
  const uint64_t open_bytes = reader_or->bytes_read();
  auto mid = reader_or->ReadEvents(num_events / 2, 256);
  CHECK(mid.ok());
  const double partial_fraction =
      static_cast<double>(reader_or->bytes_read()) / file_bytes;
  std::remove(kTmpPath);

  const double encode_meps = num_events / encode_seconds / 1e6;
  const double decode_meps = num_events / decode_seconds / 1e6;
  std::printf(
      "%9llu events: encode %7.2f Mev/s  decode %7.2f Mev/s  %5.2f B/event  "
      "ratio %.2fx  partial-read %4.1f%% of file (open cost %llu B)\n",
      static_cast<unsigned long long>(num_events), encode_meps, decode_meps,
      file_bytes / num_events, raw_bytes / file_bytes, partial_fraction * 100.0,
      static_cast<unsigned long long>(open_bytes));

  JsonLine line = json.Line();
  line.Int("events", num_events)
      .Num("encode_mevents_per_sec", encode_meps)
      .Num("decode_mevents_per_sec", decode_meps)
      .Num("bytes_per_event", file_bytes / num_events)
      .Num("compression_ratio", raw_bytes / file_bytes)
      .Num("partial_read_fraction", partial_fraction);
  json.Write(line);
}

void RunCodecBench(BenchJsonWriter& json) {
  // Block codec in isolation, on a chunk-sized encoded-event payload.
  const RecordedExecution recording = MakeRecording(4096);
  const std::vector<uint8_t> block = recording.log.Encode();
  constexpr int kIters = 50;

  auto start = std::chrono::steady_clock::now();
  std::vector<uint8_t> compressed;
  for (int i = 0; i < kIters; ++i) {
    compressed = CompressBlock(block);
  }
  const double compress_mbps =
      block.size() / (Seconds(start) / kIters) / 1e6;

  start = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) {
    auto out = DecompressBlock(compressed.data(), compressed.size(), block.size());
    CHECK(out.ok());
  }
  const double decompress_mbps =
      block.size() / (Seconds(start) / kIters) / 1e6;

  std::printf(
      "ddrz codec: compress %6.1f MB/s  decompress %6.1f MB/s  ratio %.2fx\n",
      compress_mbps, decompress_mbps,
      static_cast<double>(block.size()) / compressed.size());

  JsonLine line = json.Line();
  line.Str("codec", "ddrz")
      .Num("compress_mb_per_sec", compress_mbps)
      .Num("decompress_mb_per_sec", decompress_mbps)
      .Num("block_compression_ratio",
           static_cast<double>(block.size()) / compressed.size());
  json.Write(line);
}

void RunAll() {
  PrintBanner("micro: trace store encode/decode throughput");
  BenchJsonWriter json("micro_trace_store");
  RunCodecBench(json);
  RunBench(/*num_events=*/10'000, /*iterations=*/20, json);
  RunBench(/*num_events=*/100'000, /*iterations=*/5, json);
  RunBench(/*num_events=*/1'000'000, /*iterations=*/1, json);
}

}  // namespace
}  // namespace ddr

int main() {
  ddr::RunAll();
  return 0;
}
