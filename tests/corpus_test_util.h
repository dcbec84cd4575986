// Test helpers shared by the corpus and fault-torture suites: a
// deterministic synthetic recording and whole-file byte I/O.

#ifndef TESTS_CORPUS_TEST_UTIL_H_
#define TESTS_CORPUS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "src/record/recorded_execution.h"
#include "src/util/rng.h"

namespace ddr {

// `num_events` alternating shared reads and RNG draws whose values come
// from `seed`. Pinned bytes depend on it: never change what it emits.
inline RecordedExecution MakeSyntheticRecording(uint64_t num_events,
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

inline std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

inline void WriteFileBytes(const std::string& path,
                           const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

}  // namespace ddr

#endif  // TESTS_CORPUS_TEST_UTIL_H_
