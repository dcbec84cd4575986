// google-benchmark microbenchmarks of the recording hot paths: per-event
// recorder costs for each determinism model, event codec throughput, and
// log append. These are the real-nanosecond counterparts of the virtual
// cost model in src/record/cost_model.h.

#include <benchmark/benchmark.h>

#include "src/record/event_log.h"
#include "src/record/model_recorders.h"
#include "src/record/selective_recorder.h"

namespace ddr {
namespace {

Event MakeMemoryEvent(uint64_t seq) {
  Event event;
  event.seq = seq;
  event.time = seq * 50;
  event.fiber = static_cast<FiberId>(seq % 8);
  event.node = 1;
  event.type = EventType::kSharedRead;
  event.obj = 42;
  event.value = seq * 2654435761u;
  event.bytes = 8;
  event.region = static_cast<RegionId>(seq % 4);
  return event;
}

// Feeds `recorder` one memory event per iteration.
void FeedMemoryEvents(benchmark::State& state, Recorder& recorder) {
  uint64_t seq = 0;
  for (auto _ : state) {
    recorder.OnEvent(MakeMemoryEvent(seq++));
  }
  state.SetItemsProcessed(static_cast<int64_t>(seq));
}

void BM_PerfectRecorderOnEvent(benchmark::State& state) {
  PerfectRecorder recorder;
  FeedMemoryEvents(state, recorder);
}
BENCHMARK(BM_PerfectRecorderOnEvent);

void BM_ValueRecorderOnEvent(benchmark::State& state) {
  ValueRecorder recorder;
  FeedMemoryEvents(state, recorder);
}
BENCHMARK(BM_ValueRecorderOnEvent);

// Memory events are filtered before interception.
void BM_OutputRecorderSkipsMemoryEvent(benchmark::State& state) {
  OutputRecorder recorder(OutputRecorder::Mode::kOutputsOnly);
  FeedMemoryEvents(state, recorder);
}
BENCHMARK(BM_OutputRecorderSkipsMemoryEvent);

void BM_SelectiveRecorderRelaxed(benchmark::State& state) {
  SelectiveRecorder recorder("bench", [](const Event& event) {
    return event.region == 1;  // one control region
  });
  FeedMemoryEvents(state, recorder);
}
BENCHMARK(BM_SelectiveRecorderRelaxed);

void BM_EventEncode(benchmark::State& state) {
  const Event event = MakeMemoryEvent(123456);
  Encoder encoder;
  for (auto _ : state) {
    encoder.Clear();
    event.EncodeTo(&encoder);
    benchmark::DoNotOptimize(encoder.buffer().data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(encoder.size()));
}
BENCHMARK(BM_EventEncode);

void BM_EventDecode(benchmark::State& state) {
  const Event event = MakeMemoryEvent(123456);
  Encoder encoder;
  event.EncodeTo(&encoder);
  const std::vector<uint8_t> bytes = encoder.buffer();
  for (auto _ : state) {
    Decoder decoder(bytes);
    auto decoded = Event::DecodeFrom(&decoder);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_EventDecode);

void BM_EventLogAppend(benchmark::State& state) {
  EventLog log;
  uint64_t seq = 0;
  for (auto _ : state) {
    log.Append(MakeMemoryEvent(seq++));
  }
  state.SetItemsProcessed(static_cast<int64_t>(seq));
}
BENCHMARK(BM_EventLogAppend);

void BM_EventLogEncodeDecodeRoundtrip(benchmark::State& state) {
  EventLog log;
  for (uint64_t i = 0; i < 1000; ++i) {
    log.Append(MakeMemoryEvent(i));
  }
  for (auto _ : state) {
    auto bytes = log.Encode();
    auto decoded = EventLog::Decode(bytes);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_EventLogEncodeDecodeRoundtrip);

}  // namespace
}  // namespace ddr

BENCHMARK_MAIN();
