// google-benchmark microbenchmarks of the deterministic substrate and the
// analysis hot paths: fiber context switches and spawns, instrumented memory
// access, channel transfer, schedule exploration, race-detector event
// processing, and vector clocks.

#include <benchmark/benchmark.h>

#include "src/analysis/race_detector.h"
#include "src/analysis/sched/models.h"
#include "src/sim/channel.h"
#include "src/sim/environment.h"
#include "src/sim/shared_var.h"
#include "src/util/vector_clock.h"

namespace ddr {
namespace {

void BM_FiberPingPong(benchmark::State& state) {
  // Measures a full yield round-trip between two fibers (a ddr_fiber_switch
  // out to the scheduler, a scheduler pick, and a ddr_fiber_switch in, each
  // way).
  const uint64_t switches_per_run = 2000;
  uint64_t total = 0;
  for (auto _ : state) {
    Environment::Options options;
    options.scheduling.preempt_probability = 0.0;
    Environment env(options);
    env.Run("pingpong", [&](Environment& e) {
      FiberId other = e.Spawn("other", [&] {
        for (uint64_t i = 0; i < switches_per_run / 2; ++i) {
          e.Yield();
        }
      });
      for (uint64_t i = 0; i < switches_per_run / 2; ++i) {
        e.Yield();
      }
      e.Join(other);
    });
    total += switches_per_run;
  }
  state.SetItemsProcessed(static_cast<int64_t>(total));
}
BENCHMARK(BM_FiberPingPong)->Unit(benchmark::kMillisecond);

void BM_FiberSpawnJoin(benchmark::State& state) {
  // Per-fiber lifecycle cost: stack set-up, first switch in, exit, and
  // release, plus the join's block and wake. One fiber per iteration.
  const uint64_t fibers_per_run = 1000;
  uint64_t total = 0;
  for (auto _ : state) {
    Environment::Options options;
    options.scheduling.preempt_probability = 0.0;
    Environment env(options);
    env.Run("spawnjoin", [&](Environment& e) {
      for (uint64_t i = 0; i < fibers_per_run; ++i) {
        e.Join(e.Spawn("child", [] {}));
      }
    });
    total += fibers_per_run;
  }
  state.SetItemsProcessed(static_cast<int64_t>(total));
}
BENCHMARK(BM_FiberSpawnJoin)->Unit(benchmark::kMillisecond);

void BM_SharedVarAccess(benchmark::State& state) {
  const uint64_t accesses_per_run = 20000;
  uint64_t total = 0;
  for (auto _ : state) {
    Environment::Options options;
    options.scheduling.preempt_probability = 0.0;
    Environment env(options);
    env.Run("cells", [&](Environment& e) {
      SharedVar<uint64_t> cell(e, "cell", 0);
      for (uint64_t i = 0; i < accesses_per_run / 2; ++i) {
        cell.Store(cell.Load() + 1);
      }
    });
    total += accesses_per_run;
  }
  state.SetItemsProcessed(static_cast<int64_t>(total));
}
BENCHMARK(BM_SharedVarAccess)->Unit(benchmark::kMillisecond);

void BM_ChannelTransfer(benchmark::State& state) {
  const uint64_t messages_per_run = 5000;
  uint64_t total = 0;
  for (auto _ : state) {
    Environment::Options options;
    options.scheduling.preempt_probability = 0.0;
    Environment env(options);
    env.Run("channel", [&](Environment& e) {
      Channel<uint64_t> chan(e, "chan");
      FiberId producer = e.Spawn("producer", [&] {
        for (uint64_t i = 0; i < messages_per_run; ++i) {
          chan.Send(i);
        }
      });
      for (uint64_t i = 0; i < messages_per_run; ++i) {
        benchmark::DoNotOptimize(chan.Recv());
      }
      e.Join(producer);
    });
    total += messages_per_run;
  }
  state.SetItemsProcessed(static_cast<int64_t>(total));
}
BENCHMARK(BM_ChannelTransfer)->Unit(benchmark::kMillisecond);

void BM_SchedExplore(benchmark::State& state) {
  // Schedule-explorer throughput: every run is a fresh Engine whose
  // threads hand the token over at each Mutex/CondVar sched-point.
  const sched::SchedModel* model = sched::FindSchedModel("server-queue");
  sched::ExploreOptions options;
  options.dfs_budget = 256;
  options.random_budget = 64;
  uint64_t runs = 0;
  for (auto _ : state) {
    const sched::ExploreReport report = sched::Explore(model->body, options);
    benchmark::DoNotOptimize(report.findings.size());
    runs += report.runs;
  }
  state.counters["runs_per_s"] = benchmark::Counter(
      static_cast<double>(runs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SchedExplore)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_RaceDetectorOnEvent(benchmark::State& state) {
  RaceDetector detector(/*report_once_per_cell=*/true);
  uint64_t seq = 0;
  for (auto _ : state) {
    Event event;
    event.seq = seq;
    event.fiber = static_cast<FiberId>(seq % 4);
    event.type = (seq % 3 == 0) ? EventType::kSharedWrite : EventType::kSharedRead;
    event.obj = 7 + (seq % 16);
    event.value = seq;
    detector.OnEvent(event);
    ++seq;
  }
  state.SetItemsProcessed(static_cast<int64_t>(seq));
}
BENCHMARK(BM_RaceDetectorOnEvent);

void BM_VectorClockJoin(benchmark::State& state) {
  VectorClock a(16);
  VectorClock b(16);
  for (uint32_t i = 0; i < 16; ++i) {
    a.Set(i, i * 3);
    b.Set(i, 50 - i);
  }
  for (auto _ : state) {
    VectorClock c = a;
    c.Join(b);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_VectorClockJoin);

void BM_VectorClockHappensBefore(benchmark::State& state) {
  VectorClock a(16);
  VectorClock b(16);
  for (uint32_t i = 0; i < 16; ++i) {
    a.Set(i, i);
    b.Set(i, i + 1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.HappensBeforeOrEqual(b));
  }
}
BENCHMARK(BM_VectorClockHappensBefore);

}  // namespace
}  // namespace ddr

BENCHMARK_MAIN();
