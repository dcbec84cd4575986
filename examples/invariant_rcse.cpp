// Data-based selection (§3.1.2): dynamic invariant inference drives the
// recording-fidelity dial.
//
//   $ ./invariant_rcse
//
// A queue's depth normally stays small; training runs teach the invariant
// inference that bound. In the buggy production run a slow consumer lets
// the depth blow past it — the invariant monitor fires, and the RCSE
// recorder dials up to full fidelity from that point on.

#include <cstdio>

#include "src/analysis/invariants.h"
#include "src/core/rcse.h"
#include "src/sim/program.h"
#include "src/sim/shared_var.h"
#include "src/sim/sync.h"
#include "src/util/logging.h"

namespace {

using namespace ddr;  // NOLINT: example brevity

// Producer/consumer over an instrumented depth gauge. `slow_consumer`
// injects the bug: the consumer sleeps, the queue depth explodes.
class QueueProgram : public SimProgram {
 public:
  explicit QueueProgram(bool slow_consumer) : slow_consumer_(slow_consumer) {}

  std::string name() const override { return "queue"; }

  void Main(Environment& env) override {
    SharedVar<uint64_t> depth(env, "queue.depth", 0);
    SimSemaphore items(env, "queue.items", 0);
    FiberId producer = env.Spawn("producer", [&] {
      for (int i = 0; i < 60; ++i) {
        depth.Store(depth.Load() + 1);
        items.Release();
        env.SleepFor(50 * kMicrosecond);
      }
    });
    FiberId consumer = env.Spawn("consumer", [&] {
      for (int i = 0; i < 60; ++i) {
        items.Acquire();
        if (slow_consumer_ && i == 10) {
          env.SleepFor(2 * kMillisecond);  // the bug: a stall
        }
        depth.Store(depth.Load() - 1);
      }
    });
    env.Join(producer);
    env.Join(consumer);
    env.EmitOutput(depth.Load());
  }

 private:
  bool slow_consumer_;
};

}  // namespace

int main() {
  // 1. Training: learn invariants from three healthy runs.
  InvariantInference inference(/*range_slack=*/0.2);
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Environment::Options options;
    options.seed = seed;
    Environment env(options);
    CollectingSink sink;
    env.AddTraceSink(&sink);
    QueueProgram healthy(/*slow_consumer=*/false);
    env.Run(healthy);
    inference.ObserveTrace(sink.events());
  }
  const InvariantSet invariants = inference.Infer();
  std::printf("learned %zu invariants from 3 training runs:\n", invariants.size());
  for (const auto& [cell, invariant] : invariants.invariants()) {
    std::printf("  %s\n", invariant.ToString().c_str());
  }

  // 2. Production: data-based RCSE with an invariant trigger.
  Environment::Options options;
  options.seed = 99;
  Environment env(options);

  RcseOptions rcse_options;
  rcse_options.mode = RcseMode::kDataBased;
  auto triggers = std::make_unique<TriggerSet>();
  triggers->Add(std::make_unique<InvariantTrigger>(invariants));
  RcseRecorder recorder(rcse_options, std::move(triggers));
  env.AddTraceSink(&recorder);

  QueueProgram buggy(/*slow_consumer=*/true);
  Outcome outcome = env.Run(buggy);
  (void)outcome;

  std::printf("\nproduction run with a stalled consumer:\n");
  std::printf("  trigger fires: %llu, fidelity dial-ups: %llu\n",
              static_cast<unsigned long long>(recorder.trigger_fires()),
              static_cast<unsigned long long>(recorder.dial_ups()));
  std::printf("  events recorded: %llu of %llu intercepted (%.1f%%)\n",
              static_cast<unsigned long long>(recorder.recorded_events()),
              static_cast<unsigned long long>(recorder.intercepted_events()),
              100.0 * static_cast<double>(recorder.recorded_events()) /
                  static_cast<double>(recorder.intercepted_events()));
  CHECK_GT(recorder.dial_ups(), 0u) << "invariant trigger should have fired";
  std::printf("  -> recording fidelity increased exactly when the execution\n"
              "     left its learned envelope.\n");
  return 0;
}
