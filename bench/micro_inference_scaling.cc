// Measures post-factum inference effort vs. how much the recorder kept —
// the paper's §2 warning that ultra-relaxed models can need "prohibitively
// large post-factum analysis times", and §3.2's observation that debugging
// efficiency (DE) is what that costs the developer.
//
// Sweeps the overflow bug's input space size (the inference search space)
// and compares output-only (solver), output-heavy (inputs recorded), and
// failure determinism (seed + input search).

#include <cstdio>
#include <iostream>

#include "bench/bench_util.h"
#include "src/apps/scenarios.h"
#include "src/util/logging.h"

namespace ddr {
namespace {

void RunScaling() {
  PrintBanner("Inference effort vs. recording completeness (overflow bug)");

  TablePrinter table({"input-space", "model", "attempts", "solver nodes",
                      "replay wall (s)", "DF", "DE"});
  for (const int64_t max_len : {64, 128, 256, 512}) {
    // Widen the request-length domain: the search space scales with it.
    // The scenario re-derives a production world that crashes under it.
    OverflowOptions options;
    options.max_len = max_len;
    BugScenario scenario = MakeOverflowScenario(options);
    scenario.inference_budget.max_attempts = 5000;

    ExperimentHarness harness(scenario);
    CHECK(harness.Prepare().ok());
    for (DeterminismModel model :
         {DeterminismModel::kOutputOnly, DeterminismModel::kOutputHeavy,
          DeterminismModel::kFailure}) {
      ExperimentRow row = harness.RunModel(model);
      table.AddRow({StrPrintf("[1,%lld]^3", static_cast<long long>(max_len)),
                    std::string(DeterminismModelName(model)),
                    StrPrintf("%llu", static_cast<unsigned long long>(row.inference.attempts)),
                    StrPrintf("%llu", static_cast<unsigned long long>(row.inference.solver_nodes)),
                    FormatDouble(row.replay_wall_seconds, 4),
                    FormatDouble(row.fidelity), FormatDouble(row.efficiency, 4)});
    }
  }
  table.Print(std::cout);
  std::printf(
      "\nShape check: recording more (output-heavy logs inputs) keeps\n"
      "inference effort flat; recording less pushes work into replay-time\n"
      "search that grows with the input space, collapsing DE.\n");
}

}  // namespace
}  // namespace ddr

int main() {
  ddr::RunScaling();
  return 0;
}
