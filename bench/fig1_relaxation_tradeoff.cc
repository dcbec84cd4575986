// Regenerates Figure 1: the determinism-relaxation trend — runtime overhead
// vs. debugging utility across determinism models, averaged over the bug
// suite (sum, overflow, msgdrop, hypertable).
//
// The paper's qualitative claim: chronological relaxation (perfect -> value
// -> output -> failure) monotonically lowers runtime overhead while eroding
// debugging utility into unpredictability; debug determinism (RCSE) breaks
// off the curve with near-relaxed overhead and near-perfect utility.

#include <cstdio>
#include <iostream>
#include <map>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/scenarios.h"
#include "src/util/histogram.h"
#include "src/util/logging.h"

namespace ddr {
namespace {

void RunFig1() {
  PrintBanner("Figure 1: relaxation trend - runtime overhead vs. debugging utility");

  std::vector<BugScenario> scenarios;
  scenarios.push_back(MakeSumScenario());
  scenarios.push_back(MakeOverflowScenario());
  scenarios.push_back(MakeMsgDropScenario());
  scenarios.push_back(MakeHypertableScenario());
  // Keep inference bounded: Fig. 1 needs the trend, not deep searches.
  for (BugScenario& scenario : scenarios) {
    scenario.inference_budget.max_attempts = 600;
  }

  std::map<DeterminismModel, SummaryStats> overhead;
  std::map<DeterminismModel, SummaryStats> fidelity;
  std::map<DeterminismModel, SummaryStats> utility;

  TablePrinter per_bug({"bug", "model", "overhead", "bytes", "DF", "DE", "DU",
                        "failure?", "diagnosed"});
  BenchJsonWriter json("fig1_relaxation_tradeoff");
  for (BugScenario& scenario : scenarios) {
    ExperimentHarness harness(scenario);
    const Status status = harness.Prepare();
    CHECK(status.ok()) << scenario.name << ": " << status;
    for (DeterminismModel model : AllDeterminismModels()) {
      ExperimentRow row = harness.RunModel(model);
      EmitExperimentRowJson(json, scenario.name, row);
      overhead[model].Add(row.overhead_multiplier);
      fidelity[model].Add(row.fidelity);
      utility[model].Add(row.utility);
      std::vector<std::string> cells = RowCells(row);
      cells.insert(cells.begin(), scenario.name);
      per_bug.AddRow(cells);
    }
  }
  per_bug.Print(std::cout);

  PrintBanner("Figure 1 series (mean over the bug suite)");
  TablePrinter series({"model (system)", "runtime overhead", "debugging fidelity",
                       "debugging utility"});
  for (DeterminismModel model : AllDeterminismModels()) {
    series.AddRow({std::string(DeterminismModelName(model)) + " (" +
                       std::string(DeterminismModelSystem(model)) + ")",
                   FormatDouble(overhead[model].mean()) + "x",
                   FormatDouble(fidelity[model].mean()),
                   FormatDouble(utility[model].mean(), 3)});
  }
  series.Print(std::cout);

  std::printf(
      "\nShape check: overhead decreases monotonically along the relaxation\n"
      "course (perfect -> value -> output -> failure) while fidelity/utility\n"
      "degrade and become workload-dependent ('unpredictable debugging\n"
      "utility'); debug determinism (RCSE) sits off the curve: overhead close\n"
      "to the ultra-relaxed models at fidelity ~1.\n");
}

}  // namespace
}  // namespace ddr

int main() {
  ddr::RunFig1();
  return 0;
}
