// Ready-made BugScenarios for the paper's bugs.
//
// Each scenario bundles a buggy program with its ground-truth root-cause
// catalog, the alternate explanations inference may hypothesize, and the
// input domains / symbolic models output-deterministic inference uses.
// These are the workloads behind every figure in EXPERIMENTS.md.

#ifndef SRC_APPS_SCENARIOS_H_
#define SRC_APPS_SCENARIOS_H_

#include "src/apps/overflow_app.h"
#include "src/core/experiment.h"
#include "src/ht/common.h"

namespace ddr {

// §2's sum bug (2 + 2 = 5). One root cause; output determinism fails to
// reproduce the failure (DF = 0).
BugScenario MakeSumScenario();

// §2's message-drop server: racy ring-buffer tail vs. network congestion.
// Two candidate root causes (DF = 1/2 for failure determinism).
BugScenario MakeMsgDropScenario();

// §3's buffer overflow: the fix-predicate example. One root cause; the
// solver-backed symbolic model lets output determinism reconstruct inputs.
BugScenario MakeOverflowScenario();
// Same, with explicit options (the input-space sweep widens max_len); the
// world seed is ignored, since the scenario searches for one that crashes.
BugScenario MakeOverflowScenario(const OverflowOptions& options);

// §4's Hypertable data-loss race, three candidate root causes
// (migration race / slave crash / client OOM): the Fig. 2 case study.
BugScenario MakeHypertableScenario();
// Same, with an explicit config (tests use smaller workloads).
BugScenario MakeHypertableScenario(const HtConfig& config);

// The scenario registry: every bundled BugScenario, in a stable order.
// This is what `ddr-trace corpus build` fans out over and what `replay`
// uses to rebuild the program a trace's metadata names.
std::vector<BugScenario> AllBugScenarios();

// Registry lookup by scenario name ("sum", "msgdrop", "overflow",
// "hypertable"); NotFound for anything else.
Result<BugScenario> FindBugScenario(const std::string& name);

}  // namespace ddr

#endif  // SRC_APPS_SCENARIOS_H_
