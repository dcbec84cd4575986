// Small deterministic concurrency models of real subsystems, run under
// the schedule explorer (sched.h).
//
// Each model is a self-contained body: it spawns participant threads
// with sched::Spawn and does all cross-thread communication through
// sched-point operations (ddr::Mutex/CondVar, SharedVar).
// The clean models mirror the locking structure of a shipped subsystem
// and are expected to be deadlock- and lost-wakeup-free under full
// bounded exploration; the expect_finding models carry a deliberate bug
// (lock-order inversion, pre-PR9 stop-path lost wakeup) so tests and the
// CI smoke can assert the explorer actually finds and replays it.

#ifndef SRC_ANALYSIS_SCHED_MODELS_H_
#define SRC_ANALYSIS_SCHED_MODELS_H_

#include <string_view>
#include <vector>

#include "src/analysis/sched/sched.h"

namespace ddr::sched {

struct SchedModel {
  const char* name;
  const char* description;
  void (*body)();
  // Kind the model is built to exhibit; kClean for the real-subsystem
  // models the explorer is expected to prove clean.
  enum class Expect : uint8_t { kClean, kDeadlock, kLockOrderCycle,
                                kLostWakeup } expect = Expect::kClean;
};

const char* ExpectName(SchedModel::Expect expect);

// All models, clean ones first, in stable order.
const std::vector<SchedModel>& AllSchedModels();

// nullptr when unknown.
const SchedModel* FindSchedModel(std::string_view name);

}  // namespace ddr::sched

#endif  // SRC_ANALYSIS_SCHED_MODELS_H_
