// RecordedExecution: everything a recorder hands to the replay/debugging
// side, plus the harness-side ground truth used only for scoring.
//
// Contract: replayers may use `log` and `snapshot` (what the production
// system shipped home) but never `original_outcome` or the production seed —
// those exist so the experiment harness can *score* fidelity afterwards.

#ifndef SRC_RECORD_RECORDED_EXECUTION_H_
#define SRC_RECORD_RECORDED_EXECUTION_H_

#include <string>

#include "src/record/event_log.h"
#include "src/record/snapshot.h"
#include "src/sim/outcome.h"

namespace ddr {

struct RecordedExecution {
  std::string model;

  // Shipped to the developer: the log + the failure snapshot (bug report).
  EventLog log;
  FailureSnapshot snapshot;

  // Recording cost accounting: the recorder's counts and their price, plus
  // the environment's virtual CPU time.
  uint64_t recorded_bytes = 0;
  SimDuration overhead_nanos = 0;
  SimDuration cpu_nanos = 0;
  uint64_t intercepted_events = 0;
  uint64_t recorded_events = 0;

  // Harness-side ground truth (never given to replayers).
  Outcome original_outcome;

  // Runtime overhead multiplier: instrumented CPU time / native CPU time.
  double OverheadMultiplier() const {
    if (cpu_nanos <= 0) {
      return 1.0;
    }
    return static_cast<double>(cpu_nanos + overhead_nanos) /
           static_cast<double>(cpu_nanos);
  }

  uint64_t TotalLogBytes() const {
    return log.encoded_size_bytes() + snapshot.encoded_size_bytes();
  }
};

}  // namespace ddr

#endif  // SRC_RECORD_RECORDED_EXECUTION_H_
