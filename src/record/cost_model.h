// Recording cost model.
//
// Substitution note: the paper measures wall-clock recording overhead on
// real hardware; we price each recorder's counts (events intercepted, events
// recorded, bytes recorded) at calibrated virtual-time costs and report
// overhead = (cpu + priced counts) / cpu, where cpu is the environment's own
// virtual CPU time. The constants below were calibrated so
// that the *relative* costs match the published systems' character:
// value determinism (iDNA/Friday: every memory access logged) is the most
// expensive, failure determinism (ESD: nothing recorded) is free, and
// selective recording sits slightly above the ultra-relaxed models.
// Microbenchmarks (bench/micro_recording) additionally measure the real
// nanoseconds of the recorder hot paths.

#ifndef SRC_RECORD_COST_MODEL_H_
#define SRC_RECORD_COST_MODEL_H_

#include <cstdint>

#include "src/sim/types.h"

namespace ddr {

struct RecorderCostModel {
  // Per event the recorder must interpose on, recorded or not (the cost of
  // the hook itself: a filter check, a branch).
  SimDuration interposition_cost = 15 * kNanosecond;
  // Per event actually written to the log.
  SimDuration log_event_cost = 45 * kNanosecond;
  // Per byte written to the log: encoded log bytes plus event payload.
  SimDuration log_byte_cost = 2 * kNanosecond;
};

// Presets per determinism model. Perfect determinism pays extra for
// cross-CPU causality tracking (SMP-ReVirt-style CREW page protections in
// real systems); relaxed models use the default hook costs.
inline RecorderCostModel PerfectCostModel() {
  RecorderCostModel costs;
  costs.interposition_cost = 40 * kNanosecond;
  costs.log_event_cost = 80 * kNanosecond;
  costs.log_byte_cost = 3 * kNanosecond;
  return costs;
}

inline RecorderCostModel ValueCostModel() {
  RecorderCostModel costs;
  costs.interposition_cost = 30 * kNanosecond;
  costs.log_event_cost = 85 * kNanosecond;
  costs.log_byte_cost = 2 * kNanosecond;
  return costs;
}

inline RecorderCostModel OutputCostModel() {
  RecorderCostModel costs;  // defaults
  return costs;
}

inline RecorderCostModel FailureCostModel() {
  RecorderCostModel costs;
  costs.interposition_cost = 0;
  costs.log_event_cost = 0;
  costs.log_byte_cost = 0;
  return costs;
}

inline RecorderCostModel SelectiveCostModel() {
  RecorderCostModel costs;
  // Selective hooks are a single region/level check; log writes are the
  // same append path as the output recorder's.
  costs.interposition_cost = 10 * kNanosecond;
  costs.log_event_cost = 35 * kNanosecond;
  costs.log_byte_cost = 2 * kNanosecond;
  return costs;
}

}  // namespace ddr

#endif  // SRC_RECORD_COST_MODEL_H_
