// Recorder: base class for determinism-model recorders.
//
// A recorder is a TraceSink that (a) filters the event stream into an
// EventLog according to its determinism model and (b) charges its runtime
// cost into the environment's overhead ledger. Recording never influences
// the execution — the ledger is pure accounting.

#ifndef SRC_RECORD_RECORDER_H_
#define SRC_RECORD_RECORDER_H_

#include <string>

#include "src/record/cost_model.h"
#include "src/record/event_log.h"
#include "src/sim/environment.h"
#include "src/sim/event.h"

namespace ddr {

// Coarse event classification used by recorders' intercept/record sets.
enum class EventClass : uint8_t {
  kSchedule = 0,   // context switches
  kSync = 1,       // mutex/cond/sem operations, block/unblock
  kMemory = 2,     // instrumented shared reads/writes/rmw
  kInput = 3,
  kOutput = 4,
  kRng = 5,
  kMessage = 6,    // channel + network traffic
  kDisk = 7,
  kLifecycle = 8,  // fiber create/exit
  kMeta = 9,       // regions, annotations, failures, faults, triggers
};

EventClass ClassOf(EventType type);

class Recorder : public TraceSink {
 public:
  Recorder(std::string model_name, RecorderCostModel costs)
      : model_name_(std::move(model_name)), costs_(costs) {}

  // Must be called before the recorded run so overhead lands in the ledger.
  void AttachEnvironment(Environment* env) { env_ = env; }

  void OnEvent(const Event& event) final;

  // True if this recorder's hooks fire for the event at all.
  virtual bool Intercepts(const Event& event) const = 0;
  // True if the intercepted event is written to the log. Non-const: adaptive
  // recorders (RCSE) update internal fidelity state per event.
  virtual bool ShouldRecord(const Event& event) = 0;

  const std::string& model_name() const { return model_name_; }
  const EventLog& log() const { return log_; }
  EventLog TakeLog() { return std::move(log_); }

  uint64_t intercepted_events() const { return intercepted_; }
  uint64_t recorded_events() const { return recorded_; }

 protected:
  Environment* env_ = nullptr;

 private:
  std::string model_name_;
  RecorderCostModel costs_;
  EventLog log_;
  uint64_t intercepted_ = 0;
  uint64_t recorded_ = 0;
};

}  // namespace ddr

#endif  // SRC_RECORD_RECORDER_H_
