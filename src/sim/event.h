// The universal event model.
//
// Every nondeterministic (or analysis-relevant) action in a simulated
// execution is materialized as an Event and fanned out to TraceSinks:
// recorders, race detectors, plane profilers, invariant monitors, metrics.
// The design mirrors what binary instrumentation gives real replay systems:
// an interposition point on every source of nondeterminism.

#ifndef SRC_SIM_EVENT_H_
#define SRC_SIM_EVENT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/sim/types.h"
#include "src/util/codec.h"
#include "src/util/hash.h"

namespace ddr {

enum class EventType : uint8_t {
  // Fiber lifecycle and scheduling.
  kFiberCreate = 0,
  kFiberExit = 1,
  kContextSwitch = 2,   // obj = previous fiber, value = next fiber
  kFiberBlock = 3,      // obj = object blocked on
  kFiberUnblock = 4,    // obj = object that unblocked the fiber

  // Synchronization.
  kMutexLock = 5,
  kMutexUnlock = 6,
  kCondWait = 7,
  kCondSignal = 8,
  kCondBroadcast = 9,
  kSemAcquire = 10,
  kSemRelease = 11,

  // Instrumented shared memory. value = value read/written.
  kSharedRead = 12,
  kSharedWrite = 13,
  kSharedRmw = 14,  // value = new value, aux = old value

  // External nondeterminism.
  kInput = 15,     // obj = input source, value = value read, bytes = size
  kOutput = 16,    // obj = output sink, value = value, bytes = size
  kRngDraw = 17,   // value = drawn value, obj = purpose tag

  // Messaging.
  kChannelSend = 18,   // obj = channel, bytes = payload size, value = msg hash
  kChannelRecv = 19,
  kNetSend = 20,       // obj = endpoint, value = message id
  kNetDeliver = 21,    // obj = endpoint, value = message id
  kNetRecv = 22,       // obj = endpoint, value = message id
  kNetDrop = 23,       // obj = endpoint, value = message id, aux = reason

  // Time.
  kClockRead = 24,  // value = virtual now
  kSleep = 25,      // value = duration

  // Disk.
  kDiskWrite = 26,  // obj = disk, bytes = size
  kDiskRead = 27,

  // Structure and diagnostics.
  kRegionEnter = 28,  // obj = region id
  kRegionExit = 29,
  kAnnotation = 30,  // obj = annotation tag, value = payload
  kFailure = 31,     // obj = failure kind, value = detail hash
  kFaultInject = 32,  // obj = fault kind, value = target
  kTriggerFire = 33,  // obj = trigger id (emitted by RCSE machinery)
  kNodeCrash = 34,    // obj = node id
};

std::string_view EventTypeName(EventType type);

// Kinds of failures a simulated execution can end with. The values are part
// of failure snapshots, so they are stable.
enum class FailureKind : uint8_t {
  kNone = 0,
  kCrash = 1,          // explicit SimAbort / assertion failure
  kSpecViolation = 2,  // I/O specification violated (wrong output)
  kPerformance = 3,    // performance characteristics out of spec
  kDeadlock = 4,       // no runnable fiber, no pending timer
  kOom = 5,            // simulated out-of-memory
};

std::string_view FailureKindName(FailureKind kind);

// Why the previously running fiber relinquished control at a context switch.
// Encoded in the low bits of kContextSwitch's aux field; replay directors use
// it to re-force preemptions at exactly the recorded decision points.
enum class SwitchCause : uint8_t {
  kNone = 0,     // first switch of the run
  kPreempt = 1,  // involuntary preemption at a decision point
  kYield = 2,    // voluntary Yield()
  kBlocked = 3,  // previous fiber blocked
  kExit = 4,     // previous fiber finished
};

// kContextSwitch aux packing: (decision_seq << 3) | cause.
constexpr uint64_t PackSwitchAux(uint64_t decision_seq, SwitchCause cause) {
  return (decision_seq << 3) | static_cast<uint64_t>(cause);
}
constexpr uint64_t SwitchAuxDecision(uint64_t aux) { return aux >> 3; }
constexpr SwitchCause SwitchAuxCause(uint64_t aux) {
  return static_cast<SwitchCause>(aux & 0x7);
}

struct Event {
  uint64_t seq = 0;       // global sequence number, dense from 0
  SimTime time = 0;       // virtual time of the event
  FiberId fiber = kInvalidFiber;
  NodeId node = 0;
  EventType type = EventType::kAnnotation;
  ObjectId obj = kInvalidObject;
  uint64_t value = 0;
  uint64_t aux = 0;
  RegionId region = kDefaultRegion;
  uint32_t bytes = 0;  // data volume attributed to this event

  // Stable fingerprint of the event's semantic content (excludes seq/time so
  // that overhead accounting does not perturb fingerprints).
  uint64_t SemanticHash() const {
    uint64_t h = kFnvOffsetBasis;
    h = HashCombine(h, static_cast<uint64_t>(type));
    h = HashCombine(h, fiber);
    h = HashCombine(h, node);
    h = HashCombine(h, obj);
    h = HashCombine(h, value);
    h = HashCombine(h, aux);
    h = HashCombine(h, bytes);
    return h;
  }

  void EncodeTo(Encoder* encoder) const;
  static Result<Event> DecodeFrom(Decoder* decoder);

  // Exact size of EncodeTo's output, computed without materializing the
  // bytes — hot read/append paths account sizes with this instead of
  // encoding into a throwaway buffer.
  uint64_t EncodedSizeBytes() const;

  std::string ToString() const;
};

// Receives every event of an execution, in order.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void OnEvent(const Event& event) = 0;
};

// Stores events in memory (tests, analyses, fidelity evaluation).
class CollectingSink : public TraceSink {
 public:
  // max_events bounds memory; 0 means unlimited.
  explicit CollectingSink(size_t max_events = 0) : max_events_(max_events) {}

  void OnEvent(const Event& event) override {
    if (max_events_ == 0 || events_.size() < max_events_) {
      events_.push_back(event);
    }
    ++total_;
  }

  const std::vector<Event>& events() const { return events_; }
  // Moves the collected events out, leaving the sink empty.
  std::vector<Event> TakeEvents() { return std::exchange(events_, {}); }
  uint64_t total_seen() const { return total_; }
  void Clear() {
    events_.clear();
    total_ = 0;
  }

 private:
  size_t max_events_;
  std::vector<Event> events_;
  uint64_t total_ = 0;
};

// Computes a running fingerprint of the semantic event stream.
class FingerprintSink : public TraceSink {
 public:
  void OnEvent(const Event& event) override { fp_.Mix(event.SemanticHash()); }
  uint64_t fingerprint() const { return fp_.value(); }

 private:
  Fingerprint fp_;
};

}  // namespace ddr

#endif  // SRC_SIM_EVENT_H_
