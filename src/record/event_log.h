// EventLog: the serialized product of recording.
//
// A log is an ordered subset of an execution's events. Its encoded size is
// the "bytes logged" metric; replay directors build playback indices
// (schedules, value FIFOs) from it.

#ifndef SRC_RECORD_EVENT_LOG_H_
#define SRC_RECORD_EVENT_LOG_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/sim/event.h"
#include "src/util/codec.h"
#include "src/util/status.h"

namespace ddr {

class EventLog {
 public:
  EventLog() = default;

  void Append(const Event& event);

  // Bulk append, no per-event temporaries. The trace/corpus readers
  // rebuild logs chunk-at-a-time through this; callers that know the
  // final size Reserve() it up front so chunk appends never reallocate.
  void AppendAll(const Event* events, size_t count);
  void Reserve(size_t capacity) { events_.reserve(capacity); }

  const std::vector<Event>& events() const { return events_; }
  size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }

  // Total size of the varint-encoded log, maintained incrementally.
  uint64_t encoded_size_bytes() const { return encoded_size_bytes_; }

  uint64_t CountOfType(EventType type) const {
    return counts_[static_cast<size_t>(type)];
  }

  std::vector<Event> EventsOfType(EventType type) const;

  // Full serialization (header + events).
  std::vector<uint8_t> Encode() const;
  static Result<EventLog> Decode(const std::vector<uint8_t>& bytes);

 private:
  std::vector<Event> events_;
  uint64_t encoded_size_bytes_ = 0;
  std::array<uint64_t, 64> counts_{};
};

}  // namespace ddr

#endif  // SRC_RECORD_EVENT_LOG_H_
