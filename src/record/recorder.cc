#include "src/record/recorder.h"

namespace ddr {

EventClass ClassOf(EventType type) {
  switch (type) {
    case EventType::kContextSwitch:
      return EventClass::kSchedule;
    case EventType::kMutexLock:
    case EventType::kMutexUnlock:
    case EventType::kCondWait:
    case EventType::kCondSignal:
    case EventType::kCondBroadcast:
    case EventType::kSemAcquire:
    case EventType::kSemRelease:
    case EventType::kFiberBlock:
    case EventType::kFiberUnblock:
      return EventClass::kSync;
    case EventType::kSharedRead:
    case EventType::kSharedWrite:
    case EventType::kSharedRmw:
      return EventClass::kMemory;
    case EventType::kInput:
      return EventClass::kInput;
    case EventType::kOutput:
      return EventClass::kOutput;
    case EventType::kRngDraw:
      return EventClass::kRng;
    case EventType::kChannelSend:
    case EventType::kChannelRecv:
    case EventType::kNetSend:
    case EventType::kNetDeliver:
    case EventType::kNetRecv:
    case EventType::kNetDrop:
      return EventClass::kMessage;
    case EventType::kDiskWrite:
    case EventType::kDiskRead:
      return EventClass::kDisk;
    case EventType::kFiberCreate:
    case EventType::kFiberExit:
      return EventClass::kLifecycle;
    case EventType::kClockRead:
    case EventType::kSleep:
    case EventType::kRegionEnter:
    case EventType::kRegionExit:
    case EventType::kAnnotation:
    case EventType::kFailure:
    case EventType::kFaultInject:
    case EventType::kTriggerFire:
    case EventType::kNodeCrash:
      return EventClass::kMeta;
  }
  return EventClass::kMeta;
}

void Recorder::OnEvent(const Event& event) {
  if (!Intercepts(event)) {
    return;
  }
  ++intercepted_;
  if (ShouldRecord(event)) {
    ++recorded_;
    const uint64_t before = log_.encoded_size_bytes();
    log_.Append(event);
    recorded_bytes_ += log_.encoded_size_bytes() - before + event.bytes;
  }
}

SimDuration Recorder::overhead_nanos() const {
  return costs_.interposition_cost * static_cast<SimDuration>(intercepted_) +
         costs_.log_event_cost * static_cast<SimDuration>(recorded_) +
         costs_.log_byte_cost * static_cast<SimDuration>(recorded_bytes_);
}

}  // namespace ddr
