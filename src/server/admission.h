// The corpus server's admission queue and stop latch, kept apart from
// its sockets and threads so the schedule explorer's `server-queue`
// model (src/analysis/sched/models.cc) drives the code the server runs.

#ifndef SRC_SERVER_ADMISSION_H_
#define SRC_SERVER_ADMISSION_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <utility>

#include "src/util/thread_annotations.h"

namespace ddr {

enum class PushResult : uint8_t {
  kAccepted = 0,
  kFull = 1,    // bounded queue overflow -> loud Unavailable
  kClosed = 2,  // server draining -> Unavailable, but not an overload
};

// Bounded, and never blocks a producer: a full queue answers kFull, a
// closed one kClosed. The capacity is clamped to at least 1.
template <typename T>
class AdmissionQueue {
 public:
  explicit AdmissionQueue(size_t capacity)
      : capacity_(std::max<size_t>(capacity, 1)) {}

  size_t capacity() const { return capacity_; }

  PushResult TryPush(T item) {
    {
      MutexLock lock(mu_);
      if (closed_) {
        return PushResult::kClosed;
      }
      if (items_.size() >= capacity_) {
        return PushResult::kFull;
      }
      items_.push_back(std::move(item));
    }
    cv_.NotifyOne();
    return PushResult::kAccepted;
  }

  // Blocks for work; nullopt once the queue is closed and drained.
  std::optional<T> Pop() {
    MutexLock lock(mu_);
    while (items_.empty() && !closed_) {
      cv_.Wait(mu_);
    }
    if (items_.empty()) {
      return std::nullopt;
    }
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  // Refuses further pushes and wakes every Pop; items already admitted
  // are still handed out. Idempotent.
  void Close() {
    {
      MutexLock lock(mu_);
      closed_ = true;
    }
    cv_.NotifyAll();
  }

 private:
  const size_t capacity_;
  Mutex mu_;
  CondVar cv_;
  std::deque<T> items_ GUARDED_BY(mu_);
  bool closed_ GUARDED_BY(mu_) = false;
};

// A one-way stop flag with a blocking wait. The flag is read and written
// only under mu_, so a Request cannot slip into the window between a
// waiter's check and its sleep. Request is idempotent.
class StopLatch {
 public:
  void Request() {
    MutexLock lock(mu_);
    requested_ = true;
    cv_.NotifyAll();
  }

  bool requested() const {
    MutexLock lock(mu_);
    return requested_;
  }

  void Wait() {
    MutexLock lock(mu_);
    while (!requested_) {
      cv_.Wait(mu_);
    }
  }

 private:
  mutable Mutex mu_;
  CondVar cv_;
  bool requested_ GUARDED_BY(mu_) = false;
};

}  // namespace ddr

#endif  // SRC_SERVER_ADMISSION_H_
