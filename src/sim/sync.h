// RAII wrappers over the environment's synchronization objects.
//
// These are what simulated programs use; they mirror std::mutex /
// std::condition_variable / counting semaphore idioms but schedule through
// the deterministic substrate and emit instrumentation events.

#ifndef SRC_SIM_SYNC_H_
#define SRC_SIM_SYNC_H_

#include <string>

#include "src/sim/environment.h"
#include "src/sim/types.h"

namespace ddr {

class SimMutex {
 public:
  SimMutex(Environment& env, const std::string& name)
      : env_(env), id_(env.CreateMutex(name)) {}

  void Lock() { env_.MutexLock(id_); }
  void Unlock() { env_.MutexUnlock(id_); }

  ObjectId id() const { return id_; }
  Environment& env() { return env_; }

 private:
  Environment& env_;
  ObjectId id_;
};

// Scoped lock (analog of std::lock_guard).
class SimLock {
 public:
  explicit SimLock(SimMutex& mutex) : mutex_(mutex) { mutex_.Lock(); }
  ~SimLock() { mutex_.Unlock(); }

  SimLock(const SimLock&) = delete;
  SimLock& operator=(const SimLock&) = delete;

 private:
  SimMutex& mutex_;
};

class SimCondVar {
 public:
  SimCondVar(Environment& env, const std::string& name)
      : env_(env), id_(env.CreateCondVar(name)) {}

  // Atomically releases `mutex`, waits for Signal/Broadcast, reacquires.
  void Wait(SimMutex& mutex) { env_.CondWait(id_, mutex.id()); }

  template <typename Predicate>
  void WaitUntil(SimMutex& mutex, Predicate pred) {
    while (!pred()) {
      Wait(mutex);
    }
  }

  void Signal() { env_.CondSignal(id_); }
  void Broadcast() { env_.CondBroadcast(id_); }

  ObjectId id() const { return id_; }

 private:
  Environment& env_;
  ObjectId id_;
};

class SimSemaphore {
 public:
  SimSemaphore(Environment& env, const std::string& name, uint64_t initial)
      : env_(env), id_(env.CreateSemaphore(name, initial)) {}

  void Acquire() { env_.SemAcquire(id_); }
  void Release() { env_.SemRelease(id_); }

  ObjectId id() const { return id_; }

 private:
  Environment& env_;
  ObjectId id_;
};

// One-shot barrier: Arrive() blocks until `parties` fibers have arrived.
class SimBarrier {
 public:
  SimBarrier(Environment& env, const std::string& name, uint64_t parties)
      : env_(env),
        parties_(parties),
        queue_(env.CreateWaitQueue(name)),
        arrived_(env.CreateCell(name + ".arrived", 0)) {}

  void Arrive() {
    const uint64_t order = env_.CellRmw(arrived_, [](uint64_t v) { return v + 1; });
    if (order + 1 == parties_) {
      env_.NotifyAll(queue_);
      return;
    }
    // Re-check after waking: NotifyAll may race with late arrivals only in
    // the sense of FIFO wake order; the count is monotonic so one check
    // against the uninstrumented value suffices.
    while (env_.CellPeek(arrived_) < parties_) {
      env_.WaitOn(queue_);
    }
  }

 private:
  Environment& env_;
  uint64_t parties_;
  ObjectId queue_;
  ObjectId arrived_;
};

}  // namespace ddr

#endif  // SRC_SIM_SYNC_H_
