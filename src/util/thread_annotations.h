// Clang thread-safety annotations + annotated synchronization wrappers.
//
// The threaded read/serve path (sharded ChunkCache, CorpusServer worker
// pool, BatchRunner's scorer) keeps its locking discipline in comments —
// "guarded by mu", "only grows under conn_mu". This header turns those
// comments into compiler-checked contracts: under clang,
// `-Wthread-safety -Werror` rejects any access to a GUARDED_BY member
// without its mutex held, any ACQUIRE/RELEASE imbalance, and any
// REQUIRES violation. Off clang the macros expand to nothing, so gcc
// builds are byte-identical to before.
//
// std::mutex itself carries no annotations (libstdc++ ships none), so the
// analysis only sees locks taken through the annotated wrappers below:
//
//   Mutex mu_;
//   std::deque<Task> queue_ GUARDED_BY(mu_);
//   ...
//   MutexLock lock(mu_);   // SCOPED_CAPABILITY: held until end of scope
//   queue_.push_back(t);   // OK; without the lock: compile error on clang
//
// SharedMutex / ReaderMutexLock / WriterMutexLock mirror the same pattern
// for std::shared_mutex, and CondVar is a condition_variable_any bound to
// the annotated Mutex so waiting code keeps its capability visible to the
// analysis (use an explicit `while (!pred) cv.Wait(lock);` loop — a
// predicate lambda would be analyzed as a separate, lockless function).
//
// The wrappers are also the sched-points of the deterministic schedule
// explorer (src/analysis/sched/): every operation first tests the shared
// instr_gate bit (one relaxed atomic load, the same pattern as
// fault_injection.h) and, only when an explorer is active AND the calling
// thread participates in it, diverts into the scheduler's model instead
// of touching the real primitive. Unarmed, production code pays exactly
// that one load.

#ifndef SRC_UTIL_THREAD_ANNOTATIONS_H_
#define SRC_UTIL_THREAD_ANNOTATIONS_H_

#include <condition_variable>
#include <mutex>
#include <shared_mutex>
#include <thread>

#include "src/util/instr_gate.h"

#if defined(__clang__) && (!defined(SWIG))
#define DDR_THREAD_ANNOTATION_ATTRIBUTE(x) __attribute__((x))
#else
#define DDR_THREAD_ANNOTATION_ATTRIBUTE(x)  // no-op off clang
#endif

#define CAPABILITY(x) DDR_THREAD_ANNOTATION_ATTRIBUTE(capability(x))
#define SCOPED_CAPABILITY DDR_THREAD_ANNOTATION_ATTRIBUTE(scoped_lockable)

// Member `x` may only be touched while holding the named mutex(es).
#define GUARDED_BY(x) DDR_THREAD_ANNOTATION_ATTRIBUTE(guarded_by(x))
#define PT_GUARDED_BY(x) DDR_THREAD_ANNOTATION_ATTRIBUTE(pt_guarded_by(x))

// Function-level contracts: the caller must hold / must not hold.
#define REQUIRES(...) \
  DDR_THREAD_ANNOTATION_ATTRIBUTE(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  DDR_THREAD_ANNOTATION_ATTRIBUTE(requires_shared_capability(__VA_ARGS__))
#define EXCLUDES(...) DDR_THREAD_ANNOTATION_ATTRIBUTE(locks_excluded(__VA_ARGS__))

// Lock/unlock primitives (used on the wrappers below; user code should
// prefer the scoped lockers).
#define ACQUIRE(...) \
  DDR_THREAD_ANNOTATION_ATTRIBUTE(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  DDR_THREAD_ANNOTATION_ATTRIBUTE(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) \
  DDR_THREAD_ANNOTATION_ATTRIBUTE(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  DDR_THREAD_ANNOTATION_ATTRIBUTE(release_shared_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) \
  DDR_THREAD_ANNOTATION_ATTRIBUTE(try_acquire_capability(__VA_ARGS__))
#define RETURN_CAPABILITY(x) DDR_THREAD_ANNOTATION_ATTRIBUTE(lock_returned(x))

// Escape hatch — every use must say why in an adjacent comment.
#define NO_THREAD_SAFETY_ANALYSIS \
  DDR_THREAD_ANNOTATION_ATTRIBUTE(no_thread_safety_analysis)

namespace ddr {

// Raw std::thread is banned outside src/util/ by ddr-lint (ddr-raw-sync);
// this alias is the sanctioned spawn point. A thread object carries no
// lock state for the analysis, but routing spawns through one name keeps
// them auditable (and lintable) alongside the annotated primitives.
using OsThread = std::thread;

namespace sched_internal {
// Sched-point hooks, defined by the schedule explorer
// (src/analysis/sched/sched.cc). Each returns true when the operation was
// handled by the scheduler's model — the wrapper then skips the real
// primitive — and false when the calling thread is not a participant of
// an active exploration (the wrapper falls through to the real op).
// Callers must only consult these after an InstrArmed(kInstrSched) check.
bool LockHook(void* mu);
bool UnlockHook(void* mu);
bool TryLockHook(void* mu, bool* acquired);
bool SharedLockHook(void* mu, bool exclusive);
bool SharedUnlockHook(void* mu, bool exclusive);
bool CondWaitHook(void* cv, void* mu, bool timed);
bool CondNotifyHook(void* cv, bool all);
}  // namespace sched_internal

// std::mutex with the capability attributes the analysis needs. Satisfies
// BasicLockable, so std::condition_variable_any (CondVar below) and
// std::lock_guard both work on it.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() {
    if (InstrArmed(kInstrSched) && sched_internal::LockHook(this)) {
      return;
    }
    mu_.lock();
  }
  void unlock() RELEASE() {
    if (InstrArmed(kInstrSched) && sched_internal::UnlockHook(this)) {
      return;
    }
    mu_.unlock();
  }
  bool try_lock() TRY_ACQUIRE(true) {
    bool acquired = false;
    if (InstrArmed(kInstrSched) &&
        sched_internal::TryLockHook(this, &acquired)) {
      return acquired;
    }
    return mu_.try_lock();
  }

 private:
  std::mutex mu_;
};

// Scoped exclusive lock on a Mutex (the std::lock_guard shape).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// std::shared_mutex with capability attributes: exclusive for writers
// (generation swaps), shared for the request fan-in.
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() ACQUIRE() {
    if (InstrArmed(kInstrSched) &&
        sched_internal::SharedLockHook(this, /*exclusive=*/true)) {
      return;
    }
    mu_.lock();
  }
  void unlock() RELEASE() {
    if (InstrArmed(kInstrSched) &&
        sched_internal::SharedUnlockHook(this, /*exclusive=*/true)) {
      return;
    }
    mu_.unlock();
  }
  void lock_shared() ACQUIRE_SHARED() {
    if (InstrArmed(kInstrSched) &&
        sched_internal::SharedLockHook(this, /*exclusive=*/false)) {
      return;
    }
    mu_.lock_shared();
  }
  void unlock_shared() RELEASE_SHARED() {
    if (InstrArmed(kInstrSched) &&
        sched_internal::SharedUnlockHook(this, /*exclusive=*/false)) {
      return;
    }
    mu_.unlock_shared();
  }

 private:
  std::shared_mutex mu_;
};

class SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  ~WriterMutexLock() RELEASE() { mu_.unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

class SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.lock_shared();
  }
  // Generic RELEASE: a scoped capability releases whatever mode it
  // acquired (clang models shared release through the same attribute).
  ~ReaderMutexLock() RELEASE() { mu_.unlock_shared(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

// Condition variable bound to the annotated Mutex. Wait() takes the
// MutexLock it temporarily releases; because the caller's scoped lock is
// still in scope across the call, guarded reads in the caller's
// `while (!pred)` loop stay visibly protected to the analysis.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) REQUIRES(mu) NO_THREAD_SAFETY_ANALYSIS {
    // The capability is handed to cv_ for the duration of the sleep and
    // re-held on return — net zero, which the analysis cannot see; hence
    // the local suppression.
    if (InstrArmed(kInstrSched) &&
        sched_internal::CondWaitHook(this, &mu, /*timed=*/false)) {
      return;
    }
    cv_.wait(mu);
  }

  template <typename Rep, typename Period>
  void WaitFor(Mutex& mu, const std::chrono::duration<Rep, Period>& timeout)
      REQUIRES(mu) NO_THREAD_SAFETY_ANALYSIS {
    if (InstrArmed(kInstrSched) &&
        sched_internal::CondWaitHook(this, &mu, /*timed=*/true)) {
      return;
    }
    cv_.wait_for(mu, timeout);
  }

  void NotifyOne() {
    if (InstrArmed(kInstrSched) &&
        sched_internal::CondNotifyHook(this, /*all=*/false)) {
      return;
    }
    cv_.notify_one();
  }
  void NotifyAll() {
    if (InstrArmed(kInstrSched) &&
        sched_internal::CondNotifyHook(this, /*all=*/true)) {
      return;
    }
    cv_.notify_all();
  }

 private:
  std::condition_variable_any cv_;
};

}  // namespace ddr

#endif  // SRC_UTIL_THREAD_ANNOTATIONS_H_
