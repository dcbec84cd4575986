// Deterministic schedule explorer: record/replay race & deadlock
// detection for the repo's own concurrency.
//
// TSan (PR 9) checks whatever interleavings the OS happens to produce.
// This engine makes the interleaving itself the recorded artifact — the
// paper's debug-determinism loop applied to our own tooling: a failing
// exploration hands back a compact decision string, and replaying that
// string reproduces the exact interleaving (and therefore the exact
// deadlock / lost wakeup) bit-identically.
//
// Model: a test body runs under a cooperative scheduler that admits ONE
// runnable thread at a time. Every operation on the annotated wrappers
// (ddr::Mutex / CondVar, hooked in
// src/util/thread_annotations.h) plus sched::SharedVar accesses and
// Spawn/Join are sched-points: the running thread logs an event, applies
// the operation to the scheduler's model of the primitive, and hands the
// token to a scheduler-chosen next thread. A blocked thread is eligible
// to run only when its wait is satisfiable (mutex free, join target
// finished, notify pending...). The body must do all cross-thread
// communication through sched-point operations; plain shared memory
// would be invisible to the model (use SharedVar<T>).
//
// Decision strings ("v1:" + one base-36 digit per choice point): a digit
// is recorded only where two or more threads were eligible, and indexes
// the sorted eligible set. Replay follows the digits and extends past
// the end with the default policy (keep the current thread running), so
// a prefix reproduces everything it recorded. A schedule replayed
// against the wrong body fails loudly instead of silently diverging.
//
// Exploration = seeded random walks + iterative bounded-preemption DFS
// (CHESS-style: most concurrency bugs need <= 2 forced preemptions, so
// the bounded search is small but dense in bugs). Detectors:
//
//   deadlock          no thread eligible, some thread unfinished
//   lost-wakeup       every unfinished thread is parked in an untimed
//                     CondVar wait — nobody can ever notify
//   lock-order-cycle  the per-run acquisition graph (edge: held -> newly
//                     wanted) closed a cycle, even if this particular
//                     run got through without deadlocking
//
// Substrate: every participant thread, the body's own t0 included, runs
// as a ddr::Fiber (src/sim/fiber.h) on the OS thread that called the
// explorer, so a handoff is a context switch and no engine lock is
// needed: only one fiber ever runs. A body sees the caller's
// std::this_thread::get_id(). The fiber rule applies: a body must not
// block or yield (hit a sched-point) inside a catch handler, because the
// C++ runtime's caught-exception stack is per OS thread, not per fiber.
//
// On a finding the run is poisoned: the engine resumes every unfinished
// fiber, whose next sched-point throws SchedKilled through its own stack
// so its destructors run (models must not swallow it with catch-all),
// and the finding carries the decision string that reproduces it.

#ifndef SRC_ANALYSIS_SCHED_SCHED_H_
#define SRC_ANALYSIS_SCHED_SCHED_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/util/instr_gate.h"
#include "src/util/status.h"

namespace ddr::sched {

// Thrown through parked threads to unwind them after a finding poisons
// the run. Deliberately not derived from std::exception so a model's
// `catch (const std::exception&)` cannot swallow it by accident.
struct SchedKilled {};

enum class FindingKind : uint8_t {
  kDeadlock,
  kLockOrderCycle,
  kLostWakeup,
};

// Stable names for CLI/JSON: "deadlock", "lock-order-cycle",
// "lost-wakeup".
const char* FindingKindName(FindingKind kind);

struct SchedFinding {
  FindingKind kind = FindingKind::kDeadlock;
  std::string message;   // human-readable, thread/object names inline
  std::string schedule;  // decision string that reproduces this finding
};

// One recorded choice point; exposed so the DFS can backtrack.
struct SchedDecision {
  uint8_t num_choices = 0;  // eligible threads at this point (>= 2)
  uint8_t chosen = 0;       // index picked into the sorted eligible set
  int8_t current_index = -1;  // index of the running thread, -1 if blocked
};

struct RunResult {
  std::string schedule;  // "v1:..." decision string of this execution
  std::vector<std::string> events;  // "t1 lock m0", in execution order
  std::vector<SchedFinding> findings;
  std::vector<SchedDecision> decisions;
  int preemptions = 0;  // choices that switched away from a runnable thread
};

// Handle to a thread spawned inside an exploration body. Join() is a
// sched-point; joining is mandatory before the body returns unless the
// run was poisoned (teardown then reaps the thread).
class SchedThread {
 public:
  SchedThread() = default;
  explicit SchedThread(int id) : id_(id) {}
  SchedThread(SchedThread&& other) noexcept : id_(other.id_) {
    other.id_ = -1;
  }
  SchedThread& operator=(SchedThread&& other) noexcept {
    id_ = other.id_;
    other.id_ = -1;
    return *this;
  }
  SchedThread(const SchedThread&) = delete;
  SchedThread& operator=(const SchedThread&) = delete;

  void Join();

 private:
  int id_ = -1;
};

// Spawns a participant thread. Must be called from inside an exploration
// body (the body itself runs as t0); spawning is a sched-point.
SchedThread Spawn(std::function<void()> fn);

// A sched-point memory access for `object`. No-op outside an
// exploration. Used by SharedVar; exposed for models with bespoke shared
// state.
void MemoryAccessPoint(const void* object, bool write);

// Shared scalar whose loads and stores are sched-points, so the
// explorer can interleave check-then-wait against store-then-notify —
// the window where lost wakeups live. Atomic storage keeps the
// production path (explorer unarmed) race-free too.
template <typename T>
class SharedVar {
 public:
  SharedVar() = default;
  explicit SharedVar(T initial) : value_(initial) {}

  // The sched-point comes AFTER the access: the caller then holds a
  // possibly-stale value in a register while other threads run, which is
  // the exact hazard (check-then-wait vs store-then-notify) the explorer
  // needs to be able to interleave.
  T Load() const {
    const T value = value_.load(std::memory_order_seq_cst);
    MemoryAccessPoint(this, /*write=*/false);
    return value;
  }
  void Store(T value) {
    value_.store(value, std::memory_order_seq_cst);
    MemoryAccessPoint(this, /*write=*/true);
  }

 private:
  std::atomic<T> value_{};
};

// Runs `body` once under the scheduler, following `schedule` (a "v1:..."
// decision string; "v1:" alone = pure default policy). Errors on a
// malformed string or one that does not fit this body's choice points —
// a wrong-model replay must be loud, not quietly divergent.
Result<RunResult> RunWithSchedule(const std::function<void()>& body,
                                  const std::string& schedule);

// Runs `body` once under a seeded random-walk scheduler. The resulting
// RunResult::schedule replays the identical execution.
RunResult RandomWalk(const std::function<void()>& body, uint64_t seed);

struct ExploreOptions {
  uint64_t dfs_budget = 256;     // max bounded-preemption DFS executions
  uint64_t random_budget = 64;   // seeded random walks after/alongside DFS
  int preempt_bound = 2;         // max forced preemptions per DFS execution
  uint64_t seed = 1;             // base seed for the random walks
};

struct ExploreReport {
  uint64_t runs = 0;
  uint64_t dfs_runs = 0;
  uint64_t random_runs = 0;
  bool dfs_exhausted = false;  // bounded space fully enumerated in budget
  // Deduplicated by (kind, message); each carries a reproducing schedule.
  std::vector<SchedFinding> findings;
};

// Bounded-preemption DFS over the body's interleavings, then seeded
// random walks. Every execution is deterministic; the whole exploration
// is a pure function of (body, options).
ExploreReport Explore(const std::function<void()>& body,
                      const ExploreOptions& options = {});

}  // namespace ddr::sched

#endif  // SRC_ANALYSIS_SCHED_SCHED_H_
