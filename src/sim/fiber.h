// Cooperative fibers: coroutines that run on the OS thread that called
// Environment::Run.
//
// Exactly one context (either the scheduler or a single fiber) runs at any
// moment; control transfers through explicit calls to ddr_fiber_switch
// (SwitchIn / SwitchToScheduler), a register-only x86-64 context switch in
// fiber_switch.S that saves the callee-saved registers, MXCSR and the x87
// control word and makes no system call. Because every transfer is explicit
// and the scheduler picks successors deterministically, an execution is a
// pure function of (program, seed, director) — the property the whole
// toolkit rests on.
//
// Each fiber runs on an mmap'd stack of kStackBytes with a PROT_NONE guard
// page below it, so an overflow faults loudly instead of corrupting a
// neighbour. A finished fiber's stack goes back to a small per-OS-thread
// pool for the next fiber spawned there.
//
// Under ASan/TSan every switch is announced to the sanitizer, which would
// otherwise misreport unwinding or accesses on the fiber stacks. Simulated
// code must not block or yield inside a catch handler: the C++ runtime's
// caught-exception stack is per OS thread, not per fiber.

#ifndef SRC_SIM_FIBER_H_
#define SRC_SIM_FIBER_H_

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "src/sim/types.h"

namespace ddr {

// Thrown inside a fiber to unwind it when the environment tears it down
// (program end, node crash, abort). Deliberately not derived from
// std::exception so that application-level catch(std::exception&) blocks do
// not swallow it. Simulated code must not use catch(...).
struct FiberKilled {};

// A suspended context: the stack pointer ddr_fiber_switch saved, with the
// context's callee-saved registers stored just above it.
struct FiberContext {
  void* sp = nullptr;
};

// Why a blocked fiber resumed.
enum class WakeReason : uint8_t {
  kNotified = 0,
  kTimeout = 1,
  kKilled = 2,
};

class Fiber {
 public:
  enum class State : uint8_t {
    kRunnable,
    kRunning,
    kBlocked,
    kFinished,
  };

  // Usable stack per fiber (the guard page comes on top).
  static constexpr size_t kStackBytes = 256 * 1024;

  Fiber(FiberId id, NodeId node, std::string name);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  // Takes a stack and prepares the context; `entry` runs on the first
  // SwitchIn(). `scheduler` is where SwitchToScheduler() returns to.
  void Launch(std::function<void()> entry, FiberContext* scheduler);

  // Scheduler -> fiber: runs the fiber until it switches back. Once `entry`
  // has returned, the stack is released before this returns. Must be called
  // on the OS thread that called Launch().
  void SwitchIn();
  // Fiber -> scheduler: parks this fiber until the next SwitchIn().
  void SwitchToScheduler();

  FiberId id() const { return id_; }
  NodeId node() const { return node_; }
  const std::string& name() const { return name_; }

  State state() const { return state_; }
  void set_state(State state) { state_ = state; }

  bool kill_requested() const { return kill_requested_; }
  void request_kill() { kill_requested_ = true; }

  WakeReason wake_reason() const { return wake_reason_; }
  void set_wake_reason(WakeReason reason) { wake_reason_ = reason; }

  // Monotonic counter distinguishing successive blocking episodes, so stale
  // timers cannot wake a later, unrelated wait.
  uint64_t block_generation() const { return block_generation_; }
  void bump_block_generation() { ++block_generation_; }

  // Object this fiber is currently blocked on (kInvalidObject for sleeps).
  ObjectId blocked_on() const { return blocked_on_; }
  void set_blocked_on(ObjectId obj) { blocked_on_ = obj; }

  // Current code-region stack (top = innermost region).
  std::vector<RegionId>& region_stack() { return region_stack_; }
  RegionId current_region() const {
    return region_stack_.empty() ? kDefaultRegion : region_stack_.back();
  }

  // Fibers waiting in Join() on this fiber.
  std::vector<FiberId>& joiners() { return joiners_; }

 private:
  // First frame on a fresh stack, called by ddr_fiber_start. Never returns.
  // noexcept: an exception escaping the fiber's body terminates the process
  // here instead of unwinding into the switch.
  static void Entry(Fiber* self) noexcept;
  void ReleaseStack();

  const FiberId id_;
  const NodeId node_;
  const std::string name_;

  State state_ = State::kRunnable;
  bool kill_requested_ = false;
  WakeReason wake_reason_ = WakeReason::kNotified;
  uint64_t block_generation_ = 0;
  ObjectId blocked_on_ = kInvalidObject;

  std::vector<RegionId> region_stack_;
  std::vector<FiberId> joiners_;

  std::function<void()> entry_;
  bool exited_ = false;  // entry_ returned; the stack is dead
  void* mapping_ = nullptr;  // guard page + stack, nullptr once released
  FiberContext context_;
  FiberContext* scheduler_ = nullptr;

  // Sanitizer bookkeeping (unused without ASan/TSan).
  void* asan_fake_stack_ = nullptr;
  const void* scheduler_stack_bottom_ = nullptr;
  size_t scheduler_stack_size_ = 0;
  void* tsan_fiber_ = nullptr;
  void* tsan_scheduler_ = nullptr;
};

}  // namespace ddr

#endif  // SRC_SIM_FIBER_H_
