#include "src/sim/fiber.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "src/util/logging.h"

#if !defined(__x86_64__)
#error "ddr_fiber_switch (fiber_switch.S) and the frame Fiber::Launch seeds for it are x86-64 only; port them"
#endif

#if defined(__SANITIZE_ADDRESS__)
#define DDR_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DDR_ASAN_FIBERS 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define DDR_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DDR_TSAN_FIBERS 1
#endif
#endif

#ifdef DDR_ASAN_FIBERS
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef DDR_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif

// Defined in fiber_switch.S.
extern "C" void ddr_fiber_switch(void** save_sp, void* load_sp);
extern "C" void ddr_fiber_start();

namespace ddr {

namespace {

size_t GuardBytes() {
  static const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

size_t MappingBytes() { return GuardBytes() + Fiber::kStackBytes; }

// Finished fibers' stacks, kept for reuse by the next fibers spawned on
// this OS thread. A fiber's life is often a few microseconds, and a fresh
// mmap + mprotect + munmap per fiber (with its page faults and, across
// server worker threads, mmap-lock contention) would cost more than that.
class StackPool {
 public:
  StackPool() = default;
  StackPool(const StackPool&) = delete;
  StackPool& operator=(const StackPool&) = delete;
  ~StackPool() {
    for (void* mapping : free_) {
      munmap(mapping, MappingBytes());
    }
  }

  // Returns a guard page followed by kStackBytes of stack.
  void* Take() {
    if (!free_.empty()) {
      void* mapping = free_.back();
      free_.pop_back();
#ifdef DDR_ASAN_FIBERS
      // The previous fiber's final frames left their redzones poisoned.
      ASAN_UNPOISON_MEMORY_REGION(static_cast<char*>(mapping) + GuardBytes(),
                                  Fiber::kStackBytes);
#endif
      return mapping;
    }
    void* mapping = mmap(nullptr, MappingBytes(), PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
    CHECK(mapping != MAP_FAILED) << "cannot map a fiber stack";
    // Stacks grow down: the lowest page is the guard.
    CHECK_EQ(mprotect(mapping, GuardBytes(), PROT_NONE), 0);
    return mapping;
  }

  void Give(void* mapping) {
    if (free_.size() < kMaxPooled) {
      free_.push_back(mapping);
    } else {
      CHECK_EQ(munmap(mapping, MappingBytes()), 0);
    }
  }

 private:
  static constexpr size_t kMaxPooled = 32;
  std::vector<void*> free_;
};

thread_local StackPool t_stack_pool;

}  // namespace

Fiber::Fiber(FiberId id, NodeId node, std::string name)
    : id_(id), node_(node), name_(std::move(name)) {}

Fiber::~Fiber() {
  CHECK(mapping_ == nullptr) << "fiber '" << name_
                             << "' destroyed while not finished";
}

void Fiber::Launch(std::function<void()> entry, FiberContext* scheduler) {
  CHECK(mapping_ == nullptr && !exited_) << "fiber launched twice";
  mapping_ = t_stack_pool.Take();
  entry_ = std::move(entry);
  scheduler_ = scheduler;

  // The frame ddr_fiber_switch pops (fiber_switch.S). Its `ret` enters
  // ddr_fiber_start with rsp at the page-aligned stack top, so the thunk's
  // call to Entry(this) is 16-byte aligned. The fiber starts with the
  // launcher's floating-point control state, as a new thread would.
  uint32_t mxcsr = 0;
  uint16_t x87_control = 0;
  __asm__("stmxcsr %0" : "=m"(mxcsr));
  __asm__("fnstcw %0" : "=m"(x87_control));
  auto* frame = reinterpret_cast<uintptr_t*>(static_cast<char*>(mapping_) +
                                             MappingBytes()) - 8;
  frame[0] = mxcsr | uintptr_t{x87_control} << 32;
  frame[1] = 0;                                          // r15
  frame[2] = 0;                                          // r14
  frame[3] = 0;                                          // r13
  frame[4] = reinterpret_cast<uintptr_t>(&Fiber::Entry);  // r12
  frame[5] = reinterpret_cast<uintptr_t>(this);          // rbx
  frame[6] = 0;                                          // rbp
  frame[7] = reinterpret_cast<uintptr_t>(&ddr_fiber_start);
  context_.sp = frame;
#ifdef DDR_TSAN_FIBERS
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

void Fiber::Entry(Fiber* self) noexcept {
#ifdef DDR_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(nullptr, &self->scheduler_stack_bottom_,
                                  &self->scheduler_stack_size_);
#endif
  self->entry_();
  self->exited_ = true;
  self->SwitchToScheduler();
  LOG(FATAL) << "finished fiber '" << self->name_ << "' was resumed";
}

void Fiber::SwitchIn() {
  CHECK(mapping_ != nullptr) << "switch into fiber '" << name_
                             << "' that is not running";
#ifdef DDR_ASAN_FIBERS
  void* scheduler_fake_stack = nullptr;
  __sanitizer_start_switch_fiber(
      &scheduler_fake_stack, static_cast<char*>(mapping_) + GuardBytes(),
      kStackBytes);
#endif
#ifdef DDR_TSAN_FIBERS
  tsan_scheduler_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
  ddr_fiber_switch(&scheduler_->sp, context_.sp);
#ifdef DDR_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(scheduler_fake_stack, nullptr, nullptr);
#endif
  if (exited_) {
    ReleaseStack();
  }
}

void Fiber::SwitchToScheduler() {
#ifdef DDR_ASAN_FIBERS
  // A fiber leaving for good hands ASan no save slot, so its fake stack is
  // freed rather than kept for a resume that never comes.
  __sanitizer_start_switch_fiber(exited_ ? nullptr : &asan_fake_stack_,
                                 scheduler_stack_bottom_,
                                 scheduler_stack_size_);
#endif
#ifdef DDR_TSAN_FIBERS
  __tsan_switch_to_fiber(tsan_scheduler_, 0);
#endif
  ddr_fiber_switch(&context_.sp, scheduler_->sp);
#ifdef DDR_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(asan_fake_stack_, &scheduler_stack_bottom_,
                                  &scheduler_stack_size_);
#endif
}

void Fiber::ReleaseStack() {
#ifdef DDR_TSAN_FIBERS
  __tsan_destroy_fiber(tsan_fiber_);
  tsan_fiber_ = nullptr;
#endif
  t_stack_pool.Give(mapping_);
  mapping_ = nullptr;
  entry_ = nullptr;
}

}  // namespace ddr
