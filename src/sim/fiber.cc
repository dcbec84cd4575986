#include "src/sim/fiber.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "src/util/logging.h"

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

void Fiber::Launch(std::function<void()> entry, ucontext_t* scheduler) {
  CHECK(mapping_ == nullptr && !exited_) << "fiber launched twice";
  mapping_ = t_stack_pool.Take();
  entry_ = std::move(entry);
  scheduler_ = scheduler;

  CHECK_EQ(getcontext(&context_), 0);
  context_.uc_stack.ss_sp = static_cast<char*>(mapping_) + GuardBytes();
  context_.uc_stack.ss_size = kStackBytes;
  context_.uc_link = nullptr;  // Entry() never returns
  const auto self = reinterpret_cast<uintptr_t>(this);
  makecontext(&context_, reinterpret_cast<void (*)()>(&Fiber::Entry), 2,
              static_cast<unsigned int>(self >> 32),
              static_cast<unsigned int>(self & 0xffffffffu));
#ifdef DDR_TSAN_FIBERS
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

void Fiber::Entry(unsigned int self_hi, unsigned int self_lo) {
  Fiber* self = reinterpret_cast<Fiber*>((uintptr_t{self_hi} << 32) |
                                         uintptr_t{self_lo});
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
  __sanitizer_start_switch_fiber(&scheduler_fake_stack,
                                 context_.uc_stack.ss_sp, kStackBytes);
#endif
#ifdef DDR_TSAN_FIBERS
  tsan_scheduler_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
  CHECK_EQ(swapcontext(scheduler_, &context_), 0);
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
  CHECK_EQ(swapcontext(&context_, scheduler_), 0);
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
