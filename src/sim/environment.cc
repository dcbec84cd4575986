#include "src/sim/environment.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/sim/program.h"
#include "src/util/logging.h"

namespace ddr {

Environment::Environment(Options options)
    : options_(options), scheduler_rng_(options.seed) {
  node_names_.push_back("node0");
  node_alive_.push_back(true);
  region_names_.push_back("(default)");
}

Environment::~Environment() {
  // Fibers are drained and destroyed at the end of Run(); if Run() was never
  // called there is nothing to clean up.
  CHECK(fibers_.empty()) << "environment destroyed with live fibers";
}

void Environment::AddTraceSink(TraceSink* sink) {
  CHECK(!started_) << "sinks must be added before Run()";
  CHECK(sink != nullptr);
  sinks_.push_back(sink);
}

void Environment::SetDirector(ExecutionDirector* director) {
  CHECK(!started_) << "director must be set before Run()";
  director_ = director;
}

void Environment::SetFaultPlan(FaultPlan plan) {
  CHECK(!started_);
  fault_plan_ = std::move(plan);
}

void Environment::SetIoSpec(IoSpec spec) {
  // Programs register their spec from Configure(), which runs inside Run().
  io_spec_ = std::move(spec);
}

// ------------------------------------------------------------------- run

Outcome Environment::Run(SimProgram& program) {
  CHECK(!started_) << "Run() may be called only once per Environment";
  started_ = true;
  if (director_ == nullptr) {
    default_director_ = std::make_unique<DefaultDirector>(options_.scheduling);
    director_ = default_director_.get();
  }

  program.Configure(*this);
  ArmFaultPlan();

  const auto wall_start = std::chrono::steady_clock::now();
  Spawn("main", [this, &program] { program.Main(*this); });
  SchedulerLoop();
  ShutdownAllFibers();

  outcome_.stats.events = next_event_seq_;
  outcome_.stats.context_switches = context_switches_;
  outcome_.stats.decision_points = decision_seq_;
  outcome_.stats.virtual_duration = now_;
  outcome_.stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();

  if (io_spec_) {
    if (auto violation = io_spec_(outcome_); violation.has_value()) {
      violation->time = now_;
      outcome_.failures.push_back(*std::move(violation));
    }
  }
  outcome_.trace_fingerprint = fingerprint_sink_.fingerprint();
  outcome_.output_fingerprint = output_fingerprint_.value();

  fibers_.clear();  // every fiber has finished and released its stack
  return outcome_;
}

Outcome Environment::Run(const std::string& name, std::function<void(Environment&)> main_fn) {
  class FunctionProgram : public SimProgram {
   public:
    FunctionProgram(std::string name, std::function<void(Environment&)> fn)
        : name_(std::move(name)), fn_(std::move(fn)) {}
    std::string name() const override { return name_; }
    void Main(Environment& env) override { fn_(env); }

   private:
    std::string name_;
    std::function<void(Environment&)> fn_;
  };
  FunctionProgram program(name, std::move(main_fn));
  return Run(program);
}

// -------------------------------------------------------------- scheduler

void Environment::SchedulerLoop() {
  while (!stop_requested_) {
    FireDueTimers();
    if (stop_requested_) {
      break;
    }
    if (runnable_.empty()) {
      if (live_fibers_ == 0) {
        break;  // all fibers finished
      }
      if (timer_heap_.empty()) {
        ReportDeadlock();
        break;
      }
      if (!AdvanceToNextTimer()) {
        break;
      }
      continue;
    }
    std::sort(runnable_.begin(), runnable_.end());
    const FiberId next =
        director_->PickNextFiber(*this, runnable_, context_switches_);
    const auto it = std::find(runnable_.begin(), runnable_.end(), next);
    CHECK(it != runnable_.end())
        << "director picked non-runnable fiber " << next;
    runnable_.erase(it);

    ++context_switches_;
    EmitSwitch(last_running_, next);

    Fiber* f = fiber(next);
    f->set_state(Fiber::State::kRunning);
    current_ = f;
    in_scheduler_context_ = false;
    f->SwitchIn();
    in_scheduler_context_ = true;
    current_ = nullptr;
    last_running_ = next;
  }
}

void Environment::FireDueTimers() {
  while (!timer_heap_.empty() && timer_heap_.front().when <= now_) {
    Timer timer = PopTimer();
    if (timer.is_callback) {
      timer.callback();
      if (stop_requested_) {
        return;
      }
      continue;
    }
    Fiber* f = fiber(timer.fiber);
    if (f == nullptr || f->state() != Fiber::State::kBlocked ||
        f->block_generation() != timer.generation) {
      continue;  // stale timer
    }
    if (f->blocked_on() != kInvalidObject) {
      RemoveFromWaitList(f->blocked_on(), f->id());
    }
    WakeFiber(f->id(), WakeReason::kTimeout);
  }
}

bool Environment::AdvanceToNextTimer() {
  CHECK(!timer_heap_.empty());
  const SimTime target = timer_heap_.front().when;
  if (target > now_) {
    now_ = target;
    if (options_.max_virtual_time != 0 && now_ > options_.max_virtual_time) {
      outcome_.stats.hit_time_limit = true;
      stop_requested_ = true;
      return false;
    }
  }
  return true;
}

void Environment::PushTimer(Timer timer) {
  timer.seq = next_timer_seq_++;
  timer_heap_.push_back(std::move(timer));
  std::push_heap(timer_heap_.begin(), timer_heap_.end(),
                 [](const Timer& a, const Timer& b) {
                   return a.when > b.when || (a.when == b.when && a.seq > b.seq);
                 });
}

Environment::Timer Environment::PopTimer() {
  std::pop_heap(timer_heap_.begin(), timer_heap_.end(),
                [](const Timer& a, const Timer& b) {
                  return a.when > b.when || (a.when == b.when && a.seq > b.seq);
                });
  Timer timer = std::move(timer_heap_.back());
  timer_heap_.pop_back();
  return timer;
}

void Environment::ShutdownAllFibers() {
  shutting_down_ = true;
  // Drive every unfinished fiber to completion. Unwinding may wake other
  // fibers (e.g. mutex unlocks in destructors); iterate until quiescent.
  int rounds = 0;
  while (live_fibers_ > 0) {
    CHECK_LT(rounds++, 1000) << "fiber shutdown did not converge";
    for (auto& owned : fibers_) {
      Fiber* f = owned.get();
      if (f->state() == Fiber::State::kFinished) {
        continue;
      }
      f->request_kill();
      f->set_state(Fiber::State::kRunning);
      current_ = f;
      in_scheduler_context_ = false;
      f->SwitchIn();
      in_scheduler_context_ = true;
      current_ = nullptr;
    }
  }
  runnable_.clear();
  timer_heap_.clear();
}

void Environment::ReportDeadlock() {
  std::string blocked;
  for (const auto& owned : fibers_) {
    if (owned->state() == Fiber::State::kBlocked) {
      if (!blocked.empty()) {
        blocked += ", ";
      }
      blocked += owned->name();
    }
  }
  FailureInfo failure;
  failure.kind = FailureKind::kDeadlock;
  failure.message = "deadlock: blocked fibers: " + blocked;
  failure.node = 0;
  failure.time = now_;
  outcome_.failures.push_back(failure);
  outcome_.stats.deadlocked = true;
  Emit(EventType::kFailure, static_cast<ObjectId>(FailureKind::kDeadlock),
       FnvHash(failure.message), 0, 0);
}

// ------------------------------------------------------------------ fibers

Fiber* Environment::fiber(FiberId id) const {
  if (id >= fibers_.size()) {
    return nullptr;
  }
  return fibers_[id].get();
}

FiberId Environment::CurrentFiberId() const {
  return current_ != nullptr ? current_->id() : kInvalidFiber;
}

NodeId Environment::CurrentNode() const {
  return current_ != nullptr ? current_->node() : 0;
}

const std::string& Environment::FiberName(FiberId id) const {
  Fiber* f = fiber(id);
  static const std::string kUnknown = "(none)";
  return f != nullptr ? f->name() : kUnknown;
}

FiberId Environment::Spawn(const std::string& name, std::function<void()> body) {
  return SpawnOnNode(CurrentNode(), name, std::move(body));
}

FiberId Environment::SpawnOnNode(NodeId node, const std::string& name,
                                 std::function<void()> body) {
  CHECK(started_) << "Spawn is only valid during Run()";
  CHECK_LT(node, node_names_.size());
  CHECK(NodeAlive(node)) << "spawn on crashed node " << node;
  const FiberId id = static_cast<FiberId>(fibers_.size());
  auto owned = std::make_unique<Fiber>(id, node, name);
  Fiber* f = owned.get();
  fiber_object_ids_.push_back(RegisterObject(ObjectKind::kFiber, name, node));
  ++live_fibers_;
  f->Launch([this, f, fn = std::move(body)] { FiberTrampoline(f, fn); },
            &scheduler_context_);
  fibers_.push_back(std::move(owned));
  MakeRunnable(id);
  Emit(EventType::kFiberCreate, fiber_object_ids_[id], id, 0, 0);
  MaybePreempt();
  return id;
}

void Environment::FiberTrampoline(Fiber* f, const std::function<void()>& body) {
  if (!f->kill_requested()) {
    try {
      body();
    } catch (const FiberKilled&) {
      // Normal teardown path.
    } catch (const std::exception& e) {
      LOG(FATAL) << "uncaught exception in fiber '" << f->name() << "': " << e.what();
    }
  }
  f->set_state(Fiber::State::kFinished);
  CHECK_GT(live_fibers_, 0u);
  --live_fibers_;
  if (!shutting_down_) {
    Emit(EventType::kFiberExit, fiber_object_ids_[f->id()], 0, 0, 0);
  }
  const ObjectId join_obj = fiber_object_ids_[f->id()];
  for (const FiberId joiner : f->joiners()) {
    RemoveFromWaitList(join_obj, joiner);
    WakeFiber(joiner, WakeReason::kNotified);
  }
  f->joiners().clear();
  if (f->id() == 0) {
    // Root fiber exit ends the run (process-exit semantics): daemon fibers
    // blocked in server loops do not count as a deadlock.
    stop_requested_ = true;
  }
  last_switch_cause_ = SwitchCause::kExit;
  // Returning hands control back: the fiber's entry ends with its final
  // switch to the scheduler.
}

void Environment::SwitchOut(Fiber::State new_state) {
  Fiber* f = current_;
  CHECK(f != nullptr) << "SwitchOut outside fiber context";
  f->set_state(new_state);
  if (new_state == Fiber::State::kRunnable) {
    MakeRunnable(f->id());
  }
  f->SwitchToScheduler();
  if (f->kill_requested()) {
    throw FiberKilled{};
  }
}

WakeReason Environment::BlockCurrent(ObjectId obj, SimDuration timeout) {
  Fiber* f = current_;
  CHECK(f != nullptr) << "blocking operation outside fiber context";
  if (shutting_down_ || f->kill_requested()) {
    throw FiberKilled{};
  }
  f->bump_block_generation();
  f->set_blocked_on(obj);
  f->set_wake_reason(WakeReason::kNotified);
  if (obj != kInvalidObject) {
    wait_lists_[obj].push_back(f->id());
    Emit(EventType::kFiberBlock, obj, 0, 0, 0);
  }
  if (timeout >= 0) {
    Timer timer;
    timer.when = now_ + static_cast<SimTime>(timeout);
    timer.fiber = f->id();
    timer.generation = f->block_generation();
    PushTimer(std::move(timer));
  }
  last_switch_cause_ = SwitchCause::kBlocked;
  SwitchOut(Fiber::State::kBlocked);
  return f->wake_reason();
}

void Environment::WakeFiber(FiberId id, WakeReason reason) {
  Fiber* f = fiber(id);
  CHECK(f != nullptr);
  if (f->state() != Fiber::State::kBlocked) {
    return;
  }
  // Happens-before edge: the waker (current fiber, or scheduler for timer
  // wakes) releases-to the woken fiber. Race detectors consume this.
  if (reason == WakeReason::kNotified && !shutting_down_) {
    Emit(EventType::kFiberUnblock, f->blocked_on(), id, 0, 0);
  }
  f->set_wake_reason(reason);
  f->set_blocked_on(kInvalidObject);
  f->bump_block_generation();  // invalidate any pending timeout timer
  MakeRunnable(id);
}

void Environment::RemoveFromWaitList(ObjectId obj, FiberId id) {
  auto it = wait_lists_.find(obj);
  if (it == wait_lists_.end()) {
    return;
  }
  auto& queue = it->second;
  for (auto q = queue.begin(); q != queue.end(); ++q) {
    if (*q == id) {
      queue.erase(q);
      return;
    }
  }
}

void Environment::KillFiber(FiberId id) {
  Fiber* f = fiber(id);
  CHECK(f != nullptr);
  CHECK(f != current_) << "KillFiber on the running fiber";
  if (f->state() == Fiber::State::kFinished) {
    return;
  }
  f->request_kill();
  if (f->state() == Fiber::State::kBlocked) {
    if (f->blocked_on() != kInvalidObject) {
      RemoveFromWaitList(f->blocked_on(), id);
    }
    WakeFiber(id, WakeReason::kKilled);
  }
}

void Environment::MakeRunnable(FiberId id) {
  Fiber* f = fiber(id);
  CHECK(f != nullptr);
  f->set_state(Fiber::State::kRunnable);
  runnable_.push_back(id);
}

void Environment::Join(FiberId target_id) {
  Fiber* self = current_;
  CHECK(self != nullptr) << "Join outside fiber context";
  Fiber* target = fiber(target_id);
  CHECK(target != nullptr) << "Join on unknown fiber";
  if (target->state() == Fiber::State::kFinished) {
    // Fast path: still a synchronization edge (target's kFiberExit released
    // into its join object; this acquire completes the happens-before pair).
    Emit(EventType::kFiberUnblock, fiber_object_ids_[target_id], self->id(), 0, 0);
    return;
  }
  target->joiners().push_back(self->id());
  BlockCurrent(fiber_object_ids_[target_id], -1);
}

void Environment::Yield() {
  CHECK(current_ != nullptr) << "Yield outside fiber context";
  last_switch_cause_ = SwitchCause::kYield;
  SwitchOut(Fiber::State::kRunnable);
}

void Environment::SleepFor(SimDuration duration) {
  CHECK(current_ != nullptr) << "SleepFor outside fiber context";
  CHECK_GE(duration, 0);
  Emit(EventType::kSleep, kInvalidObject, static_cast<uint64_t>(duration), 0, 0);
  BlockCurrent(kInvalidObject, duration);
}

SimTime Environment::ReadClock() {
  MaybePreempt();
  Emit(EventType::kClockRead, kInvalidObject, now_, 0, 0);
  return now_;
}

// --------------------------------------------------------------------- I/O

ObjectId Environment::RegisterInputSource(const std::string& name,
                                          std::function<uint64_t()> generator) {
  const ObjectId id = RegisterObject(ObjectKind::kInputSource, name, CurrentNode());
  inputs_[id].generator = std::move(generator);
  return id;
}

uint64_t Environment::ReadInput(ObjectId source, uint32_t bytes) {
  MaybePreempt();
  auto it = inputs_.find(source);
  CHECK(it != inputs_.end()) << "unknown input source " << source;
  uint64_t value = 0;
  if (!director_->OverrideInput(*this, source, &value)) {
    value = it->second.generator();
  }
  Emit(EventType::kInput, source, value, 0, bytes);
  return value;
}

void Environment::EmitOutput(uint64_t value, uint32_t bytes) {
  MaybePreempt();
  OutputRecord record;
  record.node = CurrentNode();
  record.value = value;
  record.bytes = bytes;
  record.time = now_;
  outcome_.outputs.push_back(record);
  output_fingerprint_.Mix(value);
  Emit(EventType::kOutput, kInvalidObject, value, 0, bytes);
}

uint64_t Environment::RngDraw(RngPurpose purpose, uint64_t bound) {
  MaybePreempt();
  uint64_t value = 0;
  if (!director_->OverrideRngDraw(*this, purpose, &value)) {
    value = bound == 0 ? scheduler_rng_.Next() : scheduler_rng_.NextBelow(bound);
  }
  Emit(EventType::kRngDraw, static_cast<ObjectId>(purpose), value, 0, 0);
  return value;
}

void Environment::Annotate(uint64_t tag, uint64_t value) {
  Emit(EventType::kAnnotation, tag, value, 0, 0);
}

void Environment::CheckAlloc(uint32_t bytes) {
  MaybePreempt();
  const NodeId node = CurrentNode();
  for (auto it = armed_oom_.begin(); it != armed_oom_.end(); ++it) {
    if (it->first == node && now_ >= it->second) {
      armed_oom_.erase(it);
      Abort(FailureKind::kOom, "out of memory on " + node_name(node));
    }
  }
  (void)bytes;
}

bool Environment::TryAlloc(uint32_t bytes) {
  MaybePreempt();
  const NodeId node = CurrentNode();
  for (auto it = armed_oom_.begin(); it != armed_oom_.end(); ++it) {
    if (it->first == node && now_ >= it->second) {
      armed_oom_.erase(it);
      Emit(EventType::kFaultInject, static_cast<ObjectId>(FaultKind::kOomOnAlloc),
           node, 0, bytes);
      return false;
    }
  }
  return true;
}

void Environment::Abort(FailureKind kind, const std::string& message) {
  Fiber* f = current_;
  CHECK(f != nullptr) << "Abort outside fiber context";
  FailureInfo failure;
  failure.kind = kind;
  failure.message = message;
  failure.node = f->node();
  failure.fiber = f->id();
  failure.time = now_;
  failure.detail = FnvHash(message);
  outcome_.failures.push_back(failure);
  Emit(EventType::kFailure, static_cast<ObjectId>(kind), FnvHash(message), 0, 0);
  if (options_.stop_on_first_failure) {
    stop_requested_ = true;
  }
  f->request_kill();
  throw FiberKilled{};
}

// ------------------------------------------------------------------ regions

RegionId Environment::RegisterRegion(const std::string& name) {
  region_names_.push_back(name);
  return static_cast<RegionId>(region_names_.size() - 1);
}

void Environment::EnterRegion(RegionId region) {
  CHECK(current_ != nullptr) << "EnterRegion outside fiber context";
  CHECK_LT(region, region_names_.size());
  current_->region_stack().push_back(region);
  Emit(EventType::kRegionEnter, region, 0, 0, 0);
}

void Environment::ExitRegion(RegionId region) {
  CHECK(current_ != nullptr);
  CHECK(!current_->region_stack().empty());
  CHECK_EQ(current_->region_stack().back(), region);
  if (!shutting_down_) {
    Emit(EventType::kRegionExit, region, 0, 0, 0);
  }
  current_->region_stack().pop_back();
}

const std::string& Environment::region_name(RegionId region) const {
  CHECK_LT(region, region_names_.size());
  return region_names_[region];
}

RegionId Environment::CurrentRegion() const {
  return current_ != nullptr ? current_->current_region() : kDefaultRegion;
}

// ------------------------------------------------------------------- sync

ObjectId Environment::CreateMutex(const std::string& name) {
  const ObjectId id = RegisterObject(ObjectKind::kMutex, name, CurrentNode());
  mutexes_[id] = MutexState{};
  return id;
}

void Environment::MutexLock(ObjectId mutex) {
  MaybePreempt();
  auto it = mutexes_.find(mutex);
  CHECK(it != mutexes_.end()) << "unknown mutex " << mutex;
  MutexState& state = it->second;
  CHECK(state.owner != CurrentFiberId()) << "recursive lock of "
                                         << object_info(mutex).name;
  while (state.locked) {
    BlockCurrent(mutex, -1);
  }
  state.locked = true;
  state.owner = CurrentFiberId();
  ++state.lock_count;
  Emit(EventType::kMutexLock, mutex, 0, 0, 0);
}

void Environment::MutexUnlock(ObjectId mutex) {
  auto it = mutexes_.find(mutex);
  CHECK(it != mutexes_.end());
  MutexState& state = it->second;
  CHECK(state.locked) << "unlock of unlocked mutex " << object_info(mutex).name;
  CHECK(state.owner == CurrentFiberId())
      << "unlock of mutex " << object_info(mutex).name << " by non-owner";
  state.locked = false;
  state.owner = kInvalidFiber;
  if (!shutting_down_) {
    Emit(EventType::kMutexUnlock, mutex, 0, 0, 0);
  }
  auto wl = wait_lists_.find(mutex);
  if (wl != wait_lists_.end() && !wl->second.empty()) {
    const FiberId next = wl->second.front();
    wl->second.pop_front();
    WakeFiber(next, WakeReason::kNotified);
  }
}

bool Environment::MutexHeldByCurrent(ObjectId mutex) const {
  auto it = mutexes_.find(mutex);
  CHECK(it != mutexes_.end());
  return it->second.locked && it->second.owner == CurrentFiberId();
}

ObjectId Environment::CreateCondVar(const std::string& name) {
  return RegisterObject(ObjectKind::kCondVar, name, CurrentNode());
}

void Environment::CondWait(ObjectId cond, ObjectId mutex) {
  CHECK(MutexHeldByCurrent(mutex)) << "CondWait without holding the mutex";
  Emit(EventType::kCondWait, cond, mutex, 0, 0);
  // Unlock and enqueue are not separated by any scheduling point, so the
  // classic lost-wakeup window does not exist here.
  MutexUnlock(mutex);
  BlockCurrent(cond, -1);
  MutexLock(mutex);
}

void Environment::CondSignal(ObjectId cond) {
  Emit(EventType::kCondSignal, cond, 0, 0, 0);
  auto wl = wait_lists_.find(cond);
  if (wl != wait_lists_.end() && !wl->second.empty()) {
    const FiberId next = wl->second.front();
    wl->second.pop_front();
    WakeFiber(next, WakeReason::kNotified);
  }
}

void Environment::CondBroadcast(ObjectId cond) {
  Emit(EventType::kCondBroadcast, cond, 0, 0, 0);
  auto wl = wait_lists_.find(cond);
  if (wl == wait_lists_.end()) {
    return;
  }
  while (!wl->second.empty()) {
    const FiberId next = wl->second.front();
    wl->second.pop_front();
    WakeFiber(next, WakeReason::kNotified);
  }
}

ObjectId Environment::CreateSemaphore(const std::string& name, uint64_t initial) {
  const ObjectId id = RegisterObject(ObjectKind::kSemaphore, name, CurrentNode());
  semaphores_[id].count = initial;
  return id;
}

void Environment::SemAcquire(ObjectId sem) {
  MaybePreempt();
  auto it = semaphores_.find(sem);
  CHECK(it != semaphores_.end());
  while (it->second.count == 0) {
    BlockCurrent(sem, -1);
  }
  --it->second.count;
  Emit(EventType::kSemAcquire, sem, it->second.count, 0, 0);
}

void Environment::SemRelease(ObjectId sem) {
  auto it = semaphores_.find(sem);
  CHECK(it != semaphores_.end());
  ++it->second.count;
  if (!shutting_down_) {
    Emit(EventType::kSemRelease, sem, it->second.count, 0, 0);
  }
  auto wl = wait_lists_.find(sem);
  if (wl != wait_lists_.end() && !wl->second.empty()) {
    const FiberId next = wl->second.front();
    wl->second.pop_front();
    WakeFiber(next, WakeReason::kNotified);
  }
}

ObjectId Environment::CreateWaitQueue(const std::string& name) {
  return RegisterObject(ObjectKind::kWaitQueue, name, CurrentNode());
}

WakeReason Environment::WaitOn(ObjectId queue, SimDuration timeout) {
  return BlockCurrent(queue, timeout);
}

void Environment::NotifyOne(ObjectId queue) {
  auto wl = wait_lists_.find(queue);
  if (wl == wait_lists_.end() || wl->second.empty()) {
    return;
  }
  const FiberId next = wl->second.front();
  wl->second.pop_front();
  WakeFiber(next, WakeReason::kNotified);
}

void Environment::NotifyAll(ObjectId queue) {
  auto wl = wait_lists_.find(queue);
  if (wl == wait_lists_.end()) {
    return;
  }
  while (!wl->second.empty()) {
    const FiberId next = wl->second.front();
    wl->second.pop_front();
    WakeFiber(next, WakeReason::kNotified);
  }
}

// ------------------------------------------------------ instrumented cells

ObjectId Environment::CreateCell(const std::string& name, uint64_t initial) {
  const ObjectId id = RegisterObject(ObjectKind::kCell, name, CurrentNode());
  cells_[id].value = initial;
  return id;
}

uint64_t Environment::CellRead(ObjectId cell) {
  MaybePreempt();
  auto it = cells_.find(cell);
  CHECK(it != cells_.end()) << "unknown cell " << cell;
  uint64_t value = it->second.value;
  if (director_->OverrideSharedRead(*this, cell, &value)) {
    // Value determinism: the director dictates the value observed; keep the
    // cell consistent with the observation.
    it->second.value = value;
  }
  Emit(EventType::kSharedRead, cell, value, 0, 8);
  return value;
}

void Environment::CellWrite(ObjectId cell, uint64_t value) {
  MaybePreempt();
  auto it = cells_.find(cell);
  CHECK(it != cells_.end()) << "unknown cell " << cell;
  it->second.value = value;
  Emit(EventType::kSharedWrite, cell, value, 0, 8);
}

uint64_t Environment::CellRmw(ObjectId cell, const std::function<uint64_t(uint64_t)>& fn) {
  MaybePreempt();
  auto it = cells_.find(cell);
  CHECK(it != cells_.end()) << "unknown cell " << cell;
  const uint64_t old_value = it->second.value;
  it->second.value = fn(old_value);
  Emit(EventType::kSharedRmw, cell, it->second.value, old_value, 8);
  return old_value;
}

uint64_t Environment::CellPeek(ObjectId cell) const {
  auto it = cells_.find(cell);
  CHECK(it != cells_.end()) << "unknown cell " << cell;
  return it->second.value;
}

// ------------------------------------------------------- library plumbing

ObjectId Environment::RegisterObject(ObjectKind kind, const std::string& name, NodeId node) {
  ObjectInfo info;
  info.id = static_cast<ObjectId>(objects_.size());
  info.kind = kind;
  info.name = name;
  info.node = node;
  objects_.push_back(std::move(info));
  return objects_.back().id;
}

const ObjectInfo& Environment::object_info(ObjectId id) const {
  CHECK_LT(id, objects_.size());
  return objects_[id];
}

void Environment::EmitLibraryEvent(EventType type, ObjectId obj, uint64_t value,
                                   uint64_t aux, uint32_t bytes, bool preempt) {
  if (preempt) {
    MaybePreempt();
  }
  Emit(type, obj, value, aux, bytes);
}

void Environment::ScheduleCallbackAt(SimTime when, std::function<void()> callback) {
  Timer timer;
  timer.when = std::max(when, now_);
  timer.is_callback = true;
  timer.callback = std::move(callback);
  PushTimer(std::move(timer));
}

NodeId Environment::AddNode(const std::string& name) {
  node_names_.push_back(name);
  node_alive_.push_back(true);
  return static_cast<NodeId>(node_names_.size() - 1);
}

const std::string& Environment::node_name(NodeId node) const {
  CHECK_LT(node, node_names_.size());
  return node_names_[node];
}

bool Environment::NodeAlive(NodeId node) const {
  CHECK_LT(node, node_alive_.size());
  return node_alive_[node];
}

void Environment::CrashNode(NodeId node) {
  CHECK_LT(node, node_alive_.size());
  if (!node_alive_[node]) {
    return;
  }
  node_alive_[node] = false;
  Emit(EventType::kNodeCrash, node, 0, 0, 0);
  for (const auto& listener : crash_listeners_) {
    listener(node);
  }
  for (const auto& owned : fibers_) {
    if (owned->node() == node && owned.get() != current_) {
      KillFiber(owned->id());
    }
  }
}

void Environment::AddNodeCrashListener(std::function<void(NodeId)> listener) {
  crash_listeners_.push_back(std::move(listener));
}

void Environment::ChargeRecordingOverhead(SimDuration nanos, uint64_t bytes) {
  overhead_nanos_ += nanos;
  recorded_bytes_ += bytes;
}

// ---------------------------------------------------------------- internals

void Environment::MaybePreempt() {
  if (in_scheduler_context_ || shutting_down_) {
    return;
  }
  if (stop_requested_) {
    // A run bound tripped (event/time limit, failure stop) while this fiber
    // is running. It may never block on its own (e.g. a runaway loop), so
    // unwind it here to hand control back to the scheduler.
    current_->request_kill();
    throw FiberKilled{};
  }
  const uint64_t decision = decision_seq_++;
  if (director_->ShouldPreempt(*this, current_->id(), decision)) {
    last_switch_cause_ = SwitchCause::kPreempt;
    SwitchOut(Fiber::State::kRunnable);
  }
}

void Environment::AdvanceClock(SimDuration cost) {
  now_ += static_cast<SimTime>(cost);
  cpu_nanos_ += cost;
  if (options_.max_virtual_time != 0 && now_ > options_.max_virtual_time) {
    outcome_.stats.hit_time_limit = true;
    stop_requested_ = true;
  }
}

void Environment::Emit(EventType type, ObjectId obj, uint64_t value, uint64_t aux,
                       uint32_t bytes) {
  if (shutting_down_) {
    return;
  }
  Event event;
  event.seq = next_event_seq_++;
  AdvanceClock(options_.base_op_cost);
  event.time = now_;
  if (current_ != nullptr && !in_scheduler_context_) {
    event.fiber = current_->id();
    event.node = current_->node();
    event.region = current_->current_region();
  }
  event.type = type;
  event.obj = obj;
  event.value = value;
  event.aux = aux;
  event.bytes = bytes;

  fingerprint_sink_.OnEvent(event);
  for (TraceSink* sink : sinks_) {
    sink->OnEvent(event);
  }
  director_->OnEvent(*this, event);

  if (options_.max_events != 0 && next_event_seq_ >= options_.max_events) {
    outcome_.stats.hit_event_limit = true;
    stop_requested_ = true;
  }
}

void Environment::EmitSwitch(FiberId prev, FiberId next) {
  Event event;
  event.seq = next_event_seq_++;
  event.time = now_;
  event.fiber = kInvalidFiber;
  event.node = 0;
  event.type = EventType::kContextSwitch;
  event.obj = prev == kInvalidFiber ? kInvalidObject : prev;
  event.value = next;
  event.aux = PackSwitchAux(decision_seq_, last_switch_cause_);
  fingerprint_sink_.OnEvent(event);
  for (TraceSink* sink : sinks_) {
    sink->OnEvent(event);
  }
  director_->OnEvent(*this, event);
}

void Environment::ArmFaultPlan() {
  for (const FaultSpec& fault : fault_plan_.faults()) {
    switch (fault.kind) {
      case FaultKind::kCrashNode: {
        const NodeId node = fault.node;
        ScheduleCallbackAt(fault.at_time, [this, node] {
          Emit(EventType::kFaultInject, static_cast<ObjectId>(FaultKind::kCrashNode),
               node, 0, 0);
          CrashNode(node);
        });
        break;
      }
      case FaultKind::kOomOnAlloc:
        armed_oom_.emplace_back(fault.node, fault.at_time);
        break;
      case FaultKind::kCongestion:
        // Consumed by the network layer via fault_plan().
        break;
    }
  }
}

// ------------------------------------------------------- default director

bool ExecutionDirector::ShouldPreempt(Environment& env, FiberId current,
                                      uint64_t decision_seq) {
  (void)env;
  (void)current;
  (void)decision_seq;
  return false;
}

FiberId ExecutionDirector::PickNextFiber(Environment& env,
                                         const std::vector<FiberId>& runnable,
                                         uint64_t switch_seq) {
  (void)env;
  (void)switch_seq;
  return runnable.front();
}

bool ExecutionDirector::OverrideRngDraw(Environment& env, RngPurpose purpose,
                                        uint64_t* value) {
  (void)env;
  (void)purpose;
  (void)value;
  return false;
}

bool ExecutionDirector::OverrideInput(Environment& env, ObjectId source, uint64_t* value) {
  (void)env;
  (void)source;
  (void)value;
  return false;
}

bool ExecutionDirector::OverrideSharedRead(Environment& env, ObjectId cell,
                                           uint64_t* value) {
  (void)env;
  (void)cell;
  (void)value;
  return false;
}

void ExecutionDirector::OnEvent(Environment& env, const Event& event) {
  (void)env;
  (void)event;
}

bool DefaultDirector::ShouldPreempt(Environment& env, FiberId current,
                                    uint64_t decision_seq) {
  (void)current;
  (void)decision_seq;
  if (options_.preempt_probability <= 0.0) {
    return false;
  }
  return env.scheduler_rng().NextBernoulli(options_.preempt_probability);
}

FiberId DefaultDirector::PickNextFiber(Environment& env,
                                       const std::vector<FiberId>& runnable,
                                       uint64_t switch_seq) {
  (void)switch_seq;
  CHECK(!runnable.empty());
  switch (options_.policy) {
    case SchedulingOptions::Policy::kRandom:
      return runnable[env.scheduler_rng().NextIndex(runnable.size())];
    case SchedulingOptions::Policy::kRoundRobin: {
      const FiberId pick = runnable[rr_cursor_ % runnable.size()];
      ++rr_cursor_;
      return pick;
    }
  }
  return runnable.front();
}

}  // namespace ddr
