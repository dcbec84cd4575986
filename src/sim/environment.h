// Environment: the deterministic execution substrate.
//
// An Environment runs one simulated multi-fiber, multi-node program to
// completion. Every source of nondeterminism — scheduling, inputs,
// environment RNG draws (network latency, drops), shared-memory access
// interleavings, faults — flows through explicit decision points that an
// ExecutionDirector can observe and override, and every decision is
// materialized as an Event fanned out to TraceSinks.
//
// Concurrency model: fibers are coroutines that run one at a time on the OS
// thread that called Run(), switching only to and from the scheduler (see
// fiber.h). All Environment state is therefore touched by one thread, and
// executions are a pure function of (program, seed, director). Independent
// Environments may run concurrently on different OS threads.
//
// Lifecycle: construct -> configure (sinks, director, fault plan, spec) ->
// Run(program) exactly once -> inspect Outcome.

#ifndef SRC_SIM_ENVIRONMENT_H_
#define SRC_SIM_ENVIRONMENT_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/director.h"
#include "src/sim/event.h"
#include "src/sim/fault.h"
#include "src/sim/fiber.h"
#include "src/sim/outcome.h"
#include "src/sim/types.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace ddr {

class SimProgram;

// Kind tag for every object registered in an environment.
enum class ObjectKind : uint8_t {
  kFiber = 0,
  kMutex = 1,
  kCondVar = 2,
  kSemaphore = 3,
  kWaitQueue = 4,
  kCell = 5,
  kChannel = 6,
  kEndpoint = 7,
  kInputSource = 8,
  kDisk = 9,
  kOutputSink = 10,
};

struct ObjectInfo {
  ObjectId id = kInvalidObject;
  ObjectKind kind = ObjectKind::kWaitQueue;
  std::string name;
  NodeId node = 0;
};

class Environment {
 public:
  struct Options {
    // Seed for all environment-level randomness (scheduling, latencies).
    uint64_t seed = 1;
    SchedulingOptions scheduling;
    // Run bounds; 0 means unlimited. Exceeding a bound stops the run and
    // marks the corresponding RunStats flag.
    uint64_t max_events = 20'000'000;
    SimTime max_virtual_time = 0;
    // Stop scheduling as soon as the first failure is recorded.
    bool stop_on_first_failure = true;
    // Virtual CPU cost charged per simulated operation.
    SimDuration base_op_cost = 50 * kNanosecond;
  };

  explicit Environment(Options options);
  ~Environment();

  Environment(const Environment&) = delete;
  Environment& operator=(const Environment&) = delete;

  // ---------------------------------------------------------------- setup
  void AddTraceSink(TraceSink* sink);  // non-owning; must outlive Run()
  void SetDirector(ExecutionDirector* director);  // non-owning
  void SetFaultPlan(FaultPlan plan);
  void SetIoSpec(IoSpec spec);

  // Runs the program to completion. Must be called exactly once.
  Outcome Run(SimProgram& program);
  // Convenience: runs a bare function as the program's Main.
  Outcome Run(const std::string& name, std::function<void(Environment&)> main_fn);

  // ---------------------------------------------------------- introspection
  const Options& options() const { return options_; }
  Rng& scheduler_rng() { return scheduler_rng_; }
  SimTime Now() const { return now_; }
  uint64_t next_event_seq() const { return next_event_seq_; }
  uint64_t decision_seq() const { return decision_seq_; }
  const FaultPlan& fault_plan() const { return fault_plan_; }
  bool NodeAlive(NodeId node) const;
  bool shutting_down() const { return shutting_down_; }
  // Id of the currently executing fiber, or kInvalidFiber from scheduler
  // context (callbacks, pre-run).
  FiberId CurrentFiberId() const;
  NodeId CurrentNode() const;
  const std::string& FiberName(FiberId fiber) const;
  size_t NumFibers() const { return fibers_.size(); }

  const ObjectInfo& object_info(ObjectId id) const;
  size_t num_objects() const { return objects_.size(); }

  // ------------------------------------------------------------- topology
  // Adds a node and returns its id (node 0 exists implicitly).
  NodeId AddNode(const std::string& name);
  size_t num_nodes() const { return node_names_.size(); }
  const std::string& node_name(NodeId node) const;

  // --------------------------------------------------------------- fibers
  // Spawns a fiber on the current node (or node 0 from scheduler context).
  FiberId Spawn(const std::string& name, std::function<void()> body);
  FiberId SpawnOnNode(NodeId node, const std::string& name, std::function<void()> body);
  // Blocks until `fiber` finishes.
  void Join(FiberId fiber);
  // Voluntary scheduling point: always routes through the scheduler.
  void Yield();
  void SleepFor(SimDuration duration);
  // Reads the virtual clock (instrumented: emits kClockRead).
  SimTime ReadClock();

  // ------------------------------------------------------------------ I/O
  // Registers a source of external input values (the "outside world").
  ObjectId RegisterInputSource(const std::string& name, std::function<uint64_t()> generator);
  // Reads the next value from a source. Replay directors may override.
  uint64_t ReadInput(ObjectId source, uint32_t bytes = 8);
  // Emits an observable output value on the current node.
  void EmitOutput(uint64_t value, uint32_t bytes = 8);
  // Environment-level random draw (bound 0 means full 64-bit range).
  uint64_t RngDraw(RngPurpose purpose, uint64_t bound = 0);
  // Free-form annotation event (visible to analyses).
  void Annotate(uint64_t tag, uint64_t value);
  // Simulated allocation site; fails if an OOM fault is armed for this node.
  void CheckAlloc(uint32_t bytes);
  // Like CheckAlloc, but returns false instead of aborting (for code that
  // swallows allocation errors — a §3.1.3 "deviant behavior" source).
  bool TryAlloc(uint32_t bytes);
  // Records a failure and kills the calling fiber (process abort analog).
  [[noreturn]] void Abort(FailureKind kind, const std::string& message);

  // -------------------------------------------------------------- regions
  // Registers a code region (ids are dense and deterministic in call order).
  RegionId RegisterRegion(const std::string& name);
  void EnterRegion(RegionId region);
  void ExitRegion(RegionId region);
  const std::string& region_name(RegionId region) const;
  size_t num_regions() const { return region_names_.size(); }
  RegionId CurrentRegion() const;

  // ------------------------------------------------------ synchronization
  ObjectId CreateMutex(const std::string& name);
  void MutexLock(ObjectId mutex);
  void MutexUnlock(ObjectId mutex);
  bool MutexHeldByCurrent(ObjectId mutex) const;

  ObjectId CreateCondVar(const std::string& name);
  // Atomically releases `mutex`, waits for a signal, reacquires `mutex`.
  void CondWait(ObjectId cond, ObjectId mutex);
  void CondSignal(ObjectId cond);
  void CondBroadcast(ObjectId cond);

  ObjectId CreateSemaphore(const std::string& name, uint64_t initial);
  void SemAcquire(ObjectId sem);
  void SemRelease(ObjectId sem);

  // Raw FIFO wait queues: the building block for channels and endpoints.
  // timeout < 0 waits forever.
  ObjectId CreateWaitQueue(const std::string& name);
  WakeReason WaitOn(ObjectId queue, SimDuration timeout = -1);
  void NotifyOne(ObjectId queue);
  void NotifyAll(ObjectId queue);

  // ------------------------------------------------- instrumented memory
  // Cells are the unit of shared-memory instrumentation: every access is an
  // event, a scheduling point, and a race-detection observation.
  ObjectId CreateCell(const std::string& name, uint64_t initial);
  uint64_t CellRead(ObjectId cell);
  void CellWrite(ObjectId cell, uint64_t value);
  // Atomic read-modify-write (single event, no preemption inside).
  uint64_t CellRmw(ObjectId cell, const std::function<uint64_t(uint64_t)>& fn);
  // Uninstrumented peek (no event, no scheduling point); for snapshots.
  uint64_t CellPeek(ObjectId cell) const;

  // ------------------------------------------- library extension points
  // Registers an object id for a library component (channel, endpoint...).
  ObjectId RegisterObject(ObjectKind kind, const std::string& name, NodeId node);
  // Emits an event on behalf of a library component; charges op cost and
  // runs a preemption point first if `preempt` is true.
  void EmitLibraryEvent(EventType type, ObjectId obj, uint64_t value, uint64_t aux,
                        uint32_t bytes, bool preempt = true);
  // Schedules a callback on the scheduler thread at virtual time `when`
  // (>= now). Callbacks must not block.
  void ScheduleCallbackAt(SimTime when, std::function<void()> callback);
  // Crashes a node: kills its fibers, marks it dead, notifies listeners.
  void CrashNode(NodeId node);
  void AddNodeCrashListener(std::function<void(NodeId)> listener);

  // ------------------------------------------------------ overhead ledger
  // Recorders charge their runtime cost here. The ledger never perturbs the
  // execution; it is pure accounting read by the overhead model.
  void ChargeRecordingOverhead(SimDuration nanos, uint64_t bytes);
  SimDuration recording_overhead_nanos() const { return overhead_nanos_; }
  uint64_t recorded_bytes() const { return recorded_bytes_; }
  // Accumulated virtual CPU cost of the run (excludes sleeps/latency waits).
  SimDuration cpu_nanos() const { return cpu_nanos_; }

 private:
  struct MutexState {
    bool locked = false;
    FiberId owner = kInvalidFiber;
    uint64_t lock_count = 0;  // total acquisitions, for diagnostics
  };
  struct SemState {
    uint64_t count = 0;
  };
  struct CellState {
    uint64_t value = 0;
  };
  struct CondState {};
  struct InputState {
    std::function<uint64_t()> generator;
  };
  struct Timer {
    SimTime when = 0;
    uint64_t seq = 0;  // insertion order tie-break
    // kWake timers wake `fiber` if its block generation still matches.
    bool is_callback = false;
    FiberId fiber = kInvalidFiber;
    uint64_t generation = 0;
    std::function<void()> callback;
  };

  // --- fiber machinery
  Fiber* current() const { return current_; }
  Fiber* fiber(FiberId id) const;
  void FiberTrampoline(Fiber* f, const std::function<void()>& body);
  // Transfers control fiber -> scheduler. Throws FiberKilled on kill.
  void SwitchOut(Fiber::State new_state);
  // Marks the current fiber blocked on `obj` and yields. Returns wake cause.
  WakeReason BlockCurrent(ObjectId obj, SimDuration timeout);
  void WakeFiber(FiberId id, WakeReason reason);
  void RemoveFromWaitList(ObjectId obj, FiberId id);
  void KillFiber(FiberId id);
  void MakeRunnable(FiberId id);

  // --- scheduler
  void SchedulerLoop();
  void FireDueTimers();
  bool AdvanceToNextTimer();
  void PushTimer(Timer timer);
  Timer PopTimer();
  void ShutdownAllFibers();
  void ReportDeadlock();

  // --- decision points
  void MaybePreempt();
  void AdvanceClock(SimDuration cost);

  // --- events
  void Emit(EventType type, ObjectId obj, uint64_t value, uint64_t aux, uint32_t bytes);
  void EmitSwitch(FiberId prev, FiberId next);
  SwitchCause last_switch_cause_ = SwitchCause::kNone;

  // --- faults
  void ArmFaultPlan();

  Options options_;
  Rng scheduler_rng_;
  ExecutionDirector* director_ = nullptr;
  std::unique_ptr<DefaultDirector> default_director_;
  std::vector<TraceSink*> sinks_;
  FingerprintSink fingerprint_sink_;
  Fingerprint output_fingerprint_;
  FaultPlan fault_plan_;
  IoSpec io_spec_;

  // Object registry.
  std::vector<ObjectInfo> objects_;
  std::map<ObjectId, MutexState> mutexes_;
  std::map<ObjectId, SemState> semaphores_;
  std::map<ObjectId, CellState> cells_;
  std::map<ObjectId, InputState> inputs_;
  std::map<ObjectId, std::deque<FiberId>> wait_lists_;

  // Topology.
  std::vector<std::string> node_names_;
  std::vector<bool> node_alive_;
  std::vector<std::function<void(NodeId)>> crash_listeners_;
  std::vector<std::string> region_names_;

  // Fibers and scheduling.
  std::vector<std::unique_ptr<Fiber>> fibers_;
  std::vector<ObjectId> fiber_object_ids_;
  std::vector<FiberId> runnable_;
  Fiber* current_ = nullptr;
  FiberId last_running_ = kInvalidFiber;
  // The scheduler's saved context while a fiber runs; a fiber's
  // SwitchToScheduler() resumes it.
  FiberContext scheduler_context_;
  size_t live_fibers_ = 0;

  // Armed OOM faults: (node, earliest time).
  std::vector<std::pair<NodeId, SimTime>> armed_oom_;

  // Timers.
  std::vector<Timer> timer_heap_;
  uint64_t next_timer_seq_ = 0;

  // Clock / counters.
  SimTime now_ = 0;
  SimDuration cpu_nanos_ = 0;
  uint64_t next_event_seq_ = 0;
  uint64_t decision_seq_ = 0;
  uint64_t context_switches_ = 0;

  // Run state.
  bool started_ = false;
  bool shutting_down_ = false;
  bool stop_requested_ = false;
  bool in_scheduler_context_ = true;
  Outcome outcome_;

  // Overhead ledger.
  SimDuration overhead_nanos_ = 0;
  uint64_t recorded_bytes_ = 0;
};

// RAII code-region scope.
class RegionScope {
 public:
  RegionScope(Environment& env, RegionId region) : env_(env), region_(region) {
    env_.EnterRegion(region_);
  }
  ~RegionScope() { env_.ExitRegion(region_); }

  RegionScope(const RegionScope&) = delete;
  RegionScope& operator=(const RegionScope&) = delete;

 private:
  Environment& env_;
  RegionId region_;
};

}  // namespace ddr

#endif  // SRC_SIM_ENVIRONMENT_H_
