#include "src/analysis/sched/sched.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>

#include "src/sim/fiber.h"
#include "src/util/logging.h"
#include "src/util/rng.h"
#include "src/util/string_util.h"

namespace ddr::sched {
namespace {

constexpr int kMaxChoices = 36;  // one base-36 digit per decision

char DigitFor(int value) {
  CHECK(value >= 0 && value < kMaxChoices) << "decision digit out of range";
  return value < 10 ? static_cast<char>('0' + value)
                    : static_cast<char>('a' + value - 10);
}

int DigitValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'z') return c - 'a' + 10;
  return -1;
}

constexpr char kSchedulePrefix[] = "v1:";

enum class WaitKind : uint8_t {
  kNone,
  kMutex,       // ddr::Mutex lock (or CondVar mutex reacquire after wake)
  kCond,        // untimed CondVar wait, not yet notified
  kCondTimed,   // timed CondVar wait (timeout = spurious wake is legal)
  kJoin,        // SchedThread::Join on an unfinished thread
};

struct ThreadRec {
  explicit ThreadRec(int id_in)
      : id(id_in),
        fiber(static_cast<FiberId>(id_in), /*node=*/0,
              StrPrintf("t%d", id_in)) {}

  const int id;
  Fiber fiber;

  enum class St : uint8_t { kRunnable, kBlocked, kFinished };
  St st = St::kRunnable;
  WaitKind wait = WaitKind::kNone;
  const void* wait_obj = nullptr;      // mutex / condvar
  const void* reacquire_mu = nullptr;  // condvar waits: mutex to retake
  const void* woke_cv = nullptr;       // set when a notify claimed us
  int join_target = -1;

  std::vector<const void*> held;       // holds, acquisition order
};

struct MutexModel {
  int owner = -1;  // thread id, -1 = free
};

struct CondModel {
  std::vector<int> waiters;  // arrival order (FIFO wakeup)
};

struct Strategy {
  enum class Kind { kFollow, kRandom };
  Kind kind = Kind::kFollow;
  std::vector<uint8_t> prefix;  // kFollow: digits to obey, then defaults
  bool strict = false;          // kFollow: out-of-range digit is an error
  uint64_t seed = 0;            // kRandom
};

class Engine;
Engine* g_engine = nullptr;
thread_local ThreadRec* t_self = nullptr;

// One deterministic serialized execution of a body. Every participant,
// the body's own t0 included, is a Fiber on the OS thread that called
// Run(), so exactly one of them runs at a time and a handoff is a context
// switch. Run() is the resume loop: it switches into whichever fiber
// holds the token until that fiber parks in Reschedule() or exits.
class Engine {
 public:
  explicit Engine(Strategy strategy)
      : strategy_(std::move(strategy)), rng_(strategy_.seed) {}

  RunResult Run(const std::function<void()>& body) {
    CHECK(g_engine == nullptr && t_self == nullptr)
        << "nested schedule explorations are not supported";
    g_engine = this;
    SetInstrArmed(kInstrSched, true);
    AddThread(body);  // t0, the token holder
    while (!poisoned_ && current_ >= 0) {
      Resume(*threads_[current_]);
    }
    // A poisoned run resumes each unfinished fiber, whose next sched-point
    // throws SchedKilled through its own stack.
    for (const auto& t : threads_) {
      while (t->st != ThreadRec::St::kFinished) Resume(*t);
    }
    SetInstrArmed(kInstrSched, false);
    g_engine = nullptr;

    RunResult result;
    result.schedule = ScheduleString();
    result.events = std::move(events_);
    result.decisions = std::move(decisions_);
    result.preemptions = preemptions_;
    for (SchedFinding& finding : findings_) {
      finding.schedule = result.schedule;
      result.findings.push_back(std::move(finding));
    }
    if (strategy_.strict && error_.ok() &&
        cursor_ < strategy_.prefix.size()) {
      error_ = InvalidArgumentError(StrPrintf(
          "schedule has %zu decisions but this execution only reached %zu "
          "choice points — wrong body for this schedule?",
          strategy_.prefix.size(), cursor_));
    }
    return result;
  }

  const Status& error() const { return error_; }

  // ------------------------------------------------------- sched points
  // Each returns true when the calling thread participates (the wrapper
  // skips the real primitive). All throw SchedKilled on a poisoned run,
  // except the release-shaped ops, which may run inside destructors
  // during unwinding and therefore no-op instead.

  bool Lock(const void* mu) {
    ThreadRec* self = t_self;
    if (poisoned_) throw SchedKilled{};
    MutexModel& m = mutexes_[mu];
    RecordLockEdges(self, mu);
    if (m.owner == -1) {
      m.owner = self->id;
      self->held.push_back(mu);
      LogEvent(*self, "lock " + Name(mu, 'm'));
    } else {
      LogEvent(*self, StrPrintf("lock %s (blocked; held by t%d)",
                                Name(mu, 'm').c_str(), m.owner));
      Block(self, WaitKind::kMutex, mu);
    }
    Reschedule(self);
    return true;
  }

  bool Unlock(const void* mu) {
    ThreadRec* self = t_self;
    if (poisoned_) return true;  // release during unwind: no-op
    MutexModel& m = mutexes_[mu];
    CHECK(m.owner == self->id)
        << "t" << self->id << " unlocks " << Name(mu, 'm')
        << " it does not hold";
    m.owner = -1;
    EraseHold(self, mu);
    LogEvent(*self, "unlock " + Name(mu, 'm'));
    Reschedule(self);
    return true;
  }

  bool TryLock(const void* mu, bool* acquired) {
    ThreadRec* self = t_self;
    if (poisoned_) throw SchedKilled{};
    MutexModel& m = mutexes_[mu];
    if (m.owner == -1) {
      m.owner = self->id;
      self->held.push_back(mu);
      *acquired = true;
      LogEvent(*self, "trylock " + Name(mu, 'm') + " (acquired)");
    } else {
      *acquired = false;
      LogEvent(*self, StrPrintf("trylock %s (busy; held by t%d)",
                                Name(mu, 'm').c_str(), m.owner));
    }
    Reschedule(self);
    return true;
  }

  bool CondWait(const void* cv, const void* mu, bool timed) {
    ThreadRec* self = t_self;
    if (poisoned_) throw SchedKilled{};
    MutexModel& m = mutexes_[mu];
    CHECK(m.owner == self->id)
        << "t" << self->id << " waits on " << Name(cv, 'c')
        << " without holding " << Name(mu, 'm');
    m.owner = -1;
    EraseHold(self, mu);
    conds_[cv].waiters.push_back(self->id);
    LogEvent(*self, StrPrintf("%s %s (releases %s)",
                              timed ? "timed-wait" : "wait",
                              Name(cv, 'c').c_str(), Name(mu, 'm').c_str()));
    Block(self, timed ? WaitKind::kCondTimed : WaitKind::kCond, cv);
    self->reacquire_mu = mu;
    Reschedule(self);
    return true;
  }

  bool CondNotify(const void* cv, bool all) {
    ThreadRec* self = t_self;
    if (poisoned_) return true;  // notify during unwind: no-op
    CondModel& c = conds_[cv];
    if (c.waiters.empty()) {
      LogEvent(*self, StrPrintf("notify-%s %s (no waiters)",
                                all ? "all" : "one", Name(cv, 'c').c_str()));
    } else {
      const size_t count = all ? c.waiters.size() : 1;
      std::string woken;
      for (size_t i = 0; i < count; ++i) {
        ThreadRec* waiter = threads_[c.waiters[i]].get();
        // The wakeup is delivered: the waiter now contends for its mutex.
        waiter->wait = WaitKind::kMutex;
        waiter->wait_obj = waiter->reacquire_mu;
        waiter->woke_cv = cv;
        if (!woken.empty()) woken += ",";
        woken += StrPrintf("t%d", waiter->id);
      }
      c.waiters.erase(c.waiters.begin(), c.waiters.begin() + count);
      LogEvent(*self, StrPrintf("notify-%s %s (wakes %s)",
                                all ? "all" : "one", Name(cv, 'c').c_str(),
                                woken.c_str()));
    }
    Reschedule(self);
    return true;
  }

  void Access(const void* object, bool write) {
    ThreadRec* self = t_self;
    if (poisoned_) throw SchedKilled{};
    LogEvent(*self, (write ? "store " : "load ") + Name(object, 'v'));
    Reschedule(self);
  }

  int SpawnThread(std::function<void()> fn) {
    ThreadRec* self = t_self;
    if (poisoned_) throw SchedKilled{};
    const int id = AddThread(std::move(fn));
    LogEvent(*self, StrPrintf("spawn t%d", id));
    Reschedule(self);
    return id;
  }

  void JoinThread(int target) {
    ThreadRec* self = t_self;
    if (poisoned_) throw SchedKilled{};
    CHECK(target >= 0 && target < static_cast<int>(threads_.size()))
        << "join of unknown thread t" << target;
    if (threads_[target]->st == ThreadRec::St::kFinished) {
      LogEvent(*self, StrPrintf("join t%d", target));
    } else {
      LogEvent(*self, StrPrintf("join t%d (blocked)", target));
      Block(self, WaitKind::kJoin, nullptr);
      self->join_target = target;
    }
    Reschedule(self);
  }

 private:
  // Launches a new thread's fiber; it first runs when it gets the token.
  // A fiber first resumed on a poisoned run skips its body.
  int AddThread(std::function<void()> fn) {
    const int id = static_cast<int>(threads_.size());
    threads_.push_back(std::make_unique<ThreadRec>(id));
    ThreadRec* rec = threads_.back().get();
    rec->fiber.Launch(
        [this, rec, fn = std::move(fn)] {
          if (!poisoned_) {
            try {
              fn();
            } catch (const SchedKilled&) {
            }
          }
          rec->st = ThreadRec::St::kFinished;
          if (!poisoned_) {
            LogEvent(*rec, "exit");
            Reschedule(rec);
          }
        },
        &scheduler_);
    return id;
  }

  void Resume(ThreadRec& t) {
    t_self = &t;
    t.fiber.SwitchIn();
    t_self = nullptr;
  }

  void Block(ThreadRec* self, WaitKind kind, const void* obj) {
    self->st = ThreadRec::St::kBlocked;
    self->wait = kind;
    self->wait_obj = obj;
  }

  // Whether a thread could make progress if granted the token.
  bool Eligible(const ThreadRec& t) const {
    if (t.st == ThreadRec::St::kRunnable) return true;
    if (t.st == ThreadRec::St::kFinished) return false;
    switch (t.wait) {
      case WaitKind::kNone:
        return true;
      case WaitKind::kMutex: {
        auto it = mutexes_.find(t.wait_obj);
        return it == mutexes_.end() || it->second.owner == -1;
      }
      case WaitKind::kCond:
        return false;  // only a notify can release an untimed wait
      case WaitKind::kCondTimed: {
        // A timeout wake is always legal; it still needs the mutex back.
        auto it = mutexes_.find(t.reacquire_mu);
        return it == mutexes_.end() || it->second.owner == -1;
      }
      case WaitKind::kJoin:
        return threads_[t.join_target]->st == ThreadRec::St::kFinished;
    }
    return false;
  }

  // The woken/continuing thread applies its pending transition. Runs in
  // the context of the thread that just received the token.
  void ResolveWait(ThreadRec* self) {
    if (self->st != ThreadRec::St::kBlocked) return;
    switch (self->wait) {
      case WaitKind::kMutex: {
        MutexModel& m = mutexes_[self->wait_obj];
        CHECK(m.owner == -1) << "scheduled a thread whose mutex is held";
        m.owner = self->id;
        self->held.push_back(self->wait_obj);
        if (self->woke_cv != nullptr) {
          LogEvent(*self, StrPrintf("woke on %s; reacquired %s",
                                    Name(self->woke_cv, 'c').c_str(),
                                    Name(self->wait_obj, 'm').c_str()));
        } else {
          LogEvent(*self, "acquired " + Name(self->wait_obj, 'm'));
        }
        break;
      }
      case WaitKind::kCondTimed: {
        // Scheduled while still a waiter: this is the timeout firing.
        CondModel& c = conds_[self->wait_obj];
        auto it = std::find(c.waiters.begin(), c.waiters.end(), self->id);
        CHECK(it != c.waiters.end());
        c.waiters.erase(it);
        MutexModel& m = mutexes_[self->reacquire_mu];
        CHECK(m.owner == -1);
        m.owner = self->id;
        self->held.push_back(self->reacquire_mu);
        LogEvent(*self, StrPrintf("timed out on %s; reacquired %s",
                                  Name(self->wait_obj, 'c').c_str(),
                                  Name(self->reacquire_mu, 'm').c_str()));
        break;
      }
      case WaitKind::kJoin:
        LogEvent(*self, StrPrintf("joined t%d", self->join_target));
        break;
      case WaitKind::kCond:
        LOG(FATAL) << "untimed cond wait scheduled without a notify";
        break;
      case WaitKind::kNone:
        break;
    }
    self->st = ThreadRec::St::kRunnable;
    self->wait = WaitKind::kNone;
    self->wait_obj = nullptr;
    self->reacquire_mu = nullptr;
    self->woke_cv = nullptr;
    self->join_target = -1;
  }

  // Core handoff: pick the next thread among the eligible, record the
  // decision if there was a real choice, and hand over the token. Keeping
  // the token resolves in place; otherwise the caller parks in the resume
  // loop until it is scheduled again (throwing SchedKilled if the run was
  // poisoned meanwhile). A finished caller just returns and exits.
  void Reschedule(ThreadRec* self) {
    std::vector<int> eligible;
    bool any_unfinished = false;
    for (const auto& t : threads_) {
      if (t->st == ThreadRec::St::kFinished) continue;
      any_unfinished = true;
      if (Eligible(*t)) eligible.push_back(t->id);
    }
    if (eligible.empty()) {
      current_ = -1;
      if (!any_unfinished) return;
      DetectStuck();
      poisoned_ = true;
      if (self->st == ThreadRec::St::kBlocked) throw SchedKilled{};
      return;  // self just finished; the resume loop unwinds the rest
    }
    size_t chosen = 0;
    if (eligible.size() > 1) {
      CHECK(eligible.size() <= kMaxChoices)
          << "more than " << kMaxChoices << " eligible threads";
      int current_index = -1;
      for (size_t i = 0; i < eligible.size(); ++i) {
        if (eligible[i] == current_) current_index = static_cast<int>(i);
      }
      chosen = Choose(eligible.size(), current_index);
      SchedDecision d;
      d.num_choices = static_cast<uint8_t>(eligible.size());
      d.chosen = static_cast<uint8_t>(chosen);
      d.current_index = static_cast<int8_t>(current_index);
      decisions_.push_back(d);
      if (current_index >= 0 && static_cast<int>(chosen) != current_index) {
        ++preemptions_;
      }
    }
    const int next = eligible[chosen];
    current_ = next;
    if (next == self->id) {
      ResolveWait(self);
      return;
    }
    if (self->st == ThreadRec::St::kFinished) return;
    self->fiber.SwitchToScheduler();
    if (poisoned_) throw SchedKilled{};
    ResolveWait(self);
  }

  size_t Choose(size_t num_choices, int current_index) {
    const size_t fallback =
        current_index >= 0 ? static_cast<size_t>(current_index) : 0;
    switch (strategy_.kind) {
      case Strategy::Kind::kRandom:
        ++cursor_;
        return rng_.NextBelow(num_choices);
      case Strategy::Kind::kFollow: {
        if (cursor_ >= strategy_.prefix.size()) {
          return fallback;  // past the recorded prefix: default policy
        }
        const uint8_t digit = strategy_.prefix[cursor_++];
        if (digit >= num_choices) {
          if (strategy_.strict && error_.ok()) {
            error_ = InvalidArgumentError(StrPrintf(
                "schedule decision %zu picks thread-index %d but only %zu "
                "threads are eligible — wrong body for this schedule?",
                cursor_ - 1, static_cast<int>(digit), num_choices));
          }
          return fallback;
        }
        return digit;
      }
    }
    return fallback;
  }

  // --------------------------------------------------------- detectors

  std::string DescribeWait(const ThreadRec& t) const {
    switch (t.wait) {
      case WaitKind::kMutex: {
        auto it = mutexes_.find(t.wait_obj);
        const int owner = it == mutexes_.end() ? -1 : it->second.owner;
        if (t.woke_cv != nullptr) {
          return StrPrintf("t%d woken from %s but blocked reacquiring %s "
                           "(held by t%d)",
                           t.id, NameOf(t.woke_cv).c_str(),
                           NameOf(t.wait_obj).c_str(), owner);
        }
        return StrPrintf("t%d blocked locking %s (held by t%d)", t.id,
                         NameOf(t.wait_obj).c_str(), owner);
      }
      case WaitKind::kCond:
        return StrPrintf("t%d waiting on %s (mutex %s, no notify pending)",
                         t.id, NameOf(t.wait_obj).c_str(),
                         NameOf(t.reacquire_mu).c_str());
      case WaitKind::kCondTimed:
        return StrPrintf("t%d in timed wait on %s (mutex %s unavailable)",
                         t.id, NameOf(t.wait_obj).c_str(),
                         NameOf(t.reacquire_mu).c_str());
      case WaitKind::kJoin:
        return StrPrintf("t%d joining t%d", t.id, t.join_target);
      case WaitKind::kNone:
        break;
    }
    return StrPrintf("t%d runnable", t.id);
  }

  void DetectStuck() {
    std::vector<const ThreadRec*> stuck;
    for (const auto& t : threads_) {
      if (t->st != ThreadRec::St::kFinished) stuck.push_back(t.get());
    }
    CHECK(!stuck.empty());
    bool any_cond = false;
    bool only_cond_or_join = true;
    std::string detail;
    for (const ThreadRec* t : stuck) {
      if (t->wait == WaitKind::kCond) {
        any_cond = true;
      } else if (t->wait != WaitKind::kJoin) {
        only_cond_or_join = false;
      }
      if (!detail.empty()) detail += "; ";
      detail += DescribeWait(*t);
    }
    SchedFinding finding;
    if (any_cond && only_cond_or_join) {
      // Every stuck thread is either parked in an untimed wait or joining
      // one that is: the notify that should wake them can never happen.
      finding.kind = FindingKind::kLostWakeup;
      finding.message = "lost wakeup: " + detail;
    } else {
      finding.kind = FindingKind::kDeadlock;
      finding.message = "deadlock: " + detail;
    }
    findings_.push_back(std::move(finding));
  }

  // Acquisition-order graph: before t acquires (or blocks on) exclusive
  // `mu`, add an edge held -> mu for every exclusive lock t holds. A new
  // edge that makes `held` reachable from `mu` closes a cycle — reported
  // even when this particular interleaving sailed through.
  void RecordLockEdges(ThreadRec* self, const void* mu) {
    for (const void* h : self->held) {
      if (h == mu) continue;
      if (!lock_graph_[h].insert(mu).second) continue;  // edge already known
      if (Reaches(mu, h)) {
        // minmax returns references into the NameOf temporaries: copy
        // them out before the full-expression ends.
        const std::pair<std::string, std::string> key =
            std::minmax(NameOf(h), NameOf(mu));
        if (!flagged_cycles_.insert(key).second) continue;
        SchedFinding finding;
        finding.kind = FindingKind::kLockOrderCycle;
        finding.message = StrPrintf(
            "lock-order cycle: t%d locks %s while holding %s, but %s is "
            "also (transitively) acquired while holding %s",
            self->id, NameOf(mu).c_str(), NameOf(h).c_str(),
            NameOf(h).c_str(), NameOf(mu).c_str());
        findings_.push_back(std::move(finding));
      }
    }
  }

  bool Reaches(const void* from, const void* to) const {
    std::vector<const void*> frontier{from};
    std::set<const void*> seen{from};
    while (!frontier.empty()) {
      const void* node = frontier.back();
      frontier.pop_back();
      if (node == to) return true;
      auto it = lock_graph_.find(node);
      if (it == lock_graph_.end()) continue;
      for (const void* next : it->second) {
        if (seen.insert(next).second) frontier.push_back(next);
      }
    }
    return false;
  }

  // ----------------------------------------------------------- utility

  void EraseHold(ThreadRec* self, const void* mu) {
    auto it = std::find(self->held.begin(), self->held.end(), mu);
    CHECK(it != self->held.end());
    self->held.erase(it);
  }

  // First-touch naming (m0, s0, c0, v0): deterministic given the
  // schedule, so event logs and findings are comparable across runs.
  std::string Name(const void* obj, char kind) {
    auto it = names_.find(obj);
    if (it != names_.end()) return it->second;
    std::string name = StrPrintf("%c%d", kind, name_counters_[kind]++);
    names_.emplace(obj, name);
    return name;
  }

  std::string NameOf(const void* obj) const {
    auto it = names_.find(obj);
    return it == names_.end() ? "<?>" : it->second;
  }

  void LogEvent(const ThreadRec& t, const std::string& what) {
    CHECK(events_.size() < (1u << 20))
        << "schedule exploration runaway: body never terminates";
    events_.push_back(StrPrintf("t%d %s", t.id, what.c_str()));
  }

  std::string ScheduleString() const {
    std::string s = kSchedulePrefix;
    for (const SchedDecision& d : decisions_) {
      s.push_back(DigitFor(d.chosen));
    }
    return s;
  }

  FiberContext scheduler_;  // the resume loop's context
  std::vector<std::unique_ptr<ThreadRec>> threads_;
  int current_ = 0;  // token holder; -1 once no thread can run
  bool poisoned_ = false;

  Strategy strategy_;
  Rng rng_;
  size_t cursor_ = 0;
  Status error_ = OkStatus();

  std::vector<SchedDecision> decisions_;
  int preemptions_ = 0;
  std::vector<std::string> events_;
  std::vector<SchedFinding> findings_;

  std::map<const void*, MutexModel> mutexes_;
  std::map<const void*, CondModel> conds_;
  std::map<const void*, std::string> names_;
  std::map<char, int> name_counters_;
  std::map<const void*, std::set<const void*>> lock_graph_;
  std::set<std::pair<std::string, std::string>> flagged_cycles_;
};

Result<std::vector<uint8_t>> ParseSchedule(const std::string& schedule) {
  if (schedule.rfind(kSchedulePrefix, 0) != 0) {
    return InvalidArgumentError(
        "schedule must start with 'v1:' (got '" + schedule + "')");
  }
  std::vector<uint8_t> digits;
  for (size_t i = sizeof(kSchedulePrefix) - 1; i < schedule.size(); ++i) {
    const int value = DigitValue(schedule[i]);
    if (value < 0) {
      return InvalidArgumentError(StrPrintf(
          "schedule has invalid decision digit '%c' at position %zu "
          "(expected 0-9a-z)",
          schedule[i], i));
    }
    digits.push_back(static_cast<uint8_t>(value));
  }
  return digits;
}

// The lexicographically-next DFS prefix within the preemption bound:
// bump the deepest decision that still has an untried, in-budget
// alternative and truncate everything after it. Continuations past the
// prefix use the default policy (keep the current thread), which costs
// no preemptions — the CHESS iterative-context-bound shape.
std::optional<std::vector<uint8_t>> NextPrefix(
    const std::vector<SchedDecision>& decisions, int preempt_bound) {
  for (int i = static_cast<int>(decisions.size()) - 1; i >= 0; --i) {
    int used_before = 0;
    for (int j = 0; j < i; ++j) {
      const SchedDecision& d = decisions[j];
      if (d.current_index >= 0 && d.chosen != d.current_index) ++used_before;
    }
    const SchedDecision& d = decisions[i];
    for (int next = d.chosen + 1; next < d.num_choices; ++next) {
      const bool preempts = d.current_index >= 0 && next != d.current_index;
      if (used_before + (preempts ? 1 : 0) > preempt_bound) continue;
      std::vector<uint8_t> prefix;
      prefix.reserve(i + 1);
      for (int j = 0; j < i; ++j) prefix.push_back(decisions[j].chosen);
      prefix.push_back(static_cast<uint8_t>(next));
      return prefix;
    }
  }
  return std::nullopt;
}

}  // namespace

const char* FindingKindName(FindingKind kind) {
  switch (kind) {
    case FindingKind::kDeadlock:
      return "deadlock";
    case FindingKind::kLockOrderCycle:
      return "lock-order-cycle";
    case FindingKind::kLostWakeup:
      return "lost-wakeup";
  }
  return "unknown";
}

void SchedThread::Join() {
  CHECK(id_ >= 0) << "Join on an empty/moved-from SchedThread";
  CHECK(g_engine != nullptr && t_self != nullptr)
      << "SchedThread::Join outside an exploration";
  const int target = id_;
  id_ = -1;
  g_engine->JoinThread(target);
}

SchedThread Spawn(std::function<void()> fn) {
  CHECK(g_engine != nullptr && t_self != nullptr)
      << "sched::Spawn outside an exploration body";
  return SchedThread(g_engine->SpawnThread(std::move(fn)));
}

void MemoryAccessPoint(const void* object, bool write) {
  if (!InstrArmed(kInstrSched) || t_self == nullptr || g_engine == nullptr) {
    return;
  }
  g_engine->Access(object, write);
}

Result<RunResult> RunWithSchedule(const std::function<void()>& body,
                                  const std::string& schedule) {
  Strategy strategy;
  strategy.kind = Strategy::Kind::kFollow;
  strategy.strict = true;
  ASSIGN_OR_RETURN(strategy.prefix, ParseSchedule(schedule));
  Engine engine(std::move(strategy));
  RunResult result = engine.Run(body);
  RETURN_IF_ERROR(engine.error());
  return result;
}

RunResult RandomWalk(const std::function<void()>& body, uint64_t seed) {
  Strategy strategy;
  strategy.kind = Strategy::Kind::kRandom;
  strategy.seed = seed;
  Engine engine(std::move(strategy));
  return engine.Run(body);
}

ExploreReport Explore(const std::function<void()>& body,
                      const ExploreOptions& options) {
  ExploreReport report;
  std::set<std::pair<int, std::string>> seen;
  auto merge = [&](const RunResult& run) {
    for (const SchedFinding& f : run.findings) {
      if (seen.insert({static_cast<int>(f.kind), f.message}).second) {
        report.findings.push_back(f);
      }
    }
  };

  std::vector<uint8_t> prefix;
  while (report.dfs_runs < options.dfs_budget) {
    Strategy strategy;
    strategy.kind = Strategy::Kind::kFollow;
    strategy.prefix = prefix;
    Engine engine(std::move(strategy));
    const RunResult run = engine.Run(body);
    ++report.dfs_runs;
    merge(run);
    std::optional<std::vector<uint8_t>> next =
        NextPrefix(run.decisions, options.preempt_bound);
    if (!next.has_value()) {
      report.dfs_exhausted = true;
      break;
    }
    prefix = std::move(*next);
  }
  for (uint64_t k = 0; k < options.random_budget; ++k) {
    const uint64_t seed = options.seed ^ (0x9E3779B97F4A7C15ULL * (k + 1));
    merge(RandomWalk(body, seed));
    ++report.random_runs;
  }
  report.runs = report.dfs_runs + report.random_runs;
  return report;
}

}  // namespace ddr::sched

// ----------------------------------------------------------------------
// Hook bodies for src/util/thread_annotations.h. Non-participant threads
// (t_self unset) fall through to the real primitives even while an
// exploration is armed elsewhere in the process.
// ----------------------------------------------------------------------

namespace ddr::sched_internal {

namespace {
// Participant check shared by every hook: the calling thread must belong
// to the active engine. Qualified lookup reaches the engine's
// file-local globals through their enclosing namespace.
inline bool Participating() {
  return sched::t_self != nullptr && sched::g_engine != nullptr;
}
}  // namespace

bool LockHook(void* mu) {
  return Participating() && sched::g_engine->Lock(mu);
}

bool UnlockHook(void* mu) {
  return Participating() && sched::g_engine->Unlock(mu);
}

bool TryLockHook(void* mu, bool* acquired) {
  return Participating() && sched::g_engine->TryLock(mu, acquired);
}

bool CondWaitHook(void* cv, void* mu, bool timed) {
  return Participating() && sched::g_engine->CondWait(cv, mu, timed);
}

bool CondNotifyHook(void* cv, bool all) {
  return Participating() && sched::g_engine->CondNotify(cv, all);
}

}  // namespace ddr::sched_internal
