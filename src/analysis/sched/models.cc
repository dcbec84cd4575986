#include "src/analysis/sched/models.h"

#include <deque>
#include <memory>
#include <vector>

#include "src/trace/chunk_cache.h"
#include "src/util/logging.h"
#include "src/util/thread_annotations.h"

namespace ddr::sched {
namespace {

// --------------------------------------------------------------- clean

// The real sharded ChunkCache (src/trace/chunk_cache.h), not a copy: its
// per-shard ddr::Mutex locks are the sched-points. The budget holds one
// 1-event chunk (224 B: one Event plus entry overhead) per shard, so
// inserts evict. Two readers insert and look up two keys in opposite
// orders while a filler inserts ten more.
void CacheLruBody() {
  auto cache = std::make_shared<ChunkCache>(8 * 300);
  auto key = [](uint64_t index) {
    return ChunkKey{.file_id = 1, .image_offset = 0, .chunk_index = index};
  };
  std::vector<ChunkCache::EventsPtr> chunks;
  for (int i = 0; i < 12; ++i) {
    chunks.push_back(std::make_shared<const std::vector<Event>>(1));
  }
  auto reader = [=](uint64_t first, uint64_t second) {
    for (uint64_t index : {first, second}) {
      cache->Insert(key(index), chunks[index]);
      const ChunkCache::EventsPtr hit = cache->Lookup(key(index));
      CHECK(hit == nullptr || hit == chunks[index])
          << "cache hit returned a foreign chunk";
    }
  };
  SchedThread a = Spawn([=] { reader(0, 1); });
  SchedThread b = Spawn([=] { reader(1, 0); });
  SchedThread filler = Spawn([=] {
    for (uint64_t index = 2; index < 12; ++index) {
      cache->Insert(key(index), chunks[index]);
    }
  });
  a.Join();
  b.Join();
  filler.Join();
  const ChunkCacheStats stats = cache->stats();
  CHECK_EQ(stats.hits + stats.misses, 4u);
  CHECK_GT(stats.evictions, 0u);
}

// Corpus server admission queue + stop/drain (src/server/corpus_server.cc
// post-PR9): a bounded task queue with condvar-waiting workers, a stop
// flag readable without the stop mutex, and the PR 9 fix — RequestStop
// pairs its notify with the waiter's mutex via an empty critical section
// so the store/notify can never slide into the waiter's check-then-wait
// window.
void ServerQueueBody() {
  struct State {
    Mutex queue_mu;
    CondVar queue_cv;
    std::deque<int> queue;
    bool queue_closed = false;
    int processed = 0;

    Mutex stop_mu;
    CondVar stop_cv;
    SharedVar<bool> stop;
  };
  auto st = std::make_shared<State>();
  auto worker = [st] {
    for (;;) {
      {
        MutexLock lock(st->queue_mu);
        while (st->queue.empty() && !st->queue_closed) {
          st->queue_cv.Wait(st->queue_mu);
        }
        if (st->queue.empty()) return;  // closed and drained
        st->queue.pop_front();
        ++st->processed;
      }
    }
  };
  SchedThread w1 = Spawn(worker);
  SchedThread w2 = Spawn(worker);
  SchedThread waiter = Spawn([st] {
    // Wait(): parks until RequestStop flips the flag.
    MutexLock lock(st->stop_mu);
    while (!st->stop.Load()) {
      st->stop_cv.Wait(st->stop_mu);
    }
  });
  for (int task = 0; task < 2; ++task) {
    MutexLock lock(st->queue_mu);
    st->queue.push_back(task);
    st->queue_cv.NotifyOne();
  }
  // RequestStop, fixed shape: the empty stop_mu critical section orders
  // the store before any in-flight check-then-wait completes.
  st->stop.Store(true);
  { MutexLock lock(st->stop_mu); }
  st->stop_cv.NotifyAll();
  // Drain: close the queue and wake every idle worker.
  {
    MutexLock lock(st->queue_mu);
    st->queue_closed = true;
  }
  st->queue_cv.NotifyAll();
  w1.Join();
  w2.Join();
  waiter.Join();
}

// Single-writer flock append (src/util/file_lock.h + the corpus journal
// append path): the file lock is a try-lock — a losing appender reports
// Unavailable instead of queueing — and in-process state publishes under
// a separate mutex nested strictly inside the writer lock.
void FlockAppendBody() {
  struct State {
    Mutex flock;  // TryFlockExclusive: non-blocking, single writer
    Mutex state_mu;
    int journal_len = 0;
    int refused = 0;
  };
  auto st = std::make_shared<State>();
  auto append = [st] {
    if (!st->flock.try_lock()) {
      MutexLock lock(st->state_mu);
      ++st->refused;  // loud Unavailable, never a queued wait
      return;
    }
    {
      MutexLock lock(st->state_mu);
      ++st->journal_len;
    }
    st->flock.unlock();
  };
  SchedThread a = Spawn(append);
  SchedThread b = Spawn(append);
  a.Join();
  b.Join();
}

// ------------------------------------------------------ expect_finding

// Classic AB/BA inversion: some interleavings deadlock, all of them
// close the acquisition-order cycle.
void DeadlockInversionBody() {
  struct State {
    Mutex a;
    Mutex b;
  };
  auto st = std::make_shared<State>();
  SchedThread t1 = Spawn([st] {
    MutexLock la(st->a);
    MutexLock lb(st->b);
  });
  SchedThread t2 = Spawn([st] {
    MutexLock lb(st->b);
    MutexLock la(st->a);
  });
  t1.Join();
  t2.Join();
}

// The same inversion serialized by an outer gate: no interleaving can
// deadlock, but the acquisition graph still carries the cycle — the
// latent bug the runtime graph check exists to catch before a refactor
// removes the gate.
void LockOrderGateBody() {
  struct State {
    Mutex gate;
    Mutex a;
    Mutex b;
  };
  auto st = std::make_shared<State>();
  SchedThread t1 = Spawn([st] {
    MutexLock g(st->gate);
    MutexLock la(st->a);
    MutexLock lb(st->b);
  });
  SchedThread t2 = Spawn([st] {
    MutexLock g(st->gate);
    MutexLock lb(st->b);
    MutexLock la(st->a);
  });
  t1.Join();
  t2.Join();
}

// The pre-PR9 corpus-server stop path: store + notify with no pairing on
// the waiter's mutex. The waiter can read the flag as false, lose the
// CPU before parking, miss the only notify, and sleep forever.
void LostWakeupBody() {
  struct State {
    Mutex stop_mu;
    CondVar stop_cv;
    SharedVar<bool> stop;
  };
  auto st = std::make_shared<State>();
  SchedThread waiter = Spawn([st] {
    MutexLock lock(st->stop_mu);
    while (!st->stop.Load()) {
      st->stop_cv.Wait(st->stop_mu);
    }
  });
  st->stop.Store(true);  // BUG: no { MutexLock lock(st->stop_mu); } here
  st->stop_cv.NotifyAll();
  waiter.Join();
}

const std::vector<SchedModel>& Models() {
  static const std::vector<SchedModel>* models = new std::vector<SchedModel>{
      {"cache-lru",
       "the real ChunkCache at one chunk per shard: opposite-order "
       "readers, a filler forcing evictions",
       &CacheLruBody, SchedModel::Expect::kClean},
      {"server-queue",
       "corpus server admission queue + stop/drain with the PR 9 "
       "notify-under-mutex fix",
       &ServerQueueBody, SchedModel::Expect::kClean},
      {"flock-append",
       "single-writer flock append: try-lock writer gate, nested state "
       "publish, loud Unavailable on contention",
       &FlockAppendBody, SchedModel::Expect::kClean},
      {"deadlock-inversion",
       "deliberate AB/BA lock-order inversion: deadlocks under the right "
       "schedule",
       &DeadlockInversionBody, SchedModel::Expect::kDeadlock},
      {"lock-order",
       "AB/BA inversion behind an outer gate: never deadlocks, but the "
       "acquisition graph carries the cycle",
       &LockOrderGateBody, SchedModel::Expect::kLockOrderCycle},
      {"lost-wakeup",
       "pre-PR9 stop path: store+notify without the waiter's mutex loses "
       "the wakeup",
       &LostWakeupBody, SchedModel::Expect::kLostWakeup},
  };
  return *models;
}

}  // namespace

const char* ExpectName(SchedModel::Expect expect) {
  switch (expect) {
    case SchedModel::Expect::kClean:
      return "clean";
    case SchedModel::Expect::kDeadlock:
      return "deadlock";
    case SchedModel::Expect::kLockOrderCycle:
      return "lock-order-cycle";
    case SchedModel::Expect::kLostWakeup:
      return "lost-wakeup";
  }
  return "unknown";
}

const std::vector<SchedModel>& AllSchedModels() { return Models(); }

const SchedModel* FindSchedModel(std::string_view name) {
  for (const SchedModel& model : Models()) {
    if (name == model.name) return &model;
  }
  return nullptr;
}

}  // namespace ddr::sched
