#include "src/analysis/sched/models.h"

#include <stdlib.h>

#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/server/admission.h"
#include "src/trace/chunk_cache.h"
#include "src/trace/corpus.h"
#include "src/trace/streaming_writer.h"
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

// The corpus server's real AdmissionQueue and StopLatch
// (src/server/admission.h): two workers drain a two-slot queue while a
// waiter blocks on the latch; t0 pushes three items, then stops and
// closes the way CorpusServer's drain does.
void ServerQueueBody() {
  struct State {
    AdmissionQueue<int> queue{2};
    StopLatch stop;
    int popped[2] = {0, 0};  // one slot per worker, read after the joins
  };
  auto st = std::make_shared<State>();
  auto worker = [st](int slot) {
    while (st->queue.Pop().has_value()) {
      ++st->popped[slot];
    }
  };
  SchedThread w1 = Spawn([=] { worker(0); });
  SchedThread w2 = Spawn([=] { worker(1); });
  SchedThread waiter = Spawn([st] { st->stop.Wait(); });
  int accepted = 0;
  int full = 0;
  for (int item = 0; item < 3; ++item) {
    const PushResult pushed = st->queue.TryPush(item);
    CHECK(pushed != PushResult::kClosed) << "push before Close refused";
    (pushed == PushResult::kAccepted ? accepted : full) += 1;
  }
  st->stop.Request();
  st->queue.Close();
  w1.Join();
  w2.Join();
  waiter.Join();
  CHECK_EQ(st->popped[0] + st->popped[1], accepted);
  CHECK_EQ(accepted + full, 3);
  CHECK(st->queue.TryPush(3) == PushResult::kClosed)
      << "push after Close admitted";
}

// The real CorpusWriter::AppendTo: two appenders race to add one entry
// each to a fresh bundle. They meet at the append-base slot's ddr::Mutex
// and at flock(2), which two descriptors contend for even in one process.
// Each reports under a harness mutex while it holds its writer, so the
// other can run inside that window. A loser must fail with Unavailable,
// and the bundle must list exactly the committed names.
void FlockAppendBody() {
  static const std::vector<uint8_t>* const empty_trace =
      new std::vector<uint8_t>(SerializeTrace(RecordedExecution{}));
  struct State {
    std::string dir = (std::filesystem::temp_directory_path() /
                       "ddr-sched-append-XXXXXX").string();
    Mutex mu;
    Status outcome[2] GUARDED_BY(mu);
    ~State() {
      std::error_code ignored;
      std::filesystem::remove_all(dir, ignored);
    }
  };
  auto st = std::make_shared<State>();
  CHECK(::mkdtemp(st->dir.data()) != nullptr) << "mkdtemp " << st->dir;
  const std::string bundle = st->dir + "/bundle.ddrc";
  {
    CorpusWriter writer(bundle);
    CHECK(writer.Begin().ok() && writer.Finish().ok()) << bundle;
  }
  const std::string names[2] = {"a", "b"};
  auto report = [st](int slot, const Status& status) {
    MutexLock lock(st->mu);
    st->outcome[slot] = status;
  };
  auto append = [=](int slot) {
    auto writer = CorpusWriter::AppendTo(bundle);
    report(slot, writer.status());
    if (!writer.ok()) return;
    Status status = (*writer)->AddImage(names[slot], *empty_trace, "perfect",
                                        "", 0, 0.0);
    if (status.ok()) status = (*writer)->Finish();
    report(slot, status);
  };
  SchedThread a = Spawn([=] { append(0); });
  SchedThread b = Spawn([=] { append(1); });
  a.Join();
  b.Join();
  std::set<std::string> committed;
  for (int slot = 0; slot < 2; ++slot) {
    MutexLock lock(st->mu);
    const Status& status = st->outcome[slot];
    CHECK(status.ok() || status.code() == StatusCode::kUnavailable)
        << "appender " << names[slot] << ": " << status.ToString();
    if (status.ok()) committed.insert(names[slot]);
  }
  CorpusReaderOptions read_options;
  read_options.cache_bytes = 0;
  auto reader = CorpusReader::Open(bundle, read_options);
  CHECK(reader.ok()) << reader.status().ToString();
  std::set<std::string> listed;
  for (const CorpusEntry& entry : reader->entries()) listed.insert(entry.name);
  CHECK(listed == committed) << "bundle lists " << listed.size()
                             << " names, " << committed.size()
                             << " appends committed";
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
       "the real AdmissionQueue and StopLatch: two workers, a stop "
       "waiter, three pushes into two slots, then stop and close",
       &ServerQueueBody, SchedModel::Expect::kClean},
      {"flock-append",
       "the real CorpusWriter::AppendTo: two appenders race on one "
       "bundle, a loser fails Unavailable, the index lists the winners",
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
