// Deeper substrate tests beyond the smoke suite: semaphores, barriers,
// timeouts, channel backpressure, RMW atomicity, run limits, disks,
// TryAlloc faults, region nesting, scheduling-policy determinism, and the
// fiber machinery itself (caller-thread execution, stacks, unwinding, and
// the state a context switch must carry: floating-point control and stack
// alignment).

#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <limits>
#include <thread>

#include "src/sim/channel.h"
#include "src/sim/disk.h"
#include "src/sim/environment.h"
#include "src/sim/network.h"
#include "src/sim/shared_var.h"
#include "src/sim/sync.h"
#include "src/util/thread_annotations.h"

namespace ddr {
namespace {

Environment::Options Opts(uint64_t seed, double preempt = 0.15) {
  Environment::Options options;
  options.seed = seed;
  options.scheduling.preempt_probability = preempt;
  return options;
}

TEST(SimSyncTest, SemaphoreBoundsConcurrency) {
  Environment env(Opts(1));
  int max_inside = 0;
  Outcome outcome = env.Run("sem", [&](Environment& e) {
    SimSemaphore sem(e, "sem", 2);
    SharedVar<int> inside(e, "inside", 0);
    std::vector<FiberId> fibers;
    for (int i = 0; i < 6; ++i) {
      fibers.push_back(e.Spawn("f" + std::to_string(i), [&] {
        sem.Acquire();
        const int now_inside = static_cast<int>(inside.FetchAdd(1)) + 1;
        max_inside = std::max(max_inside, now_inside);
        e.Yield();
        inside.FetchAdd(-1);
        sem.Release();
      }));
    }
    for (FiberId f : fibers) {
      e.Join(f);
    }
  });
  EXPECT_FALSE(outcome.Failed());
  EXPECT_LE(max_inside, 2);
  EXPECT_GE(max_inside, 1);
}

TEST(SimSyncTest, BarrierReleasesAllTogether) {
  Environment env(Opts(2));
  int after_barrier_before_all_arrived = 0;
  Outcome outcome = env.Run("barrier", [&](Environment& e) {
    SimBarrier barrier(e, "barrier", 4);
    SharedVar<int> arrived(e, "arrived", 0);
    std::vector<FiberId> fibers;
    for (int i = 0; i < 4; ++i) {
      fibers.push_back(e.Spawn("f" + std::to_string(i), [&] {
        arrived.FetchAdd(1);
        barrier.Arrive();
        if (arrived.Load() < 4) {
          ++after_barrier_before_all_arrived;
        }
      }));
    }
    for (FiberId f : fibers) {
      e.Join(f);
    }
  });
  EXPECT_FALSE(outcome.Failed());
  EXPECT_EQ(after_barrier_before_all_arrived, 0);
}

TEST(SimSyncTest, RmwIsAtomicUnderPreemption) {
  Environment env(Opts(3, /*preempt=*/0.4));
  uint64_t final_value = 0;
  env.Run("rmw", [&](Environment& e) {
    SharedVar<uint64_t> counter(e, "counter", 0);
    std::vector<FiberId> fibers;
    for (int i = 0; i < 4; ++i) {
      fibers.push_back(e.Spawn("f" + std::to_string(i), [&] {
        for (int k = 0; k < 25; ++k) {
          counter.FetchAdd(1);
        }
      }));
    }
    for (FiberId f : fibers) {
      e.Join(f);
    }
    final_value = counter.Load();
  });
  EXPECT_EQ(final_value, 100u);
}

TEST(SimSyncTest, CompareExchange) {
  Environment env(Opts(4));
  env.Run("cas", [&](Environment& e) {
    SharedVar<int> flag(e, "flag", 0);
    EXPECT_TRUE(flag.CompareExchange(0, 7));
    EXPECT_FALSE(flag.CompareExchange(0, 9));
    EXPECT_EQ(flag.Load(), 7);
  });
}

TEST(SimTimeoutTest, WaitOnTimesOut) {
  Environment env(Opts(5));
  WakeReason reason = WakeReason::kNotified;
  SimTime waited = 0;
  env.Run("timeout", [&](Environment& e) {
    ObjectId queue = e.CreateWaitQueue("never-notified");
    const SimTime before = e.Now();
    reason = e.WaitOn(queue, 2 * kMillisecond);
    waited = e.Now() - before;
  });
  EXPECT_EQ(reason, WakeReason::kTimeout);
  EXPECT_GE(waited, static_cast<SimTime>(2 * kMillisecond));
}

TEST(SimTimeoutTest, NotifyBeforeTimeoutWins) {
  Environment env(Opts(6));
  WakeReason reason = WakeReason::kTimeout;
  env.Run("notify", [&](Environment& e) {
    ObjectId queue = e.CreateWaitQueue("queue");
    FiberId waker = e.Spawn("waker", [&] {
      e.SleepFor(1 * kMillisecond);
      e.NotifyOne(queue);
    });
    reason = e.WaitOn(queue, 50 * kMillisecond);
    e.Join(waker);
  });
  EXPECT_EQ(reason, WakeReason::kNotified);
}

TEST(SimTimeoutTest, StaleTimerDoesNotWakeLaterWait) {
  Environment env(Opts(7));
  Outcome outcome = env.Run("stale", [&](Environment& e) {
    ObjectId queue = e.CreateWaitQueue("queue");
    FiberId waker = e.Spawn("waker", [&] {
      e.SleepFor(1 * kMillisecond);
      e.NotifyOne(queue);  // wakes the first wait; its timer is now stale
      e.SleepFor(10 * kMillisecond);
      e.NotifyOne(queue);  // wakes the second wait
    });
    EXPECT_EQ(e.WaitOn(queue, 3 * kMillisecond), WakeReason::kNotified);
    // Second wait crosses the first wait's (stale) timeout instant.
    EXPECT_EQ(e.WaitOn(queue, 30 * kMillisecond), WakeReason::kNotified);
    e.Join(waker);
  });
  EXPECT_FALSE(outcome.Failed());
}

TEST(SimChannelTest, BoundedChannelExertsBackpressure) {
  Environment env(Opts(8));
  size_t max_depth = 0;
  Outcome outcome = env.Run("bounded", [&](Environment& e) {
    Channel<int> chan(e, "chan", /*capacity=*/3);
    FiberId producer = e.Spawn("producer", [&] {
      for (int i = 0; i < 30; ++i) {
        chan.Send(i);
        max_depth = std::max(max_depth, chan.size());
      }
    });
    FiberId consumer = e.Spawn("consumer", [&] {
      for (int i = 0; i < 30; ++i) {
        EXPECT_EQ(chan.Recv(), i);
      }
    });
    e.Join(producer);
    e.Join(consumer);
  });
  EXPECT_FALSE(outcome.Failed());
  EXPECT_LE(max_depth, 3u);
}

TEST(SimChannelTest, TryRecvNonBlocking) {
  Environment env(Opts(9));
  env.Run("tryrecv", [&](Environment& e) {
    Channel<int> chan(e, "chan");
    EXPECT_FALSE(chan.TryRecv().has_value());
    chan.Send(5);
    auto got = chan.TryRecv();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, 5);
  });
}

TEST(SimLimitsTest, EventLimitStopsRun) {
  Environment::Options options = Opts(10);
  options.max_events = 500;
  Environment env(options);
  Outcome outcome = env.Run("runaway", [&](Environment& e) {
    SharedVar<uint64_t> x(e, "x", 0);
    for (;;) {
      x.Store(x.Load() + 1);  // infinite loop; the limit must stop it
    }
  });
  EXPECT_TRUE(outcome.stats.hit_event_limit);
  EXPECT_LE(outcome.stats.events, 501u);
}

TEST(SimLimitsTest, VirtualTimeLimitStopsRun) {
  Environment::Options options = Opts(11);
  options.max_virtual_time = 5 * kMillisecond;
  Environment env(options);
  Outcome outcome = env.Run("sleeper", [&](Environment& e) {
    for (;;) {
      e.SleepFor(1 * kMillisecond);
    }
  });
  EXPECT_TRUE(outcome.stats.hit_time_limit);
}

TEST(SimDiskTest, AppendAndReadWithLatency) {
  Environment env(Opts(12));
  env.Run("disk", [&](Environment& e) {
    SimDisk disk(e, "disk");
    const SimTime before = e.Now();
    const size_t index = disk.Append("record-zero");
    EXPECT_EQ(index, 0u);
    EXPECT_GT(e.Now(), before);  // write latency elapsed
    disk.Append("record-one");
    EXPECT_EQ(disk.Read(0), "record-zero");
    EXPECT_EQ(disk.Read(1), "record-one");
    EXPECT_EQ(disk.num_records(), 2u);
    EXPECT_EQ(disk.bytes_written(), 21u);  // 11 + 10 payload bytes
  });
}

TEST(SimFaultTest, TryAllocFailsOncePerArm) {
  Environment env(Opts(13));
  env.SetFaultPlan(FaultPlan::OomAt(/*node=*/0, /*time=*/0));
  int failures = 0;
  env.Run("oom", [&](Environment& e) {
    for (int i = 0; i < 5; ++i) {
      if (!e.TryAlloc(100)) {
        ++failures;
      }
    }
  });
  EXPECT_EQ(failures, 1);  // the armed fault fires exactly once
}

TEST(SimFaultTest, CheckAllocAbortsWithOom) {
  Environment env(Opts(14));
  env.SetFaultPlan(FaultPlan::OomAt(/*node=*/0, /*time=*/0));
  Outcome outcome = env.Run("oom-abort", [&](Environment& e) { e.CheckAlloc(64); });
  ASSERT_TRUE(outcome.Failed());
  EXPECT_EQ(outcome.primary_failure()->kind, FailureKind::kOom);
}

TEST(SimRegionTest, NestedRegionsRestoreOuter) {
  Environment env(Opts(15));
  CollectingSink sink;
  env.AddTraceSink(&sink);
  RegionId outer = kDefaultRegion;
  RegionId inner = kDefaultRegion;
  env.Run("regions", [&](Environment& e) {
    outer = e.RegisterRegion("outer");
    inner = e.RegisterRegion("inner");
    SharedVar<int> x(e, "x", 0);
    RegionScope outer_scope(e, outer);
    x.Store(1);
    {
      RegionScope inner_scope(e, inner);
      x.Store(2);
    }
    x.Store(3);
  });
  RegionId region_of_1 = kDefaultRegion;
  RegionId region_of_2 = kDefaultRegion;
  RegionId region_of_3 = kDefaultRegion;
  for (const Event& event : sink.events()) {
    if (event.type == EventType::kSharedWrite) {
      if (event.value == 1) region_of_1 = event.region;
      if (event.value == 2) region_of_2 = event.region;
      if (event.value == 3) region_of_3 = event.region;
    }
  }
  EXPECT_EQ(region_of_1, outer);
  EXPECT_EQ(region_of_2, inner);
  EXPECT_EQ(region_of_3, outer);
}

TEST(SimPolicyTest, RoundRobinIsDeterministicAndFair) {
  auto run = [](uint64_t seed) {
    Environment::Options options;
    options.seed = seed;
    options.scheduling.policy = SchedulingOptions::Policy::kRoundRobin;
    options.scheduling.preempt_probability = 1.0;  // switch at every point
    Environment env(options);
    std::vector<int> order;
    env.Run("rr", [&](Environment& e) {
      std::vector<FiberId> fibers;
      for (int i = 0; i < 3; ++i) {
        fibers.push_back(e.Spawn("f" + std::to_string(i), [&, i] {
          for (int k = 0; k < 3; ++k) {
            order.push_back(i);
            e.Yield();
          }
        }));
      }
      for (FiberId f : fibers) {
        e.Join(f);
      }
    });
    return order;
  };
  // Round-robin ignores the seed entirely: identical interleavings.
  EXPECT_EQ(run(1), run(999));
  const auto order = run(1);
  EXPECT_EQ(order.size(), 9u);
}

TEST(SimPolicyTest, ZeroPreemptionRunsFibersToBlocking) {
  Environment env(Opts(16, /*preempt=*/0.0));
  std::vector<int> order;
  env.Run("coop", [&](Environment& e) {
    FiberId a = e.Spawn("a", [&] {
      order.push_back(1);
      order.push_back(2);  // no preemption between these
    });
    FiberId b = e.Spawn("b", [&] { order.push_back(3); });
    e.Join(a);
    e.Join(b);
  });
  ASSERT_EQ(order.size(), 3u);
  // With zero preemption, 'a' has no scheduling point between its two
  // pushes, so they are never interleaved by 'b' (pick order may vary).
  for (size_t i = 0; i < order.size(); ++i) {
    if (order[i] == 1) {
      ASSERT_LT(i + 1, order.size());
      EXPECT_EQ(order[i + 1], 2);
    }
  }
}

TEST(SimNetworkTest, BaseDropProbabilityDropsSomeMessages) {
  Environment env(Opts(17));
  uint64_t delivered = 0;
  uint64_t dropped = 0;
  env.Run("drops", [&](Environment& e) {
    NodeId peer = e.AddNode("peer");
    NetworkOptions options;
    options.drop_probability = 0.3;
    Network net(e, options);
    ObjectId here = net.CreateEndpoint(0, "here");
    ObjectId there = net.CreateEndpoint(peer, "there");
    e.SpawnOnNode(peer, "sink", [&] {
      while (net.Recv(there, 20 * kMillisecond).has_value()) {
      }
    });
    for (int i = 0; i < 100; ++i) {
      net.Send(here, there, i, "x");
    }
    e.SleepFor(50 * kMillisecond);
    delivered = net.messages_delivered();
    dropped = net.messages_dropped();
  });
  EXPECT_GT(dropped, 10u);
  EXPECT_GT(delivered, 40u);
  EXPECT_EQ(delivered + dropped, 100u);
}

TEST(SimNetworkTest, CongestionDropsOnlyInsideWindow) {
  Environment env(Opts(18));
  env.SetFaultPlan(FaultPlan::CongestionWindow(/*start=*/10 * kMillisecond,
                                               /*duration=*/10 * kMillisecond,
                                               /*drop_prob=*/1.0));
  uint64_t in_window_drops = 0;
  uint64_t out_window_delivered = 0;
  env.Run("congestion", [&](Environment& e) {
    NodeId peer = e.AddNode("peer");
    Network net(e, NetworkOptions{});
    ObjectId here = net.CreateEndpoint(0, "here");
    ObjectId there = net.CreateEndpoint(peer, "there");
    e.SpawnOnNode(peer, "sink", [&] {
      while (net.Recv(there, 40 * kMillisecond).has_value()) {
      }
    });
    net.Send(here, there, 1, "before");   // t=0: delivered
    e.SleepFor(15 * kMillisecond);        // inside the window
    net.Send(here, there, 2, "during");   // dropped (p=1.0)
    e.SleepFor(15 * kMillisecond);        // after the window
    net.Send(here, there, 3, "after");    // delivered
    e.SleepFor(10 * kMillisecond);
    in_window_drops = net.congestion_drops();
    out_window_delivered = net.messages_delivered();
  });
  EXPECT_EQ(in_window_drops, 1u);
  EXPECT_EQ(out_window_delivered, 2u);
}

TEST(SimDeterminismTest, PolicySweepFingerprintsStable) {
  auto fingerprint = [](uint64_t seed, SchedulingOptions::Policy policy, double p) {
    Environment::Options options;
    options.seed = seed;
    options.scheduling.policy = policy;
    options.scheduling.preempt_probability = p;
    Environment env(options);
    return env
        .Run("sweep",
             [](Environment& e) {
               SharedVar<uint64_t> x(e, "x", 0);
               SimMutex mu(e, "mu");
               Channel<int> chan(e, "chan");
               FiberId a = e.Spawn("a", [&] {
                 for (int i = 0; i < 8; ++i) {
                   SimLock lock(mu);
                   x.Store(x.Load() + 1);
                   chan.Send(i);
                 }
               });
               FiberId b = e.Spawn("b", [&] {
                 for (int i = 0; i < 8; ++i) {
                   chan.Recv();
                   e.RngDraw(RngPurpose::kAppChoice, 10);
                 }
               });
               e.Join(a);
               e.Join(b);
             })
        .trace_fingerprint;
  };
  for (auto policy : {SchedulingOptions::Policy::kRandom,
                      SchedulingOptions::Policy::kRoundRobin}) {
    for (double p : {0.0, 0.2, 0.9}) {
      for (uint64_t seed : {1ull, 17ull, 333ull}) {
        EXPECT_EQ(fingerprint(seed, policy, p), fingerprint(seed, policy, p))
            << "policy=" << static_cast<int>(policy) << " p=" << p
            << " seed=" << seed;
      }
    }
  }
}

// ------------------------------------------------------------------ fibers

TEST(SimFiberTest, BodiesRunOnTheCallersThread) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen;
  Environment env(Opts(19));
  Outcome outcome = env.Run("caller-thread", [&](Environment& e) {
    seen.push_back(std::this_thread::get_id());
    FiberId child = e.Spawn("child", [&] {
      e.Yield();
      seen.push_back(std::this_thread::get_id());
    });
    e.Join(child);
  });
  EXPECT_FALSE(outcome.Failed());
  ASSERT_EQ(seen.size(), 2u);
  for (const std::thread::id id : seen) {
    EXPECT_EQ(id, caller);
  }
}

// A preemptive mutex + channel + RNG workload with an observable output.
Outcome RunMixedWorkload(uint64_t seed) {
  Environment env(Opts(seed, /*preempt=*/0.3));
  return env.Run("mixed", [](Environment& e) {
    SharedVar<uint64_t> x(e, "x", 0);
    SimMutex mu(e, "mu");
    Channel<int> chan(e, "chan");
    std::vector<FiberId> fibers;
    for (int f = 0; f < 3; ++f) {
      fibers.push_back(e.Spawn("p" + std::to_string(f), [&] {
        for (int i = 0; i < 10; ++i) {
          SimLock lock(mu);
          x.Store(x.Load() + 1);
          chan.Send(static_cast<int>(e.RngDraw(RngPurpose::kAppChoice, 100)));
        }
      }));
    }
    uint64_t sum = 0;
    for (int i = 0; i < 30; ++i) {
      sum = sum * 31 + static_cast<uint64_t>(chan.Recv());
    }
    for (FiberId f : fibers) {
      e.Join(f);
    }
    e.EmitOutput(sum ^ x.Load());
  });
}

TEST(SimFiberTest, ConcurrentEnvironmentsMatchSequentialRuns) {
  constexpr int kEnvs = 4;
  std::vector<Outcome> sequential;
  for (int i = 0; i < kEnvs; ++i) {
    sequential.push_back(RunMixedWorkload(100 + i));
  }
  std::vector<Outcome> concurrent(kEnvs);
  std::vector<OsThread> threads;
  for (int i = 0; i < kEnvs; ++i) {
    threads.emplace_back([&concurrent, i] { concurrent[i] = RunMixedWorkload(100 + i); });
  }
  for (OsThread& thread : threads) {
    thread.join();
  }
  for (int i = 0; i < kEnvs; ++i) {
    EXPECT_FALSE(sequential[i].Failed()) << i;
    EXPECT_EQ(concurrent[i].trace_fingerprint, sequential[i].trace_fingerprint) << i;
    EXPECT_EQ(concurrent[i].output_fingerprint, sequential[i].output_fingerprint) << i;
  }
  // Different seeds really do schedule differently.
  EXPECT_NE(sequential[0].trace_fingerprint, sequential[1].trace_fingerprint);
}

TEST(SimFiberTest, KillingABlockedFiberRunsItsDestructors) {
  struct Guard {
    int* destroyed;
    ~Guard() { ++*destroyed; }
  };
  int destroyed = 0;
  bool ran_past_wait = false;
  Environment env(Opts(20));
  Outcome outcome = env.Run("kill-unwind", [&](Environment& e) {
    ObjectId never = e.CreateWaitQueue("never-notified");
    e.Spawn("blocked", [&] {
      Guard outer{&destroyed};
      {
        Guard inner{&destroyed};
        e.WaitOn(never);  // the root's exit kills this fiber here
        ran_past_wait = true;
      }
    });
    e.Yield();  // let the child block, then end the run
  });
  EXPECT_FALSE(outcome.Failed());
  EXPECT_FALSE(ran_past_wait);
  EXPECT_EQ(destroyed, 2);
}

// Recurses `limit` frames of about 1 KiB each; not a tail call.
int DeepRecursion(int depth, int limit) {
  volatile char frame[1024];
  frame[depth % sizeof(frame)] = static_cast<char>(depth);
  if (depth == limit) {
    return depth;
  }
  return DeepRecursion(depth + 1, limit) + frame[depth % sizeof(frame)] - static_cast<char>(depth);
}

TEST(SimFiberTest, SixtyFourKibRecursionFitsOnAFiberStack) {
  int reached = 0;
  Environment env(Opts(21));
  env.Run("deep", [&](Environment& e) {
    FiberId child = e.Spawn("recurse", [&] { reached = DeepRecursion(0, 64); });
    e.Join(child);
  });
  EXPECT_EQ(reached, 64);
}

TEST(SimFiberDeathTest, StackOverflowHitsTheGuardPage) {
  EXPECT_DEATH(
      {
        Environment env(Opts(22));
        env.Run("overflow", [](Environment&) {
          DeepRecursion(0, std::numeric_limits<int>::max());
        });
      },
      "");
}

// 1/3 as SSE arithmetic rounds it, which follows MXCSR; fegetround() reads
// the x87 control word. Each mode has its own bit in a context's frame.
[[gnu::noinline]] double OneThird() {
  volatile double one = 1.0;
  volatile double three = 3.0;
  return one / three;
}

TEST(SimFiberTest, FloatingPointControlStaysWithItsContext) {
  ASSERT_EQ(fegetround(), FE_TONEAREST);
  const double nearest = OneThird();
  bool upward_set = false;
  bool other_checked = false;
  int upward_mode = -1;
  double upward_third = 0;
  int other_mode = -1;
  double other_third = 0;
  Environment env(Opts(23, /*preempt=*/0.0));
  env.Run("fp-control", [&](Environment& e) {
    FiberId upward = e.Spawn("upward", [&] {
      fesetround(FE_UPWARD);
      upward_set = true;
      while (!other_checked) {
        e.Yield();
      }
      upward_mode = fegetround();
      upward_third = OneThird();
    });
    FiberId other = e.Spawn("other", [&] {
      while (!upward_set) {
        e.Yield();
      }
      other_mode = fegetround();
      other_third = OneThird();
      other_checked = true;
    });
    e.Join(upward);
    e.Join(other);
  });
  const int caller_mode = fegetround();
  const double caller_third = OneThird();
  fesetround(FE_TONEAREST);  // keep a failure from leaking into later tests

  EXPECT_EQ(upward_mode, FE_UPWARD);
  EXPECT_GT(upward_third, nearest);
  EXPECT_EQ(other_mode, FE_TONEAREST);
  EXPECT_EQ(other_third, nearest);
  EXPECT_EQ(caller_mode, FE_TONEAREST);
  EXPECT_EQ(caller_third, nearest);
}

// The compiler places an alignas(16) local assuming the ABI's 16-byte
// aligned stack, so a misaligned fiber stack shows up in its address.
[[gnu::noinline]] bool AlignedLocalIsAligned() {
  alignas(16) char local[16];
  volatile uintptr_t address = reinterpret_cast<uintptr_t>(local);
  return address % 16 == 0;
}

TEST(SimFiberTest, FiberFramesAreSixteenByteAligned) {
  bool on_first_entry = false;
  bool after_yield = false;
  Environment env(Opts(24));
  env.Run("aligned", [&](Environment& e) {
    FiberId child = e.Spawn("child", [&] {
      on_first_entry = AlignedLocalIsAligned();
      e.Yield();
      after_yield = AlignedLocalIsAligned();
    });
    e.Join(child);
  });
  EXPECT_TRUE(on_first_entry);
  EXPECT_TRUE(after_yield);
}

// FiberTrampoline catches only FiberKilled and std::exception. Anything else
// ends the process at the fiber's first frame instead of unwinding off the
// fiber stack.
TEST(SimFiberDeathTest, ExceptionEscapingAFiberBodyTerminates) {
  EXPECT_DEATH(
      {
        Environment env(Opts(25));
        env.Run("throws", [](Environment& e) {
          FiberId child = e.Spawn("thrower", [] { throw 42; });
          e.Join(child);
        });
      },
      "terminate called after throwing an instance of 'int'");
}

}  // namespace
}  // namespace ddr
