// Crash-torture harness for the write pipeline (src/util/fault_injection.h).
//
// The drill, for every write path (standalone trace write, corpus build,
// in-place journal append, compaction): run once under a `*:trace` plan
// to enumerate the N faultable operations along the path, then for each
// i in 1..N re-run from identical initial state under `*:crash@i` —
// power loss at exactly that operation — clear the plan, and assert the
// recovery invariants:
//
//   - every committed entry stays readable (VerifyAll clean);
//   - a partially written generation is invisible (the reader serves the
//     previous trailer, never a torn index);
//   - the next append over a torn tail heals it and publishes normally;
//   - the atomic build/compact paths leave either nothing or a complete
//     bundle at the target, and never temp-file litter.
//
// Plus the unit half: plan parsing, arm/disarm, targeted fsync-EIO on
// AtomicFileSink, EINTR storms, and the distinct-site floor (>= 20 sites
// across the storage paths; the transport sites are exercised in
// server_test.cc).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/trace/corpus.h"
#include "src/trace/trace_reader.h"
#include "src/util/fault_injection.h"
#include "src/util/rng.h"
#include "src/util/string_util.h"

namespace ddr {
namespace {

class ScopedPath {
 public:
  explicit ScopedPath(const std::string& tag)
      : path_("fault_torture_" + tag + ".ddrc") {}
  ~ScopedPath() {
    ClearFaultPlan();  // never let a test's plan leak into cleanup
    std::remove(path_.c_str());
  }
  const std::string& get() const { return path_; }

 private:
  std::string path_;
};

RecordedExecution MakeSyntheticRecording(uint64_t num_events,
                                         uint64_t seed = 7) {
  RecordedExecution recording;
  recording.model = "synthetic";
  Rng rng(seed);
  for (uint64_t seq = 0; seq < num_events; ++seq) {
    Event event;
    event.seq = seq;
    event.time = seq * 13;
    event.fiber = static_cast<FiberId>(seq % 3);
    event.obj = 2 + seq % 5;
    event.value = rng.NextIndex(1 << 18);
    event.type = seq % 2 == 0 ? EventType::kSharedRead : EventType::kRngDraw;
    recording.log.Append(event);
  }
  recording.recorded_events = num_events;
  recording.intercepted_events = num_events;
  recording.recorded_bytes = recording.log.encoded_size_bytes();
  recording.cpu_nanos = 500;
  recording.overhead_nanos = 70;
  return recording;
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path,
                    const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

bool FileExists(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return in.good();
}

// Temp files land beside the target as "<path>.tmp.<pid>.<n>"; any
// survivor after a failed operation is litter.
std::vector<std::string> TempLitter(const std::string& path) {
  std::vector<std::string> litter;
  const std::string prefix = path + ".tmp.";
  for (const auto& entry : std::filesystem::directory_iterator(".")) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0) {
      litter.push_back(name);
    }
  }
  return litter;
}

// Entry names of a freshly opened bundle, or nullopt when Open fails.
std::optional<std::vector<std::string>> LiveEntryNames(
    const std::string& path) {
  auto reader = CorpusReader::Open(path);
  if (!reader.ok()) {
    return std::nullopt;
  }
  const Status verified = reader->VerifyAll();
  EXPECT_TRUE(verified.ok()) << verified.ToString();
  std::vector<std::string> names;
  for (const CorpusEntry& entry : reader->entries()) {
    names.push_back(entry.name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

// Runs `op` once under a `*:trace` plan: nothing fires, every consult is
// counted and named. Returns the hit count; accumulates site names.
uint64_t EnumerateSites(const std::function<Status()>& op,
                        std::set<std::string>* sites) {
  EXPECT_TRUE(SetFaultPlan("*:trace").ok());
  EXPECT_TRUE(op().ok());
  const uint64_t hits = FaultSiteHits();
  for (const std::string& site : FaultSitesSeen()) {
    sites->insert(site);
  }
  ClearFaultPlan();
  EXPECT_GT(hits, 0u);
  return hits;
}

// The torture loop: for each faultable operation along `op`'s path,
// restore the initial state, crash at exactly that operation, clear the
// plan, and hand the aftermath to `check` (with whether the op survived
// — a crash on a best-effort site, e.g. a directory fsync, is absorbed).
void CrashAtEverySite(const std::function<void()>& restore,
                      const std::function<Status()>& op,
                      const std::function<void(uint64_t, bool)>& check,
                      std::set<std::string>* sites) {
  restore();
  const uint64_t hits = EnumerateSites(op, sites);
  for (uint64_t i = 1; i <= hits; ++i) {
    restore();
    ASSERT_TRUE(
        SetFaultPlan(StrPrintf("*:crash@%llu",
                               static_cast<unsigned long long>(i)))
            .ok());
    const Status result = op();
    const bool crashed = FaultCrashTriggered();
    ClearFaultPlan();
    ASSERT_TRUE(crashed) << "crash point " << i << " of " << hits
                         << " never fired";
    check(i, result.ok());
  }
}

Status BuildBundle(const std::string& path,
                   const std::vector<std::string>& names) {
  CorpusWriter writer(path);
  RETURN_IF_ERROR(writer.Begin());
  uint64_t seed = 7;
  for (const std::string& name : names) {
    RETURN_IF_ERROR(writer.Add(name, MakeSyntheticRecording(40, seed++)));
  }
  return writer.Finish();
}

Status AppendEntry(const std::string& path, const std::string& name,
                   uint64_t seed) {
  auto writer = CorpusWriter::AppendTo(path);
  RETURN_IF_ERROR(writer.status());
  RETURN_IF_ERROR((*writer)->Add(name, MakeSyntheticRecording(40, seed)));
  return (*writer)->Finish();
}

// ------------------------------------------------------------- unit half

TEST(FaultPlanTest, DisarmedByDefaultAndConsultsAreFree) {
  ClearFaultPlan();
  EXPECT_FALSE(FaultsArmed());
  EXPECT_TRUE(FaultPoint("anything").ok());
  EXPECT_FALSE(FaultEintr("anything"));
  const WriteFaultOutcome outcome = FaultWritePoint("anything", 128);
  EXPECT_EQ(outcome.allowed, 128u);
  EXPECT_TRUE(outcome.failure.ok());
  EXPECT_EQ(FaultSiteHits(), 0u);
}

TEST(FaultPlanTest, ParsesEveryKindAndModifier) {
  EXPECT_TRUE(SetFaultPlan("a:eio;b:enospc;c:short=4;d:eintr=5;e:fsyncfail;"
                           "f:crash@3;g:unavail/2;h:stall=1;*:trace")
                  .ok());
  EXPECT_TRUE(FaultsArmed());
  ClearFaultPlan();
  EXPECT_FALSE(FaultsArmed());
}

TEST(FaultPlanTest, RejectsMalformedPlansAndKeepsThePreviousOne) {
  ASSERT_TRUE(SetFaultPlan("site.x:eio").ok());
  EXPECT_FALSE(SetFaultPlan("site.x").ok());          // no kind
  EXPECT_FALSE(SetFaultPlan(":eio").ok());            // no site
  EXPECT_FALSE(SetFaultPlan("site.x:frobnicate").ok());  // unknown kind
  EXPECT_FALSE(SetFaultPlan("site.x:eio@zero").ok());    // bad count
  EXPECT_FALSE(SetFaultPlan("site.x:eio@0").ok());       // counts are 1-based
  // The last good plan is still armed and still fires.
  EXPECT_TRUE(FaultsArmed());
  EXPECT_FALSE(FaultPoint("site.x").ok());
  ClearFaultPlan();
  // An empty plan is the documented disarm.
  ASSERT_TRUE(SetFaultPlan("site.x:eio").ok());
  EXPECT_TRUE(SetFaultPlan("").ok());
  EXPECT_FALSE(FaultsArmed());
}

TEST(FaultPlanTest, TargetsSitesByExactNameAndPrefixWildcard) {
  ASSERT_TRUE(SetFaultPlan("corpus.journal.sync:eio").ok());
  EXPECT_FALSE(FaultPoint("corpus.journal.sync").ok());
  EXPECT_TRUE(FaultPoint("corpus.journal.trailer").ok());
  ASSERT_TRUE(SetFaultPlan("corpus.journal.*:eio").ok());
  EXPECT_FALSE(FaultPoint("corpus.journal.sync").ok());
  EXPECT_FALSE(FaultPoint("corpus.journal.trailer").ok());
  EXPECT_TRUE(FaultPoint("trace.sink.sync").ok());
  ClearFaultPlan();
}

TEST(FaultPlanTest, NthHitAndEveryKthModifiers) {
  ASSERT_TRUE(SetFaultPlan("s:eio@3").ok());
  EXPECT_TRUE(FaultPoint("s").ok());
  EXPECT_TRUE(FaultPoint("s").ok());
  EXPECT_FALSE(FaultPoint("s").ok());
  EXPECT_TRUE(FaultPoint("s").ok());
  ASSERT_TRUE(SetFaultPlan("s:eio/2").ok());
  EXPECT_TRUE(FaultPoint("s").ok());
  EXPECT_FALSE(FaultPoint("s").ok());
  EXPECT_TRUE(FaultPoint("s").ok());
  EXPECT_FALSE(FaultPoint("s").ok());
  ClearFaultPlan();
}

TEST(FaultPlanTest, CrashFreezesEverySubsequentConsult) {
  ASSERT_TRUE(SetFaultPlan("doomed:crash").ok());
  EXPECT_TRUE(FaultPoint("unrelated").ok());
  EXPECT_FALSE(FaultCrashTriggered());
  EXPECT_FALSE(FaultPoint("doomed").ok());
  EXPECT_TRUE(FaultCrashTriggered());
  // Power is off: every site fails now, not just the targeted one.
  EXPECT_FALSE(FaultPoint("unrelated").ok());
  const WriteFaultOutcome outcome = FaultWritePoint("other", 64);
  EXPECT_EQ(outcome.allowed, 0u);
  EXPECT_FALSE(outcome.failure.ok());
  ClearFaultPlan();
  EXPECT_FALSE(FaultCrashTriggered());
  EXPECT_TRUE(FaultPoint("doomed").ok());
}

TEST(FaultPlanTest, EintrStormDeliversExactlyItsBudget) {
  ASSERT_TRUE(SetFaultPlan("loop:eintr=4").ok());
  int interrupts = 0;
  while (FaultEintr("loop")) {
    ++interrupts;
    ASSERT_LT(interrupts, 100);
  }
  EXPECT_EQ(interrupts, 4);
  EXPECT_FALSE(FaultEintr("loop"));  // storm spent
  ClearFaultPlan();
}

// Satellite: an injected fsync EIO must fail AtomicFileSink::Close()
// loudly and leave neither temp litter nor a half-published rename.
TEST(FaultInjectionTest, FsyncEioFailsAtomicSinkCloseWithNoLitter) {
  ScopedPath path("fsynceio");
  ASSERT_TRUE(SetFaultPlan("trace.sink.sync:eio").ok());
  const Status wrote = WriteTraceFile(path.get(), MakeSyntheticRecording(40));
  ClearFaultPlan();
  EXPECT_FALSE(wrote.ok());
  EXPECT_NE(wrote.ToString().find("Input/output error"), std::string::npos)
      << wrote.ToString();
  EXPECT_FALSE(FileExists(path.get()));
  EXPECT_TRUE(TempLitter(path.get()).empty());
}

TEST(FaultInjectionTest, FsyncFailAndShortWriteSurfaceStrerror) {
  ScopedPath path("shortwrite");
  // fsyncfail: the documented "fsync lies" kind behaves like eio at sync
  // sites.
  ASSERT_TRUE(SetFaultPlan("trace.sink.sync:fsyncfail").ok());
  EXPECT_FALSE(WriteTraceFile(path.get(), MakeSyntheticRecording(40)).ok());
  // short: the sink writes a prefix then reports ENOSPC with strerror.
  ASSERT_TRUE(SetFaultPlan("trace.sink.append:short@1").ok());
  const Status wrote = WriteTraceFile(path.get(), MakeSyntheticRecording(40));
  ClearFaultPlan();
  EXPECT_FALSE(wrote.ok());
  EXPECT_NE(wrote.ToString().find("No space left on device"),
            std::string::npos)
      << wrote.ToString();
  EXPECT_FALSE(FileExists(path.get()));
  EXPECT_TRUE(TempLitter(path.get()).empty());
}

TEST(FaultInjectionTest, EintrStormsAreInvisibleToTheWritePipeline) {
  // Storm every retry loop in the stack; the pipeline must shrug it off
  // and produce a bundle indistinguishable from a calm run.
  ScopedPath calm("eintrcalm");
  ScopedPath stormy("eintrstormy");
  ASSERT_TRUE(BuildBundle(calm.get(), {"a", "b"}).ok());
  ASSERT_TRUE(SetFaultPlan("*:eintr=3").ok());
  const Status built = BuildBundle(stormy.get(), {"a", "b"});
  ClearFaultPlan();
  ASSERT_TRUE(built.ok()) << built.ToString();
  EXPECT_EQ(ReadFileBytes(calm.get()), ReadFileBytes(stormy.get()));
  ASSERT_TRUE(SetFaultPlan("*:eintr=2").ok());
  const Status appended = AppendEntry(stormy.get(), "c", 99);
  ClearFaultPlan();
  ASSERT_TRUE(appended.ok()) << appended.ToString();
  EXPECT_EQ(LiveEntryNames(stormy.get()),
            std::optional<std::vector<std::string>>({{"a", "b", "c"}}));
}

// ---------------------------------------------------------- torture half

TEST(FaultTortureTest, TraceWriteCrashesLeaveAllOrNothing) {
  ScopedPath path("tracewrite");
  std::set<std::string> sites;
  CrashAtEverySite(
      [&] { std::remove(path.get().c_str()); },
      [&] { return WriteTraceFile(path.get(), MakeSyntheticRecording(60)); },
      [&](uint64_t point, bool survived) {
        EXPECT_TRUE(TempLitter(path.get()).empty()) << "crash point " << point;
        if (FileExists(path.get())) {
          // Published despite (or after) the crash point: must be whole.
          auto reader = TraceReader::Open(path.get());
          ASSERT_TRUE(reader.ok())
              << "crash point " << point << ": " << reader.status().ToString();
          EXPECT_TRUE(reader->Verify().ok()) << "crash point " << point;
        } else {
          EXPECT_FALSE(survived) << "crash point " << point;
        }
      },
      &sites);
}

TEST(FaultTortureTest, CorpusBuildCrashesLeaveAllOrNothing) {
  ScopedPath path("build");
  std::set<std::string> sites;
  CrashAtEverySite(
      [&] { std::remove(path.get().c_str()); },
      [&] { return BuildBundle(path.get(), {"one", "two"}); },
      [&](uint64_t point, bool survived) {
        EXPECT_TRUE(TempLitter(path.get()).empty()) << "crash point " << point;
        const auto names = LiveEntryNames(path.get());
        if (names.has_value()) {
          EXPECT_EQ(*names, (std::vector<std::string>{"one", "two"}))
              << "crash point " << point;
        } else {
          EXPECT_FALSE(FileExists(path.get())) << "crash point " << point;
          EXPECT_FALSE(survived) << "crash point " << point;
        }
      },
      &sites);
}

TEST(FaultTortureTest, InPlaceAppendCrashesKeepBaseAndHeal) {
  ScopedPath path("append");
  ASSERT_TRUE(BuildBundle(path.get(), {"base"}).ok());
  const std::vector<uint8_t> base_bytes = ReadFileBytes(path.get());
  const std::vector<std::string> base_only = {"base"};
  const std::vector<std::string> both = {"base", "grown"};
  std::set<std::string> sites;
  CrashAtEverySite(
      [&] { WriteFileBytes(path.get(), base_bytes); },
      [&] { return AppendEntry(path.get(), "grown", 21); },
      [&](uint64_t point, bool survived) {
        // Committed entries stay readable; the torn generation is either
        // fully published or fully invisible.
        const auto names = LiveEntryNames(path.get());
        ASSERT_TRUE(names.has_value())
            << "crash point " << point << " broke recovery";
        if (survived) {
          EXPECT_EQ(*names, both) << "crash point " << point;
        } else {
          // A failed append may still have published: a crash after the
          // trailer landed but before the final sync returned reports an
          // error while the generation is already durable. Both outcomes
          // are sound; a half-published index is not.
          EXPECT_TRUE(*names == base_only || *names == both)
              << "crash point " << point;
          if (*names == base_only) {
            // The next append heals the torn tail and publishes normally.
            const Status healed = AppendEntry(path.get(), "grown", 21);
            ASSERT_TRUE(healed.ok())
                << "crash point " << point << ": " << healed.ToString();
            EXPECT_EQ(LiveEntryNames(path.get()),
                      std::optional<std::vector<std::string>>(both))
                << "crash point " << point;
          }
        }
      },
      &sites);
}

TEST(FaultTortureTest, SecondGenerationAppendCrashesKeepTheChain) {
  // Same drill one generation deeper: the bundle under torture already
  // holds a journal chain, so recovery exercises the backward trailer
  // scan over a torn *third* generation.
  ScopedPath path("appendchain");
  ASSERT_TRUE(BuildBundle(path.get(), {"base"}).ok());
  ASSERT_TRUE(AppendEntry(path.get(), "g2", 31).ok());
  const std::vector<uint8_t> chain_bytes = ReadFileBytes(path.get());
  const std::vector<std::string> chain = {"base", "g2"};
  const std::vector<std::string> grown = {"base", "g2", "g3"};
  std::set<std::string> sites;
  CrashAtEverySite(
      [&] { WriteFileBytes(path.get(), chain_bytes); },
      [&] { return AppendEntry(path.get(), "g3", 41); },
      [&](uint64_t point, bool survived) {
        const auto names = LiveEntryNames(path.get());
        ASSERT_TRUE(names.has_value())
            << "crash point " << point << " broke recovery";
        if (survived) {
          EXPECT_EQ(*names, grown) << "crash point " << point;
        } else {
          // Published-then-crashed reports failure with the generation
          // durable (see the single-generation torture above).
          EXPECT_TRUE(*names == chain || *names == grown)
              << "crash point " << point;
        }
      },
      &sites);
}

TEST(FaultTortureTest, CompactionCrashesNeverLoseAnEntry) {
  ScopedPath path("compact");
  ASSERT_TRUE(BuildBundle(path.get(), {"keep1", "keep2"}).ok());
  ASSERT_TRUE(AppendEntry(path.get(), "keep3", 51).ok());
  const std::vector<uint8_t> journaled_bytes = ReadFileBytes(path.get());
  const std::vector<std::string> live = {"keep1", "keep2", "keep3"};
  std::set<std::string> sites;
  CrashAtEverySite(
      [&] { WriteFileBytes(path.get(), journaled_bytes); },
      [&] { return CompactCorpus(path.get(), {}).status(); },
      [&](uint64_t point, bool survived) {
        (void)survived;  // either the old journal or the new canonical file
        EXPECT_TRUE(TempLitter(path.get()).empty()) << "crash point " << point;
        EXPECT_EQ(LiveEntryNames(path.get()),
                  std::optional<std::vector<std::string>>(live))
            << "crash point " << point;
      },
      &sites);
}

TEST(FaultTortureTest, StoragePathsEnumerateAtLeastTwentyDistinctSites) {
  ScopedPath path("sitecount");
  ScopedPath trace_path("sitecounttrace");
  std::set<std::string> sites;
  EnumerateSites(
      [&] {
        return WriteTraceFile(trace_path.get(), MakeSyntheticRecording(60));
      },
      &sites);
  EnumerateSites([&] { return BuildBundle(path.get(), {"one", "two"}); },
                 &sites);
  EnumerateSites([&] { return AppendEntry(path.get(), "three", 61); }, &sites);
  // Reads on every backend (pread / mmap are distinct sites).
  for (IoBackend backend : {IoBackend::kPread, IoBackend::kMmap}) {
    EnumerateSites(
        [&] {
          CorpusReaderOptions options;
          options.io.backend = backend;
          ASSIGN_OR_RETURN(CorpusReader reader,
                           CorpusReader::Open(path.get(), options));
          return reader.VerifyAll();
        },
        &sites);
  }
  EnumerateSites([&] { return CompactCorpus(path.get(), {}).status(); },
                 &sites);
  EXPECT_GE(sites.size(), 20u) << [&] {
    std::string all;
    for (const std::string& site : sites) {
      all += site + " ";
    }
    return all;
  }();
}

}  // namespace
}  // namespace ddr
