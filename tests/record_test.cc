// Unit tests for src/record: event logs, model recorders' filtering,
// overhead accounting, failure snapshots, and the selective recorder.

#include <gtest/gtest.h>

#include "src/record/event_log.h"
#include "src/record/model_recorders.h"
#include "src/record/recorded_execution.h"
#include "src/record/selective_recorder.h"
#include "src/sim/environment.h"
#include "src/sim/shared_var.h"
#include "src/sim/sync.h"

namespace ddr {
namespace {

Event MakeEvent(EventType type, uint64_t seq = 0, uint32_t bytes = 0,
                RegionId region = kDefaultRegion) {
  Event event;
  event.seq = seq;
  event.type = type;
  event.obj = 1;
  event.value = seq * 31;
  event.bytes = bytes;
  event.region = region;
  event.fiber = 0;
  return event;
}

TEST(EventLogTest, AppendTracksCountsAndSize) {
  EventLog log;
  EXPECT_TRUE(log.empty());
  log.Append(MakeEvent(EventType::kSharedRead, 1));
  log.Append(MakeEvent(EventType::kSharedRead, 2));
  log.Append(MakeEvent(EventType::kOutput, 3));
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.CountOfType(EventType::kSharedRead), 2u);
  EXPECT_EQ(log.CountOfType(EventType::kOutput), 1u);
  EXPECT_GT(log.encoded_size_bytes(), 0u);
}

// EncodedSizeBytes is the size ledger for every Append: it must agree
// exactly with what EncodeTo actually emits, across varint width
// boundaries.
TEST(EventLogTest, EncodedSizeBytesMatchesRealEncoding) {
  for (uint64_t magnitude : {0ull, 1ull, 127ull, 128ull, 1ull << 14,
                             (1ull << 21) - 1, 1ull << 42, ~0ull}) {
    Event event = MakeEvent(EventType::kRngDraw, magnitude);
    event.value = magnitude;
    event.aux = magnitude / 3;
    event.time = static_cast<SimTime>(magnitude % (1ull << 40));
    Encoder encoder;
    event.EncodeTo(&encoder);
    EXPECT_EQ(event.EncodedSizeBytes(), encoder.size()) << magnitude;
  }
}

TEST(EventLogTest, AppendAllMatchesRepeatedAppend) {
  std::vector<Event> events;
  for (uint64_t i = 0; i < 100; ++i) {
    events.push_back(MakeEvent(i % 2 == 0 ? EventType::kSharedRead
                                          : EventType::kOutput,
                               i, static_cast<uint32_t>(i * 7)));
  }
  EventLog one_by_one;
  for (const Event& event : events) {
    one_by_one.Append(event);
  }
  EventLog bulk;
  bulk.AppendAll(events.data(), events.size());
  EXPECT_EQ(bulk.size(), one_by_one.size());
  EXPECT_EQ(bulk.encoded_size_bytes(), one_by_one.encoded_size_bytes());
  EXPECT_EQ(bulk.CountOfType(EventType::kSharedRead),
            one_by_one.CountOfType(EventType::kSharedRead));
  EXPECT_EQ(bulk.Encode(), one_by_one.Encode());
}

TEST(EventLogTest, EncodeDecodeRoundtrip) {
  EventLog log;
  for (uint64_t i = 0; i < 50; ++i) {
    log.Append(MakeEvent(i % 2 == 0 ? EventType::kSharedWrite : EventType::kInput,
                         i, static_cast<uint32_t>(i)));
  }
  auto decoded = EventLog::Decode(log.Encode());
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), log.size());
  for (size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(decoded->events()[i].SemanticHash(), log.events()[i].SemanticHash());
    EXPECT_EQ(decoded->events()[i].seq, log.events()[i].seq);
  }
  EXPECT_EQ(decoded->encoded_size_bytes(), log.encoded_size_bytes());
}

TEST(EventLogTest, DecodeRejectsGarbage) {
  std::vector<uint8_t> garbage{1, 2, 3, 4, 5};
  EXPECT_FALSE(EventLog::Decode(garbage).ok());
}

TEST(EventLogTest, DecodeRejectsTruncation) {
  EventLog log;
  for (uint64_t i = 0; i < 10; ++i) {
    log.Append(MakeEvent(EventType::kInput, i));
  }
  std::vector<uint8_t> bytes = log.Encode();
  // Every proper prefix must fail cleanly with a Status, never crash.
  for (size_t keep = 0; keep < bytes.size(); keep += 7) {
    std::vector<uint8_t> truncated(bytes.begin(), bytes.begin() + keep);
    EXPECT_FALSE(EventLog::Decode(truncated).ok()) << "prefix " << keep;
  }
}

TEST(EventLogTest, DecodeRejectsTrailingBytes) {
  EventLog log;
  log.Append(MakeEvent(EventType::kOutput, 1));
  std::vector<uint8_t> bytes = log.Encode();
  bytes.push_back(0x00);
  EXPECT_FALSE(EventLog::Decode(bytes).ok());
}

TEST(EventLogTest, DecodeRejectsOverstatedCount) {
  // Header claims more events than the payload carries: must error out
  // when the stream runs dry, not read past the end.
  Encoder encoder;
  encoder.PutFixed32(0x6464524cu);  // event-log magic
  encoder.PutVarint64(1u << 20);
  EventLog log;
  log.Append(MakeEvent(EventType::kRngDraw, 1));
  const std::vector<uint8_t> one_event = log.Encode();
  // Append the single encoded event body (skip magic + count).
  Decoder skip(one_event);
  (void)skip.GetFixed32();
  (void)skip.GetVarint64();
  const size_t body_offset = one_event.size() - skip.remaining();
  std::vector<uint8_t> bytes = encoder.TakeBuffer();
  bytes.insert(bytes.end(), one_event.begin() + body_offset, one_event.end());
  EXPECT_FALSE(EventLog::Decode(bytes).ok());
}

TEST(EventLogTest, EventsOfTypeFilters) {
  EventLog log;
  log.Append(MakeEvent(EventType::kOutput, 1));
  log.Append(MakeEvent(EventType::kInput, 2));
  log.Append(MakeEvent(EventType::kOutput, 3));
  const auto outputs = log.EventsOfType(EventType::kOutput);
  ASSERT_EQ(outputs.size(), 2u);
  EXPECT_EQ(outputs[0].seq, 1u);
  EXPECT_EQ(outputs[1].seq, 3u);
}

class RecorderFilterTest : public ::testing::Test {
 protected:
  // Feeds one event of each class and returns the recorded count.
  uint64_t FeedAll(Recorder& recorder) {
    for (EventType type :
         {EventType::kContextSwitch, EventType::kMutexLock, EventType::kSharedRead,
          EventType::kSharedWrite, EventType::kInput, EventType::kOutput,
          EventType::kRngDraw, EventType::kChannelSend, EventType::kDiskWrite,
          EventType::kFiberCreate, EventType::kAnnotation}) {
      recorder.OnEvent(MakeEvent(type));
    }
    return recorder.recorded_events();
  }
};

TEST_F(RecorderFilterTest, PerfectRecordsEverything) {
  PerfectRecorder recorder;
  EXPECT_EQ(FeedAll(recorder), 11u);
  EXPECT_EQ(recorder.intercepted_events(), 11u);
}

TEST_F(RecorderFilterTest, ValueRecordsValuesAndSchedule) {
  ValueRecorder recorder;
  EXPECT_EQ(FeedAll(recorder), 7u);  // switch, lock, read, write, input, rng, create
  EXPECT_EQ(recorder.log().CountOfType(EventType::kOutput), 0u);
  EXPECT_EQ(recorder.log().CountOfType(EventType::kChannelSend), 0u);
  EXPECT_EQ(recorder.log().CountOfType(EventType::kSharedRead), 1u);
}

TEST_F(RecorderFilterTest, OutputOnlyRecordsJustOutputs) {
  OutputRecorder recorder(OutputRecorder::Mode::kOutputsOnly);
  EXPECT_EQ(FeedAll(recorder), 1u);
  EXPECT_EQ(recorder.intercepted_events(), 1u);  // hooks only on outputs
  EXPECT_EQ(recorder.log().CountOfType(EventType::kOutput), 1u);
}

TEST_F(RecorderFilterTest, OdrHeavyRecordsInputsOutputsSync) {
  OutputRecorder recorder(OutputRecorder::Mode::kOdrHeavy);
  EXPECT_EQ(FeedAll(recorder), 4u);  // lock, input, output, fiber-create
  EXPECT_EQ(recorder.log().CountOfType(EventType::kContextSwitch), 0u)
      << "ODR does not record the causal order of racing accesses";
  EXPECT_EQ(recorder.log().CountOfType(EventType::kSharedRead), 0u);
}

TEST_F(RecorderFilterTest, FailureRecordsNothing) {
  FailureRecorder recorder;
  EXPECT_EQ(FeedAll(recorder), 0u);
  EXPECT_EQ(recorder.intercepted_events(), 0u);
  EXPECT_EQ(recorder.overhead_nanos(), 0);
}

// The overhead is the cost model applied to the recorder's own counts: one
// interposition per intercepted event, one log write per recorded event and
// one byte cost per recorded byte (log encoding plus payload).
TEST_F(RecorderFilterTest, OverheadPricesInterceptedRecordedAndBytes) {
  ValueRecorder recorder;
  const RecorderCostModel costs = ValueCostModel();
  recorder.OnEvent(MakeEvent(EventType::kOutput));  // intercepted, not recorded
  EXPECT_EQ(recorder.recorded_bytes(), 0u);
  EXPECT_EQ(recorder.overhead_nanos(), costs.interposition_cost);

  const Event read = MakeEvent(EventType::kSharedRead, 2, /*bytes=*/8);
  recorder.OnEvent(read);  // recorded
  EXPECT_EQ(recorder.recorded_bytes(),
            recorder.log().encoded_size_bytes() + read.bytes);
  EXPECT_EQ(recorder.overhead_nanos(),
            2 * costs.interposition_cost + costs.log_event_cost +
                costs.log_byte_cost *
                    static_cast<SimDuration>(recorder.recorded_bytes()));
}

TEST(SelectiveRecorderTest, RelaxedUsesPredicateFullUsesValueSet) {
  SelectiveRecorder recorder(
      "sel", [](const Event& event) { return event.region == 2; });

  // Relaxed: data-plane memory event not recorded, control-plane one is.
  recorder.OnEvent(MakeEvent(EventType::kSharedRead, 1, 8, /*region=*/1));
  EXPECT_EQ(recorder.recorded_events(), 0u);
  recorder.OnEvent(MakeEvent(EventType::kSharedRead, 2, 8, /*region=*/2));
  EXPECT_EQ(recorder.recorded_events(), 1u);

  // Skeleton always recorded regardless of region.
  recorder.OnEvent(MakeEvent(EventType::kContextSwitch, 3));
  recorder.OnEvent(MakeEvent(EventType::kRngDraw, 4));
  EXPECT_EQ(recorder.recorded_events(), 3u);

  // Dial up: memory everywhere, but not message payloads.
  recorder.SetLevel(FidelityLevel::kFull);
  recorder.OnEvent(MakeEvent(EventType::kSharedRead, 5, 8, /*region=*/1));
  EXPECT_EQ(recorder.recorded_events(), 4u);
  recorder.OnEvent(MakeEvent(EventType::kChannelSend, 6, 4096, /*region=*/1));
  EXPECT_EQ(recorder.recorded_events(), 4u)
      << "payloads re-derive from inputs+schedule even at full fidelity";
}

TEST(SnapshotTest, FromOutcomeAndMatch) {
  Outcome outcome;
  FailureInfo failure;
  failure.kind = FailureKind::kSpecViolation;
  failure.message = "dump missing rows";
  failure.node = 3;
  outcome.failures.push_back(failure);
  outcome.output_fingerprint = 777;

  FailureSnapshot snapshot = FailureSnapshot::FromOutcome(outcome);
  EXPECT_TRUE(snapshot.has_failure);
  EXPECT_TRUE(snapshot.MatchesFailureOf(outcome));

  Outcome other;
  EXPECT_FALSE(snapshot.MatchesFailureOf(other));  // no failure
  FailureInfo different = failure;
  different.message = "something else";
  other.failures.push_back(different);
  EXPECT_FALSE(snapshot.MatchesFailureOf(other));

  // Same failure identity reached at a different time/fiber still matches.
  Outcome same;
  FailureInfo again = failure;
  again.time = 999;
  again.fiber = 17;
  same.failures.push_back(again);
  EXPECT_TRUE(snapshot.MatchesFailureOf(same));
}

TEST(SnapshotTest, NoFailureSnapshotMatchesCleanRuns) {
  Outcome clean;
  FailureSnapshot snapshot = FailureSnapshot::FromOutcome(clean);
  EXPECT_FALSE(snapshot.has_failure);
  EXPECT_TRUE(snapshot.MatchesFailureOf(clean));
  Outcome failed;
  failed.failures.push_back({FailureKind::kCrash, "x", 0, 0, 0, 0, 0});
  EXPECT_FALSE(snapshot.MatchesFailureOf(failed));
}

TEST(SnapshotTest, EncodeDecodeRoundtrip) {
  Outcome outcome;
  FailureInfo failure;
  failure.kind = FailureKind::kOom;
  failure.message = "oom on node0";
  failure.node = 1;
  outcome.failures.push_back(failure);
  outcome.output_fingerprint = 12345;
  outcome.outputs.push_back({0, 1, 8, 0});

  FailureSnapshot snapshot = FailureSnapshot::FromOutcome(outcome);
  auto decoded = FailureSnapshot::Decode(snapshot.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->failure_fingerprint, snapshot.failure_fingerprint);
  EXPECT_EQ(decoded->message, snapshot.message);
  EXPECT_EQ(decoded->output_fingerprint, snapshot.output_fingerprint);
  EXPECT_EQ(decoded->output_count, 1u);
}

TEST(RecordedExecutionTest, OverheadMultiplier) {
  RecordedExecution recording;
  recording.cpu_nanos = 1000;
  recording.overhead_nanos = 2500;
  EXPECT_DOUBLE_EQ(recording.OverheadMultiplier(), 3.5);
  recording.cpu_nanos = 0;
  EXPECT_DOUBLE_EQ(recording.OverheadMultiplier(), 1.0);
}

// Recording must never perturb the execution: identical fingerprints with
// and without a recorder attached, for every model.
TEST(RecorderNonPerturbationTest, FingerprintUnchangedByRecording) {
  auto run = [](Recorder* recorder) {
    Environment::Options options;
    options.seed = 31;
    options.scheduling.preempt_probability = 0.2;
    Environment env(options);
    if (recorder != nullptr) {
      env.AddTraceSink(recorder);
    }
    return env
        .Run("perturb",
             [](Environment& e) {
               SharedVar<uint64_t> x(e, "x", 0);
               SimMutex mu(e, "mu");
               std::vector<FiberId> fibers;
               for (int i = 0; i < 3; ++i) {
                 fibers.push_back(e.Spawn("f" + std::to_string(i), [&] {
                   for (int k = 0; k < 10; ++k) {
                     SimLock lock(mu);
                     x.Store(x.Load() + 1);
                   }
                 }));
               }
               for (FiberId f : fibers) {
                 e.Join(f);
               }
               e.EmitOutput(x.Load());
             })
        .trace_fingerprint;
  };

  const uint64_t baseline = run(nullptr);
  PerfectRecorder perfect;
  EXPECT_EQ(run(&perfect), baseline);
  ValueRecorder value;
  EXPECT_EQ(run(&value), baseline);
  OutputRecorder output(OutputRecorder::Mode::kOutputsOnly);
  EXPECT_EQ(run(&output), baseline);
  FailureRecorder failure;
  EXPECT_EQ(run(&failure), baseline);
}

}  // namespace
}  // namespace ddr
