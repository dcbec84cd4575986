#include "src/replay/replayer.h"

#include <chrono>
#include <optional>

#include "src/util/hash.h"
#include "src/util/logging.h"
#include "src/util/string_util.h"

namespace ddr {

namespace {

// Log-replay configuration for a direct replay mode.
LogReplayConfig ConfigForMode(ReplayMode mode) {
  LogReplayConfig config;  // everything on
  if (mode == ReplayMode::kRcse) {
    // Schedule + RNG + recorded (control-plane) inputs are enforced;
    // shared reads re-execute — the relaxed data plane is re-synthesized.
    config.override_shared_reads = false;
  }
  return config;
}

// Fingerprint verification during partial replay is only sound when the
// log is the full intercepted stream.
bool IsFullStream(const RecordedExecution& recording) {
  return recording.intercepted_events == recording.recorded_events &&
         recording.recorded_events == recording.log.size();
}

// Observation gate for checkpointed partial replay: suppresses collection
// of the fast-forwarded prefix, fingerprints it for verification against
// the checkpoint, and samples the director's cursors at the boundary.
class CheckpointGateSink : public TraceSink {
 public:
  CheckpointGateSink(const ReplayCheckpoint& checkpoint,
                     const LogReplayDirector& director)
      : checkpoint_(checkpoint), director_(director) {}

  void OnEvent(const Event& event) override {
    if (seen_ < checkpoint_.resume_seq) {
      prefix_fp_.Mix(event.SemanticHash());
    } else {
      suffix_.push_back(event);
    }
    ++seen_;
    if (seen_ == checkpoint_.resume_seq) {
      // Boundary: the prefix is fully replayed, the first suffix event has
      // not consumed any overrides yet.
      cursors_ok_ = director_.schedule_cursor() == checkpoint_.schedule_cursor &&
                    director_.rng_cursor() == checkpoint_.rng_cursor &&
                    director_.input_cursor() == checkpoint_.input_cursor &&
                    director_.read_cursor() == checkpoint_.read_cursor;
    }
  }

  std::vector<Event> TakeSuffix() { return std::move(suffix_); }
  bool Verified() const {
    return prefix_fp_.value() == checkpoint_.prefix_fingerprint && cursors_ok_;
  }

 private:
  const ReplayCheckpoint checkpoint_;
  const LogReplayDirector& director_;
  uint64_t seen_ = 0;
  Fingerprint prefix_fp_;
  std::vector<Event> suffix_;
  bool cursors_ok_ = false;
};

}  // namespace

std::string_view ReplayModeName(ReplayMode mode) {
  switch (mode) {
    case ReplayMode::kPerfect:
      return "perfect";
    case ReplayMode::kValue:
      return "value";
    case ReplayMode::kRcse:
      return "rcse";
    case ReplayMode::kOutputOnly:
      return "output";
    case ReplayMode::kOutputHeavy:
      return "output-heavy";
    case ReplayMode::kFailure:
      return "failure";
  }
  return "unknown";
}

bool IsLogDriven(ReplayMode mode) {
  return mode == ReplayMode::kPerfect || mode == ReplayMode::kValue ||
         mode == ReplayMode::kRcse;
}

ReplayResult Replayer::Replay(const RecordedExecution& recording, ReplayMode mode) {
  switch (mode) {
    case ReplayMode::kPerfect:
    case ReplayMode::kValue:
    case ReplayMode::kRcse:
      return DirectReplay(recording, ConfigForMode(mode), ReplayModeName(mode));
    case ReplayMode::kOutputOnly:
    case ReplayMode::kOutputHeavy:
    case ReplayMode::kFailure:
      return InferredReplay(recording, mode);
  }
  LOG(FATAL) << "unreachable";
  return ReplayResult{};
}

ReplayCheckpoint CheckpointAt(const EventLog& log, uint64_t event_index) {
  const std::vector<Event>& events = log.events();
  CHECK_LT(event_index, events.size());
  ReplayCheckpoint checkpoint;
  checkpoint.resume_seq = events[event_index].seq;
  Fingerprint prefix_fp;
  for (uint64_t i = 0; i < event_index; ++i) {
    const Event& event = events[i];
    prefix_fp.Mix(event.SemanticHash());
    switch (event.type) {
      case EventType::kContextSwitch:
        ++checkpoint.schedule_cursor;
        break;
      case EventType::kRngDraw:
        ++checkpoint.rng_cursor;
        break;
      case EventType::kInput:
        ++checkpoint.input_cursor;
        break;
      case EventType::kSharedRead:
        ++checkpoint.read_cursor;
        break;
      default:
        break;
    }
  }
  checkpoint.prefix_fingerprint = prefix_fp.value();
  return checkpoint;
}

Result<ReplayResult> Replayer::PartialReplay(const RecordedExecution& recording,
                                             uint64_t target_event,
                                             ReplayMode mode) {
  if (!IsLogDriven(mode)) {
    return InvalidArgumentError(
        StrPrintf("partial replay needs a log-driven mode, not %s",
                  std::string(ReplayModeName(mode)).c_str()));
  }
  if (target_event >= recording.log.size()) {
    return InvalidArgumentError(StrPrintf(
        "partial replay target %llu is past the log's end (%zu events)",
        static_cast<unsigned long long>(target_event), recording.log.size()));
  }
  return DirectReplay(recording, ConfigForMode(mode), ReplayModeName(mode),
                      target_event);
}

ReplayResult Replayer::DirectReplay(const RecordedExecution& recording,
                                    const LogReplayConfig& config,
                                    std::string_view name,
                                    uint64_t target_event) {
  const auto start = std::chrono::steady_clock::now();
  ReplayResult result;
  result.model = std::string(name);

  Environment::Options options = target_.env_options;
  options.seed = kReplayEnvSeed;
  Environment env(options);

  LogReplayDirector director(recording.log, config);
  env.SetDirector(&director);

  // Full replay observes everything; partial replay gates observation
  // behind the checkpoint's resume point.
  CollectingSink sink;
  std::optional<CheckpointGateSink> gate;
  if (target_event > 0) {
    gate.emplace(CheckpointAt(recording.log, target_event), director);
    env.AddTraceSink(&*gate);
  } else {
    env.AddTraceSink(&sink);
  }

  std::unique_ptr<SimProgram> program = target_.make_program(kReplayWorldSeed);
  result.outcome = env.Run(*program);
  if (gate.has_value()) {
    result.trace = gate->TakeSuffix();
    result.partial = true;
    result.started_from_event = target_event;
    result.fast_forward_verified = IsFullStream(recording) && gate->Verified();
  } else {
    result.trace = sink.TakeEvents();
  }
  result.divergences = director.divergences();
  result.failure_reproduced = recording.snapshot.MatchesFailureOf(result.outcome);
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return result;
}

ReplayResult Replayer::InferredReplay(const RecordedExecution& recording,
                                      ReplayMode mode) {
  const auto start = std::chrono::steady_clock::now();
  ReplayResult result;
  result.model = std::string(ReplayModeName(mode));

  InferenceEngine engine(target_, budget_);
  SynthesisResult synthesis;
  switch (mode) {
    case ReplayMode::kFailure:
      synthesis = engine.SynthesizeMatchingFailure(recording.snapshot);
      break;
    case ReplayMode::kOutputOnly:
      // The output-only log carries no inputs, but its recorded output
      // values feed the symbolic model (solver-guided input inference).
      synthesis = engine.SynthesizeMatchingOutputs(recording.snapshot, &recording.log);
      break;
    case ReplayMode::kOutputHeavy:
      synthesis = engine.SynthesizeMatchingOutputs(recording.snapshot, &recording.log);
      break;
    default:
      LOG(FATAL) << "InferredReplay called with direct mode";
  }

  result.inference = synthesis.stats;
  result.inference_found = synthesis.found;
  if (synthesis.found) {
    result.outcome = std::move(synthesis.outcome);
    result.trace = std::move(synthesis.trace);
    result.fault_plan_index = synthesis.fault_plan_index;
    result.input_assignment = std::move(synthesis.input_assignment);
    result.failure_reproduced =
        recording.snapshot.MatchesFailureOf(result.outcome);
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return result;
}

}  // namespace ddr
