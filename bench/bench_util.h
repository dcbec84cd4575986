// Shared helpers for the figure/table regeneration harnesses.

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/core/experiment.h"
#include "src/util/rng.h"
#include "src/util/string_util.h"
#include "src/util/table_printer.h"

namespace ddr {

inline std::string FormatDouble(double value, int decimals = 2) {
  return StrPrintf("%.*f", decimals, value);
}

inline std::vector<std::string> RowCells(const ExperimentRow& row) {
  return {
      row.model_name,
      FormatDouble(row.overhead_multiplier) + "x",
      StrPrintf("%llu", static_cast<unsigned long long>(row.log_bytes)),
      FormatDouble(row.fidelity),
      FormatDouble(row.efficiency, 3),
      FormatDouble(row.utility, 3),
      row.failure_reproduced ? "yes" : "no",
      row.diagnosed_cause.value_or("-"),
  };
}

inline void PrintBanner(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

// Wall seconds elapsed since `start`.
inline double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

// A synthetic but realistically-shaped recording: mixed event types over a
// few fibers/objects, the value distribution event codecs see in practice.
inline RecordedExecution MakeRecording(uint64_t num_events) {
  RecordedExecution recording;
  recording.model = "bench";
  Rng rng(1234);
  SimTime now = 0;
  for (uint64_t seq = 0; seq < num_events; ++seq) {
    Event event;
    event.seq = seq;
    now += 20 + rng.NextIndex(80);
    event.time = now;
    event.fiber = static_cast<FiberId>(seq % 6);
    event.node = static_cast<NodeId>(seq % 3);
    event.obj = 10 + seq % 12;
    event.region = static_cast<RegionId>(seq % 4);
    switch (seq % 5) {
      case 0:
        event.type = EventType::kSharedRead;
        event.value = rng.NextIndex(1 << 16);
        event.bytes = 8;
        break;
      case 1:
        event.type = EventType::kSharedWrite;
        event.value = rng.NextIndex(1 << 16);
        event.bytes = 8;
        break;
      case 2:
        event.type = EventType::kContextSwitch;
        event.value = (seq + 1) % 6;
        event.aux = PackSwitchAux(seq, SwitchCause::kPreempt);
        break;
      case 3:
        event.type = EventType::kRngDraw;
        event.value = rng.NextIndex(1u << 30);
        break;
      default:
        event.type = EventType::kInput;
        event.value = rng.NextIndex(1 << 12);
        event.bytes = 4;
        break;
    }
    recording.log.Append(event);
  }
  recording.recorded_events = num_events;
  recording.intercepted_events = num_events;
  return recording;
}

// ---------------------------------------------------------------------------
// Machine-readable benchmark output: one JSON object per line, so perf
// trajectories can be diffed across PRs. Each bench appends to
// BENCH_<name>.json in the working directory (override the path with
// DDR_BENCH_JSON; set DDR_BENCH_JSON=off to disable).
// ---------------------------------------------------------------------------

// Builds one JSON line with insertion-ordered fields. String escaping
// comes from src/util/string_util.h (JsonEscape).
class JsonLine {
 public:
  JsonLine& Str(const std::string& key, const std::string& value) {
    std::string quoted;
    quoted.reserve(value.size() + 2);
    quoted += '"';
    quoted += JsonEscape(value);
    quoted += '"';
    return Raw(key, quoted);
  }
  JsonLine& Num(const std::string& key, double value) {
    return Raw(key, StrPrintf("%.6g", value));
  }
  JsonLine& Int(const std::string& key, uint64_t value) {
    return Raw(key, StrPrintf("%llu", static_cast<unsigned long long>(value)));
  }
  JsonLine& Bool(const std::string& key, bool value) {
    return Raw(key, value ? "true" : "false");
  }

  std::string Finish() const { return body_ + "}"; }

 private:
  JsonLine& Raw(const std::string& key, const std::string& value) {
    if (body_.size() > 1) {
      body_ += ',';
    }
    body_ += '"';
    body_ += JsonEscape(key);
    body_ += "\":";
    body_ += value;
    return *this;
  }
  std::string body_ = "{";
};

class BenchJsonWriter {
 public:
  explicit BenchJsonWriter(const std::string& bench_name) : bench_(bench_name) {
    const char* override_path = std::getenv("DDR_BENCH_JSON");
    if (override_path != nullptr && std::string(override_path) == "off") {
      return;
    }
    path_ = override_path != nullptr ? override_path
                                     : "BENCH_" + bench_name + ".json";
  }

  bool enabled() const { return !path_.empty(); }

  // Starts a line pre-tagged with this writer's bench name.
  JsonLine Line() const {
    JsonLine line;
    line.Str("bench", bench_);
    return line;
  }

  void Write(const JsonLine& line) {
    if (!enabled()) {
      return;
    }
    std::FILE* file = std::fopen(path_.c_str(), "a");
    if (file == nullptr) {
      return;
    }
    std::fprintf(file, "%s\n", line.Finish().c_str());
    std::fclose(file);
  }

 private:
  std::string bench_;
  std::string path_;
};

// Standard JSON projection of an ExperimentRow (mirrors RowCells).
inline void EmitExperimentRowJson(BenchJsonWriter& writer,
                                  const std::string& scenario,
                                  const ExperimentRow& row) {
  JsonLine line = writer.Line();
  line.Str("scenario", scenario)
      .Str("model", row.model_name)
      .Num("overhead", row.overhead_multiplier)
      .Int("log_bytes", row.log_bytes)
      .Int("recorded_events", row.recorded_events)
      .Num("fidelity", row.fidelity)
      .Num("efficiency", row.efficiency)
      .Num("utility", row.utility)
      .Bool("failure_reproduced", row.failure_reproduced)
      .Str("diagnosed", row.diagnosed_cause.value_or(""));
  writer.Write(line);
}

}  // namespace ddr

#endif  // BENCH_BENCH_UTIL_H_
