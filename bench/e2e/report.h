// Result records, statistics and JSON for ddr-bench.
//
// One benchmark run prints one result object as the last line of its
// standard output:
//
//   {"correct": true, "attempted": 4410, "failed": 0,
//    "metrics": {"p50_ms": {"value": 0.91, "unit": "ms"}, ...}}
//
// Runs collected by the all-workloads mode are tagged JSON lines
// ({"workload", "seed", "trace", "result"}), which is also the format of
// the committed baselines and the input of `ddr-bench --compare`.

#ifndef BENCH_E2E_REPORT_H_
#define BENCH_E2E_REPORT_H_

#include <array>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/util/status.h"

namespace ddr::bench {

// ------------------------------------------------------------ statistics

// Nearest-rank percentile: the smallest sample with at least p% of the
// samples at or below it. `p` in (0, 100]; `values` need not be sorted.
// Empty input yields 0.
double NearestRankPercentile(std::vector<double> values, double p);

// First, second and third quartile by the "exclusive" method of Python's
// statistics.quantiles(values, n=4) — the method regression gates use —
// so a spread computed here matches one computed there. Needs at least
// one value (a single value is its own quartiles).
std::array<double, 3> Quartiles(std::vector<double> values);

// ------------------------------------------------------------------ JSON

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;  // insertion order

  // Member lookup on an object; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;
};

// Parses one complete JSON text (RFC 8259; \u escapes outside ASCII are
// rejected — nothing ddr-bench reads carries them).
Result<JsonValue> ParseJson(std::string_view text);

// Shortest decimal text that reads back as exactly `value`.
std::string FormatJsonNumber(double value);

// ---------------------------------------------------------------- results

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  const Metric* Find(std::string_view name) const;
};

std::string FormatResultJson(const RunResult& result);
Result<RunResult> ParseResultJson(const JsonValue& value);

// One run as the all-workloads mode records it.
struct RunRecord {
  std::string workload;
  uint64_t seed = 0;
  bool trace = false;
  RunResult result;
};

std::string FormatRunRecordJson(const RunRecord& record);

// {"stamp": {...}}: hardware threads, compiler, build type and UTC date,
// so a committed baseline says where and how it was measured.
std::string BuildStampJson();

// Reads every run record from a JSON-lines file; lines that are not run
// records (build stamps, blank lines) are skipped, malformed JSON is an
// error.
Result<std::vector<RunRecord>> LoadRunRecords(const std::string& path);

// -------------------------------------------------------------- compare

// One metric as BENCHMARK.json declares it. `bound` is absent for
// per-layer metrics.
struct MetricSpec {
  std::string name;
  std::string unit;
  bool higher_is_better = false;
  std::optional<double> bound;
};

Result<std::vector<MetricSpec>> LoadMetricSpecs(const std::string& path);

enum class Verdict { kBetter, kWorse, kWithinBound, kUnresolved, kNoBound };
std::string_view VerdictName(Verdict verdict);

// Judges candidate runs `b` against base runs `a` for one metric:
//   better      every b run beats every a run, or (spread within bound)
//               b's median beats a's by more than a's quartile distance;
//   unresolved  either side's quartile distance, as a share of its
//               median, exceeds the bound;
//   worse       b's median is worse than a's by more than the bound;
//   within bound otherwise.
Verdict JudgeMetric(const MetricSpec& spec, const std::vector<double>& a,
                    const std::vector<double>& b);

// Prints, for every workload x metric, each side's median and quartiles
// and the verdict. Before the metrics, each workload's runs are checked:
// B fails the comparison when any of its runs is incorrect or it failed a
// larger share of its attempted ops than A. A workload, or an end-to-end
// metric of a workload, that only one side has is reported as missing; a
// per-layer metric is shown only when both sides have traced runs.
// Returns 1 when any metric is worse, a check fails or something is
// missing, else 0.
int CompareRuns(const std::vector<MetricSpec>& specs,
                const std::vector<RunRecord>& a,
                const std::vector<RunRecord>& b, std::FILE* out);

}  // namespace ddr::bench

#endif  // BENCH_E2E_REPORT_H_
