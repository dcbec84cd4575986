#include "report.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <ctime>
#include <fstream>
#include <map>
#include <set>
#include <thread>

#include "src/util/string_util.h"

namespace ddr::bench {

// ------------------------------------------------------------ statistics

double NearestRankPercentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index =
      std::clamp<size_t>(static_cast<size_t>(std::max(rank, 1.0)), 1,
                         values.size()) -
      1;
  return values[index];
}

std::array<double, 3> Quartiles(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n == 1) {
    return {values[0], values[0], values[0]};
  }
  // CPython's statistics.quantiles, method="exclusive", n=4.
  std::array<double, 3> out{};
  const int64_t m = static_cast<int64_t>(n) + 1;
  for (int64_t i = 1; i <= 3; ++i) {
    const int64_t j = std::clamp<int64_t>(i * m / 4, 1, m - 2);
    const double delta = static_cast<double>(i * m - j * 4);  // may be < 0
    out[i - 1] = (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  }
  return out;
}

// ------------------------------------------------------------------ JSON

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind != Kind::kObject) {
    return nullptr;
  }
  for (const auto& [name, value] : object) {
    if (name == key) {
      return &value;
    }
  }
  return nullptr;
}

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<JsonValue> ParseDocument() {
    ASSIGN_OR_RETURN(JsonValue value, ParseValue(0));
    SkipSpace();
    if (pos_ != text_.size()) {
      return Error("trailing characters");
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(const std::string& what) const {
    return InvalidArgumentError(
        StrPrintf("json: %s at offset %zu", what.c_str(), pos_));
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue(int depth) {
    if (depth > kMaxDepth) {
      return Error("nesting too deep");
    }
    SkipSpace();
    if (pos_ >= text_.size()) {
      return Error("unexpected end");
    }
    JsonValue value;
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      value.kind = JsonValue::Kind::kObject;
      SkipSpace();
      if (Consume("}")) {
        return value;
      }
      while (true) {
        SkipSpace();
        ASSIGN_OR_RETURN(std::string key, ParseString());
        SkipSpace();
        if (!Consume(":")) {
          return Error("expected ':'");
        }
        ASSIGN_OR_RETURN(JsonValue member, ParseValue(depth + 1));
        value.object.emplace_back(std::move(key), std::move(member));
        SkipSpace();
        if (Consume("}")) {
          return value;
        }
        if (!Consume(",")) {
          return Error("expected ',' or '}'");
        }
      }
    }
    if (c == '[') {
      ++pos_;
      value.kind = JsonValue::Kind::kArray;
      SkipSpace();
      if (Consume("]")) {
        return value;
      }
      while (true) {
        ASSIGN_OR_RETURN(JsonValue element, ParseValue(depth + 1));
        value.array.push_back(std::move(element));
        SkipSpace();
        if (Consume("]")) {
          return value;
        }
        if (!Consume(",")) {
          return Error("expected ',' or ']'");
        }
      }
    }
    if (c == '"') {
      value.kind = JsonValue::Kind::kString;
      ASSIGN_OR_RETURN(value.string, ParseString());
      return value;
    }
    if (Consume("true")) {
      value.kind = JsonValue::Kind::kBool;
      value.boolean = true;
      return value;
    }
    if (Consume("false")) {
      value.kind = JsonValue::Kind::kBool;
      return value;
    }
    if (Consume("null")) {
      return value;
    }
    return ParseNumber();
  }

  Result<std::string> ParseString() {
    if (!Consume("\"")) {
      return Error("expected string");
    }
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = 0;
          const char* first = text_.data() + pos_;
          if (text_.size() - pos_ < 4 ||
              std::from_chars(first, first + 4, code, 16).ptr != first + 4) {
            return Error("bad \\u escape");
          }
          if (code >= 0x80) {
            return Error("non-ASCII \\u escape");
          }
          pos_ += 4;
          out += static_cast<char>(code);
          break;
        }
        default:
          return Error("bad escape");
      }
    }
    return Error("unterminated string");
  }

  Result<JsonValue> ParseNumber() {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           std::string_view("+-0123456789.eE").find(text_[pos_]) !=
               std::string_view::npos) {
      ++pos_;
    }
    JsonValue value;
    value.kind = JsonValue::Kind::kNumber;
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    const auto parsed = std::from_chars(first, last, value.number);
    if (start == pos_ || parsed.ec != std::errc() || parsed.ptr != last) {
      pos_ = start;
      return Error("expected value");
    }
    return value;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

Result<const JsonValue*> Member(const JsonValue& object, std::string_view key,
                                JsonValue::Kind kind) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr || value->kind != kind) {
    return InvalidArgumentError("missing or mistyped '" + std::string(key) +
                                "'");
  }
  return value;
}

Result<uint64_t> WholeNumber(const JsonValue& object, std::string_view key) {
  ASSIGN_OR_RETURN(const JsonValue* value,
                   Member(object, key, JsonValue::Kind::kNumber));
  if (value->number < 0 || value->number != std::floor(value->number) ||
      value->number > 9.007199254740992e15) {
    return InvalidArgumentError(std::string(key) + " is not a whole number");
  }
  return static_cast<uint64_t>(value->number);
}

std::string Quoted(std::string_view text) {
  std::string out = "\"";
  out += JsonEscape(text);
  out += '"';
  return out;
}

}  // namespace

Result<JsonValue> ParseJson(std::string_view text) {
  return JsonParser(text).ParseDocument();
}

std::string FormatJsonNumber(double value) {
  char buffer[64];
  const auto end = std::to_chars(buffer, buffer + sizeof(buffer), value).ptr;
  return std::string(buffer, end);
}

// ---------------------------------------------------------------- results

const Metric* RunResult::Find(std::string_view name) const {
  for (const Metric& metric : metrics) {
    if (metric.name == name) {
      return &metric;
    }
  }
  return nullptr;
}

std::string FormatResultJson(const RunResult& result) {
  std::string out = StrPrintf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
      result.correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed));
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& metric = result.metrics[i];
    out += (i == 0 ? "" : ", ") + Quoted(metric.name) + ": {\"value\": " +
           FormatJsonNumber(metric.value) + ", \"unit\": " +
           Quoted(metric.unit) + "}";
  }
  return out + "}}";
}

Result<RunResult> ParseResultJson(const JsonValue& value) {
  RunResult result;
  ASSIGN_OR_RETURN(const JsonValue* correct,
                   Member(value, "correct", JsonValue::Kind::kBool));
  result.correct = correct->boolean;
  ASSIGN_OR_RETURN(result.attempted, WholeNumber(value, "attempted"));
  ASSIGN_OR_RETURN(result.failed, WholeNumber(value, "failed"));
  ASSIGN_OR_RETURN(const JsonValue* metrics,
                   Member(value, "metrics", JsonValue::Kind::kObject));
  for (const auto& [name, body] : metrics->object) {
    Metric metric;
    metric.name = name;
    ASSIGN_OR_RETURN(const JsonValue* number,
                     Member(body, "value", JsonValue::Kind::kNumber));
    ASSIGN_OR_RETURN(const JsonValue* unit,
                     Member(body, "unit", JsonValue::Kind::kString));
    metric.value = number->number;
    metric.unit = unit->string;
    result.metrics.push_back(std::move(metric));
  }
  return result;
}

std::string FormatRunRecordJson(const RunRecord& record) {
  return StrPrintf("{\"workload\": %s, \"seed\": %llu, \"trace\": %d, ",
                   Quoted(record.workload).c_str(),
                   static_cast<unsigned long long>(record.seed),
                   record.trace ? 1 : 0) +
         "\"result\": " + FormatResultJson(record.result) + "}";
}

std::string BuildStampJson() {
#if defined(__clang__)
  const std::string compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = "gcc " __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  char date[32] = "";
  const std::time_t now = std::time(nullptr);
  std::tm utc{};
  gmtime_r(&now, &utc);
  std::strftime(date, sizeof(date), "%Y-%m-%d", &utc);
  return StrPrintf("{\"stamp\": {\"nproc\": %u, \"compiler\": %s, "
                   "\"build_type\": %s, \"date\": \"%s\"}}",
                   std::thread::hardware_concurrency(),
                   Quoted(compiler).c_str(),
                   Quoted(DDR_BENCH_BUILD_TYPE).c_str(), date);
}

Result<std::vector<RunRecord>> LoadRunRecords(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return NotFoundError("cannot read " + path);
  }
  std::vector<RunRecord> records;
  std::string line;
  for (int line_number = 1; std::getline(in, line); ++line_number) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      continue;
    }
    auto parsed = ParseJson(line);
    if (!parsed.ok()) {
      return InvalidArgumentError(StrPrintf("%s:%d: ", path.c_str(),
                                            line_number) +
                                  parsed.status().message());
    }
    const JsonValue* workload = parsed->Find("workload");
    const JsonValue* result = parsed->Find("result");
    if (workload == nullptr || result == nullptr) {
      continue;
    }
    RunRecord record;
    if (workload->kind != JsonValue::Kind::kString) {
      return InvalidArgumentError(path + ": 'workload' is not a string");
    }
    record.workload = workload->string;
    ASSIGN_OR_RETURN(record.seed, WholeNumber(*parsed, "seed"));
    ASSIGN_OR_RETURN(uint64_t trace, WholeNumber(*parsed, "trace"));
    record.trace = trace != 0;
    ASSIGN_OR_RETURN(record.result, ParseResultJson(*result));
    records.push_back(std::move(record));
  }
  return records;
}

// -------------------------------------------------------------- compare

Result<std::vector<MetricSpec>> LoadMetricSpecs(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return NotFoundError("cannot read " + path);
  }
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  ASSIGN_OR_RETURN(JsonValue doc, ParseJson(text));
  std::vector<MetricSpec> specs;
  for (const char* section : {"end_to_end", "per_layer"}) {
    ASSIGN_OR_RETURN(const JsonValue* list,
                     Member(doc, section, JsonValue::Kind::kArray));
    for (const JsonValue& entry : list->array) {
      MetricSpec spec;
      ASSIGN_OR_RETURN(const JsonValue* name,
                       Member(entry, "name", JsonValue::Kind::kString));
      ASSIGN_OR_RETURN(const JsonValue* unit,
                       Member(entry, "unit", JsonValue::Kind::kString));
      ASSIGN_OR_RETURN(const JsonValue* better,
                       Member(entry, "better", JsonValue::Kind::kString));
      spec.name = name->string;
      spec.unit = unit->string;
      spec.higher_is_better = better->string == "higher";
      if (const JsonValue* bound = entry.Find("bound");
          bound != nullptr && bound->kind == JsonValue::Kind::kNumber) {
        spec.bound = bound->number;
      }
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

std::string_view VerdictName(Verdict verdict) {
  switch (verdict) {
    case Verdict::kBetter:
      return "better";
    case Verdict::kWorse:
      return "worse";
    case Verdict::kWithinBound:
      return "within bound";
    case Verdict::kUnresolved:
      return "unresolved";
    case Verdict::kNoBound:
      return "-";
  }
  return "?";
}

Verdict JudgeMetric(const MetricSpec& spec, const std::vector<double>& a,
                    const std::vector<double>& b) {
  if (!spec.bound.has_value() || a.empty() || b.empty()) {
    return Verdict::kNoBound;
  }
  // Orient so that larger `gain` is always better.
  const double sign = spec.higher_is_better ? 1.0 : -1.0;
  const auto [a_min, a_max] = std::minmax_element(a.begin(), a.end());
  const auto [b_min, b_max] = std::minmax_element(b.begin(), b.end());
  if (spec.higher_is_better ? *b_min > *a_max : *b_max < *a_min) {
    return Verdict::kBetter;
  }
  const auto qa = Quartiles(a);
  const auto qb = Quartiles(b);
  const auto relative_spread = [](const std::array<double, 3>& q) {
    return q[1] == 0.0 ? 0.0 : (q[2] - q[0]) / std::fabs(q[1]);
  };
  if (std::max(relative_spread(qa), relative_spread(qb)) > *spec.bound) {
    return Verdict::kUnresolved;
  }
  const double gain = sign * (qb[1] - qa[1]);
  if (qa[1] != 0.0 && -gain / std::fabs(qa[1]) > *spec.bound) {
    return Verdict::kWorse;
  }
  if (gain > qa[2] - qa[0]) {
    return Verdict::kBetter;
  }
  return Verdict::kWithinBound;
}

int CompareRuns(const std::vector<MetricSpec>& specs,
                const std::vector<RunRecord>& a,
                const std::vector<RunRecord>& b, std::FILE* out) {
  // One side's runs of one workload: metric -> values, and the ops.
  struct Runs {
    size_t count = 0;
    size_t incorrect = 0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::map<std::string, std::vector<double>> values;
  };
  const auto collect = [](const std::vector<RunRecord>& records) {
    std::map<std::string, Runs> by_workload;
    for (const RunRecord& record : records) {
      Runs& runs = by_workload[record.workload];
      ++runs.count;
      runs.incorrect += record.result.correct ? 0 : 1;
      runs.attempted += record.result.attempted;
      runs.failed += record.result.failed;
      for (const Metric& metric : record.result.metrics) {
        runs.values[metric.name].push_back(metric.value);
      }
    }
    return by_workload;
  };
  const std::map<std::string, Runs> side_a = collect(a);
  const std::map<std::string, Runs> side_b = collect(b);
  std::set<std::string> workloads;  // union of both sides
  for (const auto* side : {&side_a, &side_b}) {
    for (const auto& entry : *side) {
      workloads.insert(entry.first);
    }
  }
  int exit_code = 0;
  const auto row = [&](const std::string& workload, const std::string& metric,
                       size_t runs_a, size_t runs_b, const std::string& text_a,
                       const std::string& text_b, std::string_view verdict) {
    std::fprintf(out, "%-20s %-28s %2zu/%-2zu %-30s %-30s %s\n",
                 workload.c_str(), metric.c_str(), runs_a, runs_b,
                 text_a.c_str(), text_b.c_str(), std::string(verdict).c_str());
  };
  std::fprintf(out, "%-20s %-28s %5s %-30s %-30s %s\n", "workload", "metric",
               "runs", "A median [q1, q3]", "B median [q1, q3]", "verdict");
  const auto summary = [](const std::vector<double>& values) {
    const auto q = Quartiles(values);
    return StrPrintf("%.4g [%.4g, %.4g]", q[1], q[0], q[2]);
  };
  const Runs none;
  for (const std::string& workload : workloads) {
    const auto found_a = side_a.find(workload);
    const auto found_b = side_b.find(workload);
    const Runs& runs_a = found_a == side_a.end() ? none : found_a->second;
    const Runs& runs_b = found_b == side_b.end() ? none : found_b->second;
    if (runs_a.count == 0 || runs_b.count == 0) {
      row(workload, "(runs)", runs_a.count, runs_b.count, "", "", "missing");
      exit_code = 1;
      continue;
    }
    // Failed ops are compared as shares of the ops attempted, since a
    // run's op count follows the machine's speed.
    const auto failed_share = [](const Runs& runs) {
      return runs.attempted == 0 ? 1.0
                                 : static_cast<double>(runs.failed) /
                                       static_cast<double>(runs.attempted);
    };
    const auto ops_text = [](const Runs& runs) {
      return StrPrintf("%llu/%llu failed, %zu incorrect",
                       static_cast<unsigned long long>(runs.failed),
                       static_cast<unsigned long long>(runs.attempted),
                       runs.incorrect);
    };
    const bool ops_worse =
        runs_b.incorrect > 0 || failed_share(runs_b) > failed_share(runs_a);
    row(workload, "(ops)", runs_a.count, runs_b.count, ops_text(runs_a),
        ops_text(runs_b), ops_worse ? VerdictName(Verdict::kWorse) : "ok");
    if (ops_worse) {
      exit_code = 1;
    }
    for (const MetricSpec& spec : specs) {
      const auto values_a = runs_a.values.find(spec.name);
      const auto values_b = runs_b.values.find(spec.name);
      const bool in_a = values_a != runs_a.values.end();
      const bool in_b = values_b != runs_b.values.end();
      // Per-layer metrics come from traced runs, which a side may lack.
      if ((!in_a || !in_b) && !spec.bound.has_value()) {
        continue;
      }
      if (!in_a || !in_b) {
        row(workload, spec.name, in_a ? values_a->second.size() : 0,
            in_b ? values_b->second.size() : 0,
            in_a ? summary(values_a->second) : "",
            in_b ? summary(values_b->second) : "", "missing");
        exit_code = 1;
        continue;
      }
      const Verdict verdict =
          JudgeMetric(spec, values_a->second, values_b->second);
      if (verdict == Verdict::kWorse) {
        exit_code = 1;
      }
      row(workload, spec.name, values_a->second.size(),
          values_b->second.size(), summary(values_a->second),
          summary(values_b->second), VerdictName(verdict));
    }
  }
  return exit_code;
}

}  // namespace ddr::bench
