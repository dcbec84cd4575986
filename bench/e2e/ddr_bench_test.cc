// Tests of ddr-bench's own logic: statistics, op streams, result JSON,
// verdicts, and short runs of every workload checked against the metric
// lists in BENCHMARK.json.

#include <gtest/gtest.h>

#include <cstdio>
#include <set>

#include "report.h"
#include "workloads.h"

namespace ddr::bench {
namespace {

TEST(Percentile, NearestRank) {
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) {
    hundred.push_back(i);  // unsorted on purpose
  }
  EXPECT_EQ(NearestRankPercentile(hundred, 50), 50);
  EXPECT_EQ(NearestRankPercentile(hundred, 99), 99);
  EXPECT_EQ(NearestRankPercentile(hundred, 100), 100);
  EXPECT_EQ(NearestRankPercentile(hundred, 0.5), 1);
  EXPECT_EQ(NearestRankPercentile({1, 2, 3, 4}, 50), 2);
  EXPECT_EQ(NearestRankPercentile({1, 2, 3, 4}, 75), 3);
  EXPECT_EQ(NearestRankPercentile({1, 2, 3, 4}, 76), 4);
  EXPECT_EQ(NearestRankPercentile({7}, 99), 7);
  EXPECT_EQ(NearestRankPercentile({}, 50), 0);
}

TEST(Percentile, QuartilesMatchPythonExclusive) {
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  const auto ten = Quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  EXPECT_DOUBLE_EQ(ten[0], 2.75);
  EXPECT_DOUBLE_EQ(ten[1], 5.5);
  EXPECT_DOUBLE_EQ(ten[2], 8.25);
  // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
  const auto three = Quartiles({3, 1, 2});
  EXPECT_DOUBLE_EQ(three[0], 1.0);
  EXPECT_DOUBLE_EQ(three[1], 2.0);
  EXPECT_DOUBLE_EQ(three[2], 3.0);
  // statistics.quantiles([1, 5], n=4) == [0.0, 3.0, 6.0]
  const auto two = Quartiles({5, 1});
  EXPECT_DOUBLE_EQ(two[0], 0.0);
  EXPECT_DOUBLE_EQ(two[1], 3.0);
  EXPECT_DOUBLE_EQ(two[2], 6.0);
}

std::vector<size_t> Take(OpStream stream, int n) {
  std::vector<size_t> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(stream.Next());
  }
  return out;
}

TEST(OpStreamTest, SeedDeterminesSequence) {
  for (auto order :
       {OpStream::Order::kShuffledDeck, OpStream::Order::kUniform}) {
    const auto a = Take(OpStream(7, 0, 24, order), 240);
    EXPECT_EQ(a, Take(OpStream(7, 0, 24, order), 240));
    EXPECT_NE(a, Take(OpStream(8, 0, 24, order), 240));
    EXPECT_NE(a, Take(OpStream(7, 1, 24, order), 240));
    for (size_t index : a) {
      EXPECT_LT(index, 24u);
    }
  }
}

TEST(OpStreamTest, DeckVisitsEveryEntryOncePerRound) {
  const auto ops =
      Take(OpStream(3, 2, 24, OpStream::Order::kShuffledDeck), 240);
  for (size_t round = 0; round < 10; ++round) {
    const std::set<size_t> seen(ops.begin() + round * 24,
                                ops.begin() + (round + 1) * 24);
    EXPECT_EQ(seen.size(), 24u) << "round " << round;
  }
  // Rounds are reshuffled, not repeated.
  EXPECT_FALSE(std::equal(ops.begin(), ops.begin() + 24, ops.begin() + 24));
}

TEST(ResultJson, RoundTripsExactly) {
  RunResult result;
  result.correct = false;
  result.attempted = 123456789;
  result.failed = 3;
  result.metrics = {{"p50_ms", 0.1, "ms"},
                    {"tiny", 1e-300, "s"},
                    {"big", 123456789.123456789, "1/s"},
                    {"negative", -2.5, "ms"},
                    {"quote\"name", 1.0 / 3.0, "%"}};
  const std::string text = FormatResultJson(result);
  auto parsed = ParseJson(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  auto back = ParseResultJson(*parsed);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->correct, result.correct);
  EXPECT_EQ(back->attempted, result.attempted);
  EXPECT_EQ(back->failed, result.failed);
  ASSERT_EQ(back->metrics.size(), result.metrics.size());
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    EXPECT_EQ(back->metrics[i].name, result.metrics[i].name);
    EXPECT_EQ(back->metrics[i].value, result.metrics[i].value);  // bit-exact
    EXPECT_EQ(back->metrics[i].unit, result.metrics[i].unit);
  }
  EXPECT_EQ(FormatResultJson(*back), text);
}

TEST(ResultJson, RunRecordsRoundTripThroughAFile) {
  RunRecord record;
  record.workload = "trace-scan";
  record.seed = 42;
  record.trace = true;
  record.result.attempted = 1;
  record.result.metrics = {{"bench.op_ms", 0.25, "ms"}};
  const std::string path = "ddr_bench_test_records.json";
  std::FILE* file = std::fopen(path.c_str(), "w");
  ASSERT_NE(file, nullptr);
  std::fprintf(file, "%s\n\n%s\n", BuildStampJson().c_str(),
               FormatRunRecordJson(record).c_str());
  std::fclose(file);
  auto loaded = LoadRunRecords(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->size(), 1u);
  EXPECT_EQ((*loaded)[0].workload, "trace-scan");
  EXPECT_EQ((*loaded)[0].seed, 42u);
  EXPECT_TRUE((*loaded)[0].trace);
  EXPECT_EQ(FormatRunRecordJson((*loaded)[0]), FormatRunRecordJson(record));
}

TEST(ResultJson, RejectsMalformedInput) {
  for (const char* text : {"", "{", "[1,]", "{\"a\":}", "{} x", "\"\\q\"",
                           "nan", "{\"a\" 1}", "1e999"}) {
    EXPECT_FALSE(ParseJson(text).ok()) << text;
  }
  auto missing = ParseJson("{\"correct\": true, \"attempted\": 1}");
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(ParseResultJson(*missing).ok());
  auto fractional =
      ParseJson("{\"correct\": true, \"attempted\": 1.5, \"failed\": 0, "
                "\"metrics\": {}}");
  ASSERT_TRUE(fractional.ok());
  EXPECT_FALSE(ParseResultJson(*fractional).ok());
}

TEST(Verdicts, FollowTheBound) {
  MetricSpec latency{"p50_ms", "ms", /*higher_is_better=*/false, 0.10};
  const std::vector<double> base = {10.0, 10.1, 10.2, 10.3, 10.4};
  EXPECT_EQ(JudgeMetric(latency, base, {10.1, 10.2, 10.3, 10.4, 10.5}),
            Verdict::kWithinBound);
  EXPECT_EQ(JudgeMetric(latency, base, {11.6, 11.5, 11.7, 11.8, 12.0}),
            Verdict::kWorse);
  EXPECT_EQ(JudgeMetric(latency, base, {5.0, 5.1, 5.2, 5.3, 5.4}),
            Verdict::kBetter);
  EXPECT_EQ(JudgeMetric(latency, base, {5.0, 9.0, 11.0, 15.0, 20.0}),
            Verdict::kUnresolved);
  MetricSpec rate{"ops_per_s", "1/s", /*higher_is_better=*/true, 0.10};
  EXPECT_EQ(JudgeMetric(rate, base, {8.0, 8.1, 8.2, 8.3, 8.4}),
            Verdict::kWorse);
  EXPECT_EQ(JudgeMetric(rate, base, {20.0, 20.1, 20.2}), Verdict::kBetter);
  MetricSpec layer{"bench.op_ms", "ms", false, std::nullopt};
  EXPECT_EQ(JudgeMetric(layer, base, base), Verdict::kNoBound);
}

// Correct runs of one workload, one p50_ms value each.
std::vector<RunRecord> Runs(const std::string& workload,
                            const std::vector<double>& p50_ms) {
  std::vector<RunRecord> runs;
  for (double value : p50_ms) {
    RunRecord run;
    run.workload = workload;
    run.result.attempted = 1000;
    run.result.metrics = {{"p50_ms", value, "ms"}};
    runs.push_back(run);
  }
  return runs;
}

int Compare(const std::vector<RunRecord>& a, const std::vector<RunRecord>& b) {
  const std::vector<MetricSpec> specs = {
      {"p50_ms", "ms", /*higher_is_better=*/false, 0.10},
      {"bench.op_ms", "ms", /*higher_is_better=*/false, std::nullopt}};
  std::FILE* out = std::tmpfile();
  const int exit_code = CompareRuns(specs, a, b, out);
  std::fclose(out);
  return exit_code;
}

TEST(CompareRunsTest, PassesEqualRuns) {
  const auto a = Runs("debug-replay", {10.0, 10.1, 10.2, 10.3, 10.4});
  EXPECT_EQ(Compare(a, a), 0);
  EXPECT_EQ(Compare(a, Runs("debug-replay", {12, 12.1, 12.2, 12.3})), 1);
}

TEST(CompareRunsTest, FailsWhenCandidateOpsFail) {
  const auto a = Runs("debug-replay", {10.0, 10.1, 10.2, 10.3, 10.4});
  auto b = a;
  b[2].result.failed = 1;
  EXPECT_EQ(Compare(a, b), 1);
  b = a;
  b[0].result.correct = false;
  EXPECT_EQ(Compare(a, b), 1);
  // Failures at the base's own share are not a regression.
  auto a_failing = a;
  a_failing[0].result.failed = 1;
  b = a;
  b[4].result.failed = 1;
  EXPECT_EQ(Compare(a_failing, b), 0);
}

TEST(CompareRunsTest, FailsWhenAWorkloadOrEndToEndMetricIsMissing) {
  const auto a = Runs("debug-replay", {10.0, 10.1, 10.2, 10.3, 10.4});
  auto both = a;
  for (const RunRecord& run : Runs("trace-scan", {0.5, 0.51, 0.52})) {
    both.push_back(run);
  }
  EXPECT_EQ(Compare(both, a), 1);
  EXPECT_EQ(Compare(a, both), 1);
  auto b = a;
  for (RunRecord& run : b) {
    run.result.metrics.clear();
  }
  EXPECT_EQ(Compare(a, b), 1);
  // Per-layer metrics come from traced runs, which one side may lack.
  b = a;
  b[0].result.metrics.push_back({"bench.op_ms", 1.0, "ms"});
  EXPECT_EQ(Compare(a, b), 0);
}

// Names and units a run must report, from BENCHMARK.json.
std::vector<MetricSpec> DeclaredMetrics(bool per_layer) {
  auto specs = LoadMetricSpecs(DDR_BENCH_JSON_PATH);
  EXPECT_TRUE(specs.ok()) << specs.status();
  std::vector<MetricSpec> out;
  for (const MetricSpec& spec : specs.value_or({})) {
    if (spec.bound.has_value() != per_layer) {
      out.push_back(spec);
    }
  }
  return out;
}

WorkloadConfig SmokeConfig(const std::string& workload, bool trace) {
  WorkloadConfig config;
  config.workload = workload;
  config.seed = 5;
  config.seconds = 0.4;
  config.trace = trace;
  config.setup_repeats = 1;
  config.scan_copies = 2;
  config.work_dir = "ddr_bench_test_work";
  return config;
}

void ExpectDeclaredMetrics(const RunResult& result, bool per_layer) {
  const std::vector<MetricSpec> declared = DeclaredMetrics(per_layer);
  ASSERT_FALSE(declared.empty());
  EXPECT_EQ(result.metrics.size(), declared.size());
  for (const MetricSpec& spec : declared) {
    const Metric* metric = result.Find(spec.name);
    ASSERT_NE(metric, nullptr) << spec.name;
    EXPECT_EQ(metric->unit, spec.unit) << spec.name;
    if (!per_layer) {
      EXPECT_GT(metric->value, 0.0) << spec.name;
    }
  }
}

class SmokeRun : public testing::TestWithParam<std::string> {};

TEST_P(SmokeRun, PassesItsChecks) {
  auto result = RunWorkload(SmokeConfig(GetParam(), false), stdout);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->correct);
  EXPECT_EQ(result->failed, 0u);
  EXPECT_GT(result->attempted, 0u);
  EXPECT_EQ(ExitCodeFor(*result), 0);
  ExpectDeclaredMetrics(*result, /*per_layer=*/false);
}

TEST_P(SmokeRun, TracedRunBreaksOpsIntoLayers) {
  auto result = RunWorkload(SmokeConfig(GetParam(), true), stdout);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->correct);
  EXPECT_EQ(ExitCodeFor(*result), 0);
  ExpectDeclaredMetrics(*result, /*per_layer=*/true);
  EXPECT_GT(result->Find("bench.op_ms")->value, 0.0);
  EXPECT_LE(result->Find("bench.unattributed_pct")->value, 5.0);
}

INSTANTIATE_TEST_SUITE_P(Workloads, SmokeRun,
                         testing::ValuesIn(WorkloadNames()),
                         [](const testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(SmokeRunPoisoned, WrongReferenceFailsTheRun) {
  WorkloadConfig config = SmokeConfig("debug-replay", false);
  config.poison_reference = true;
  auto result = RunWorkload(config, stdout);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->failed, 0u);
  EXPECT_FALSE(result->correct);
  EXPECT_NE(ExitCodeFor(*result), 0);
}

}  // namespace
}  // namespace ddr::bench
