// ddr-bench: the end-to-end benchmark of the corpus server.
//
//   ddr-bench --workload W --seed S [--seconds T] [--trace 0|1]
//       Runs one workload. The last line of standard output is the result
//       object; exit 0 only when every output was correct.
//   ddr-bench [--seed S] [--seconds T] [--trace 0|1]
//       Runs every workload, each in its own child process. Prints a build
//       stamp line, then one run record per workload (the baseline format).
//       A child that fails is recorded as an incorrect run.
//   ddr-bench --compare A.json... -- B.json...
//       Compares two sets of run records metric by metric against the
//       bounds in ./BENCHMARK.json; exit 1 when any metric got worse.
//
// Run from the repository root: scratch files go to .bench_work/ and span
// logs of traced runs to .bench_out/.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "report.h"
#include "workloads.h"
#include "src/util/cli_flags.h"
#include "src/util/string_util.h"

namespace {

using ddr::bench::RunRecord;

struct Args {
  std::string workload;  // empty: every workload
  uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  std::vector<std::string> compare_a;
  std::vector<std::string> compare_b;
  bool compare = false;
};

int Usage(const std::string& problem) {
  std::fprintf(stderr,
               "ddr-bench: %s\n"
               "usage: ddr-bench --workload W --seed S [--seconds T] "
               "[--trace 0|1]\n"
               "       ddr-bench [--seed S] [--seconds T] [--trace 0|1]\n"
               "       ddr-bench --compare A.json... -- B.json...\n",
               problem.c_str());
  return 2;
}

constexpr ddr::CliFlag kRunFlags[] = {
    {"--workload", true}, {"--seed", true}, {"--seconds", true},
    {"--trace", true},
};

// Returns an error message, or "" when the arguments parse.
std::string ParseArgs(int argc, char** argv, Args* args) {
  if (argc > 1 && std::string(argv[1]) == "--compare") {
    args->compare = true;
    bool after_separator = false;
    for (int i = 2; i < argc; ++i) {
      if (std::string(argv[i]) == "--") {
        after_separator = true;
      } else {
        (after_separator ? args->compare_b : args->compare_a)
            .push_back(argv[i]);
      }
    }
    return args->compare_a.empty() || args->compare_b.empty()
               ? "--compare needs files on both sides of --"
               : "";
  }
  if (ddr::Status known = ddr::CheckKnownFlags(argc, argv, 1, kRunFlags);
      !known.ok()) {
    return known.message();
  }
  if (!ddr::PositionalArgs(argc, argv, 1, kRunFlags).empty()) {
    return "unexpected argument";
  }
  const auto value = [&](const char* flag) {
    return ddr::CliFlagValue(argc, argv, 1, flag);
  };
  const auto whole = [&](const char* flag, uint64_t* out) -> std::string {
    if (value(flag) == nullptr) {
      return "";
    }
    auto parsed = ddr::ParseCliUint64(value(flag));
    if (!parsed.ok()) {
      return std::string(flag) + ": " + parsed.status().message();
    }
    *out = *parsed;
    return "";
  };
  if (value("--workload") != nullptr) {
    args->workload = value("--workload");
  }
  uint64_t trace = 0;
  for (const std::string& problem :
       {whole("--seed", &args->seed), whole("--trace", &trace)}) {
    if (!problem.empty()) {
      return problem;
    }
  }
  if (trace > 1) {
    return "--trace takes 0 or 1";
  }
  args->trace = trace == 1;
  if (value("--seconds") != nullptr) {
    char* end = nullptr;
    args->seconds = std::strtod(value("--seconds"), &end);
    if (*end != '\0' || !(args->seconds > 0.0)) {
      return "--seconds takes a positive number";
    }
  }
  return "";
}

int RunOne(const Args& args) {
  namespace fs = std::filesystem;
  ddr::bench::WorkloadConfig config;
  config.workload = args.workload;
  config.seed = args.seed;
  config.seconds = args.seconds;
  config.trace = args.trace;
  config.work_dir = ".bench_work/" + std::to_string(getpid());
  if (args.trace) {
    std::error_code error;
    fs::create_directories(".bench_out", error);
    config.spans_path = ddr::StrPrintf(
        ".bench_out/spans-%s-seed%llu.jsonl", args.workload.c_str(),
        static_cast<unsigned long long>(args.seed));
  }
  auto result = ddr::bench::RunWorkload(config, stdout);
  if (!result.ok()) {
    std::fprintf(stderr, "ddr-bench: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", ddr::bench::FormatResultJson(*result).c_str());
  std::fflush(stdout);
  return ddr::bench::ExitCodeFor(*result);
}

// Runs one workload in a child process of this binary; returns its exit
// status and its last output line.
int RunChild(const Args& args, const std::string& workload,
             std::string* last_line) {
  const std::string self = std::filesystem::read_symlink("/proc/self/exe");
  const std::string command = ddr::StrPrintf(
      "'%s' --workload %s --seed %llu --seconds %.17g --trace %d", self.c_str(),
      workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0);
  std::FILE* child = popen(command.c_str(), "r");
  if (child == nullptr) {
    return -1;
  }
  char buffer[4096];
  std::string line;
  while (std::fgets(buffer, sizeof(buffer), child) != nullptr) {
    line += buffer;
    if (!line.empty() && line.back() == '\n') {
      std::fputs(line.c_str(), stderr);  // the child's report, for a reader
      line.pop_back();
      *last_line = line;
      line.clear();
    }
  }
  return pclose(child);
}

int RunAll(const Args& args) {
  std::printf("%s\n", ddr::bench::BuildStampJson().c_str());
  std::fflush(stdout);
  int exit_code = 0;
  for (const std::string& workload : ddr::bench::WorkloadNames()) {
    std::string last_line;
    const int status = RunChild(args, workload, &last_line);
    auto parsed = ddr::bench::ParseJson(last_line);
    auto result =
        parsed.ok() ? ddr::bench::ParseResultJson(*parsed)
                    : ddr::Result<ddr::bench::RunResult>(parsed.status());
    RunRecord record;
    record.workload = workload;
    record.seed = args.seed;
    record.trace = args.trace;
    if (result.ok()) {
      record.result = *result;
    }
    if (status != 0 || !result.ok()) {
      std::fprintf(stderr, "ddr-bench: %s failed (status %d)\n",
                   workload.c_str(), status);
      // Recorded rather than dropped, so --compare fails on it instead of
      // judging the other runs alone.
      record.result.correct = false;
      exit_code = 1;
    }
    std::printf("%s\n", ddr::bench::FormatRunRecordJson(record).c_str());
    std::fflush(stdout);
  }
  return exit_code;
}

int Compare(const Args& args) {
  auto specs = ddr::bench::LoadMetricSpecs("BENCHMARK.json");
  if (!specs.ok()) {
    std::fprintf(stderr, "ddr-bench: %s\n", specs.status().ToString().c_str());
    return 2;
  }
  std::vector<RunRecord> sides[2];
  const std::vector<std::string>* files[2] = {&args.compare_a, &args.compare_b};
  for (int side = 0; side < 2; ++side) {
    for (const std::string& path : *files[side]) {
      auto records = ddr::bench::LoadRunRecords(path);
      if (!records.ok()) {
        std::fprintf(stderr, "ddr-bench: %s\n",
                     records.status().ToString().c_str());
        return 2;
      }
      sides[side].insert(sides[side].end(), records->begin(), records->end());
    }
  }
  return ddr::bench::CompareRuns(*specs, sides[0], sides[1], stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (const std::string problem = ParseArgs(argc, argv, &args);
      !problem.empty()) {
    return Usage(problem);
  }
  if (args.compare) {
    return Compare(args);
  }
  if (args.workload.empty()) {
    return RunAll(args);
  }
  return RunOne(args);
}
