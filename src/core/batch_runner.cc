#include "src/core/batch_runner.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <utility>

#include "src/trace/corpus.h"
#include "src/util/string_util.h"
#include "src/util/thread_annotations.h"

namespace ddr {

namespace {

// Runs `count` independent tasks on up to `threads` workers. Tasks are
// claimed through an atomic counter, so placement of results (indexed by
// task) is identical whatever the interleaving.
void RunTasks(int threads, size_t count,
              const std::function<void(size_t)>& task) {
  const size_t workers = static_cast<size_t>(std::max(threads, 1));
  if (workers <= 1 || count <= 1) {
    for (size_t i = 0; i < count; ++i) {
      task(i);
    }
    return;
  }
  std::atomic<size_t> next{0};
  std::vector<ddr::OsThread> pool;
  const size_t spawned = std::min(workers, count);
  pool.reserve(spawned);
  for (size_t w = 0; w < spawned; ++w) {
    pool.emplace_back([&]() {
      for (size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
        task(i);
      }
    });
  }
  for (ddr::OsThread& worker : pool) {
    worker.join();
  }
}

}  // namespace

std::string BatchReport::ToJsonLines() const {
  std::string out;
  for (const BatchCell& cell : cells) {
    const ExperimentRow& row = cell.row;
    out += StrPrintf(
        "{\"scenario\":\"%s\",\"recording\":\"%s\",\"model\":\"%s\","
        "\"overhead\":%.6g,\"log_bytes\":%llu,\"recorded_events\":%llu,"
        "\"fidelity\":%.6g,\"efficiency\":%.6g,\"utility\":%.6g,"
        "\"failure_reproduced\":%s,\"diagnosed\":\"%s\","
        "\"divergences\":%llu,\"original_wall_seconds\":%.6g,"
        "\"replay_wall_seconds\":%.6g}\n",
        JsonEscape(cell.scenario).c_str(),
        JsonEscape(cell.recording_name).c_str(),
        JsonEscape(row.model_name).c_str(), row.overhead_multiplier,
        static_cast<unsigned long long>(row.log_bytes),
        static_cast<unsigned long long>(row.recorded_events), row.fidelity,
        row.efficiency, row.utility, row.failure_reproduced ? "true" : "false",
        JsonEscape(row.diagnosed_cause.value_or("")).c_str(),
        static_cast<unsigned long long>(row.divergences),
        row.original_wall_seconds, row.replay_wall_seconds);
  }
  return out;
}

Status BatchReport::WriteJsonLines(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return UnavailableError("cannot open batch report for writing: " + path);
  }
  const std::string body = ToJsonLines();
  const bool written = std::fwrite(body.data(), 1, body.size(), file) ==
                       body.size();
  // fclose flushes the stdio buffer, so a write error can surface only
  // here (e.g. a full device).
  const bool closed = std::fclose(file) == 0;
  if (!written || !closed) {
    return UnavailableError("short write to batch report: " + path);
  }
  return OkStatus();
}

std::string RowSignature(const BatchCell& cell) {
  const ExperimentRow& row = cell.row;
  // Inference attempt/event counters are deliberately excluded: the
  // inference search is bounded by a wall-clock budget
  // (InferenceBudget::max_wall_seconds), so on a loaded machine those
  // counters can legitimately differ between runs that reach the same
  // verdict. Everything below is a pure function of the recording.
  std::string signature = StrPrintf(
      "%s|%s|%s|%.17g|%llu|%llu|%d|%s|%llu|%.17g",
      cell.scenario.c_str(), cell.recording_name.c_str(),
      row.model_name.c_str(), row.overhead_multiplier,
      static_cast<unsigned long long>(row.log_bytes),
      static_cast<unsigned long long>(row.recorded_events),
      row.failure_reproduced ? 1 : 0,
      row.diagnosed_cause.value_or("<none>").c_str(),
      static_cast<unsigned long long>(row.divergences), row.fidelity);
  for (int64_t value : row.input_assignment) {
    signature += StrPrintf("|%lld", static_cast<long long>(value));
  }
  return signature;
}

BatchRunner::BatchRunner(std::vector<BugScenario> scenarios,
                         BatchOptions options)
    : scenarios_(std::move(scenarios)), options_(std::move(options)) {}

Result<BatchReport> BatchRunner::Run() {
  // Dedup the model list up front (aliases like "rcse"/"debug-rcse" parse
  // to the same model): duplicate cells would only collide on corpus
  // entry names after the whole grid had already run.
  std::vector<DeterminismModel> models =
      options_.models.empty() ? AllDeterminismModels() : options_.models;
  std::vector<DeterminismModel> unique_models;
  for (DeterminismModel model : models) {
    if (std::find(unique_models.begin(), unique_models.end(), model) ==
        unique_models.end()) {
      unique_models.push_back(model);
    }
  }
  models = std::move(unique_models);

  // Resume: lift the existing bundle's cell set, keyed by stamped
  // scenario + canonical model name (entry names may carry recorder
  // aliases like "rcse-combined"). Entries whose model string does not
  // parse belong to no grid cell and are simply carried over.
  const auto cell_key = [](const std::string& scenario,
                           DeterminismModel model) {
    return scenario + "\x1f" + std::string(DeterminismModelName(model));
  };
  bool appending = false;
  std::set<std::string> done_cells;
  if (options_.resume && !options_.corpus_path.empty()) {
    CorpusReaderOptions probe;
    probe.io = options_.resume_io;
    probe.cache_bytes = 0;
    auto existing = CorpusReader::Open(options_.corpus_path, probe);
    if (existing.ok()) {
      appending = true;
      for (const CorpusEntry& entry : existing->entries()) {
        if (auto model = ParseDeterminismModel(entry.model); model.ok()) {
          done_cells.insert(cell_key(entry.scenario, *model));
        }
      }
    } else if (existing.status().code() != StatusCode::kNotFound) {
      // A corrupt bundle must surface, not be silently rebuilt from zero.
      return existing.status();
    }
  }

  // The grid cells actually run this pass: all of them on a fresh build,
  // only the missing ones on a resume. Scenario-major, model-minor order
  // either way, so appended bundles line up with single-shot ones.
  struct CellSpec {
    size_t scenario = 0;
    DeterminismModel model = DeterminismModel::kPerfect;
  };
  std::vector<CellSpec> cell_specs;
  std::vector<bool> scenario_needed(scenarios_.size(), false);
  for (size_t s = 0; s < scenarios_.size(); ++s) {
    for (const DeterminismModel model : models) {
      if (appending && done_cells.count(cell_key(scenarios_[s].name, model))) {
        continue;
      }
      cell_specs.push_back(CellSpec{s, model});
      scenario_needed[s] = true;
    }
  }
  if (cell_specs.empty()) {
    // Nothing missing: do not rewrite (or even open) the bundle.
    return BatchReport{};
  }

  // Phase 1: prep every needed scenario once, in parallel. The training
  // run only matters to RCSE recorders, so it is skipped for grids (or
  // resume remainders) without them.
  bool needs_training = false;
  for (const CellSpec& spec : cell_specs) {
    needs_training |= spec.model == DeterminismModel::kDebugRcse;
  }
  std::vector<size_t> prep_targets;
  for (size_t s = 0; s < scenarios_.size(); ++s) {
    if (scenario_needed[s]) {
      prep_targets.push_back(s);
    }
  }
  std::vector<std::shared_ptr<const ScenarioPrep>> preps(scenarios_.size());
  std::vector<Status> prep_status(prep_targets.size());
  RunTasks(options_.threads, prep_targets.size(), [&](size_t i) {
    auto prep = ScenarioPrep::Compute(scenarios_[prep_targets[i]],
                                      needs_training);
    if (prep.ok()) {
      preps[prep_targets[i]] =
          std::make_shared<const ScenarioPrep>(std::move(*prep));
    } else {
      prep_status[i] = prep.status();
    }
  });
  for (const Status& status : prep_status) {
    RETURN_IF_ERROR(status);
  }

  // Phase 2: one task per cell. Each worker records on its own harness
  // (sharing the scenario's prep), scores, and — when a corpus is
  // requested — serializes the recording to a DDRT image so the bundle
  // write below is pure ordered I/O.
  struct TaskOutput {
    BatchCell cell;
    std::vector<uint8_t> image;
    std::string recorder_model;
    uint64_t event_count = 0;
    double wall_seconds = 0.0;
  };
  const size_t task_count = cell_specs.size();
  std::vector<TaskOutput> outputs(task_count);
  RunTasks(options_.threads, task_count, [&](size_t t) {
    const size_t s = cell_specs[t].scenario;
    const DeterminismModel model = cell_specs[t].model;
    ExperimentHarness harness(scenarios_[s], preps[s]);
    const RecordedExecution recording = harness.Record(model);

    TaskOutput& out = outputs[t];
    out.cell.scenario = scenarios_[s].name;
    out.cell.recording_name = scenarios_[s].name + "/" + recording.model;
    out.recorder_model = recording.model;
    out.event_count = recording.log.size();
    out.wall_seconds = recording.original_outcome.stats.wall_seconds;
    out.cell.row =
        harness.ReplayAndScore(model, recording, out.wall_seconds);

    if (!options_.corpus_path.empty()) {
      TraceWriteOptions trace_options = options_.trace_options;
      trace_options.scenario = scenarios_[s].name;
      trace_options.original_wall_seconds = out.wall_seconds;
      out.image = SerializeTrace(recording, trace_options);
    }
  });

  // Bundle write, in deterministic task order — a fresh build, or an
  // append that publishes nothing on any failure (a failed journal
  // append leaves only an unpublished torn tail the next append
  // overwrites).
  uint64_t corpus_bytes_written = 0;
  if (!options_.corpus_path.empty()) {
    std::unique_ptr<CorpusWriter> corpus;
    if (appending) {
      CorpusAppendOptions append_options;
      append_options.io = options_.resume_io;
      ASSIGN_OR_RETURN(corpus, CorpusWriter::AppendTo(options_.corpus_path,
                                                      append_options));
    } else {
      corpus = std::make_unique<CorpusWriter>(options_.corpus_path);
      RETURN_IF_ERROR(corpus->Begin());
    }
    for (const TaskOutput& out : outputs) {
      RETURN_IF_ERROR(corpus->AddImage(out.cell.recording_name, out.image,
                                       out.recorder_model, out.cell.scenario,
                                       out.event_count, out.wall_seconds));
    }
    RETURN_IF_ERROR(corpus->Finish());
    corpus_bytes_written = corpus->bytes_written();
  }

  BatchReport report;
  report.corpus_bytes_written = corpus_bytes_written;
  report.cells.reserve(task_count);
  for (TaskOutput& out : outputs) {
    report.cells.push_back(std::move(out.cell));
  }
  return report;
}

Result<BatchReport> ReplayCorpus(const std::string& corpus_path,
                                 const std::vector<BugScenario>& scenarios,
                                 int threads) {
  ReplayCorpusOptions options;
  options.threads = threads;
  return ReplayCorpus(corpus_path, scenarios, options);
}

CorpusEntryScorer::CorpusEntryScorer(std::vector<BugScenario> scenarios)
    : scenarios_(std::move(scenarios)) {
  for (size_t i = 0; i < scenarios_.size(); ++i) {
    index_[scenarios_[i].name] = i;
  }
}

Result<std::shared_ptr<const ScenarioPrep>> CorpusEntryScorer::PrepFor(
    size_t scenario_index) const {
  // First caller for a scenario installs the future and computes outside
  // the lock; everyone else (including concurrent callers of *other*
  // scenarios, which compute their own preps in parallel) waits on the
  // shared future. A failed prep is cached too: recomputing a
  // deterministic failure per request would just be a slow way to fail.
  std::shared_future<PrepResult> future;
  std::promise<PrepResult> promise;
  bool compute = false;
  {
    MutexLock lock(mu_);
    auto it = preps_.find(scenario_index);
    if (it == preps_.end()) {
      compute = true;
      future = promise.get_future().share();
      preps_.emplace(scenario_index, future);
    } else {
      future = it->second;
    }
  }
  if (compute) {
    // Replaying never records, so the RCSE training artifacts are never
    // consumed here — skip the training run regardless of entry models.
    auto prep = ScenarioPrep::Compute(scenarios_[scenario_index],
                                      /*include_training=*/false);
    if (prep.ok()) {
      promise.set_value(PrepResult{
          OkStatus(), std::make_shared<const ScenarioPrep>(std::move(*prep))});
    } else {
      promise.set_value(PrepResult{prep.status(), nullptr});
    }
  }
  const PrepResult& result = future.get();
  RETURN_IF_ERROR(result.first);
  return result.second;
}

Result<BatchCell> CorpusEntryScorer::ScoreEntry(
    const CorpusReader& corpus, const CorpusEntry& entry,
    const std::string& model_override) const {
  auto it = index_.find(entry.scenario);
  if (it == index_.end()) {
    return NotFoundError("corpus entry '" + entry.name +
                         "' names unknown scenario '" + entry.scenario + "'");
  }
  ASSIGN_OR_RETURN(
      DeterminismModel model,
      ParseDeterminismModel(model_override.empty() ? entry.model
                                                   : model_override));
  ASSIGN_OR_RETURN(std::shared_ptr<const ScenarioPrep> prep,
                   PrepFor(it->second));
  // A cheap per-entry TraceReader window onto the corpus's shared handle:
  // no file open, and decoded chunks are shared through the corpus cache.
  ASSIGN_OR_RETURN(TraceReader trace, corpus.OpenTrace(entry));
  ASSIGN_OR_RETURN(RecordedExecution recording, trace.ReadRecordedExecution());
  ExperimentHarness harness(scenarios_[it->second], prep);
  BatchCell cell;
  cell.scenario = entry.scenario;
  cell.recording_name = entry.name;
  cell.row = harness.ReplayAndScore(model, recording,
                                    trace.metadata().original_wall_seconds);
  return cell;
}

Result<BatchReport> ReplayCorpus(const std::string& corpus_path,
                                 const std::vector<BugScenario>& scenarios,
                                 const ReplayCorpusOptions& options) {
  const int threads = options.threads;
  ASSIGN_OR_RETURN(CorpusReader corpus,
                   CorpusReader::Open(corpus_path, options.reader));

  // Validate every entry's scenario before any prep runs: a stray entry
  // must fail the pass upfront, not after minutes of seed search.
  CorpusEntryScorer scorer(scenarios);
  std::set<std::string> known;
  for (const BugScenario& scenario : scenarios) {
    known.insert(scenario.name);
  }
  for (const CorpusEntry& entry : corpus.entries()) {
    if (known.count(entry.scenario) == 0) {
      return NotFoundError("corpus entry '" + entry.name +
                           "' names unknown scenario '" + entry.scenario + "'");
    }
  }

  // Score every entry from the bundle alone. Preps build lazily inside
  // the scorer — the first worker to hit each scenario computes it,
  // workers on other scenarios compute theirs concurrently — and results
  // land indexed by entry, so placement is interleaving-independent.
  std::vector<BatchCell> cells(corpus.entries().size());
  std::vector<Status> cell_status(corpus.entries().size());
  RunTasks(threads, corpus.entries().size(), [&](size_t e) {
    auto cell = scorer.ScoreEntry(corpus, corpus.entries()[e]);
    if (cell.ok()) {
      cells[e] = std::move(*cell);
    } else {
      cell_status[e] = cell.status();
    }
  });
  for (const Status& status : cell_status) {
    RETURN_IF_ERROR(status);
  }

  BatchReport report;
  report.cells = std::move(cells);
  report.io_backend = std::string(IoBackendName(corpus.io_backend()));
  report.corpus_bytes_read = corpus.bytes_read();
  report.cache_stats = corpus.cache_stats();
  return report;
}

}  // namespace ddr
