// Microbenchmark for the corpus-serving read path: decode throughput per
// I/O backend (pread vs mmap), the decoded-chunk cache's
// warm-vs-cold effect across capacities, and concurrent reader scaling
// over one shared CorpusReader handle. Plain-main (no google-benchmark)
// so it runs everywhere; emits BENCH_micro_corpus_serve.json lines for
// cross-PR tracking.
//
// The acceptance row is the "cache" section: warm-cache corpus replay
// must beat the cold pread baseline by >= 2x
// (warm_vs_cold_pread_speedup), and every backend must decode the exact
// same bytes (fingerprint-checked here, bit-asserted in tests).

#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>

#include "bench/bench_util.h"
#include "src/server/corpus_client.h"
#include "src/server/corpus_server.h"
#include "src/trace/corpus.h"
#include "src/util/fault_injection.h"
#include "src/util/hash.h"
#include "src/util/logging.h"
#include "src/util/rng.h"

namespace ddr {
namespace {

constexpr char kCorpusPath[] = "micro_corpus_serve.tmp.ddrc";
constexpr uint64_t kEntries = 8;
constexpr uint64_t kEventsPerEntry = 50'000;

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

// Same realistically-shaped synthetic events as micro_corpus_batch.
RecordedExecution MakeRecording(uint64_t num_events, uint64_t seed) {
  RecordedExecution recording;
  recording.model = "bench";
  Rng rng(seed);
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
    event.type = seq % 2 == 0 ? EventType::kSharedRead : EventType::kRngDraw;
    event.value = rng.NextIndex(1u << 20);
    event.bytes = 8;
    recording.log.Append(event);
  }
  recording.recorded_events = num_events;
  recording.intercepted_events = num_events;
  return recording;
}

void BuildCorpus() {
  CorpusWriter writer(kCorpusPath);
  CHECK(writer.Begin().ok());
  TraceWriteOptions options;
  options.events_per_chunk = 512;
  options.chunk_filter = TraceFilter::kVarintDelta;
  for (uint64_t i = 0; i < kEntries; ++i) {
    CHECK(writer
              .Add("serve/" + std::to_string(i),
                   MakeRecording(kEventsPerEntry, 1000 + i), options)
              .ok());
  }
  CHECK(writer.Finish().ok());
}

CorpusReaderOptions Options(IoBackend backend, uint64_t cache_bytes) {
  CorpusReaderOptions options;
  options.io.backend = backend;
  options.cache_bytes = cache_bytes;
  return options;
}

// One full serve pass over every entry: the timed unit of work. The
// checksum folds sizes the reader had to get right anyway without adding
// per-event hashing to the timed region (decode correctness is asserted
// separately by VerifyPass, and bit-identity across backends by tests).
uint64_t FullPass(const CorpusReader& corpus) {
  uint64_t checksum = 0;
  for (const CorpusEntry& entry : corpus.entries()) {
    auto trace = corpus.OpenTrace(entry);
    CHECK(trace.ok()) << trace.status();
    auto log = trace->ReadAllEvents();
    CHECK(log.ok()) << log.status();
    checksum += log->size() + log->encoded_size_bytes();
  }
  return checksum;
}

// Untimed: an order-sensitive fingerprint of every decoded event, for the
// cross-backend equivalence check.
uint64_t VerifyPass(const CorpusReader& corpus) {
  Fingerprint fp;
  for (const CorpusEntry& entry : corpus.entries()) {
    auto trace = corpus.OpenTrace(entry);
    CHECK(trace.ok()) << trace.status();
    auto log = trace->ReadAllEvents();
    CHECK(log.ok()) << log.status();
    for (const Event& event : log->events()) {
      fp.Mix(event.SemanticHash());
    }
  }
  return fp.value();
}

// Cold decode throughput per backend; both must produce the same event
// fingerprint. Returns the cold pread-backend seconds (the baseline the
// cache section compares against).
double RunBackendBench(BenchJsonWriter& json) {
  const uint64_t total_events = kEntries * kEventsPerEntry;
  double pread_seconds = 0.0;
  uint64_t reference_fp = 0;
  for (IoBackend backend : {IoBackend::kPread, IoBackend::kMmap}) {
    auto corpus = CorpusReader::Open(kCorpusPath, Options(backend, 0));
    CHECK(corpus.ok()) << corpus.status();
    CHECK_EQ(static_cast<int>(corpus->io_backend()), static_cast<int>(backend));

    const auto start = std::chrono::steady_clock::now();
    FullPass(*corpus);
    const double seconds = Seconds(start);
    // Snapshot I/O accounting before the untimed verify pass below pulls
    // the same chunks again: the stat must describe the timed pass only.
    const uint64_t timed_bytes_read = corpus->bytes_read();
    // Untimed equivalence check: all backends decode the same events.
    const uint64_t fp = VerifyPass(*corpus);
    if (backend == IoBackend::kPread) {
      pread_seconds = seconds;
      reference_fp = fp;
    } else {
      CHECK_EQ(fp, reference_fp) << "backend decode mismatch";
    }

    const double meps = total_events / seconds / 1e6;
    std::printf("backend %-7s: %7.2f Mev/s cold (%llu bytes read)\n",
                std::string(IoBackendName(backend)).c_str(), meps,
                static_cast<unsigned long long>(timed_bytes_read));
    JsonLine line = json.Line();
    line.Str("section", "backend")
        .Str("io", std::string(IoBackendName(backend)))
        .Int("events", total_events)
        .Num("seconds", seconds)
        .Num("mevents_per_sec", meps)
        .Int("bytes_read", timed_bytes_read);
    json.Write(line);
  }
  return pread_seconds;
}

// Cache-capacity sweep on the mmap backend: cold pass, then a warm pass
// over the same reader. The acceptance number is warm-vs-cold-pread.
void RunCacheBench(double cold_pread_seconds, BenchJsonWriter& json) {
  const uint64_t total_events = kEntries * kEventsPerEntry;
  for (uint64_t cache_mb : {0ull, 4ull, 256ull}) {
    auto corpus =
        CorpusReader::Open(kCorpusPath, Options(IoBackend::kMmap, cache_mb << 20));
    CHECK(corpus.ok()) << corpus.status();

    auto start = std::chrono::steady_clock::now();
    const uint64_t cold_sum = FullPass(*corpus);
    const double cold_seconds = Seconds(start);
    // Snapshot the counters between the passes: the combined hit rate
    // averages the cold pass's guaranteed misses into the warm pass's
    // number (reading "50%" for a fully cache-resident warm pass), which
    // is exactly the misleading figure the warm pass is meant to isolate.
    const ChunkCacheStats cold_stats = corpus->cache_stats();

    start = std::chrono::steady_clock::now();
    const uint64_t warm_sum = FullPass(*corpus);
    const double warm_seconds = Seconds(start);
    CHECK_EQ(cold_sum, warm_sum);

    const ChunkCacheStats stats = corpus->cache_stats();
    const uint64_t warm_hits = stats.hits - cold_stats.hits;
    const uint64_t warm_misses = stats.misses - cold_stats.misses;
    const double warm_hit_rate =
        warm_hits + warm_misses == 0
            ? 0.0
            : static_cast<double>(warm_hits) /
                  static_cast<double>(warm_hits + warm_misses);
    const double warm_meps = total_events / warm_seconds / 1e6;
    const double speedup_vs_cold_pread = cold_pread_seconds / warm_seconds;
    std::printf(
        "cache %4llu MB : cold %6.2f Mev/s  warm %7.2f Mev/s  "
        "warm hit rate %5.1f%%  warm vs cold-pread %5.2fx\n",
        static_cast<unsigned long long>(cache_mb),
        total_events / cold_seconds / 1e6, warm_meps, 100.0 * warm_hit_rate,
        speedup_vs_cold_pread);

    JsonLine line = json.Line();
    line.Str("section", "cache")
        .Str("io", "mmap")
        .Int("cache_mb", cache_mb)
        .Int("events", total_events)
        .Num("cold_mevents_per_sec", total_events / cold_seconds / 1e6)
        .Num("warm_mevents_per_sec", warm_meps)
        .Num("warm_hit_rate", warm_hit_rate)
        .Int("warm_hits", warm_hits)
        .Int("warm_misses", warm_misses)
        .Int("cache_hits", stats.hits)
        .Int("cache_misses", stats.misses)
        .Int("cache_evictions", stats.evictions)
        .Num("warm_vs_cold_pread_speedup", speedup_vs_cold_pread);
    json.Write(line);
  }
}

// Concurrent serving: N threads each doing a full pass over one shared
// CorpusReader (overlapping entries — the best case for the shared
// cache).
void RunConcurrencyBench(BenchJsonWriter& json) {
  const unsigned cores = std::thread::hardware_concurrency();
  for (int thread_count : {1, 2, 4, 8}) {
    auto corpus = CorpusReader::Open(
        kCorpusPath, Options(IoBackend::kMmap, uint64_t{256} << 20));
    CHECK(corpus.ok()) << corpus.status();

    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (int t = 0; t < thread_count; ++t) {
      threads.emplace_back([&]() { FullPass(*corpus); });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
    const double seconds = Seconds(start);

    const uint64_t served_events =
        kEntries * kEventsPerEntry * static_cast<uint64_t>(thread_count);
    const double meps = served_events / seconds / 1e6;
    const ChunkCacheStats stats = corpus->cache_stats();
    std::printf(
        "serve %d thread(s) on %u core(s): %7.2f Mev/s aggregate "
        "(hit rate %5.1f%%, %llu cold bytes)\n",
        thread_count, cores, meps, 100.0 * stats.hit_rate(),
        static_cast<unsigned long long>(corpus->bytes_read()));

    JsonLine line = json.Line();
    line.Str("section", "threads")
        .Int("threads", static_cast<uint64_t>(thread_count))
        .Int("hardware_cores", cores)
        .Int("served_events", served_events)
        .Num("seconds", seconds)
        .Num("mevents_per_sec", meps)
        .Num("hit_rate", stats.hit_rate())
        .Int("bytes_read", corpus->bytes_read());
    json.Write(line);
  }
}

// Append-then-serve: a warm reader survives the bundle being grown
// underneath it. The reader serves the old index until Reopen; the cache
// object (and its accumulated counters) carries across the Reopen, and
// the post-Reopen pass serves old + new entries from the grown bundle.
void RunAppendBench(BenchJsonWriter& json) {
  constexpr uint64_t kAppended = 2;
  auto corpus = CorpusReader::Open(
      kCorpusPath, Options(IoBackend::kMmap, uint64_t{256} << 20));
  CHECK(corpus.ok()) << corpus.status();
  const size_t entries_before = corpus->entries().size();

  // Fill the cache, then take a warm pass so the counters have real hits
  // to carry across the Reopen.
  FullPass(*corpus);
  FullPass(*corpus);
  const ChunkCacheStats warm_stats = corpus->cache_stats();

  // Grow the bundle in place while the reader stays open.
  const auto append_start = std::chrono::steady_clock::now();
  uint64_t append_bytes_written = 0;
  {
    auto writer = CorpusWriter::AppendTo(kCorpusPath);
    CHECK(writer.ok()) << writer.status();
    TraceWriteOptions options;
    options.events_per_chunk = 512;
    options.chunk_filter = TraceFilter::kVarintDelta;
    for (uint64_t i = 0; i < kAppended; ++i) {
      CHECK((*writer)
                ->Add("appended/" + std::to_string(i),
                      MakeRecording(kEventsPerEntry, 9000 + i), options)
                .ok());
    }
    CHECK((*writer)->Finish().ok());
    append_bytes_written = (*writer)->bytes_written();
  }
  const double append_seconds = Seconds(append_start);
  CHECK_EQ(corpus->entries().size(), entries_before);  // old index until Reopen

  CHECK(corpus->Reopen().ok());
  CHECK(corpus->journaled());
  CHECK_EQ(corpus->entries().size(), entries_before + kAppended);
  const ChunkCacheStats reopened_stats = corpus->cache_stats();
  CHECK(reopened_stats.hits >= warm_stats.hits);  // counters survived

  const auto start = std::chrono::steady_clock::now();
  FullPass(*corpus);
  const double seconds = Seconds(start);
  const uint64_t served_events = (entries_before + kAppended) * kEventsPerEntry;
  const double meps = served_events / seconds / 1e6;

  std::printf(
      "append %llu entries in %.3fs; reopen serves %zu entries at %7.2f "
      "Mev/s (cache counters survive: %llu hits carried)\n",
      static_cast<unsigned long long>(kAppended), append_seconds,
      entries_before + kAppended, meps,
      static_cast<unsigned long long>(reopened_stats.hits));

  JsonLine line = json.Line();
  line.Str("section", "append")
      .Int("entries_before", entries_before)
      .Int("entries_appended", kAppended)
      .Num("append_seconds", append_seconds)
      .Int("append_bytes_written", append_bytes_written)
      .Int("generation", corpus->generation())
      .Int("dead_bytes", corpus->dead_bytes())
      .Int("served_events_post_reopen", served_events)
      .Num("post_reopen_mevents_per_sec", meps)
      .Int("cache_hits_carried", reopened_stats.hits)
      .Num("hit_rate", corpus->cache_stats().hit_rate());
  json.Write(line);
}

// Append scaling: one identical small entry appended to a small and a
// large base bundle. The journal's bytes written must stay flat in the
// base size — O(new entry) — never a copy of the existing file.
void RunAppendScalingBench(BenchJsonWriter& json) {
  constexpr uint64_t kAppendEvents = 2'000;
  TraceWriteOptions trace_options;
  trace_options.events_per_chunk = 512;
  trace_options.chunk_filter = TraceFilter::kVarintDelta;

  const auto file_size = [](const std::string& path) -> uint64_t {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    CHECK(in.good()) << path;
    return static_cast<uint64_t>(in.tellg());
  };

  uint64_t written[2] = {0, 0};
  uint64_t base_sizes[2] = {0, 0};
  const uint64_t base_entry_counts[2] = {2, 8};
  for (int b = 0; b < 2; ++b) {
    const uint64_t base_entries = base_entry_counts[b];
    const std::string path = "micro_corpus_serve_scale.tmp.ddrc";
    {
      CorpusWriter writer(path);
      CHECK(writer.Begin().ok());
      for (uint64_t i = 0; i < base_entries; ++i) {
        CHECK(writer
                  .Add("base/" + std::to_string(i),
                       MakeRecording(kEventsPerEntry, 3000 + i), trace_options)
                  .ok());
      }
      CHECK(writer.Finish().ok());
    }
    base_sizes[b] = file_size(path);

    const auto start = std::chrono::steady_clock::now();
    {
      auto writer = CorpusWriter::AppendTo(path);
      CHECK(writer.ok()) << writer.status();
      CHECK((*writer)
                ->Add("appended/one", MakeRecording(kAppendEvents, 77),
                      trace_options)
                .ok());
      CHECK((*writer)->Finish().ok());
      written[b] = (*writer)->bytes_written();
    }
    const double seconds = Seconds(start);
    auto reader = CorpusReader::Open(path);
    CHECK(reader.ok()) << reader.status();
    CHECK_EQ(reader->entries().size(), base_entries + 1);
    CHECK(reader->VerifyAll().ok());

    std::printf(
        "append-scaling in-place: base %llu entries (%8llu B) + 1 entry -> "
        "%8llu bytes written in %.4fs\n",
        static_cast<unsigned long long>(base_entries),
        static_cast<unsigned long long>(base_sizes[b]),
        static_cast<unsigned long long>(written[b]), seconds);

    JsonLine line = json.Line();
    line.Str("section", "append-scaling")
        .Str("mode", "in-place")
        .Int("base_entries", base_entries)
        .Int("base_bytes", base_sizes[b])
        .Int("appended_events", kAppendEvents)
        .Int("bytes_written", written[b])
        .Num("seconds", seconds);
    json.Write(line);
    std::remove(path.c_str());
  }

  // The acceptance shape: the delta index lists only the new entry, so
  // the cost is flat in base size (the same bound CI asserts).
  CHECK(written[1] < written[0] + 256);
  CHECK(written[1] < base_sizes[1] / 2);
}

// The daemon transport tax: N clients over a unix-domain socket each
// verifying every entry (a full decode through the server's shared
// cache) vs the identical workload done in-process on one shared
// CorpusReader. Same work, same cache shape — the delta is framing +
// socket hops + the admission queue.
void RunServerBench(BenchJsonWriter& json) {
  constexpr char kSocketPath[] = "micro_corpus_serve.tmp.sock";
  constexpr int kRounds = 3;

  std::vector<std::string> names;
  {
    auto probe = CorpusReader::Open(
        kCorpusPath, Options(IoBackend::kMmap, uint64_t{256} << 20));
    CHECK(probe.ok()) << probe.status();
    for (const CorpusEntry& entry : probe->entries()) {
      names.push_back(entry.name);
    }
  }

  for (int client_count : {1, 2, 4, 8}) {
    const uint64_t requests =
        static_cast<uint64_t>(kRounds) * names.size() *
        static_cast<uint64_t>(client_count);

    // In-process baseline: the same verify workload on one shared reader.
    auto direct = CorpusReader::Open(
        kCorpusPath, Options(IoBackend::kMmap, uint64_t{256} << 20));
    CHECK(direct.ok()) << direct.status();
    const auto direct_start = std::chrono::steady_clock::now();
    {
      std::vector<std::thread> threads;
      for (int t = 0; t < client_count; ++t) {
        threads.emplace_back([&]() {
          for (int round = 0; round < kRounds; ++round) {
            for (const CorpusEntry& entry : direct->entries()) {
              auto trace = direct->OpenTrace(entry);
              CHECK(trace.ok()) << trace.status();
              CHECK(trace->Verify().ok());
            }
          }
        });
      }
      for (std::thread& thread : threads) {
        thread.join();
      }
    }
    const double direct_seconds = Seconds(direct_start);

    // Served: same requests through the daemon, one connection per client.
    CorpusServerOptions options;
    options.socket_path = kSocketPath;
    options.workers = client_count;
    options.queue_capacity = 64;
    options.reader = Options(IoBackend::kMmap, uint64_t{256} << 20);
    auto server = CorpusServer::Start(kCorpusPath, options);
    CHECK(server.ok()) << server.status();
    const auto socket_start = std::chrono::steady_clock::now();
    {
      std::vector<std::thread> threads;
      for (int t = 0; t < client_count; ++t) {
        threads.emplace_back([&]() {
          auto client = CorpusClient::ConnectUnixSocket(kSocketPath);
          CHECK(client.ok()) << client.status();
          for (int round = 0; round < kRounds; ++round) {
            for (const std::string& name : names) {
              auto verified = client->Verify(name);
              CHECK(verified.ok()) << verified.status();
            }
          }
        });
      }
      for (std::thread& thread : threads) {
        thread.join();
      }
    }
    const double socket_seconds = Seconds(socket_start);
    const ServeStats stats = (*server)->Snapshot();
    (*server)->RequestStop();
    (*server)->Wait();

    const double direct_rps = requests / direct_seconds;
    const double socket_rps = requests / socket_seconds;
    std::printf(
        "server %d client(s): %8.1f req/s over unix socket vs %8.1f "
        "in-process (tax %.2fx, hit rate %5.1f%%)\n",
        client_count, socket_rps, direct_rps, socket_seconds / direct_seconds,
        100.0 * stats.cache.hit_rate());

    JsonLine line = json.Line();
    line.Str("section", "server")
        .Int("clients", static_cast<uint64_t>(client_count))
        .Int("requests", requests)
        .Num("direct_seconds", direct_seconds)
        .Num("socket_seconds", socket_seconds)
        .Num("direct_requests_per_sec", direct_rps)
        .Num("socket_requests_per_sec", socket_rps)
        .Num("transport_tax", socket_seconds / direct_seconds)
        .Num("hit_rate", stats.cache.hit_rate())
        .Int("bytes_served", stats.bytes_served);
    json.Write(line);
  }
}

// The price of resilience: one client's verify throughput under four
// configurations — clean wire with and without the retry machinery
// armed (the delta must be noise: an unarmed fault layer is one relaxed
// atomic load, and an idle retry loop is one branch), then 1% injected
// send failures with retries off (loud errors leak to the caller) vs on
// (absorbed; zero failures surface).
void RunResilienceBench(BenchJsonWriter& json) {
  constexpr char kSocketPath[] = "micro_corpus_serve_res.tmp.sock";
  constexpr uint64_t kRequests = 200;

  std::vector<std::string> names;
  {
    auto probe = CorpusReader::Open(
        kCorpusPath, Options(IoBackend::kMmap, uint64_t{256} << 20));
    CHECK(probe.ok()) << probe.status();
    for (const CorpusEntry& entry : probe->entries()) {
      names.push_back(entry.name);
    }
  }

  CorpusServerOptions options;
  options.socket_path = kSocketPath;
  options.workers = 2;
  options.queue_capacity = 64;
  options.reader = Options(IoBackend::kMmap, uint64_t{256} << 20);
  auto server = CorpusServer::Start(kCorpusPath, options);
  CHECK(server.ok()) << server.status();

  struct Config {
    const char* label;
    const char* plan;  // "" = no faults
    int retries;
  };
  constexpr Config kConfigs[] = {
      {"clean", "", 0},
      {"clean_retries_armed", "", 3},
      {"faulty_no_retries", "client.send:unavail/100", 0},
      {"faulty_retries", "client.send:unavail/100", 3},
  };

  double baseline_rps = 0.0;
  for (const Config& config : kConfigs) {
    if (config.plan[0] != '\0') {
      CHECK(SetFaultPlan(config.plan).ok());
    } else {
      ClearFaultPlan();
    }
    CorpusClientOptions client_options;
    client_options.timeout_ms = 5000;
    client_options.max_retries = config.retries;
    client_options.backoff_initial_ms = 1;
    auto client = CorpusClient::ConnectUnixSocket(kSocketPath, client_options);
    CHECK(client.ok()) << client.status();

    uint64_t ok_count = 0;
    uint64_t failed = 0;
    const auto start = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < kRequests; ++i) {
      auto verified = client->Verify(names[i % names.size()]);
      verified.ok() ? ++ok_count : ++failed;
    }
    const double seconds = Seconds(start);
    ClearFaultPlan();

    if (config.retries > 0) {
      CHECK_EQ(failed, uint64_t{0}) << config.label;
    }
    const double rps = kRequests / seconds;
    if (baseline_rps == 0.0) {
      baseline_rps = rps;
    }
    std::printf(
        "resilience %-19s: %8.1f req/s (%5.2fx of clean), %llu ok / %llu "
        "failed\n",
        config.label, rps, rps / baseline_rps,
        static_cast<unsigned long long>(ok_count),
        static_cast<unsigned long long>(failed));

    JsonLine line = json.Line();
    line.Str("section", "resilience")
        .Str("config", config.label)
        .Str("fault_plan", config.plan)
        .Int("max_retries", static_cast<uint64_t>(config.retries))
        .Int("requests", kRequests)
        .Int("ok", ok_count)
        .Int("failed", failed)
        .Num("seconds", seconds)
        .Num("requests_per_sec", rps)
        .Num("rps_vs_clean", rps / baseline_rps);
    json.Write(line);
  }

  (*server)->RequestStop();
  (*server)->Wait();
}

void RunAll() {
  PrintBanner("micro: corpus serving — backends, chunk cache, concurrency");
  BenchJsonWriter json("micro_corpus_serve");
  BuildCorpus();
  const double cold_pread_seconds = RunBackendBench(json);
  RunCacheBench(cold_pread_seconds, json);
  RunConcurrencyBench(json);
  RunAppendBench(json);
  RunAppendScalingBench(json);
  RunServerBench(json);
  RunResilienceBench(json);
  std::remove(kCorpusPath);
}

}  // namespace
}  // namespace ddr

int main() {
  ddr::RunAll();
  return 0;
}
