// Tests for the random-access I/O layer (src/util/random_access_file.h)
// and the shared decoded-chunk cache (src/trace/chunk_cache.h).
//
// The acceptance properties: both backends serve bit-identical bytes
// for identical reads, reads are safe from many threads on one const
// handle, accounting (bytes_read, hit/miss/eviction counters) is truthful,
// and the cache evicts in LRU order within its byte budget.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "src/trace/chunk_cache.h"
#include "src/util/random_access_file.h"

namespace ddr {
namespace {

const IoBackend kAllBackends[] = {IoBackend::kPread, IoBackend::kMmap};

class ScopedFile {
 public:
  explicit ScopedFile(const std::string& tag, const std::vector<uint8_t>& bytes)
      : path_("io_test_" + tag + ".bin") {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  ~ScopedFile() { std::remove(path_.c_str()); }
  const std::string& get() const { return path_; }

 private:
  std::string path_;
};

std::vector<uint8_t> PatternBytes(size_t size) {
  std::vector<uint8_t> bytes(size);
  for (size_t i = 0; i < size; ++i) {
    bytes[i] = static_cast<uint8_t>((i * 131) ^ (i >> 7));
  }
  return bytes;
}

TEST(IoBackendTest, NamesRoundtripAndBadNamesFail) {
  for (IoBackend backend : kAllBackends) {
    auto parsed = ParseIoBackend(std::string(IoBackendName(backend)));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, backend);
  }
  EXPECT_FALSE(ParseIoBackend("carrier-pigeon").ok());
  // The retired buffered-stream backend is a loud error, not an alias.
  for (const char* retired : {"stream", "ifstream"}) {
    auto parsed = ParseIoBackend(retired);
    ASSERT_FALSE(parsed.ok()) << retired;
    EXPECT_NE(parsed.status().message().find("pread|mmap"), std::string::npos)
        << parsed.status().message();
  }
}

TEST(RandomAccessFileTest, AllBackendsServeIdenticalBytes) {
  const std::vector<uint8_t> bytes = PatternBytes(10000);
  ScopedFile file("identical", bytes);
  for (IoBackend backend : kAllBackends) {
    RandomAccessFileOptions options;
    options.backend = backend;
    options.allow_fallback = false;
    auto opened = RandomAccessFile::Open(file.get(), options);
    ASSERT_TRUE(opened.ok()) << opened.status();
    const RandomAccessFile& raf = **opened;
    EXPECT_EQ(raf.backend(), backend);
    EXPECT_EQ(raf.size(), bytes.size());

    std::vector<uint8_t> scratch;
    for (const auto& [offset, length] :
         {std::pair<uint64_t, size_t>{0, 1}, {0, 10000}, {9999, 1},
          {1234, 4096}, {500, 0}}) {
      auto view = raf.Read(offset, length, &scratch);
      ASSERT_TRUE(view.ok()) << view.status();
      ASSERT_EQ(view->size(), length);
      EXPECT_TRUE(std::equal(view->begin(), view->end(),
                             bytes.begin() + static_cast<ptrdiff_t>(offset)))
          << IoBackendName(backend) << " @" << offset << "+" << length;
    }
    // Truthful accounting: 1 + 10000 + 1 + 4096 + 0 logical bytes.
    EXPECT_EQ(raf.bytes_read(), 14098u);
  }
}

TEST(RandomAccessFileTest, ReadaheadHintsAreAdvisoryAndPreserveBytes) {
  // posix_fadvise/madvise are pure hints: every backend must serve the
  // exact same bytes under every readahead mode, and Advise must be
  // callable (a no-op where unsupported) at any point in the handle's
  // life — VerifyAll flips kSequential on and back off around its scan.
  const std::vector<uint8_t> bytes = PatternBytes(10000);
  ScopedFile file("readahead", bytes);
  for (IoBackend backend : kAllBackends) {
    for (ReadaheadMode mode : {ReadaheadMode::kNormal,
                               ReadaheadMode::kSequential,
                               ReadaheadMode::kRandom}) {
      RandomAccessFileOptions options;
      options.backend = backend;
      options.allow_fallback = false;
      options.readahead = mode;
      auto opened = RandomAccessFile::Open(file.get(), options);
      ASSERT_TRUE(opened.ok())
          << IoBackendName(backend) << "/" << ReadaheadModeName(mode) << ": "
          << opened.status();
      EXPECT_EQ((*opened)->readahead(), mode);

      std::vector<uint8_t> scratch;
      auto view = (*opened)->Read(0, bytes.size(), &scratch);
      ASSERT_TRUE(view.ok()) << view.status();
      EXPECT_TRUE(std::equal(view->begin(), view->end(), bytes.begin()))
          << IoBackendName(backend) << "/" << ReadaheadModeName(mode);

      // Re-advising mid-life (the sequential-scan bracket) is safe and
      // leaves the opening mode reported unchanged.
      (*opened)->Advise(ReadaheadMode::kSequential);
      (*opened)->Advise((*opened)->readahead());
      auto again = (*opened)->Read(1234, 4096, &scratch);
      ASSERT_TRUE(again.ok()) << again.status();
      EXPECT_TRUE(std::equal(again->begin(), again->end(),
                             bytes.begin() + 1234));
    }
  }
}

TEST(IoBackendTest, ReadaheadModeNamesAreDistinct) {
  EXPECT_EQ(ReadaheadModeName(ReadaheadMode::kNormal), "normal");
  EXPECT_EQ(ReadaheadModeName(ReadaheadMode::kSequential), "sequential");
  EXPECT_EQ(ReadaheadModeName(ReadaheadMode::kRandom), "random");
}

TEST(RandomAccessFileTest, ReadsPastEofFailWithOutOfRange) {
  const std::vector<uint8_t> bytes = PatternBytes(100);
  ScopedFile file("eof", bytes);
  for (IoBackend backend : kAllBackends) {
    RandomAccessFileOptions options;
    options.backend = backend;
    auto opened = RandomAccessFile::Open(file.get(), options);
    ASSERT_TRUE(opened.ok());
    std::vector<uint8_t> scratch;
    EXPECT_EQ((*opened)->Read(0, 101, &scratch).status().code(),
              StatusCode::kOutOfRange);
    EXPECT_EQ((*opened)->Read(100, 1, &scratch).status().code(),
              StatusCode::kOutOfRange);
    // A length that would wrap offset + length must not pass the check.
    EXPECT_EQ((*opened)->Read(~0ull - 1, 16, &scratch).status().code(),
              StatusCode::kOutOfRange);
  }
}

TEST(RandomAccessFileTest, MissingFileIsNotFoundForEveryBackend) {
  for (IoBackend backend : kAllBackends) {
    RandomAccessFileOptions options;
    options.backend = backend;
    auto opened = RandomAccessFile::Open("io_test_no_such_file.bin", options);
    EXPECT_EQ(opened.status().code(), StatusCode::kNotFound);
  }
}

// SameFile compares the (st_dev, st_ino) each handle saw at open: two
// opens of one path match across backends, and a file renamed over the
// path does not, even with identical bytes.
TEST(RandomAccessFileTest, SameFileTracksTheInodeNotThePath) {
  const std::vector<uint8_t> bytes = PatternBytes(4096);
  ScopedFile file("samefile", bytes);
  RandomAccessFileOptions pread_options;
  pread_options.backend = IoBackend::kPread;
  auto first = RandomAccessFile::Open(file.get(), pread_options);
  auto second = RandomAccessFile::Open(file.get());
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_TRUE((*first)->SameFile(**second));
  EXPECT_TRUE((*second)->SameFile(**first));

  ScopedFile replacement("samefile_next", bytes);
  ASSERT_EQ(std::rename(replacement.get().c_str(), file.get().c_str()), 0);
  auto replaced = RandomAccessFile::Open(file.get());
  ASSERT_TRUE(replaced.ok()) << replaced.status();
  EXPECT_FALSE((*replaced)->SameFile(**first));
  EXPECT_FALSE((*first)->SameFile(**replaced));
}

TEST(RandomAccessFileTest, MmapIsZeroCopyAndFallsBackOnEmptyFiles) {
  const std::vector<uint8_t> bytes = PatternBytes(64);
  ScopedFile file("zerocopy", bytes);
  RandomAccessFileOptions options;
  options.backend = IoBackend::kMmap;
  options.allow_fallback = false;
  auto mapped = RandomAccessFile::Open(file.get(), options);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  EXPECT_TRUE((*mapped)->zero_copy());
  std::vector<uint8_t> scratch;
  auto view = (*mapped)->Read(8, 16, &scratch);
  ASSERT_TRUE(view.ok());
  // Zero copy: scratch was never touched, the view aliases the mapping.
  EXPECT_TRUE(scratch.empty());

  // mmap cannot map an empty file; with fallback the open still succeeds
  // on a copying backend, without it the open fails.
  ScopedFile empty("empty", {});
  auto strict = RandomAccessFile::Open(empty.get(), options);
  EXPECT_FALSE(strict.ok());
  options.allow_fallback = true;
  auto fallback = RandomAccessFile::Open(empty.get(), options);
  ASSERT_TRUE(fallback.ok()) << fallback.status();
  EXPECT_NE((*fallback)->backend(), IoBackend::kMmap);
  EXPECT_EQ((*fallback)->size(), 0u);
}

TEST(RandomAccessFileTest, ConcurrentReadsOnOneHandleAreSafe) {
  const std::vector<uint8_t> bytes = PatternBytes(1 << 16);
  ScopedFile file("concurrent", bytes);
  for (IoBackend backend : kAllBackends) {
    RandomAccessFileOptions options;
    options.backend = backend;
    auto opened = RandomAccessFile::Open(file.get(), options);
    ASSERT_TRUE(opened.ok());
    const auto& raf = *opened;

    std::vector<std::thread> threads;
    std::vector<int> failures(8, 0);
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&, t]() {
        std::vector<uint8_t> scratch;
        for (int i = 0; i < 200; ++i) {
          const uint64_t offset = (t * 797 + i * 131) % (bytes.size() - 512);
          auto view = raf->Read(offset, 512, &scratch);
          if (!view.ok() ||
              !std::equal(view->begin(), view->end(),
                          bytes.begin() + static_cast<ptrdiff_t>(offset))) {
            ++failures[t];
          }
        }
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
    for (int t = 0; t < 8; ++t) {
      EXPECT_EQ(failures[t], 0) << IoBackendName(backend) << " thread " << t;
    }
    EXPECT_EQ(raf->bytes_read(), 8u * 200u * 512u);
  }
}

// ------------------------------------------------------------ ChunkCache

ChunkCache::EventsPtr MakeChunk(size_t num_events, uint64_t tag) {
  std::vector<Event> events(num_events);
  for (size_t i = 0; i < num_events; ++i) {
    events[i].seq = tag * 1000 + i;
  }
  return std::make_shared<const std::vector<Event>>(std::move(events));
}

TEST(ChunkCacheTest, LookupHitMissAndCountersAreTruthful) {
  ChunkCache cache(/*capacity_bytes=*/1 << 20);
  const ChunkKey key{1, 0, 0};
  EXPECT_EQ(cache.Lookup(key), nullptr);
  cache.Insert(key, MakeChunk(10, 7));
  auto hit = cache.Lookup(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ((*hit)[0].seq, 7000u);

  const ChunkCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes_in_use, 10 * sizeof(Event));
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(ChunkCacheTest, DistinctKeysNeverAlias) {
  ChunkCache cache(1 << 20);
  // Same chunk index under different files and image offsets.
  cache.Insert({0, 0, 0}, MakeChunk(4, 1));
  cache.Insert({1, 0, 0}, MakeChunk(4, 2));
  cache.Insert({0, 64, 0}, MakeChunk(4, 3));
  EXPECT_EQ((*cache.Lookup({0, 0, 0}))[0].seq, 1000u);
  EXPECT_EQ((*cache.Lookup({1, 0, 0}))[0].seq, 2000u);
  EXPECT_EQ((*cache.Lookup({0, 64, 0}))[0].seq, 3000u);

}

// Cache namespacing relies on handle ids being process-unique: every
// open — even of the same path — must mint a fresh id, so a re-opened
// (possibly replaced) file can never hit another open's cached chunks.
TEST(ChunkCacheTest, HandleIdsAreUniquePerOpen) {
  const std::vector<uint8_t> bytes = PatternBytes(64);
  ScopedFile file("ids", bytes);
  auto first = RandomAccessFile::Open(file.get());
  auto second = RandomAccessFile::Open(file.get());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_NE((*first)->id(), (*second)->id());
}

TEST(ChunkCacheTest, EvictsLeastRecentlyUsedWithinByteBudget) {
  // Budget sized so one shard holds ~2 chunks of 100 events. All keys are
  // forced into one shard by keeping them identical except chunk_index —
  // eviction order is then observable deterministically only per shard,
  // so use a generous chunk count and check global properties.
  ChunkCache cache(/*capacity_bytes=*/8 * (100 * sizeof(Event) + 512));
  constexpr int kChunks = 64;
  for (int i = 0; i < kChunks; ++i) {
    cache.Insert({0, 0, static_cast<uint64_t>(i)}, MakeChunk(100, i));
  }
  const ChunkCacheStats stats = cache.stats();
  EXPECT_EQ(stats.insertions, static_cast<uint64_t>(kChunks));
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes_in_use, cache.capacity_bytes());
  EXPECT_LT(stats.entries, static_cast<uint64_t>(kChunks));

  // The most recently inserted chunk must still be resident.
  EXPECT_NE(cache.Lookup({0, 0, kChunks - 1}), nullptr);
}

TEST(ChunkCacheTest, ZeroCapacityDisablesCaching) {
  ChunkCache cache(0);
  EXPECT_FALSE(cache.enabled());
  const ChunkKey key{0, 0, 0};
  cache.Insert(key, MakeChunk(4, 1));
  EXPECT_EQ(cache.Lookup(key), nullptr);
  const ChunkCacheStats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 0u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(ChunkCacheTest, OversizedEntriesAreNotAdmitted) {
  ChunkCache cache(/*capacity_bytes=*/1024);  // shard budget: 128 bytes
  const ChunkKey key{0, 0, 0};
  cache.Insert(key, MakeChunk(1000, 1));  // far larger than a shard
  EXPECT_EQ(cache.Lookup(key), nullptr);
  EXPECT_EQ(cache.stats().insertions, 0u);
}

TEST(ChunkCacheTest, ConcurrentInsertsAndLookupsKeepAccountingConsistent) {
  ChunkCache cache(1 << 20);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < 200; ++i) {
        const ChunkKey key{0, 0, static_cast<uint64_t>(i % 32)};
        if (cache.Lookup(key) == nullptr) {
          cache.Insert(key, MakeChunk(16, i % 32));
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  const ChunkCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, 8u * 200u);
  // Racing decoders of one cold chunk may double-insert; the cache keeps
  // one copy and the hot keys must all be resident afterwards.
  for (uint64_t i = 0; i < 32; ++i) {
    auto chunk = cache.Lookup({0, 0, i});
    ASSERT_NE(chunk, nullptr);
    EXPECT_EQ((*chunk)[0].seq, i * 1000);
  }
}

// DDR_CACHE_MB parsing: junk, trailing garbage, out-of-range, and
// shift-overflowing values must all fall back to the default instead of
// silently wrapping to a bogus byte budget.
TEST(ChunkCacheTest, CacheMbTextParsesStrictly) {
  constexpr uint64_t kFallback = uint64_t{64} << 20;

  EXPECT_EQ(ChunkCacheBytesFromMbText("8", kFallback), uint64_t{8} << 20);
  EXPECT_EQ(ChunkCacheBytesFromMbText("0", kFallback), 0u);
  // Largest megabyte count whose byte value still fits in uint64.
  const uint64_t max_mb = ~uint64_t{0} >> 20;
  EXPECT_EQ(ChunkCacheBytesFromMbText(std::to_string(max_mb).c_str(),
                                      kFallback),
            max_mb << 20);

  // Junk and empty fall back.
  EXPECT_EQ(ChunkCacheBytesFromMbText(nullptr, kFallback), kFallback);
  EXPECT_EQ(ChunkCacheBytesFromMbText("", kFallback), kFallback);
  EXPECT_EQ(ChunkCacheBytesFromMbText("lots", kFallback), kFallback);
  EXPECT_EQ(ChunkCacheBytesFromMbText("64MB", kFallback), kFallback);
  EXPECT_EQ(ChunkCacheBytesFromMbText("6 4", kFallback), kFallback);

  // ERANGE: way past 2^64.
  EXPECT_EQ(ChunkCacheBytesFromMbText("99999999999999999999", kFallback),
            kFallback);
  // In range for strtoull but wraps once shifted to bytes.
  EXPECT_EQ(ChunkCacheBytesFromMbText(std::to_string(max_mb + 1).c_str(),
                                      kFallback),
            kFallback);
  EXPECT_EQ(ChunkCacheBytesFromMbText("18446744073709551615", kFallback),
            kFallback);
  // strtoull would happily wrap "-1" to 2^64-1; we must not.
  EXPECT_EQ(ChunkCacheBytesFromMbText("-1", kFallback), kFallback);
}

}  // namespace
}  // namespace ddr
