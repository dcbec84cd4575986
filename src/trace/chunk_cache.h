// ChunkCache: a sharded LRU cache of decoded event chunks, shared across
// every TraceReader window of a corpus (or trace file).
//
// Decoding a chunk costs a disk read, a CRC pass, ddrz decompression, and
// the columnar un-delta — all of it identical every time the same chunk is
// touched. Replay traffic is chunk-hot: N concurrent replays of one DDRC
// bundle revisit the same entries, and repeated ReadEvents windows
// revisit the same mid-trace chunks. The cache keys decoded
// chunks by (file, image offset, chunk index) and hands out shared_ptrs
// to immutable event vectors, so a warm re-read costs zero disk bytes and
// zero decode work, whatever thread asks.
//
// Capacity is budgeted in bytes of decoded events and split evenly across
// shards; each shard runs an exact LRU behind its own mutex, so readers
// on different shards never contend. Hit/miss/eviction/insertion counters
// are process-cheap atomics, exposed through stats() — the bench and the
// `ddr-trace corpus replay` summary both read them.

#ifndef SRC_TRACE_CHUNK_CACHE_H_
#define SRC_TRACE_CHUNK_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/sim/event.h"
#include "src/util/thread_annotations.h"

namespace ddr {

// Identifies one decoded chunk. `file_id` is the open handle's
// process-unique RandomAccessFile::id(), so one cache can safely serve
// several files and can never serve stale chunks after a path is
// atomically replaced (windows sharing one handle share entries; a fresh
// open of the same path gets a fresh id, except that a CorpusReader's
// incremental Reopen keeps the held id for a file it proved is an
// in-place extension of the one that id read); `image_offset` is the DDRT
// image's base offset inside that file (0 for a bare trace, the entry
// offset for a corpus image); `chunk_index` is the position in the
// image's footer chunk table.
struct ChunkKey {
  uint64_t file_id = 0;
  uint64_t image_offset = 0;
  uint64_t chunk_index = 0;

  bool operator==(const ChunkKey& other) const = default;
};

struct ChunkCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t insertions = 0;
  uint64_t bytes_in_use = 0;
  uint64_t entries = 0;
  uint64_t capacity_bytes = 0;

  double hit_rate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

// Default capacity for corpus-serving caches.
inline constexpr uint64_t kDefaultChunkCacheBytes = uint64_t{64} << 20;

class ChunkCache {
 public:
  using EventsPtr = std::shared_ptr<const std::vector<Event>>;

  // `capacity_bytes` 0 disables caching (every Lookup misses, Insert is a
  // no-op) — useful as an explicit cold baseline.
  explicit ChunkCache(uint64_t capacity_bytes = kDefaultChunkCacheBytes);

  ChunkCache(const ChunkCache&) = delete;
  ChunkCache& operator=(const ChunkCache&) = delete;

  // Counts a hit or miss; nullptr on miss.
  EventsPtr Lookup(const ChunkKey& key);

  // Inserts (or refreshes) the decoded chunk and evicts least-recently
  // used entries until the cache fits its budget again. Entries larger
  // than a whole shard's budget are not admitted (they would only evict
  // everything else and then leave).
  void Insert(const ChunkKey& key, EventsPtr events);

  ChunkCacheStats stats() const;
  uint64_t capacity_bytes() const { return capacity_bytes_; }
  bool enabled() const { return capacity_bytes_ > 0; }

 private:
  struct KeyHash {
    size_t operator()(const ChunkKey& key) const;
  };

  struct Entry {
    ChunkKey key;
    EventsPtr events;
    uint64_t cost = 0;
  };

  // Exact LRU: list front = most recent; the map points into the list.
  struct Shard {
    Mutex mu;
    std::list<Entry> lru GUARDED_BY(mu);
    std::unordered_map<ChunkKey, std::list<Entry>::iterator, KeyHash> index
        GUARDED_BY(mu);
    uint64_t bytes GUARDED_BY(mu) = 0;
  };

  Shard& ShardFor(const ChunkKey& key);

  static constexpr size_t kShards = 8;

  const uint64_t capacity_bytes_;
  const uint64_t shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> insertions_{0};
};

}  // namespace ddr

#endif  // SRC_TRACE_CHUNK_CACHE_H_
