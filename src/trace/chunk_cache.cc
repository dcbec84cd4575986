#include "src/trace/chunk_cache.h"

#include "src/util/hash.h"

namespace ddr {

namespace {

// Decoded-chunk cost: the event payload plus per-entry bookkeeping (list
// node, map slot, control block), so a cache full of tiny chunks cannot
// blow past its byte budget on overhead alone.
constexpr uint64_t kEntryOverheadBytes = 160;

}  // namespace

size_t ChunkCache::KeyHash::operator()(const ChunkKey& key) const {
  Fingerprint fp;
  fp.Mix(key.file_id);
  fp.Mix(key.image_offset);
  fp.Mix(key.chunk_index);
  return static_cast<size_t>(fp.value());
}

ChunkCache::ChunkCache(uint64_t capacity_bytes)
    : capacity_bytes_(capacity_bytes),
      shard_capacity_(capacity_bytes / kShards) {
  shards_.reserve(kShards);
  for (size_t i = 0; i < kShards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ChunkCache::Shard& ChunkCache::ShardFor(const ChunkKey& key) {
  return *shards_[KeyHash{}(key) % kShards];
}

ChunkCache::EventsPtr ChunkCache::Lookup(const ChunkKey& key) {
  if (!enabled()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second->events;
}

void ChunkCache::Insert(const ChunkKey& key, EventsPtr events) {
  if (!enabled() || events == nullptr) {
    return;
  }
  const uint64_t cost =
      events->size() * sizeof(Event) + kEntryOverheadBytes;
  if (cost > shard_capacity_) {
    return;
  }
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  if (const auto it = shard.index.find(key); it != shard.index.end()) {
    // Racing decoders of the same cold chunk: keep the incumbent, just
    // refresh its recency.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.push_front(Entry{key, std::move(events), cost});
  shard.index.emplace(key, shard.lru.begin());
  shard.bytes += cost;
  insertions_.fetch_add(1, std::memory_order_relaxed);
  while (shard.bytes > shard_capacity_ && shard.lru.size() > 1) {
    const Entry& victim = shard.lru.back();
    shard.bytes -= victim.cost;
    shard.index.erase(victim.key);
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

ChunkCacheStats ChunkCache::stats() const {
  ChunkCacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.insertions = insertions_.load(std::memory_order_relaxed);
  stats.capacity_bytes = capacity_bytes_;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    stats.bytes_in_use += shard->bytes;
    stats.entries += shard->lru.size();
  }
  return stats;
}

}  // namespace ddr
