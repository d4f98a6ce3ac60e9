// Sharded LRU cache with a byte budget — the serving layer's
// content-addressed result store.
//
// Keys are 64-bit content fingerprints (serve/cache_key.h); values are
// whatever the tier stores: full LdmoResults (masks bit-packed, see
// serve::CachedResult) for the result tier, predicted scores for the score
// tier. Shard selection mixes the key so one hot layout cannot serialize
// every lookup; each shard owns an independent mutex, LRU list and slice
// of the byte budget, and evicts least-recently-used entries until an
// insertion fits. Values whose own footprint exceeds
// a shard's budget are not cached at all (counted, not fatal) — one huge
// result must not wipe a whole shard.
//
// get() returns a COPY under the shard lock. That is the thread-safety
// contract (a reference could be evicted under the reader) and the
// determinism contract (the caller owns an immutable snapshot bit-identical
// to what was stored).
//
// Hit/miss/eviction/insert counters and byte/entry gauges are published
// under "<metric_prefix>.*" ("serve.cache.*" for the result tier), so run
// reports capture cache effectiveness for free.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.h"
#include "obs/metrics.h"

namespace ldmo::serve {

/// Sizing and naming knobs of one cache tier.
struct CacheConfig {
  bool enabled = true;
  std::size_t budget_bytes = 64ull << 20;  ///< across all shards
  int shards = 8;
  std::string metric_prefix = "serve.cache";
};

template <typename V>
class ShardedLruCache {
 public:
  /// `bytes_of` prices a value for budget accounting (entry bookkeeping
  /// overhead is added internally).
  using BytesFn = std::function<std::size_t(const V&)>;

  ShardedLruCache(CacheConfig config, BytesFn bytes_of)
      : config_(std::move(config)),
        bytes_of_(std::move(bytes_of)),
        hits_(obs::counter(config_.metric_prefix + ".hits")),
        misses_(obs::counter(config_.metric_prefix + ".misses")),
        evictions_(obs::counter(config_.metric_prefix + ".evictions")),
        insertions_(obs::counter(config_.metric_prefix + ".insertions")),
        oversize_(obs::counter(config_.metric_prefix + ".oversize_skips")),
        bytes_gauge_(obs::gauge(config_.metric_prefix + ".bytes")),
        entries_gauge_(obs::gauge(config_.metric_prefix + ".entries")) {
    require(config_.shards >= 1, "ShardedLruCache: shards must be >= 1");
    require(bytes_of_ != nullptr, "ShardedLruCache: null bytes function");
    shards_ = std::vector<Shard>(static_cast<std::size_t>(config_.shards));
    shard_budget_ = config_.budget_bytes / shards_.size();
  }

  /// Copy of the cached value, refreshing its recency; nullopt on miss.
  std::optional<V> get(std::uint64_t key) {
    if (!config_.enabled) return std::nullopt;
    Shard& shard = shard_of(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      misses_.inc();
      return std::nullopt;
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    hits_.inc();
    return it->second->value;
  }

  /// Inserts (or refreshes) `key`, evicting LRU entries until the shard's
  /// budget fits. Oversize values are skipped.
  void put(std::uint64_t key, V value) {
    if (!config_.enabled) return;
    const std::size_t bytes = bytes_of_(value) + kEntryOverhead;
    Shard& shard = shard_of(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      // Refresh: replace in place and re-front.
      shard.bytes -= it->second->bytes;
      adjust_totals(-static_cast<long long>(it->second->bytes));
      it->second->value = std::move(value);
      it->second->bytes = bytes;
      shard.bytes += bytes;
      adjust_totals(static_cast<long long>(bytes));
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      evict_over_budget(shard);
      return;
    }
    if (bytes > shard_budget_) {
      oversize_.inc();
      return;
    }
    shard.lru.push_front(Entry{key, std::move(value), bytes});
    shard.index.emplace(key, shard.lru.begin());
    shard.bytes += bytes;
    adjust_totals(static_cast<long long>(bytes), +1);
    insertions_.inc();
    evict_over_budget(shard);
  }

  /// Copies every entry out, least-recently-used first within each shard —
  /// replaying the result through put() in order reproduces the recency
  /// ranking (the last put is the most recent). Powers the serving layer's
  /// cache snapshot/restore (net/snapshot.h); shards are locked one at a
  /// time, so a snapshot during traffic is consistent per shard and never
  /// blocks the whole cache.
  std::vector<std::pair<std::uint64_t, V>> export_entries() {
    std::vector<std::pair<std::uint64_t, V>> out;
    if (!config_.enabled) return out;
    out.reserve(entries());
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      for (auto it = shard.lru.rbegin(); it != shard.lru.rend(); ++it)
        out.emplace_back(it->key, it->value);
    }
    return out;
  }

  bool enabled() const { return config_.enabled; }
  const CacheConfig& config() const { return config_; }

  std::size_t entries() const {
    return static_cast<std::size_t>(entries_total_.load());
  }
  std::size_t bytes() const {
    return static_cast<std::size_t>(bytes_total_.load());
  }
  long long hits() const { return hits_.value(); }
  long long misses() const { return misses_.value(); }
  long long evictions() const { return evictions_.value(); }

 private:
  struct Entry {
    std::uint64_t key;
    V value;
    std::size_t bytes;
  };
  struct Shard {
    std::mutex mu;
    std::list<Entry> lru;  ///< front = most recently used
    std::unordered_map<std::uint64_t, typename std::list<Entry>::iterator>
        index;
    std::size_t bytes = 0;
  };

  /// Map + list node bookkeeping charged per entry so a tier of tiny
  /// values (the score cache) still respects its budget.
  static constexpr std::size_t kEntryOverhead = 64;

  Shard& shard_of(std::uint64_t key) {
    // splitmix64 finalizer: cache keys are already hashes, but shard
    // selection uses different bits than any caller-side partitioning.
    std::uint64_t x = key + 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    x ^= x >> 31;
    return shards_[x % shards_.size()];
  }

  void evict_over_budget(Shard& shard) {
    while (shard.bytes > shard_budget_ && !shard.lru.empty()) {
      Entry& victim = shard.lru.back();
      shard.bytes -= victim.bytes;
      adjust_totals(-static_cast<long long>(victim.bytes), -1);
      shard.index.erase(victim.key);
      shard.lru.pop_back();
      evictions_.inc();
    }
  }

  void adjust_totals(long long byte_delta, long long entry_delta = 0) {
    bytes_gauge_.set(static_cast<double>(
        bytes_total_.fetch_add(byte_delta) + byte_delta));
    if (entry_delta != 0)
      entries_gauge_.set(static_cast<double>(
          entries_total_.fetch_add(entry_delta) + entry_delta));
  }

  CacheConfig config_;
  BytesFn bytes_of_;
  std::vector<Shard> shards_;
  std::size_t shard_budget_ = 0;
  std::atomic<long long> bytes_total_{0};
  std::atomic<long long> entries_total_{0};
  obs::Counter& hits_;
  obs::Counter& misses_;
  obs::Counter& evictions_;
  obs::Counter& insertions_;
  obs::Counter& oversize_;
  obs::Gauge& bytes_gauge_;
  obs::Gauge& entries_gauge_;
};

}  // namespace ldmo::serve
