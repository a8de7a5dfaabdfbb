#include "core/estimate_cache.hpp"

#include <algorithm>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/telemetry/telemetry.hpp"
#include "features/features.hpp"

namespace gnntrans::core {

namespace {

/// Process-global cache metrics (shared by every cache instance — the
/// dashboards see aggregate hit/miss/eviction traffic). Counters follow the
/// ServingMetrics registration pattern; residency gauges are last-write-wins
/// across instances.
struct CacheMetrics {
  telemetry::Counter hits = telemetry::MetricsRegistry::global().counter(
      "gnntrans_cache_hits_total",
      "Estimate-cache lookups answered by a stored entry: a copy or a "
      "heads-only pass");
  telemetry::Counter reused = telemetry::MetricsRegistry::global().counter(
      "gnntrans_cache_reused_total",
      "Estimate-cache hits answered by a heads-only pass over a stored "
      "embedding (a subset of the hits)");
  telemetry::Counter misses = telemetry::MetricsRegistry::global().counter(
      "gnntrans_cache_misses_total",
      "Estimate-cache lookups that fell through to the model path");
  telemetry::Counter evictions = telemetry::MetricsRegistry::global().counter(
      "gnntrans_cache_evictions_total",
      "Entries evicted by CLOCK second-chance under byte pressure");
  telemetry::Counter bytes = telemetry::MetricsRegistry::global().counter(
      "gnntrans_cache_bytes_total",
      "Cumulative bytes inserted into the estimate cache");
  telemetry::Gauge resident_bytes = telemetry::MetricsRegistry::global().gauge(
      "gnntrans_cache_resident_bytes",
      "Bytes currently resident in the estimate cache");
  telemetry::Gauge entries = telemetry::MetricsRegistry::global().gauge(
      "gnntrans_cache_entries", "Entries currently resident");

  static const CacheMetrics& get() {
    static const CacheMetrics metrics;
    return metrics;
  }
};

/// splitmix64 — mixes the (already finalized) net hash into a shard index,
/// so shard routing is uncorrelated with the map's own bucketing.
std::uint64_t mix(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

/// Approximate resident footprint of one entry: the stored estimates and
/// embedding plus map-node/slot bookkeeping. Only has to be consistent, not
/// exact — the byte budget is a pressure valve, not an allocator.
constexpr std::size_t kEntryOverheadBytes = 96;

std::size_t entry_bytes(std::size_t path_count,
                        std::size_t embedding_floats) noexcept {
  return kEntryOverheadBytes + path_count * sizeof(PathEstimate) +
         embedding_floats * sizeof(float);
}

std::size_t round_up_pow2(std::size_t n) noexcept {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

/// One shard: padded to a cache line so neighboring shards' mutexes never
/// false-share. Slots live in a flat vector the CLOCK hand sweeps; the index
/// maps net hashes to slot positions, and vacated slots recycle through a
/// free list so the hand's orbit stays dense.
struct alignas(64) EstimateCache::Shard {
  struct Slot {
    CacheKey key;  ///< the net, and the context of paths
    std::vector<PathEstimate> paths;
    /// Empty, or NetEmbedding::pooled followed by NetEmbedding::net_columns.
    std::vector<float> embedding;
    std::uint8_t ref = 0;  ///< CLOCK second-chance bit, set on hit
    bool occupied = false;

    [[nodiscard]] std::size_t bytes() const noexcept {
      return entry_bytes(paths.size(), embedding.size());
    }
  };

  std::mutex mutex;
  std::unordered_map<std::uint64_t, std::size_t> index;  ///< net -> slot
  std::vector<Slot> slots;
  std::vector<std::size_t> free_slots;
  std::size_t clock_hand = 0;
  std::size_t resident_bytes = 0;
};

EstimateCache::EstimateCache(EstimateCacheConfig config) : config_(config) {
  const std::size_t shards =
      round_up_pow2(std::max<std::size_t>(1, config_.shards));
  shard_mask_ = shards - 1;
  shard_budget_ = std::max<std::size_t>(1, config_.capacity_bytes / shards);
  shards_ = std::make_unique<Shard[]>(shards);
}

EstimateCache::~EstimateCache() = default;

std::size_t EstimateCache::shard_index(const CacheKey& key) const noexcept {
  return static_cast<std::size_t>(mix(key.net)) & shard_mask_;
}

bool EstimateCache::lookup(const CacheKey& key,
                           std::vector<PathEstimate>* out) {
  return lookup(key, out, nullptr) == CacheLookup::kHit;
}

CacheLookup EstimateCache::lookup(const CacheKey& key,
                                  std::vector<PathEstimate>* out,
                                  NetEmbedding* embedding) {
  CacheLookup found = CacheLookup::kMiss;
  Shard& shard = shards_[shard_index(key)];
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.index.find(key.net);
    if (it != shard.index.end()) {
      Shard::Slot& slot = shard.slots[it->second];
      // Copy under the lock: the stored bytes are the hit's inputs, so an
      // eviction racing this lookup must not tear them.
      if (slot.key.ctx == key.ctx) {
        *out = slot.paths;
        found = CacheLookup::kHit;
      } else if (embedding && !slot.embedding.empty()) {
        const auto columns = static_cast<std::ptrdiff_t>(
            slot.paths.size() * features::kNetPathFeatureCount);
        embedding->pooled.assign(slot.embedding.begin(),
                                 slot.embedding.end() - columns);
        embedding->net_columns.assign(slot.embedding.end() - columns,
                                      slot.embedding.end());
        found = CacheLookup::kEmbedding;
      } else {
        found = CacheLookup::kOtherContext;
      }
      if (found != CacheLookup::kOtherContext) slot.ref = 1;
    }
  }
  const CacheMetrics& metrics = CacheMetrics::get();
  if (found == CacheLookup::kHit || found == CacheLookup::kEmbedding) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    metrics.hits.inc();
    if (found == CacheLookup::kEmbedding) {
      reused_.fetch_add(1, std::memory_order_relaxed);
      metrics.reused.inc();
    }
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
    metrics.misses.inc();
  }
  return found;
}

void EstimateCache::insert(const CacheKey& key,
                           const std::vector<PathEstimate>& paths,
                           NetEmbedding embedding) {
  // Build the stored copy outside the lock, re-tagged kCached so a hit
  // returns it verbatim (values stay the model path's exact bytes).
  Shard::Slot stored;
  stored.key = key;
  stored.paths = paths;
  for (PathEstimate& pe : stored.paths)
    pe.provenance = EstimateProvenance::kCached;
  if (!embedding.pooled.empty()) {
    stored.embedding = std::move(embedding.pooled);
    stored.embedding.insert(stored.embedding.end(),
                            embedding.net_columns.begin(),
                            embedding.net_columns.end());
  }
  // An entry bigger than a whole shard's budget would evict the shard empty
  // and still not fit; drop it instead of thrashing.
  if (stored.bytes() > shard_budget_) return;

  std::size_t bytes = 0;
  std::size_t evicted = 0;
  std::size_t evicted_bytes = 0;
  Shard& shard = shards_[shard_index(key)];
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    // Takes the slot at \p at out of the index and the residency.
    const auto vacate = [&](std::size_t at) {
      Shard::Slot old = std::exchange(shard.slots[at], Shard::Slot{});
      shard.index.erase(old.key.net);
      shard.resident_bytes -= old.bytes();
      resident_bytes_.fetch_sub(old.bytes(), std::memory_order_relaxed);
      entries_.fetch_sub(1, std::memory_order_relaxed);
      shard.free_slots.push_back(at);
      return old;
    };
    if (const auto it = shard.index.find(key.net); it != shard.index.end()) {
      Shard::Slot& slot = shard.slots[it->second];
      if (slot.key.ctx == key.ctx &&
          (stored.embedding.empty() || !slot.embedding.empty())) {
        // Two workers computed the same content concurrently; the copies
        // are identical by construction, keep the first.
        slot.ref = 1;
        return;
      }
      // A new context (or the net's first embedding) replaces the entry,
      // which keeps its embedding unless this insert brings one, and goes
      // back in as a fresh slot so a grown entry is budgeted like a new one.
      const bool keep = stored.embedding.empty();
      if (keep && entry_bytes(stored.paths.size(), slot.embedding.size()) >
                      shard_budget_)
        return;
      Shard::Slot old = vacate(it->second);
      if (keep) stored.embedding = std::move(old.embedding);
      stored.ref = 1;
    }
    bytes = stored.bytes();
    // CLOCK second-chance to budget: a set ref bit buys one sweep of grace,
    // so recently hit entries survive a pressure burst.
    while (shard.resident_bytes + bytes > shard_budget_ &&
           !shard.index.empty()) {
      const std::size_t hand = shard.clock_hand;
      shard.clock_hand = (shard.clock_hand + 1) % shard.slots.size();
      Shard::Slot& victim = shard.slots[hand];
      if (!victim.occupied) continue;
      if (victim.ref != 0) {
        victim.ref = 0;
        continue;
      }
      evicted_bytes += victim.bytes();
      ++evicted;
      (void)vacate(hand);
    }

    std::size_t idx;
    if (!shard.free_slots.empty()) {
      idx = shard.free_slots.back();
      shard.free_slots.pop_back();
    } else {
      idx = shard.slots.size();
      shard.slots.emplace_back();
    }
    stored.occupied = true;
    shard.slots[idx] = std::move(stored);
    shard.index.emplace(key.net, idx);
    shard.resident_bytes += bytes;
    resident_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    entries_.fetch_add(1, std::memory_order_relaxed);
  }

  insertions_.fetch_add(1, std::memory_order_relaxed);
  inserted_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  const CacheMetrics& metrics = CacheMetrics::get();
  metrics.bytes.inc(bytes);
  if (evicted > 0) {
    evictions_.fetch_add(evicted, std::memory_order_relaxed);
    metrics.evictions.inc(evicted);
    // Eviction pressure is the signal that the cache is undersized for the
    // working set; leave a flight-recorder breadcrumb for post-mortems.
    telemetry::FlightRecorder& flight = telemetry::FlightRecorder::global();
    if (flight.enabled()) {
      telemetry::FlightRecord fr;
      fr.set_net("estimate_cache");
      fr.set_outcome("eviction_pressure");
      fr.total_us = static_cast<float>(evicted);  // victims this insert
      fr.arena_peak_bytes = static_cast<std::uint32_t>(
          std::min<std::size_t>(evicted_bytes, UINT32_MAX));
      flight.record(fr);
    }
  }

  // Residency gauges: last-write-wins across concurrent inserts (a gauge,
  // not a ledger).
  metrics.resident_bytes.set(
      static_cast<double>(resident_bytes_.load(std::memory_order_relaxed)));
  metrics.entries.set(
      static_cast<double>(entries_.load(std::memory_order_relaxed)));
}

EstimateCacheStats EstimateCache::stats() const {
  EstimateCacheStats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.reused = reused_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.insertions = insertions_.load(std::memory_order_relaxed);
  out.evictions = evictions_.load(std::memory_order_relaxed);
  out.inserted_bytes = inserted_bytes_.load(std::memory_order_relaxed);
  out.resident_bytes = resident_bytes_.load(std::memory_order_relaxed);
  out.entries = entries_.load(std::memory_order_relaxed);
  return out;
}

void EstimateCache::clear() {
  for (std::size_t s = 0; s <= shard_mask_; ++s) {
    Shard& shard = shards_[s];
    std::lock_guard<std::mutex> lock(shard.mutex);
    resident_bytes_.fetch_sub(shard.resident_bytes, std::memory_order_relaxed);
    entries_.fetch_sub(shard.index.size(), std::memory_order_relaxed);
    shard.index.clear();
    shard.slots.clear();
    shard.free_slots.clear();
    shard.clock_hand = 0;
    shard.resident_bytes = 0;
  }
  const CacheMetrics& metrics = CacheMetrics::get();
  metrics.resident_bytes.set(0.0);
  metrics.entries.set(0.0);
}

}  // namespace gnntrans::core
