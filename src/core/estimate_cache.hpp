/// \file estimate_cache.hpp
/// Content-addressed estimate cache: a sharded memo map from a net's RC
/// content to the model's PathEstimates under the context the net was last
/// served in, plus, once the net has been served under a second context, its
/// pooled path embedding, so that any further context costs only the heads.
///
/// Keying is *content addressing*, net first. An entry is found by the net's
/// content hash (RcNet::validate()'s hash: topology plus every element value
/// by raw double bit pattern) and holds the context hash
/// (features::content_hash: input slew, driver resistance/strength/function,
/// every SinkLoad) of the estimates it stores. Nothing is keyed by name, so
/// two identical nets share an entry, and any RC edit lands on a new entry;
/// stale entries are never addressed again and age out under eviction.
///
/// A lookup finds one of four things (CacheLookup):
///   - the net under this context: the stored estimates are returned, the
///     bytes of the model pass that produced them, re-tagged kCached;
///   - the net with its embedding: the caller runs only the model's heads
///     (nn::WireModel::forward_heads) from the stored pooled [P, d] floats
///     and the net's own raw path columns (kElmoreDelay, kD2mDelay,
///     kImpulseSpread), under path features built from the new context;
///   - the net under another context without an embedding: the caller runs
///     the full pass and hands its embedding to insert();
///   - nothing.
/// Both hit kinds are bitwise identical to recomputation: the driver context
/// enters GNNTrans only through the path features (paper Table I), so the
/// pooled embedding is a pure function of the net, and the heads-only pass
/// runs the same kernels on the same floats as the full one.
///
/// Embeddings are stored only from a net's second context. A net served once
/// (a batch of fresh nets) keeps an entry of estimates alone; a net retimed
/// under new slews (an ECO loop) pays d + 3 floats per path once. Each insert
/// replaces the entry's context and estimates with the latest model-served
/// ones. Only model-served results are cached; fallback and failed nets
/// always re-run the ladder.
///
/// Concurrency: entries hash-partition by net across cache-line-padded
/// shards, each with its own mutex, so concurrent lookups from a thread pool
/// contend only within a shard. Capacity is byte-bounded per shard; over
/// budget the shard evicts by CLOCK second-chance (a ref bit set on hit buys
/// one sweep of grace). gnntrans_cache_* metrics and a flight-recorder event
/// on eviction pressure make the cache's behavior observable in production.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/estimator.hpp"

namespace gnntrans::core {

/// 128-bit content key: the finalized net-content and context hashes side by
/// side. Entries are found by the net half; the context half says whether
/// the stored estimates answer the lookup.
struct CacheKey {
  std::uint64_t net = 0;  ///< RcNet::validate() content hash
  std::uint64_t ctx = 0;  ///< features::content_hash(NetContext)
};

/// What a heads-only pass needs of a net besides its context.
struct NetEmbedding {
  std::vector<float> pooled;       ///< [P, d] pooled path embeddings (Eq. 4)
  /// [P, features::kNetPathFeatureCount] raw path-feature columns that
  /// depend only on the net.
  std::vector<float> net_columns;
};

/// What EstimateCache::lookup found for a key.
enum class CacheLookup : std::uint8_t {
  kMiss,          ///< the net is not stored
  kOtherContext,  ///< stored under another context, without an embedding
  kEmbedding,     ///< stored with its embedding: run the heads from it
  kHit,           ///< stored under this context: the estimates are returned
};

struct EstimateCacheConfig {
  /// Total byte budget across all shards (approximate resident size of the
  /// stored estimates and embeddings plus per-entry bookkeeping).
  std::size_t capacity_bytes = 64ull << 20;  // 64 MiB
  /// Shard count; rounded up to a power of two, at least 1.
  std::size_t shards = 16;
};

/// Cumulative counters plus residency.
struct EstimateCacheStats {
  std::uint64_t hits = 0;    ///< lookups answered by a copy or the heads
  std::uint64_t reused = 0;  ///< of the hits, those handed an embedding
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t inserted_bytes = 0;  ///< cumulative bytes ever inserted
  std::uint64_t resident_bytes = 0;
  std::uint64_t entries = 0;

  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

class EstimateCache {
 public:
  explicit EstimateCache(EstimateCacheConfig config = {});
  ~EstimateCache();
  EstimateCache(const EstimateCache&) = delete;
  EstimateCache& operator=(const EstimateCache&) = delete;

  /// Combines the two finalized content hashes into a key.
  [[nodiscard]] static CacheKey make_key(std::uint64_t net_content_hash,
                                         std::uint64_t context_hash) noexcept {
    return CacheKey{net_content_hash, context_hash};
  }

  /// Exact lookup: on a hit (the net stored under key.ctx), overwrites \p out
  /// with the stored estimates (provenance already kCached) and refreshes the
  /// entry's second-chance bit. \p out is untouched on a miss.
  [[nodiscard]] bool lookup(const CacheKey& key,
                            std::vector<PathEstimate>* out);

  /// Net-first lookup. kHit fills \p out as the exact lookup does; kEmbedding
  /// fills \p embedding and counts a hit and a reuse. kMiss and kOtherContext
  /// count a miss and touch neither.
  [[nodiscard]] CacheLookup lookup(const CacheKey& key,
                                   std::vector<PathEstimate>* out,
                                   NetEmbedding* embedding);

  /// Stores a copy of \p paths re-tagged kCached as key.net's estimates
  /// under key.ctx, replacing the net's previous context and estimates. A
  /// non-empty \p embedding is stored with them; an empty one keeps the
  /// net's stored embedding, if any. CLOCK victims are evicted first if the
  /// shard is over its byte budget; an entry larger than a whole shard's
  /// budget is dropped rather than thrashing the shard empty. An insert that
  /// would change nothing (a racing insert of the same content) only
  /// refreshes the entry's second-chance bit.
  void insert(const CacheKey& key, const std::vector<PathEstimate>& paths,
              NetEmbedding embedding = {});

  /// Counters are exact; residency is read from two atomics kept under the
  /// shard locks, so no shard is locked here.
  [[nodiscard]] EstimateCacheStats stats() const;

  /// Drops every entry (counters are kept — they are cumulative).
  void clear();

  [[nodiscard]] const EstimateCacheConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shard_mask_ + 1;
  }
  /// Shard a key routes to, by its net half (exposed so tests can hammer one
  /// shard).
  [[nodiscard]] std::size_t shard_index(const CacheKey& key) const noexcept;

 private:
  struct Shard;

  EstimateCacheConfig config_;
  std::size_t shard_mask_ = 0;    ///< shard_count - 1 (power of two)
  std::size_t shard_budget_ = 0;  ///< capacity_bytes / shard_count
  std::unique_ptr<Shard[]> shards_;

  // Cumulative counters (relaxed; exact because every op increments once).
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> reused_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> insertions_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> inserted_bytes_{0};
  // Residency, changed under the lock of the shard whose entries change.
  std::atomic<std::uint64_t> resident_bytes_{0};
  std::atomic<std::uint64_t> entries_{0};
};

}  // namespace gnntrans::core
