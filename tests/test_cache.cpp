// Tests for the content-addressed estimate cache: key derivation (hash
// sensitivity to every element value, name exclusion), the sharded CLOCK
// store itself (roundtrip, second-chance, deterministic byte-bounded
// eviction, single-shard thread hammer), and its integration with the
// serving path (bitwise-identical hits across cache on/off and thread
// counts, edit invalidation, fallback-never-cached, misaligned-context
// rejection before the key is even formed).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include "cell/library.hpp"
#include "core/estimate_cache.hpp"
#include "core/estimator.hpp"
#include "core/fault_injector.hpp"
#include "core/telemetry/telemetry.hpp"
#include "features/dataset.hpp"
#include "netlist/generate.hpp"
#include "netlist/sta.hpp"
#include "rcnet/generate.hpp"

namespace {

using namespace gnntrans;
using core::CacheKey;
using core::EstimateCache;
using core::EstimateCacheConfig;
using core::EstimateProvenance;
using core::PathEstimate;

// Deterministic synthetic estimates: the value pattern is a pure function of
// \p tag, so hammer threads can verify a hit's bytes without shared state.
std::vector<PathEstimate> make_paths(std::uint64_t tag, std::size_t count) {
  std::vector<PathEstimate> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    out[i].sink = static_cast<rcnet::NodeId>(tag * 7 + i);
    out[i].slew = 1e-10 + static_cast<double>(tag) * 1e-12 +
                  static_cast<double>(i) * 1e-13;
    out[i].delay = 5e-12 + static_cast<double>(tag) * 1e-13;
    out[i].provenance = EstimateProvenance::kModel;
  }
  return out;
}

void expect_same_values(const std::vector<PathEstimate>& got,
                        const std::vector<PathEstimate>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].sink, want[i].sink);
    EXPECT_EQ(got[i].slew, want[i].slew);    // bitwise (no tolerance)
    EXPECT_EQ(got[i].delay, want[i].delay);  // bitwise (no tolerance)
  }
}

// Bytes one single-path entry charges against the shard budget, measured
// rather than hard-coded so the bookkeeping constant can evolve.
std::uint64_t one_path_entry_bytes() {
  EstimateCache probe(EstimateCacheConfig{.capacity_bytes = 1 << 20,
                                          .shards = 1});
  probe.insert(EstimateCache::make_key(1, 1), make_paths(1, 1));
  return probe.stats().inserted_bytes;
}

TEST(CacheUnit, MissInsertHitRoundtripTagsCached) {
  EstimateCache cache(EstimateCacheConfig{.capacity_bytes = 1 << 20,
                                          .shards = 4});
  const CacheKey key = EstimateCache::make_key(0xfeedULL, 0xbeefULL);
  const auto paths = make_paths(3, 4);

  std::vector<PathEstimate> out;
  EXPECT_FALSE(cache.lookup(key, &out));
  EXPECT_TRUE(out.empty());  // untouched on miss

  cache.insert(key, paths);
  ASSERT_TRUE(cache.lookup(key, &out));
  expect_same_values(out, paths);
  for (const PathEstimate& pe : out)
    EXPECT_EQ(pe.provenance, EstimateProvenance::kCached);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.resident_bytes, 0u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(CacheUnit, OversizedEntryIsDroppedNotThrashed) {
  // Budget is far smaller than the entry: the insert must be refused instead
  // of evicting the shard empty and still failing to fit.
  EstimateCache cache(EstimateCacheConfig{.capacity_bytes = 256, .shards = 1});
  const CacheKey small = EstimateCache::make_key(1, 1);
  cache.insert(small, make_paths(1, 1));
  ASSERT_EQ(cache.stats().entries, 1u);

  cache.insert(EstimateCache::make_key(2, 2), make_paths(2, 4096));
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);  // small entry undisturbed
  EXPECT_EQ(stats.insertions, 1u);
  std::vector<PathEstimate> out;
  EXPECT_TRUE(cache.lookup(small, &out));
}

TEST(CacheUnit, ClearDropsEntriesKeepsCumulativeCounters) {
  EstimateCache cache(EstimateCacheConfig{.capacity_bytes = 1 << 20,
                                          .shards = 2});
  const CacheKey key = EstimateCache::make_key(7, 9);
  cache.insert(key, make_paths(1, 2));
  std::vector<PathEstimate> out;
  ASSERT_TRUE(cache.lookup(key, &out));

  cache.clear();
  auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.resident_bytes, 0u);
  EXPECT_EQ(stats.hits, 1u);        // cumulative counters survive clear()
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_FALSE(cache.lookup(key, &out));
}

TEST(CacheUnit, SecondChanceSparesRecentlyHitEntries) {
  const std::uint64_t entry = one_path_entry_bytes();
  // Room for exactly two entries in the single shard.
  EstimateCache cache(EstimateCacheConfig{
      .capacity_bytes = static_cast<std::size_t>(2 * entry), .shards = 1});
  const CacheKey a = EstimateCache::make_key(1, 1);
  const CacheKey b = EstimateCache::make_key(2, 2);
  const CacheKey c = EstimateCache::make_key(3, 3);
  cache.insert(a, make_paths(1, 1));
  cache.insert(b, make_paths(2, 1));

  // Touch A: its ref bit buys one sweep of grace, so the CLOCK hand passes
  // over it and evicts B even though A is older.
  std::vector<PathEstimate> out;
  ASSERT_TRUE(cache.lookup(a, &out));
  cache.insert(c, make_paths(3, 1));

  EXPECT_TRUE(cache.lookup(a, &out));
  EXPECT_FALSE(cache.lookup(b, &out));
  EXPECT_TRUE(cache.lookup(c, &out));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(CacheUnit, EvictionUnderPressureIsDeterministicAndByteBounded) {
  const std::uint64_t entry = one_path_entry_bytes();
  const EstimateCacheConfig cfg{
      .capacity_bytes = static_cast<std::size_t>(6 * entry), .shards = 1};
  constexpr std::uint64_t kInserts = 20;

  const auto run = [&](EstimateCache& cache) {
    for (std::uint64_t i = 0; i < kInserts; ++i)
      cache.insert(EstimateCache::make_key(i, i ^ 0x5aULL), make_paths(i, 1));
  };
  EstimateCache first(cfg), second(cfg);
  run(first);
  run(second);

  // Same insert sequence, same CLOCK decisions: identical stats and an
  // identical survivor set (with no lookups the sweep degenerates to FIFO,
  // so exactly the newest six entries remain).
  const auto s1 = first.stats();
  const auto s2 = second.stats();
  EXPECT_EQ(s1.entries, 6u);
  EXPECT_EQ(s1.evictions, kInserts - 6);
  EXPECT_EQ(s1.entries, s2.entries);
  EXPECT_EQ(s1.evictions, s2.evictions);
  EXPECT_EQ(s1.resident_bytes, s2.resident_bytes);
  EXPECT_LE(s1.resident_bytes, cfg.capacity_bytes);

  std::vector<PathEstimate> out;
  for (std::uint64_t i = 0; i < kInserts; ++i) {
    const CacheKey key = EstimateCache::make_key(i, i ^ 0x5aULL);
    const bool hit1 = first.lookup(key, &out);
    if (hit1) expect_same_values(out, make_paths(i, 1));
    EXPECT_EQ(hit1, i >= kInserts - 6) << "key " << i;
    EXPECT_EQ(second.lookup(key, &out), hit1) << "key " << i;
  }
}

TEST(CacheUnit, EmbeddingIsStoredFromTheSecondContext) {
  EstimateCache cache(EstimateCacheConfig{.capacity_bytes = 1 << 20,
                                          .shards = 2});
  const auto paths = make_paths(4, 2);
  core::NetEmbedding embedding;
  embedding.pooled.assign(2 * 8, 0.5f);
  embedding.net_columns = {1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f};
  std::vector<PathEstimate> out;
  core::NetEmbedding got;

  // First context: a plain entry, the size a net served once keeps.
  cache.insert(EstimateCache::make_key(42, 1), paths);
  const std::uint64_t plain = cache.stats().resident_bytes;
  EXPECT_EQ(cache.lookup(EstimateCache::make_key(42, 2), &out, &got),
            core::CacheLookup::kOtherContext);
  EXPECT_TRUE(out.empty() && got.pooled.empty());

  // Second context: the entry takes it over and grows by the embedding.
  cache.insert(EstimateCache::make_key(42, 2), paths, embedding);
  auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.resident_bytes, plain + (16 + 6) * sizeof(float));
  EXPECT_FALSE(cache.lookup(EstimateCache::make_key(42, 1), &out));
  ASSERT_EQ(cache.lookup(EstimateCache::make_key(42, 3), &out, &got),
            core::CacheLookup::kEmbedding);
  EXPECT_EQ(got.pooled, embedding.pooled);
  EXPECT_EQ(got.net_columns, embedding.net_columns);
  EXPECT_TRUE(out.empty());

  // A third context replaces the estimates and keeps the embedding.
  cache.insert(EstimateCache::make_key(42, 3), make_paths(5, 2));
  ASSERT_EQ(cache.lookup(EstimateCache::make_key(42, 3), &out, &got),
            core::CacheLookup::kHit);
  expect_same_values(out, make_paths(5, 2));
  stats = cache.stats();
  EXPECT_EQ(stats.resident_bytes, plain + (16 + 6) * sizeof(float));
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.reused, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.insertions, 3u);
}

TEST(CacheConcurrency, SingleShardHammerKeepsExactCounters) {
  // Force contention: pick keys that all route to shard 0 of a multi-shard
  // cache (shard_index is exposed exactly for this), then hammer them from
  // several threads. TSan (cache label in the tsan preset) proves the
  // per-shard mutex covers every slot/index/residency access.
  EstimateCache cache(EstimateCacheConfig{.capacity_bytes = 4 << 20,
                                          .shards = 4});
  ASSERT_EQ(cache.shard_count(), 4u);
  std::vector<CacheKey> keys;
  for (std::uint64_t seed = 1; keys.size() < 16; ++seed) {
    const CacheKey key = EstimateCache::make_key(seed, seed * 2654435761ULL);
    if (cache.shard_index(key) == 0) keys.push_back(key);
  }

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kOpsPerThread = 2000;
  std::vector<std::thread> workers;
  std::atomic<std::size_t> value_mismatches{0};
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::mt19937_64 rng(1000 + t);
      std::vector<PathEstimate> out;
      for (std::size_t op = 0; op < kOpsPerThread; ++op) {
        const std::size_t k = rng() % keys.size();
        const auto want = make_paths(k, 1 + k % 3);
        if (cache.lookup(keys[k], &out)) {
          if (out.size() != want.size()) {
            ++value_mismatches;
            continue;
          }
          for (std::size_t i = 0; i < out.size(); ++i)
            if (out[i].slew != want[i].slew || out[i].delay != want[i].delay ||
                out[i].provenance != EstimateProvenance::kCached)
              ++value_mismatches;
        } else {
          cache.insert(keys[k], want);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(value_mismatches.load(), 0u);
  const auto stats = cache.stats();
  // Every op performed exactly one lookup; the counters must account for all
  // of them with no drops or double counts.
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kOpsPerThread);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_LE(stats.entries, keys.size());
  // Racing inserts of one key keep a single copy.
  std::vector<PathEstimate> out;
  for (std::size_t k = 0; k < keys.size(); ++k)
    if (cache.lookup(keys[k], &out))
      expect_same_values(out, make_paths(k, 1 + k % 3));
}

// --- key derivation -------------------------------------------------------

rcnet::RcNet tiny_net() {
  rcnet::RcNet net;
  net.name = "tiny";
  net.source = 0;
  net.sinks = {2, 3};
  net.ground_cap = {1e-15, 2e-15, 3e-15, 4e-15};
  net.resistors = {{0, 1, 100.0}, {1, 2, 150.0}, {1, 3, 200.0}};
  net.couplings = {{2, 5e-16, 42}};
  return net;
}

std::uint64_t net_hash(const rcnet::RcNet& net) {
  std::uint64_t hash = 0;
  EXPECT_TRUE(net.validate(&hash).empty());
  return hash;
}

TEST(ContentHash, NetHashIgnoresNameAndTracksEveryElement) {
  const rcnet::RcNet base = tiny_net();
  const std::uint64_t h0 = net_hash(base);

  rcnet::RcNet renamed = base;
  renamed.name = "an_entirely_different_name";
  EXPECT_EQ(net_hash(renamed), h0) << "name must be excluded (content address)";

  // A one-ULP resistance edit must change the key: hits are bitwise
  // identical, so the hash has to distinguish inputs at full precision.
  rcnet::RcNet r = base;
  r.resistors[1].ohms = std::nextafter(r.resistors[1].ohms, 1e9);
  EXPECT_NE(net_hash(r), h0);

  rcnet::RcNet c = base;
  c.ground_cap[2] = std::nextafter(c.ground_cap[2], 1.0);
  EXPECT_NE(net_hash(c), h0);

  rcnet::RcNet k = base;
  k.couplings[0].farads = std::nextafter(k.couplings[0].farads, 1.0);
  EXPECT_NE(net_hash(k), h0);

  rcnet::RcNet seed = base;
  seed.couplings[0].aggressor_seed = 43;
  EXPECT_NE(net_hash(seed), h0);

  // Topology: same element values, different wiring.
  rcnet::RcNet topo = base;
  topo.resistors[1] = {0, 2, 150.0};
  EXPECT_NE(net_hash(topo), h0);
}

TEST(ContentHash, ContextHashTracksEveryField) {
  features::NetContext base;
  base.input_slew = 4e-11;
  base.driver_resistance = 180.0;
  base.driver_strength = 2;
  base.driver_function = 1;
  base.loads = {{1, 0, 1e-15}, {2, 1, 2e-15}};
  const std::uint64_t h0 = features::content_hash(base);

  features::NetContext slew = base;
  slew.input_slew = std::nextafter(slew.input_slew, 1.0);
  EXPECT_NE(features::content_hash(slew), h0);

  features::NetContext res = base;
  res.driver_resistance = std::nextafter(res.driver_resistance, 1e9);
  EXPECT_NE(features::content_hash(res), h0);

  features::NetContext drv = base;
  drv.driver_strength = 3;
  EXPECT_NE(features::content_hash(drv), h0);

  features::NetContext fn = base;
  fn.driver_function = 2;
  EXPECT_NE(features::content_hash(fn), h0);

  features::NetContext cap = base;
  cap.loads[1].input_cap = std::nextafter(cap.loads[1].input_cap, 1.0);
  EXPECT_NE(features::content_hash(cap), h0);

  features::NetContext cell = base;
  cell.loads[0].drive_strength = 4;
  EXPECT_NE(features::content_hash(cell), h0);

  features::NetContext fewer = base;
  fewer.loads.pop_back();
  EXPECT_NE(features::content_hash(fewer), h0);
}

// --- serving integration --------------------------------------------------

class CacheServingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    library_ = std::make_unique<cell::CellLibrary>(
        cell::CellLibrary::make_default());

    features::WireDatasetConfig dcfg;
    dcfg.net_count = 16;
    dcfg.seed = 2027;
    dcfg.sim_config.steps = 200;
    const auto records = features::generate_wire_records(dcfg, *library_);

    core::WireTimingEstimator::Options opt;
    opt.model.hidden_dim = 8;
    opt.model.gnn_layers = 2;
    opt.model.transformer_layers = 1;
    opt.model.heads = 2;
    opt.model.mlp_hidden = 16;
    opt.model.seed = 11;
    opt.train.epochs = 2;
    estimator_ = std::make_unique<core::WireTimingEstimator>(
        core::WireTimingEstimator::train(records, opt));

    std::mt19937_64 rng(123);
    rcnet::NetGenConfig ncfg;
    while (nets_.size() < 12) {
      rcnet::RcNet net =
          rcnet::generate_net(ncfg, rng, "cache" + std::to_string(nets_.size()));
      if (!net.validate().empty()) continue;
      nets_.push_back(std::move(net));
    }
    for (const rcnet::RcNet& net : nets_)
      contexts_.push_back(features::random_context(*library_, net, rng));
  }

  static void TearDownTestSuite() {
    estimator_.reset();
    library_.reset();
    nets_.clear();
    contexts_.clear();
  }

  static std::vector<core::NetBatchItem> items() {
    std::vector<core::NetBatchItem> out(nets_.size());
    for (std::size_t i = 0; i < nets_.size(); ++i)
      out[i] = {&nets_[i], &contexts_[i]};
    return out;
  }

  static void expect_identity(const core::InferenceStats& stats) {
    EXPECT_EQ(stats.model_nets + stats.fallback_nets + stats.failed_nets +
                  stats.cached_nets,
              stats.nets);
  }

  static std::unique_ptr<cell::CellLibrary> library_;
  static std::unique_ptr<core::WireTimingEstimator> estimator_;
  static std::vector<rcnet::RcNet> nets_;
  static std::vector<features::NetContext> contexts_;
};

std::unique_ptr<cell::CellLibrary> CacheServingTest::library_;
std::unique_ptr<core::WireTimingEstimator> CacheServingTest::estimator_;
std::vector<rcnet::RcNet> CacheServingTest::nets_;
std::vector<features::NetContext> CacheServingTest::contexts_;

TEST_F(CacheServingTest, HitsAreBitwiseIdenticalAcrossCacheAndThreadCounts) {
  const auto batch = items();
  // Reference: cache off, serial. The cache must never perturb these bytes.
  const auto reference = estimator_->estimate_batch(batch, {.threads = 1});

  EstimateCache cache;
  core::BatchOptions opts;
  opts.threads = 1;
  opts.cache = &cache;
  std::vector<core::NetOutcome> outcomes;
  opts.outcomes = &outcomes;

  // Cold pass: every net misses, runs the model, and is inserted.
  core::InferenceStats cold;
  const auto first = estimator_->estimate_batch(batch, opts, &cold);
  ASSERT_EQ(first.size(), reference.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    expect_same_values(first[i], reference[i]);
    EXPECT_EQ(outcomes[i].provenance, EstimateProvenance::kModel);
  }
  expect_identity(cold);
  EXPECT_EQ(cold.cached_nets, 0u);
  EXPECT_EQ(cache.stats().misses, nets_.size());
  EXPECT_EQ(cache.stats().insertions, cold.model_nets);

  // Warm passes at several thread counts: all hits, values bitwise equal to
  // the uncached reference, provenance kCached on every path.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    opts.threads = threads;
    core::InferenceStats warm;
    const auto hit = estimator_->estimate_batch(batch, opts, &warm);
    ASSERT_EQ(hit.size(), reference.size());
    for (std::size_t i = 0; i < hit.size(); ++i) {
      expect_same_values(hit[i], reference[i]);
      EXPECT_EQ(outcomes[i].provenance, EstimateProvenance::kCached);
      EXPECT_EQ(outcomes[i].error, core::ErrorCode::kOk);
      for (const PathEstimate& pe : hit[i])
        EXPECT_EQ(pe.provenance, EstimateProvenance::kCached);
    }
    expect_identity(warm);
    EXPECT_EQ(warm.cached_nets, nets_.size());
    EXPECT_EQ(warm.model_nets, 0u);
    // kCached is a success, not a degradation.
    EXPECT_DOUBLE_EQ(warm.degraded_fraction(), 0.0);
  }
  EXPECT_EQ(cache.stats().hits, 2 * nets_.size());
}

TEST_F(CacheServingTest, ElementEditInvalidatesOnlyTheEditedNet) {
  EstimateCache cache;
  core::BatchOptions opts;
  opts.threads = 1;
  opts.cache = &cache;
  std::vector<core::NetOutcome> outcomes;
  opts.outcomes = &outcomes;

  auto batch = items();
  (void)estimator_->estimate_batch(batch, opts);  // warm every entry

  // An ECO-style parasitic edit on one net: content addressing invalidates
  // it with no explicit invalidation call — the edited bytes hash to a new
  // key, the stale entry is simply never addressed again.
  rcnet::RcNet edited = nets_[5];
  edited.resistors[0].ohms =
      std::nextafter(edited.resistors[0].ohms, 1e9);
  batch[5].net = &edited;

  const auto before = cache.stats();
  core::InferenceStats stats;
  (void)estimator_->estimate_batch(batch, opts, &stats);
  const auto after = cache.stats();

  EXPECT_EQ(after.hits - before.hits, nets_.size() - 1);
  EXPECT_EQ(after.misses - before.misses, 1u);
  EXPECT_EQ(outcomes[5].provenance, EstimateProvenance::kModel);
  EXPECT_EQ(stats.cached_nets, nets_.size() - 1);
  EXPECT_EQ(stats.model_nets, 1u);
  expect_identity(stats);
}

TEST_F(CacheServingTest, FallbackResultsAreNeverCached) {
  // Every forward pass faults: the ladder degrades to the analytic baseline.
  // Degraded results must not be cached — a transient fault must re-run the
  // ladder next time, not be replayed forever from the cache.
  core::FaultInjector::Config fcfg;
  fcfg.probability = 1.0;
  fcfg.seed = 17;
  fcfg.site_mask = core::site_bit(core::FaultSite::kForward);
  core::FaultInjector::global().configure(fcfg);

  EstimateCache cache;
  core::BatchOptions opts;
  opts.threads = 1;
  opts.cache = &cache;
  std::vector<core::NetOutcome> outcomes;
  opts.outcomes = &outcomes;
  const auto batch = items();

  core::InferenceStats degraded;
  (void)estimator_->estimate_batch(batch, opts, &degraded);
  EXPECT_EQ(degraded.fallback_nets, nets_.size());
  EXPECT_EQ(cache.stats().insertions, 0u);
  EXPECT_EQ(cache.stats().entries, 0u);
  expect_identity(degraded);

  // Fault cleared: the same keys now miss (nothing stale was stored), run
  // the model, and populate the cache.
  core::FaultInjector::global().disarm();
  core::InferenceStats healthy;
  (void)estimator_->estimate_batch(batch, opts, &healthy);
  EXPECT_EQ(healthy.model_nets, nets_.size());
  EXPECT_EQ(cache.stats().insertions, nets_.size());
  expect_identity(healthy);
}

TEST_F(CacheServingTest, MisalignedLoadsRejectedBeforeKeyFormation) {
  EstimateCache cache;
  core::BatchOptions opts;
  opts.threads = 1;
  opts.cache = &cache;
  std::vector<core::NetOutcome> outcomes;
  opts.outcomes = &outcomes;

  // A context whose loads vector disagrees with the sink list is a caller
  // bug: typed kInvalidArgument, no fallback (the analytic pass would need
  // the same per-sink loads), and — the cache-specific hazard — no key is
  // ever formed, so the bogus pairing can neither hit nor poison an entry.
  features::NetContext short_ctx = contexts_[0];
  ASSERT_FALSE(short_ctx.loads.empty());
  short_ctx.loads.pop_back();
  const std::vector<core::NetBatchItem> bad = {{&nets_[0], &short_ctx}};

  core::InferenceStats stats;
  const auto results = estimator_->estimate_batch(bad, opts, &stats);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(outcomes[0].provenance, EstimateProvenance::kFailed);
  EXPECT_EQ(outcomes[0].error, core::ErrorCode::kInvalidArgument);
  EXPECT_EQ(stats.failed_nets, 1u);
  EXPECT_EQ(stats.fallback_nets, 0u);
  expect_identity(stats);
  const auto cstats = cache.stats();
  EXPECT_EQ(cstats.hits + cstats.misses, 0u);  // no lookup: no key existed
  EXPECT_EQ(cstats.insertions, 0u);
}

TEST_F(CacheServingTest, WireSourceEcoEditRetimesOnlyChangedContent) {
  netlist::DesignGenConfig cfg;
  cfg.seed = 21;
  cfg.levels = 3;
  cfg.cells_per_level = 4;
  cfg.startpoints = 2;
  netlist::Design design =
      netlist::generate_design(cfg, *library_, "cache_sta");

  core::EstimatorWireSource plain(*estimator_, design, *library_, 1);
  const netlist::StaResult r_plain = netlist::run_sta(design, *library_, plain);

  core::EstimatorWireSource cached(*estimator_, design, *library_, 1);
  cached.enable_cache({});
  ASSERT_NE(cached.cache(), nullptr);
  const netlist::StaResult r_cold = netlist::run_sta(design, *library_, cached);
  const auto cold = cached.cache()->stats();
  EXPECT_EQ(cold.hits, 0u);
  const netlist::StaResult r_warm = netlist::run_sta(design, *library_, cached);
  const auto warm = cached.cache()->stats();
  EXPECT_EQ(warm.hits - cold.hits, design.nets.size());

  // Cached STA is bitwise identical to the uncached source, cold and warm.
  ASSERT_EQ(r_plain.arrival.size(), r_cold.arrival.size());
  for (std::size_t v = 0; v < r_plain.arrival.size(); ++v) {
    EXPECT_EQ(r_plain.arrival[v], r_cold.arrival[v]) << "instance " << v;
    EXPECT_EQ(r_plain.arrival[v], r_warm.arrival[v]) << "instance " << v;
    EXPECT_EQ(r_plain.slew[v], r_warm.slew[v]) << "instance " << v;
  }
  EXPECT_EQ(cached.stats().cached_nets, design.nets.size());

  // ECO edit: perturb one net's parasitics in place. The next full run hits
  // on everything except the edited net — content addressing is the
  // invalidation.
  ASSERT_FALSE(design.nets.empty());
  ASSERT_FALSE(design.nets[0].rc.resistors.empty());
  design.nets[0].rc.resistors[0].ohms =
      std::nextafter(design.nets[0].rc.resistors[0].ohms, 1e9);
  (void)netlist::run_sta(design, *library_, cached);
  const auto eco = cached.cache()->stats();
  EXPECT_EQ(eco.hits - warm.hits, design.nets.size() - 1);
  EXPECT_EQ(eco.misses - warm.misses, 1u);
}

// A batch of cache hits records no featurize/forward spans. Tracing must
// still run at exactly its configured rates afterwards: the span sampler at
// 1-in-sample_every, head sampling at head_sample_rate. Tiny nets keep each
// hit to a few microseconds, the traffic on which a span-cost controller
// would throttle tracing.
TEST_F(CacheServingTest, TracingRunsAtItsConfiguredRateOnCacheHits) {
  std::mt19937_64 rng(321);
  rcnet::NetGenConfig ncfg;
  ncfg.min_nodes = 3;
  ncfg.max_nodes = 4;
  ncfg.max_sinks = 1;
  ncfg.non_tree_fraction = 0.0;
  std::vector<rcnet::RcNet> nets;
  while (nets.size() < 64) {
    rcnet::RcNet net =
        rcnet::generate_net(ncfg, rng, "tiny" + std::to_string(nets.size()));
    if (net.validate().empty()) nets.push_back(std::move(net));
  }
  std::vector<features::NetContext> contexts;
  for (const rcnet::RcNet& net : nets)
    contexts.push_back(features::random_context(*library_, net, rng));
  std::vector<core::NetBatchItem> batch(nets.size());
  for (std::size_t i = 0; i < nets.size(); ++i)
    batch[i] = {&nets[i], &contexts[i]};

  EstimateCache cache;
  core::BatchOptions opts;
  opts.threads = 1;
  opts.cache = &cache;
  (void)estimator_->estimate_batch(batch, opts);  // warm every entry

  telemetry::TraceRecorder& recorder = telemetry::TraceRecorder::global();
  recorder.configure({.sample_every = 2, .head_sample_rate = 0.25});
  recorder.enable();
  // Let the self-timing probe (every 64th record) measure a span cost.
  std::thread([&] {
    for (int i = 0; i < 64; ++i) recorder.record("probe", "test", 0, 100);
  }).join();
  constexpr std::uint64_t kIds = 1024;
  std::vector<char> configured(kIds);
  for (std::uint64_t id = 0; id < kIds; ++id)
    configured[id] = recorder.head_sample(id).sampled ? 1 : 0;

  core::InferenceStats stats;
  (void)estimator_->estimate_batch(batch, opts, &stats);
  EXPECT_EQ(stats.cached_nets, nets.size());

  // Fresh thread: its countdown starts at 0, so exactly every 2nd call
  // (starting with the first) samples.
  std::size_t sampled = 0;
  std::thread([&] {
    for (int i = 0; i < 400; ++i)
      if (recorder.should_sample()) ++sampled;
  }).join();
  EXPECT_EQ(sampled, 200u);
  for (std::uint64_t id = 0; id < kIds; ++id)
    EXPECT_EQ(recorder.head_sample(id).sampled ? 1 : 0, configured[id])
        << "request " << id;

  recorder.disable();
  recorder.configure(telemetry::TraceConfig{});
  recorder.clear();
}

// One batch holds every net under four contexts, twice over, on four
// workers, twice: nets met under a second context store their embedding and
// later contexts run only the heads, in whatever order the workers race.
// Every result must equal a one-thread pass without a cache, bitwise.
TEST_F(CacheServingTest, ContextOnlyMissesRunTheHeadsBitwiseOnFourWorkers) {
  std::mt19937_64 rng(77);
  std::vector<std::vector<features::NetContext>> contexts(4);
  for (auto& ctx : contexts)
    for (const rcnet::RcNet& net : nets_)
      ctx.push_back(features::random_context(*library_, net, rng));
  std::vector<core::NetBatchItem> batch;
  for (int copy = 0; copy < 2; ++copy)
    for (const auto& ctx : contexts)
      for (std::size_t i = 0; i < nets_.size(); ++i)
        batch.push_back({&nets_[i], &ctx[i]});
  const auto reference = estimator_->estimate_batch(batch, {.threads = 1});

  EstimateCache cache;
  core::BatchOptions opts;
  opts.threads = 4;
  opts.cache = &cache;
  for (int pass = 0; pass < 2; ++pass) {
    core::InferenceStats stats;
    const auto got = estimator_->estimate_batch(batch, opts, &stats);
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      expect_same_values(got[i], reference[i]);
    expect_identity(stats);
    EXPECT_EQ(stats.model_nets + stats.cached_nets, batch.size());
  }
  const auto stats = cache.stats();
  EXPECT_GT(stats.reused, 0u);
  EXPECT_LE(stats.reused, stats.hits);
  EXPECT_EQ(stats.hits + stats.misses, 2 * batch.size());
  EXPECT_EQ(stats.entries, nets_.size());
}

// NetOutcome's stages name the pass that served the net: a model pass times
// features.extract, features.make_sample and nn.forward; a heads-only pass
// times nn.forward_heads alone; a stored-bytes hit times none of them.
TEST_F(CacheServingTest, OutcomeStagesNameTheirPass) {
  using telemetry::Stage;
  EstimateCache cache;
  std::vector<core::NetOutcome> outcomes;
  core::BatchOptions opts;
  opts.threads = 1;
  opts.cache = &cache;
  opts.outcomes = &outcomes;

  // The first context runs the model, the second stores the embedding, the
  // third runs only the heads; the third again hits the stored bytes.
  std::mt19937_64 rng(91);
  std::vector<std::vector<features::NetContext>> contexts(3);
  for (auto& ctx : contexts)
    for (const rcnet::RcNet& net : nets_)
      ctx.push_back(features::random_context(*library_, net, rng));
  for (int k = 0; k < 4; ++k) {
    const auto& ctx = contexts[std::min(k, 2)];
    std::vector<core::NetBatchItem> batch(nets_.size());
    for (std::size_t i = 0; i < nets_.size(); ++i) batch[i] = {&nets_[i], &ctx[i]};
    (void)estimator_->estimate_batch(batch, opts);
    ASSERT_EQ(outcomes.size(), nets_.size());
    for (const core::NetOutcome& o : outcomes) {
      const telemetry::StageTimes& t = o.stages;
      EXPECT_GT(o.net_seconds, 0.0);
      EXPECT_EQ(t[Stage::kFallback], 0.0);
      if (k < 2) {
        ASSERT_EQ(o.provenance, core::EstimateProvenance::kModel);
        EXPECT_GT(t[Stage::kExtract], 0.0);
        EXPECT_GT(t[Stage::kMakeSample], 0.0);
        EXPECT_GT(t[Stage::kForward], 0.0);
        EXPECT_EQ(t[Stage::kForwardHeads], 0.0);
      } else {
        ASSERT_EQ(o.provenance, core::EstimateProvenance::kCached);
        EXPECT_EQ(t[Stage::kExtract], 0.0);
        EXPECT_EQ(t[Stage::kMakeSample], 0.0);
        EXPECT_EQ(t[Stage::kForward], 0.0);
        if (k == 2)
          EXPECT_GT(t[Stage::kForwardHeads], 0.0);
        else
          EXPECT_EQ(t[Stage::kForwardHeads], 0.0);
      }
    }
  }
  EXPECT_EQ(cache.stats().reused, nets_.size());
}

TEST_F(CacheServingTest, ReusedCounterIsExported) {
  EstimateCache cache;
  core::BatchOptions opts;
  opts.threads = 1;
  opts.cache = &cache;

  auto& registry = telemetry::MetricsRegistry::global();
  const telemetry::Counter hits = registry.counter("gnntrans_cache_hits_total");
  const telemetry::Counter reused =
      registry.counter("gnntrans_cache_reused_total");
  const std::uint64_t hits_before = hits.value();
  const std::uint64_t reused_before = reused.value();

  // The first context inserts, the second stores the embeddings, the third
  // runs only the heads: one reuse per net, each also a hit.
  std::mt19937_64 rng(55);
  for (int k = 0; k < 3; ++k) {
    std::vector<features::NetContext> ctx;
    for (const rcnet::RcNet& net : nets_)
      ctx.push_back(features::random_context(*library_, net, rng));
    std::vector<core::NetBatchItem> batch(nets_.size());
    for (std::size_t i = 0; i < nets_.size(); ++i) batch[i] = {&nets_[i], &ctx[i]};
    core::InferenceStats stats;
    (void)estimator_->estimate_batch(batch, opts, &stats);
    EXPECT_EQ(stats.cached_nets, k == 2 ? nets_.size() : 0u);
  }
  EXPECT_EQ(cache.stats().reused, nets_.size());
  EXPECT_EQ(cache.stats().hits, nets_.size());
  EXPECT_GE(reused.value() - reused_before, nets_.size());
  EXPECT_GE(hits.value() - hits_before, nets_.size());

  const std::string prom = registry.prometheus_text();
  EXPECT_NE(prom.find("gnntrans_cache_reused_total"), std::string::npos);
}

TEST_F(CacheServingTest, CacheMetricsAreExported) {
  EstimateCache cache;
  core::BatchOptions opts;
  opts.threads = 1;
  opts.cache = &cache;
  const auto batch = items();

  auto& registry = telemetry::MetricsRegistry::global();
  const telemetry::Counter hits = registry.counter("gnntrans_cache_hits_total");
  const telemetry::Counter misses =
      registry.counter("gnntrans_cache_misses_total");
  const std::uint64_t hits_before = hits.value();
  const std::uint64_t misses_before = misses.value();

  (void)estimator_->estimate_batch(batch, opts);
  (void)estimator_->estimate_batch(batch, opts);
  EXPECT_GE(misses.value() - misses_before, nets_.size());
  EXPECT_GE(hits.value() - hits_before, nets_.size());

  const std::string prom = registry.prometheus_text();
  EXPECT_NE(prom.find("gnntrans_cache_hits_total"), std::string::npos);
  EXPECT_NE(prom.find("gnntrans_cache_misses_total"), std::string::npos);
  EXPECT_NE(prom.find("gnntrans_cache_evictions_total"), std::string::npos);
  EXPECT_NE(prom.find("gnntrans_cache_resident_bytes"), std::string::npos);
  EXPECT_NE(prom.find("gnntrans_cache_entries"), std::string::npos);
}

}  // namespace
