// Tests for the model-quality observability layer: LogSketch bucket layout
// and quantiles, PSI math, the FeatureBaseline checkpoint block, deterministic
// shadow sampling (thread-count invariance), the overhead controller,
// bitwise non-intrusiveness of shadow scoring on the serving path, checkpoint
// v1/v2 compatibility with the typed unsupported-version error, and the
// synthetic-drift path that flips /readyz to 503.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cell/library.hpp"
#include "core/estimator.hpp"
#include "core/status.hpp"
#include "core/telemetry/telemetry.hpp"
#include "features/dataset.hpp"
#include "features/features.hpp"
#include "rcnet/generate.hpp"

using namespace gnntrans;
using namespace gnntrans::telemetry;

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON well-formedness checker (same shape as test_observability's: a
// full RFC 8259 parse with no values built).

class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  bool valid() {
    pos_ = 0;
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_];
        if (esc == 'u') {
          for (int i = 1; i <= 4; ++i)
            if (pos_ + i >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(text_[pos_ + i])))
              return false;
          pos_ += 4;
        } else if (std::string_view("\"\\/bfnrt").find(esc) ==
                   std::string_view::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }
  bool literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }
  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

/// One-shot HTTP GET against the obs server (server always closes).
struct HttpResponse {
  int status = 0;
  std::string body;
};

HttpResponse http_get(std::uint16_t port, const std::string& target) {
  HttpResponse resp;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return resp;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return resp;
  }
  const std::string request =
      "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  std::size_t off = 0;
  while (off < request.size()) {
    const ssize_t n = ::send(fd, request.data() + off, request.size() - off, 0);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  std::string raw;
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  if (raw.size() > 12 && raw.rfind("HTTP/1.1 ", 0) == 0)
    resp.status = std::atoi(raw.c_str() + 9);
  if (const std::size_t split = raw.find("\r\n\r\n"); split != std::string::npos)
    resp.body = raw.substr(split + 4);
  return resp;
}

/// Disarms the global monitor and drops any baseline, so tests stay isolated.
void disarm_quality() {
  QualityConfig off;
  off.shadow_rate = 0.0;
  QualityMonitor::global().configure(off);
  QualityMonitor::global().install_baseline(FeatureBaseline{});
}

// ---------------------------------------------------------------------------
// LogSketch

TEST(LogSketch, BucketLayoutIsSignAwareAndOrdered) {
  // Zero, subnormal-small, and NaN all land in the central zero bucket.
  EXPECT_EQ(LogSketch::bucket_of(0.0), LogSketch::kMagnitudeBuckets);
  EXPECT_EQ(LogSketch::bucket_of(1e-30), LogSketch::kMagnitudeBuckets);
  EXPECT_EQ(LogSketch::bucket_of(std::nan("")), LogSketch::kMagnitudeBuckets);

  // Ordering: more negative -> smaller index, more positive -> larger index.
  EXPECT_LT(LogSketch::bucket_of(-4.0), LogSketch::bucket_of(-1.0));
  EXPECT_LT(LogSketch::bucket_of(-1.0), LogSketch::bucket_of(0.0));
  EXPECT_LT(LogSketch::bucket_of(0.0), LogSketch::bucket_of(1.0));
  EXPECT_LT(LogSketch::bucket_of(1.0), LogSketch::bucket_of(4.0));

  // Mirror symmetry around the zero bucket.
  for (const double v : {1e-9, 0.37, 1.0, 3.0, 1e6}) {
    const std::size_t pos = LogSketch::bucket_of(v);
    const std::size_t neg = LogSketch::bucket_of(-v);
    EXPECT_EQ(pos - LogSketch::kMagnitudeBuckets,
              LogSketch::kMagnitudeBuckets - neg);
  }

  // Every in-ladder value lies inside its bucket's bounds (half-open on the
  // side away from zero for positives, toward zero for negatives); beyond
  // 2^kMaxExp values clamp to the outermost buckets instead.
  for (const double v : {-1e5, -3.0, -1.0, -0.1, 0.0, 0.1, 1.0, 3.0, 1e5}) {
    const std::size_t b = LogSketch::bucket_of(v);
    EXPECT_LE(LogSketch::bucket_lower(b), v) << v;
    EXPECT_LE(v, LogSketch::bucket_upper(b)) << v;
  }

  // Magnitudes beyond the ladder clamp to the outermost buckets.
  EXPECT_EQ(LogSketch::bucket_of(1e300), LogSketch::kBucketCount - 1);
  EXPECT_EQ(LogSketch::bucket_of(-1e300), 0u);
}

TEST(LogSketch, QuantileWalksOrderedBuckets) {
  LogSketch s;
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);  // empty

  for (int i = 0; i < 100; ++i) s.observe(1.5);
  const double p50 = s.quantile(0.5);
  EXPECT_GE(p50, 1.0);  // 1.5 lives in [1, 2)
  EXPECT_LE(p50, 2.0);

  // Mixed signs: with 50 at -100 and 50 at +100, the p1 is negative and the
  // p99 positive; quantiles are monotone in q.
  LogSketch mixed;
  for (int i = 0; i < 50; ++i) mixed.observe(-100.0);
  for (int i = 0; i < 50; ++i) mixed.observe(100.0);
  EXPECT_LT(mixed.quantile(0.01), 0.0);
  EXPECT_GT(mixed.quantile(0.99), 0.0);
  double prev = mixed.quantile(0.0);
  for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    const double v = mixed.quantile(q);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(LogSketch, MergeMatchesSingleStream) {
  LogSketch whole, a, b;
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> dist(-1e3, 1e3);
  for (int i = 0; i < 500; ++i) {
    const double v = dist(rng);
    whole.observe(v);
    (i % 2 == 0 ? a : b).observe(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_EQ(a.buckets(), whole.buckets());
  for (const double q : {0.05, 0.5, 0.95})
    EXPECT_DOUBLE_EQ(a.quantile(q), whole.quantile(q));
}

TEST(LogSketch, SaveLoadRoundTripAndTruncationThrows) {
  LogSketch s;
  for (int i = 1; i <= 64; ++i) s.observe(static_cast<double>(i) * 0.01);

  std::stringstream stream;
  s.save(stream);
  LogSketch loaded;
  loaded.load(stream);
  EXPECT_EQ(loaded.count(), s.count());
  EXPECT_EQ(loaded.buckets(), s.buckets());

  std::stringstream truncated(stream.str().substr(0, 16));
  LogSketch victim;
  EXPECT_THROW(victim.load(truncated), std::runtime_error);
}

// ---------------------------------------------------------------------------
// PSI

TEST(Psi, IdenticalDistributionsScoreZero) {
  LogSketch a, b;
  for (int i = 0; i < 1000; ++i) {
    const double v = 1.0 + 0.001 * i;
    a.observe(v);
    b.observe(v);
  }
  EXPECT_DOUBLE_EQ(population_stability_index(a, b), 0.0);
}

TEST(Psi, EmptySideMeansNoEvidenceNoAlarm) {
  LogSketch populated, empty;
  populated.observe(1.0);
  EXPECT_DOUBLE_EQ(population_stability_index(populated, empty), 0.0);
  EXPECT_DOUBLE_EQ(population_stability_index(empty, populated), 0.0);
  EXPECT_DOUBLE_EQ(population_stability_index(empty, empty), 0.0);
}

TEST(Psi, ShiftedDistributionScoresHigh) {
  LogSketch baseline, shifted, nudged;
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> dist(1.0, 2.0);
  for (int i = 0; i < 2000; ++i) {
    const double v = dist(rng);
    baseline.observe(v);
    shifted.observe(v * 1024.0);  // 10 octaves away: disjoint buckets
    nudged.observe(v * 1.01);     // same buckets, basically
  }
  EXPECT_GT(population_stability_index(baseline, shifted), 1.0);
  EXPECT_LT(population_stability_index(baseline, nudged), 0.1);
}

// ---------------------------------------------------------------------------
// FeatureBaseline block

TEST(FeatureBaseline, SaveLoadRoundTrip) {
  FeatureBaseline original;
  original.names = {"alpha", "beta"};
  original.sketches.resize(2);
  for (int i = 0; i < 100; ++i) {
    original.observe(0, 1.0 + i * 0.01);
    original.observe(1, -5.0);
  }

  std::stringstream stream;
  original.save(stream);
  FeatureBaseline loaded;
  loaded.load(stream);
  ASSERT_EQ(loaded.names, original.names);
  ASSERT_EQ(loaded.feature_count(), 2u);
  EXPECT_EQ(loaded.sketches[0].buckets(), original.sketches[0].buckets());
  EXPECT_EQ(loaded.sketches[1].count(), 100u);
}

TEST(FeatureBaseline, MalformedBlockThrows) {
  std::stringstream garbage("definitely not a baseline block");
  FeatureBaseline victim;
  EXPECT_THROW(victim.load(garbage), std::runtime_error);

  FeatureBaseline mismatch;
  mismatch.names = {"x"};
  mismatch.sketches.resize(2);
  std::stringstream unused;
  EXPECT_THROW(mismatch.save(unused), std::logic_error);
}

// ---------------------------------------------------------------------------
// Deterministic shadow sampling

TEST(QualityMonitor, SamplingIsDeterministicAcrossThreads) {
  QualityMonitor& monitor = QualityMonitor::global();
  QualityConfig cfg;
  cfg.shadow_rate = 0.3;
  cfg.shadow_seed = 42;
  monitor.configure(cfg);

  std::vector<std::string> names;
  for (int i = 0; i < 512; ++i) names.push_back("net_" + std::to_string(i));

  std::vector<char> reference(names.size());
  for (std::size_t i = 0; i < names.size(); ++i)
    reference[i] = monitor.should_shadow(names[i]) ? 1 : 0;

  // A plausible fraction actually got selected.
  std::size_t selected = 0;
  for (const char d : reference) selected += d;
  EXPECT_GT(selected, names.size() / 8);
  EXPECT_LT(selected, names.size() / 2);

  // Four threads evaluating concurrently see the identical set: the decision
  // is a pure function of (seed, name), so batch splitting cannot change it.
  std::vector<std::vector<char>> per_thread(4,
                                            std::vector<char>(names.size()));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < per_thread.size(); ++t)
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < names.size(); ++i)
        per_thread[t][i] = monitor.should_shadow(names[i]) ? 1 : 0;
    });
  for (std::thread& th : threads) th.join();
  for (const auto& decisions : per_thread) EXPECT_EQ(decisions, reference);

  // Re-arming with the same (seed, rate) reproduces the set; a different
  // seed selects a different one.
  monitor.configure(cfg);
  for (std::size_t i = 0; i < names.size(); ++i)
    EXPECT_EQ(monitor.should_shadow(names[i]) ? 1 : 0, reference[i]);
  cfg.shadow_seed = 43;
  monitor.configure(cfg);
  std::vector<char> reseeded(names.size());
  for (std::size_t i = 0; i < names.size(); ++i)
    reseeded[i] = monitor.should_shadow(names[i]) ? 1 : 0;
  EXPECT_NE(reseeded, reference);

  disarm_quality();
  EXPECT_FALSE(monitor.should_shadow("net_0"));  // inactive samples nothing
}

TEST(QualityMonitor, RateOneShadowsEverythingRateZeroNothing) {
  QualityMonitor& monitor = QualityMonitor::global();
  QualityConfig cfg;
  cfg.shadow_rate = 1.0;
  monitor.configure(cfg);
  for (int i = 0; i < 64; ++i)
    EXPECT_TRUE(monitor.should_shadow("n" + std::to_string(i)));
  disarm_quality();
  EXPECT_FALSE(monitor.active());
}

// ---------------------------------------------------------------------------
// Shadow cost: measured, never acted on

TEST(QualityMonitor, ConfiguredRateIsTheServedRate) {
  QualityMonitor& monitor = QualityMonitor::global();
  QualityConfig cfg;
  cfg.shadow_rate = 0.5;
  std::vector<std::string> names;
  for (int i = 0; i < 512; ++i) names.push_back("net_" + std::to_string(i));

  monitor.configure(cfg);
  std::vector<char> fresh(names.size());
  for (std::size_t i = 0; i < names.size(); ++i)
    fresh[i] = monitor.should_shadow(names[i]) ? 1 : 0;

  // Many batches at 90% measured shadow overhead: the cost is recorded...
  for (int b = 0; b < 64; ++b) monitor.observe_shadow_cost(0.9, 1.0);
  EXPECT_NEAR(monitor.compute_state().shadow_overhead_pct, 90.0, 1e-9);
  // ...and the sampling decisions are still those of the configured rate.
  for (std::size_t i = 0; i < names.size(); ++i)
    EXPECT_EQ(monitor.should_shadow(names[i]) ? 1 : 0, fresh[i]) << names[i];
  disarm_quality();
}

// ---------------------------------------------------------------------------
// Synthetic drift -> PSI -> readiness

TEST(QualityDrift, ShiftedFeaturesFlipReadinessUnshiftedStaysReady) {
  auto& registry = MetricsRegistry::global();
  registry.reset();
  set_model_ready(true);

  QualityMonitor& monitor = QualityMonitor::global();
  FeatureBaseline baseline;
  baseline.names = {"probe_feature", "calm_feature"};
  baseline.sketches.resize(2);
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> dist(1.0, 2.0);
  std::vector<float> base_values;
  for (int i = 0; i < 2000; ++i) {
    const double v = dist(rng);
    baseline.observe(0, v);
    baseline.observe(1, v);
    base_values.push_back(static_cast<float>(v));
  }

  QualityConfig cfg;
  cfg.shadow_rate = 0.5;
  cfg.psi_alert = 0.25;
  cfg.min_samples = 64;
  monitor.configure(cfg);
  monitor.install_baseline(baseline);
  ASSERT_TRUE(monitor.has_baseline());

  ObsServer server;
  server.start();

  // Live traffic matching the baseline: no drift, ready.
  std::vector<float> live(base_values.begin(), base_values.begin() + 512);
  monitor.observe_features(live.data(), live.size() / 2, 2, 0);
  std::string reason;
  EXPECT_FALSE(monitor.degraded(&reason)) << reason;
  EXPECT_EQ(http_get(server.port(), "/readyz").status, 200);

  // Shift feature 0 by ten octaves while feature 1 stays put: PSI crosses
  // the alert on exactly the drifted feature and readiness degrades.
  std::vector<float> shifted = live;
  for (std::size_t i = 0; i < shifted.size(); i += 2) shifted[i] *= 1024.0f;
  monitor.observe_features(shifted.data(), shifted.size() / 2, 2, 0);
  const QualityState state = monitor.compute_state();
  EXPECT_GT(state.worst_psi, cfg.psi_alert);
  EXPECT_EQ(state.worst_feature, "probe_feature");
  ASSERT_EQ(state.features.size(), 2u);
  EXPECT_LT(state.features[1].psi, cfg.psi_alert);

  EXPECT_TRUE(monitor.degraded(&reason));
  EXPECT_NE(reason.find("probe_feature"), std::string::npos);
  const HttpResponse unready = http_get(server.port(), "/readyz");
  EXPECT_EQ(unready.status, 503);
  EXPECT_NE(unready.body.find("quality"), std::string::npos);

  // The per-feature gauge and the drift flight pin are published.
  bool saw_gauge = false;
  for (const auto& gauge : registry.snapshot().gauges)
    if (gauge.name == "gnntrans_quality_feature_psi_probe_feature" &&
        gauge.value > cfg.psi_alert)
      saw_gauge = true;
  EXPECT_TRUE(saw_gauge);
  std::ostringstream flight_json;
  FlightRecorder::global().write_json(flight_json);
  EXPECT_NE(flight_json.str().find("feature_drift"), std::string::npos);

  // /quality reports the same story as one well-formed JSON document.
  const HttpResponse quality = http_get(server.port(), "/quality");
  EXPECT_EQ(quality.status, 200);
  EXPECT_TRUE(JsonChecker(quality.body).valid()) << quality.body;
  EXPECT_NE(quality.body.find("\"degraded\":true"), std::string::npos);
  EXPECT_NE(quality.body.find("probe_feature"), std::string::npos);

  server.stop();
  disarm_quality();
  set_model_ready(false);
  registry.reset();
  FlightRecorder::global().clear();
}

TEST(QualityDrift, ResidualP99CrossingDegrades) {
  QualityMonitor& monitor = QualityMonitor::global();
  QualityConfig cfg;
  cfg.shadow_rate = 0.5;
  cfg.residual_alert_pct = 10.0;
  cfg.min_samples = 16;
  monitor.configure(cfg);

  // Model consistently 2x the analytic reference: 100% relative residual.
  for (int i = 0; i < 32; ++i)
    monitor.record_residual(i % 2 == 0, 2e-9, 1e-9, 2e-10, 1e-10);

  const QualityState state = monitor.compute_state();
  EXPECT_GT(state.delay_p99_pct, cfg.residual_alert_pct);
  EXPECT_TRUE(state.degraded);
  EXPECT_EQ(state.degraded_reason, "delay_residual_p99");

  // 100% > 2x the 10% alert: the outliers were pinned into the flight ring.
  std::ostringstream flight_json;
  FlightRecorder::global().write_json(flight_json);
  EXPECT_NE(flight_json.str().find("shadow_outlier"), std::string::npos);

  disarm_quality();
  std::string reason;
  EXPECT_FALSE(monitor.degraded(&reason));  // disarmed monitor never degrades
  FlightRecorder::global().clear();
}

// ---------------------------------------------------------------------------
// End-to-end on the serving path: a real (tiny) trained estimator.

class QualityServingE2E : public ::testing::Test {
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
    opt.model.seed = 7;
    opt.train.epochs = 2;
    estimator_ = std::make_unique<core::WireTimingEstimator>(
        core::WireTimingEstimator::train(records, opt));

    std::mt19937_64 rng(55);
    rcnet::NetGenConfig ncfg;
    while (nets_.size() < 24) {
      rcnet::RcNet net =
          rcnet::generate_net(ncfg, rng, "qe2e" + std::to_string(nets_.size()));
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
    disarm_quality();
  }

  static std::vector<core::NetBatchItem> items() {
    std::vector<core::NetBatchItem> out(nets_.size());
    for (std::size_t i = 0; i < nets_.size(); ++i)
      out[i] = {&nets_[i], &contexts_[i]};
    return out;
  }

  static std::unique_ptr<cell::CellLibrary> library_;
  static std::unique_ptr<core::WireTimingEstimator> estimator_;
  static std::vector<rcnet::RcNet> nets_;
  static std::vector<features::NetContext> contexts_;
};

std::unique_ptr<cell::CellLibrary> QualityServingE2E::library_;
std::unique_ptr<core::WireTimingEstimator> QualityServingE2E::estimator_;
std::vector<rcnet::RcNet> QualityServingE2E::nets_;
std::vector<features::NetContext> QualityServingE2E::contexts_;

TEST_F(QualityServingE2E, ShadowScoringIsBitwiseNonIntrusive) {
  const auto batch = items();
  core::BatchOptions options;
  options.threads = 2;

  disarm_quality();
  const auto plain = estimator_->estimate_batch(batch, options);

  // Shadow everything; served estimates must not move by a single bit.
  QualityConfig cfg;
  cfg.shadow_rate = 1.0;
  QualityMonitor::global().configure(cfg);
  estimator_->install_quality_baseline();
  const auto shadowed = estimator_->estimate_batch(batch, options);

  ASSERT_EQ(shadowed.size(), plain.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    ASSERT_EQ(shadowed[i].size(), plain[i].size());
    for (std::size_t s = 0; s < plain[i].size(); ++s) {
      EXPECT_EQ(shadowed[i][s].sink, plain[i][s].sink);
      EXPECT_EQ(shadowed[i][s].delay, plain[i][s].delay);  // bitwise
      EXPECT_EQ(shadowed[i][s].slew, plain[i][s].slew);
      EXPECT_EQ(shadowed[i][s].provenance, plain[i][s].provenance);
    }
  }

  // The shadow pass actually ran and recorded residual + feature evidence.
  QualityMonitor& monitor = QualityMonitor::global();
  EXPECT_GT(monitor.shadowed_nets(), 0u);
  const QualityState state = monitor.compute_state();
  EXPECT_GT(state.shadowed_sinks, 0u);
  EXPECT_GE(state.delay_p99_pct, state.delay_p50_pct);
  ASSERT_FALSE(state.features.empty());
  EXPECT_EQ(state.features.size(), features::quality_feature_names().size());

  // Same seed + rate across thread counts selects the same nets: repeating
  // single-threaded shadows exactly the same count again.
  const std::uint64_t after_first = monitor.shadowed_nets();
  core::BatchOptions single;
  single.threads = 1;
  (void)estimator_->estimate_batch(batch, single);
  EXPECT_EQ(monitor.shadowed_nets(), 2 * after_first);

  EXPECT_TRUE(JsonChecker(monitor.state_json()).valid())
      << monitor.state_json();
  disarm_quality();
}

TEST_F(QualityServingE2E, CheckpointRoundTripCarriesBaselineAndV1Loads) {
  // v2 round trip: the baseline block survives with names and mass intact.
  std::ostringstream out;
  estimator_->save(out);
  const std::string bytes = out.str();

  std::istringstream v2(bytes);
  const core::WireTimingEstimator reloaded =
      core::WireTimingEstimator::load(v2);
  ASSERT_FALSE(reloaded.feature_baseline().empty());
  EXPECT_EQ(reloaded.feature_baseline().names,
            features::quality_feature_names());
  EXPECT_GT(reloaded.feature_baseline().sketches[0].count(), 0u);

  // The header is [u32 len]["GNNTRANS_ESTIMATOR"][u32 version]; patching the
  // version to 1 yields a valid pre-quality checkpoint (the trailing baseline
  // block is simply never read).
  const std::size_t version_at = 4 + std::string("GNNTRANS_ESTIMATOR").size();
  std::string v1_bytes = bytes;
  v1_bytes[version_at] = 1;
  std::istringstream v1(v1_bytes);
  const core::WireTimingEstimator legacy =
      core::WireTimingEstimator::load(v1);
  EXPECT_TRUE(legacy.feature_baseline().empty());

  // And both load paths produce the same model: identical estimates.
  const auto want = estimator_->estimate(nets_[0], contexts_[0]);
  const auto got = legacy.estimate(nets_[0], contexts_[0]);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t s = 0; s < want.size(); ++s)
    EXPECT_EQ(got[s].delay, want[s].delay);

  // An unknown future version fails with the typed error, not a misparse.
  std::string v9_bytes = bytes;
  v9_bytes[version_at] = 9;
  std::istringstream v9(v9_bytes);
  try {
    (void)core::WireTimingEstimator::load(v9);
    FAIL() << "expected CheckpointError";
  } catch (const core::CheckpointError& e) {
    EXPECT_EQ(e.status().code(), core::ErrorCode::kUnsupportedFormat);
    EXPECT_NE(std::string(e.what()).find("version 9"), std::string::npos);
  }
}

}  // namespace
