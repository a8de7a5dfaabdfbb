// Shared pieces of the benchmark driver: options, the served-model fixture,
// input generation, output checks, statistics and the result report.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "cell/library.hpp"
#include "core/estimator.hpp"
#include "features/dataset.hpp"
#include "rcnet/generate.hpp"

namespace perfbench {

using namespace gnntrans;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the timed phase
  bool trace = false;     ///< traced run: per-layer metrics instead of end-to-end
  bool smoke = false;     ///< tiny fixture, for the self-test only
  bool flip_bit = false;  ///< corrupt one estimate so the output check must trip
  std::string out_dir = ".bench_build/perfbench-out";
};

/// Hardware threads: the serving connection count, the generator thread
/// bound and the thread count of the scaling probes.
[[nodiscard]] std::size_t nproc();
/// Worker count of every pool the workloads run on: half of nproc, at least
/// one. On a 4-vCPU VM whose vCPUs the host preempts, four busy threads ran
/// about two thirds of the time and unevenly, and the slowest worker sets a
/// batch's time; two ran almost all of it (README.md, "Pools of nproc / 2").
[[nodiscard]] std::size_t workers();

/// Check and metric accounting for one run.
class Report {
 public:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  void e2e(std::string name, double value, std::string unit) {
    e2e_.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    layer_.push_back({std::move(name), value, std::move(unit)});
  }
  /// One attempted operation (net, request or edit) of the timed phase.
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// One failed operation or failed output check; the first messages are kept.
  void fail(const std::string& message);

  [[nodiscard]] const std::vector<Metric>& e2e() const { return e2e_; }
  [[nodiscard]] const std::vector<Metric>& layers() const { return layer_; }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

 private:
  std::vector<Metric> e2e_, layer_;
  std::uint64_t attempted_ = 0, failed_ = 0;
  std::vector<std::string> failures_;
};

/// The served model and the labelled held-out set it is scored on. Built
/// from fixed seeds: the model is the same in every run, and only the
/// workload inputs follow --seed.
struct Fixture {
  cell::CellLibrary library = cell::CellLibrary::make_default();
  std::optional<core::WireTimingEstimator> estimator;
  std::vector<features::WireRecord> heldout;
};

/// Generates the golden-labelled training set and trains GNNTrans at the
/// paper-scaled CPU config (hidden 16, 4 Sage + 2 attention layers, 4 heads,
/// MLP 32) \p reps times. Writes the median wall time of one set-up to
/// \p setup_seconds and checks that every repetition serves identical bits.
void build_fixture(Fixture& fixture, const Options& options, int reps,
                   double* setup_seconds, Report& report);

/// Net distributions of the workloads.
[[nodiscard]] rcnet::NetGenConfig small_net_config();  ///< 8-80 nodes
[[nodiscard]] rcnet::NetGenConfig large_net_config();  ///< 160-320 nodes

/// Nets with random contexts; pointers in items() stay valid while the set
/// is not modified.
struct NetSet {
  std::vector<rcnet::RcNet> nets;
  std::vector<features::NetContext> contexts;

  [[nodiscard]] std::vector<core::NetBatchItem> items() const;
  [[nodiscard]] std::size_t size() const { return nets.size(); }
};

/// Appends \p count structurally valid nets drawn from \p config, each with a
/// unique name built from \p prefix and a running counter.
void generate_nets(NetSet& set, const rcnet::NetGenConfig& config,
                   const cell::CellLibrary& library, std::mt19937_64& rng,
                   std::size_t count, const std::string& prefix);

/// True when both estimate lists carry the same sinks and bit-identical
/// delays and slews (provenance is not compared: cache hits re-tag it).
[[nodiscard]] bool same_bits(const std::vector<core::PathEstimate>& a,
                             const std::vector<core::PathEstimate>& b);

/// Checks one served estimate: one path per sink, finite values, and a
/// provenance of the model (or \p allowed_alt). Returns an empty string when
/// the estimate passes, or the reason it does not.
[[nodiscard]] std::string check_estimate(
    const rcnet::RcNet& net, const std::vector<core::PathEstimate>& paths,
    core::EstimateProvenance allowed_alt = core::EstimateProvenance::kModel);

/// With --flip-bit, flips the lowest mantissa bit of \p value (once per
/// process), so the output check that follows must trip.
void maybe_flip(const Options& options, double& value);

/// Linear-interpolated quantile of \p values (sorted in place); 0 when empty.
[[nodiscard]] double quantile(std::vector<double>& values, double q);
[[nodiscard]] double mean(const std::vector<double>& values);

/// Tail quantile robust to a burst of load on a shared box: \p samples (in
/// the order they were taken) are cut into four consecutive quarters and the
/// median of the quarters' \p q-quantiles is returned.
[[nodiscard]] double quarters_quantile(const std::vector<double>& samples,
                                       double q);

/// Peak resident set size of this process, MiB.
[[nodiscard]] double peak_rss_mib();

}  // namespace perfbench
