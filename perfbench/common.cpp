#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

namespace perfbench {

namespace {

// Fixed seeds of the served model and its held-out set (see Fixture).
constexpr std::uint64_t kTrainSeed = 20230401;
constexpr std::uint64_t kHeldoutSeed = 20230402;
constexpr std::uint64_t kModelSeed = 1;

}  // namespace

std::size_t nproc() {
  return std::max<unsigned>(1, std::thread::hardware_concurrency());
}

std::size_t workers() { return std::max<std::size_t>(1, nproc() / 2); }
void Report::fail(const std::string& message) {
  ++failed_;
  if (failures_.size() < 8) failures_.push_back(message);
}

void build_fixture(Fixture& fixture, const Options& options, int reps,
                   double* setup_seconds, Report& report) {
  features::WireDatasetConfig heldout_cfg;
  heldout_cfg.net_count = options.smoke ? 24 : 200;
  heldout_cfg.net_config = small_net_config();
  heldout_cfg.sim_config.steps = 300;
  heldout_cfg.seed = kHeldoutSeed;
  fixture.heldout = features::generate_wire_records(heldout_cfg, fixture.library);

  std::vector<core::NetBatchItem> items;
  for (const features::WireRecord& rec : fixture.heldout)
    items.push_back({&rec.net, &rec.context});

  std::vector<double> times;
  std::vector<std::vector<core::PathEstimate>> first;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    features::WireDatasetConfig cfg = heldout_cfg;
    cfg.net_count = options.smoke ? 24 : 256;
    cfg.seed = kTrainSeed;
    const std::vector<features::WireRecord> records =
        features::generate_wire_records(cfg, fixture.library);
    core::WireTimingEstimator::Options opt;
    opt.kind = nn::ModelKind::kGnnTrans;
    opt.model.hidden_dim = 16;
    opt.model.gnn_layers = 4;
    opt.model.transformer_layers = 2;
    opt.model.heads = 4;
    opt.model.mlp_hidden = 32;
    opt.model.seed = kModelSeed;
    opt.train.epochs = options.smoke ? 1 : 5;
    fixture.estimator.emplace(core::WireTimingEstimator::train(records, opt));
    times.push_back(seconds_since(t0));

    // Training is a fixed arithmetic sequence: every repetition must serve
    // the same bits.
    auto served = fixture.estimator->estimate_batch(items);
    if (r == 0) {
      first = std::move(served);
      continue;
    }
    for (std::size_t i = 0; i < items.size(); ++i)
      if (!same_bits(first[i], served[i])) {
        report.fail("set-up repetition " + std::to_string(r) +
                    " trained a different model");
        break;
      }
  }
  std::printf("set-up repetitions:");
  for (const double t : times) std::printf(" %.3f s", t);
  std::printf("\n");
  *setup_seconds = quantile(times, 0.5);
}

rcnet::NetGenConfig small_net_config() { return rcnet::NetGenConfig{}; }

rcnet::NetGenConfig large_net_config() {
  rcnet::NetGenConfig cfg;
  cfg.min_nodes = 160;
  cfg.max_nodes = 320;
  return cfg;
}

std::vector<core::NetBatchItem> NetSet::items() const {
  std::vector<core::NetBatchItem> out(nets.size());
  for (std::size_t i = 0; i < nets.size(); ++i) out[i] = {&nets[i], &contexts[i]};
  return out;
}

void generate_nets(NetSet& set, const rcnet::NetGenConfig& config,
                   const cell::CellLibrary& library, std::mt19937_64& rng,
                   std::size_t count, const std::string& prefix) {
  const std::size_t target = set.nets.size() + count;
  while (set.nets.size() < target) {
    rcnet::RcNet net = rcnet::generate_net(
        config, rng, prefix + std::to_string(set.nets.size()));
    if (!net.validate().empty()) continue;
    set.contexts.push_back(features::random_context(library, net, rng));
    set.nets.push_back(std::move(net));
  }
}

bool same_bits(const std::vector<core::PathEstimate>& a,
               const std::vector<core::PathEstimate>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].sink != b[i].sink) return false;
    if (std::memcmp(&a[i].delay, &b[i].delay, sizeof(double)) != 0) return false;
    if (std::memcmp(&a[i].slew, &b[i].slew, sizeof(double)) != 0) return false;
  }
  return true;
}

std::string check_estimate(const rcnet::RcNet& net,
                           const std::vector<core::PathEstimate>& paths,
                           core::EstimateProvenance allowed_alt) {
  if (paths.size() != net.sinks.size())
    return net.name + ": " + std::to_string(paths.size()) + " paths for " +
           std::to_string(net.sinks.size()) + " sinks";
  for (const core::PathEstimate& p : paths) {
    if (!std::isfinite(p.delay) || !std::isfinite(p.slew))
      return net.name + ": non-finite estimate";
    if (p.provenance != core::EstimateProvenance::kModel &&
        p.provenance != allowed_alt)
      return net.name + ": provenance " + core::to_string(p.provenance);
  }
  return {};
}

void maybe_flip(const Options& options, double& value) {
  static bool flipped = false;
  if (!options.flip_bit || flipped) return;
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  bits ^= 1u;
  std::memcpy(&value, &bits, sizeof(bits));
  flipped = true;
}

double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double quarters_quantile(const std::vector<double>& samples, double q) {
  std::vector<double> per_quarter;
  for (std::size_t k = 0; k < 4; ++k) {
    std::vector<double> part(samples.begin() + samples.size() * k / 4,
                             samples.begin() + samples.size() * (k + 1) / 4);
    if (!part.empty()) per_quarter.push_back(quantile(part, q));
  }
  return quantile(per_quarter, 0.5);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
