#include "features/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tensor/serialize.hpp"

namespace gnntrans::features {

using rcnet::NodeId;

WireRecord make_record(rcnet::RcNet net, NetContext context,
                       sim::GoldenTimer& timer) {
  WireRecord rec;
  rec.non_tree = !net.is_tree();
  rec.raw = extract_features(net, context);

  const sim::TransientResult timing =
      timer.time_net(net, context.input_slew, context.driver_resistance);
  rec.slew_labels.reserve(timing.sinks.size());
  rec.delay_labels.reserve(timing.sinks.size());
  for (const sim::SinkTiming& st : timing.sinks) {
    rec.slew_labels.push_back(st.slew);
    rec.delay_labels.push_back(st.delay);
  }
  rec.net = std::move(net);
  rec.context = std::move(context);
  return rec;
}

namespace {

/// Column-wise mean/std over row-major data.
void fit_columns(const std::vector<const std::vector<float>*>& rows_list,
                 std::size_t dim, std::vector<double>& mean,
                 std::vector<double>& std_dev) {
  mean.assign(dim, 0.0);
  std_dev.assign(dim, 0.0);
  std::size_t count = 0;
  for (const auto* data : rows_list) {
    const std::size_t rows = data->size() / dim;
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t c = 0; c < dim; ++c) mean[c] += (*data)[r * dim + c];
    count += rows;
  }
  if (count == 0) throw std::logic_error("Standardizer: no rows to fit");
  for (double& m : mean) m /= static_cast<double>(count);
  for (const auto* data : rows_list) {
    const std::size_t rows = data->size() / dim;
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t c = 0; c < dim; ++c) {
        const double d = (*data)[r * dim + c] - mean[c];
        std_dev[c] += d * d;
      }
  }
  for (double& s : std_dev) {
    s = std::sqrt(s / static_cast<double>(count));
    if (s < 1e-9) s = 1.0;  // constant column passes through
  }
}

void fit_scalar(const std::vector<double>& values, double& mean, double& std_dev) {
  if (values.empty()) throw std::logic_error("Standardizer: no labels to fit");
  mean = 0.0;
  for (double v : values) mean += v;
  mean /= static_cast<double>(values.size());
  std_dev = 0.0;
  for (double v : values) std_dev += (v - mean) * (v - mean);
  std_dev = std::sqrt(std_dev / static_cast<double>(values.size()));
  if (std_dev < 1e-18) std_dev = 1.0;
}

/// Z-scores the row-major [rows, mean.size()] \p data column by column.
tensor::Tensor standardized(std::vector<float> data, const std::vector<double>& mean,
                            const std::vector<double>& std_dev, std::size_t rows) {
  const std::size_t dim = mean.size();
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<float>((data[i] - mean[i % dim]) / std_dev[i % dim]);
  return tensor::Tensor::from_data(std::move(data), rows, dim);
}

}  // namespace

void Standardizer::fit(const std::vector<WireRecord>& records) {
  std::vector<const std::vector<float>*> x_list, h_list;
  std::vector<double> slews, delays;
  for (const WireRecord& rec : records) {
    x_list.push_back(&rec.raw.x);
    h_list.push_back(&rec.raw.h);
    slews.insert(slews.end(), rec.slew_labels.begin(), rec.slew_labels.end());
    delays.insert(delays.end(), rec.delay_labels.begin(), rec.delay_labels.end());
  }
  fit_columns(x_list, kNodeFeatureCount, x_mean_, x_std_);
  fit_columns(h_list, kPathFeatureCount, h_mean_, h_std_);
  fit_scalar(slews, slew_mean_, slew_std_);
  fit_scalar(delays, delay_mean_, delay_std_);
}

double Standardizer::standardize_slew(double seconds) const noexcept {
  return (seconds - slew_mean_) / slew_std_;
}
double Standardizer::standardize_delay(double seconds) const noexcept {
  return (seconds - delay_mean_) / delay_std_;
}
double Standardizer::unstandardize_slew(double z) const noexcept {
  return z * slew_std_ + slew_mean_;
}
double Standardizer::unstandardize_delay(double z) const noexcept {
  return z * delay_std_ + delay_mean_;
}

tensor::Tensor Standardizer::standardize_path_features(
    std::vector<float> raw_h) const {
  const std::size_t rows = raw_h.size() / kPathFeatureCount;
  return standardized(std::move(raw_h), h_mean_, h_std_, rows);
}

nn::GraphSample Standardizer::make_sample(const rcnet::RcNet& net,
                                          const RawFeatures& raw) const {
  if (!fitted()) throw std::logic_error("Standardizer: fit() before make_sample()");

  nn::GraphSample sample;
  sample.net_name = net.name;
  // raw came from a valid, hence connected, net: a tree iff it has n - 1 edges.
  sample.non_tree = net.resistors.size() + 1 != net.node_count();
  sample.node_count = net.node_count();
  sample.path_count = raw.analysis.paths.size();

  sample.x = standardized(raw.x, x_mean_, x_std_, sample.node_count);
  sample.h = standardize_path_features(raw.h);

  // Eq. (1): resistance-valued adjacency, row-normalized for stability.
  const std::size_t n = sample.node_count;
  const rcnet::Adjacency& adj = raw.analysis.adjacency;
  sample.weighted_adj = tensor::GraphMatrix(n, n, adj.neighbors.size());
  for (NodeId v = 0; v < n; ++v)
    for (const rcnet::Neighbor& nb : adj[v])
      sample.weighted_adj.add(v, nb.node,
                              static_cast<float>(net.resistors[nb.resistor_index].ohms));
  sample.weighted_adj.row_normalize();

  // Eq. (4) pooling matrix: mean over each path's nodes.
  sample.path_pool = tensor::GraphMatrix(sample.path_count, n);
  for (std::size_t q = 0; q < sample.path_count; ++q) {
    const auto& nodes = raw.analysis.paths[q].nodes;
    const float w = 1.0f / static_cast<float>(nodes.size());
    for (NodeId v : nodes) sample.path_pool.add(static_cast<std::uint32_t>(q), v, w);
  }
  return sample;
}

nn::GraphSample Standardizer::make_sample(const WireRecord& record) const {
  nn::GraphSample sample = make_sample(record.net, record.raw);
  std::vector<float> slew_z(sample.path_count), delay_z(sample.path_count);
  for (std::size_t q = 0; q < sample.path_count; ++q) {
    slew_z[q] = static_cast<float>(standardize_slew(record.slew_labels[q]));
    delay_z[q] = static_cast<float>(standardize_delay(record.delay_labels[q]));
  }
  sample.slew_label =
      tensor::Tensor::from_data(std::move(slew_z), sample.path_count, 1);
  sample.delay_label =
      tensor::Tensor::from_data(std::move(delay_z), sample.path_count, 1);
  sample.slew_seconds = record.slew_labels;
  sample.delay_seconds = record.delay_labels;
  return sample;
}

void Standardizer::save(std::ostream& out) const {
  tensor::write_doubles(out, x_mean_);
  tensor::write_doubles(out, x_std_);
  tensor::write_doubles(out, h_mean_);
  tensor::write_doubles(out, h_std_);
  tensor::write_doubles(out, {slew_mean_, slew_std_, delay_mean_, delay_std_});
}

core::Status Standardizer::load(std::istream& in) {
  std::vector<double> x_mean = tensor::read_doubles(in);
  std::vector<double> x_std = tensor::read_doubles(in);
  std::vector<double> h_mean = tensor::read_doubles(in);
  std::vector<double> h_std = tensor::read_doubles(in);
  const std::vector<double> labels = tensor::read_doubles(in);

  const auto reject = [](const std::string& message) {
    return core::Status(core::ErrorCode::kParseError, "standardizer: " + message);
  };
  const auto check_size = [&](const char* field, const std::vector<double>& v,
                               std::size_t want) {
    return v.size() == want
               ? core::Status{}
               : reject(std::string(field) + " has " + std::to_string(v.size()) +
                        " entries, expected " + std::to_string(want));
  };
  const auto check_std = [&](const char* field, double value) {
    return std::isfinite(value) && value > 0.0
               ? core::Status{}
               : reject(std::string(field) + " entry " + std::to_string(value) +
                        " is not finite and positive");
  };
  for (core::Status s :
       {check_size("x_mean", x_mean, kNodeFeatureCount),
        check_size("x_std", x_std, kNodeFeatureCount),
        check_size("h_mean", h_mean, kPathFeatureCount),
        check_size("h_std", h_std, kPathFeatureCount),
        check_size("labels", labels, 4)})
    if (!s.ok()) return s;
  for (const double v : x_std)
    if (core::Status s = check_std("x_std", v); !s.ok()) return s;
  for (const double v : h_std)
    if (core::Status s = check_std("h_std", v); !s.ok()) return s;
  if (core::Status s = check_std("slew_std", labels[1]); !s.ok()) return s;
  if (core::Status s = check_std("delay_std", labels[3]); !s.ok()) return s;

  x_mean_ = std::move(x_mean);
  x_std_ = std::move(x_std);
  h_mean_ = std::move(h_mean);
  h_std_ = std::move(h_std);
  slew_mean_ = labels[0];
  slew_std_ = labels[1];
  delay_mean_ = labels[2];
  delay_std_ = labels[3];
  return {};
}

std::vector<WireRecord> generate_wire_records(const WireDatasetConfig& config,
                                              const cell::CellLibrary& library) {
  std::mt19937_64 rng(config.seed);
  sim::GoldenTimer timer(config.sim_config);

  std::vector<WireRecord> records;
  records.reserve(config.net_count);
  std::size_t attempts = 0;
  while (records.size() < config.net_count && attempts < config.net_count * 3) {
    ++attempts;
    rcnet::RcNet net = rcnet::generate_net(
        config.net_config, rng, "net" + std::to_string(attempts));
    if (!net.validate().empty()) continue;
    NetContext ctx = random_context(library, net, rng);
    WireRecord rec = make_record(std::move(net), std::move(ctx), timer);
    // Drop records whose sinks failed to settle (extreme RC corner cases).
    const bool complete =
        std::all_of(rec.slew_labels.begin(), rec.slew_labels.end(),
                    [](double s) { return s > 0.0; });
    if (complete) records.push_back(std::move(rec));
  }
  return records;
}

std::vector<WireRecord> records_from_design(const netlist::Design& design,
                                            const cell::CellLibrary& library,
                                            sim::GoldenTimer& timer,
                                            const std::vector<double>* sta_slew) {
  std::vector<WireRecord> records;
  records.reserve(design.nets.size());
  for (const netlist::DesignNet& net : design.nets) {
    const cell::Cell& driver =
        library.at(design.instances[net.driver].cell_index);

    NetContext ctx;
    ctx.driver_resistance = driver.drive_resistance;
    ctx.driver_strength = driver.drive_strength;
    ctx.driver_function = static_cast<std::uint32_t>(driver.function);
    if (sta_slew != nullptr && net.driver < sta_slew->size()) {
      // True propagated driver output slew from a prior STA pass.
      ctx.input_slew = (*sta_slew)[net.driver];
    } else {
      // Approximate the driver's output transition with its NLDM surface under
      // a nominal 40ps input slew and the net's actual load.
      double load_cap = net.rc.total_ground_cap();
      for (netlist::InstanceId load : net.loads)
        load_cap += library.at(design.instances[load].cell_index).input_cap;
      ctx.input_slew = driver.arc.output_slew.lookup(4.0e-11, load_cap);
    }

    ctx.loads.reserve(net.loads.size());
    for (netlist::InstanceId load : net.loads) {
      const cell::Cell& lc = library.at(design.instances[load].cell_index);
      ctx.loads.push_back(
          {lc.drive_strength, static_cast<std::uint32_t>(lc.function), lc.input_cap});
    }
    records.push_back(make_record(net.rc, std::move(ctx), timer));
  }
  return records;
}

std::vector<nn::GraphSample> make_samples(const std::vector<WireRecord>& records,
                                          const Standardizer& standardizer) {
  std::vector<nn::GraphSample> samples;
  samples.reserve(records.size());
  for (const WireRecord& rec : records)
    samples.push_back(standardizer.make_sample(rec));
  return samples;
}

}  // namespace gnntrans::features
