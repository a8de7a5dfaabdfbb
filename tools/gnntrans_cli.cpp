// gnntrans_cli — command-line front end for the wire timing estimator.
//
// Subcommands:
//   generate  --nets N [--seed S] [--non-tree F] --spef OUT
//       Emit synthetic extracted parasitics (SPEF).
//   design    [--seed S] [--cells N] --verilog OUT --spef OUT
//       Emit a routed-design handoff pair (structural Verilog + SPEF).
//   libgen    --liberty OUT
//       Dump the default cell library in the Liberty subset.
//   train     --spef IN --model OUT [--epochs E] [--arch NAME] [--seed S]
//       Label the given nets with the golden timer and train an estimator.
//       Arch: gnntrans (default), graphsage, gcnii, gat, transformer.
//   eval      --spef IN --model IN
//       Score a trained model against golden timing on the given nets.
//   predict   --spef IN --model IN [--threads T] [--batch B]
//       Per-path slew/delay report for every net (no golden timing).
//       Inference runs through the batched serving path: nets are grouped
//       into batches of B (default 64) and fanned out over T workers
//       (default 1); a throughput/latency summary goes to stderr.
//   sta       --verilog IN --spef IN [--model IN] [--threads T] [--paths K]
//       Full-design arrival report; wire timing from the golden simulator,
//       or from the trained model when --model is given. With a model,
//       --threads T parallelizes wire inference within each topological
//       level (identical arrivals for any T). --paths K appends a sign-off
//       style report of the K worst paths.
//   serve     --model IN [--port P] [--addr A] [--threads T] [--batch B]
//             [--queue Q] [--max-conns C] [--duration-s D] [--max-requests N]
//       Network serving front-end: listen on A:P (default 127.0.0.1, port 0 =
//       ephemeral, logged) for length-prefixed binary timing requests
//       (serve/protocol.hpp), and answer through estimate_batch on T
//       workers. Whenever the batcher is free it takes up to B queued
//       requests from all clients as one batch. Admission is bounded by Q
//       queued requests (overflow gets a typed kOverloaded reject) and C
//       concurrent connections. Runs until
//       SIGINT/SIGTERM (graceful drain: flush in-flight, answer, close), or
//       for D seconds, or until N requests were admitted. The serving
//       robustness flags below apply per batch; --deadline-ms is ignored
//       (deadlines arrive per-request on the wire).
//   eco       [--seed S] [--edits N] [--startpoints P --levels L --width W]
//             [--steps T] [--model IN] [--verify on|off] [--paths K]
//       ECO what-if driver: generate a design, apply N seeded random edits
//       (cell swaps, net reroutes, buffer insertions) through the
//       incremental engine, and after every edit verify the incrementally
//       maintained arrivals/slews/required-times/slacks are bitwise equal
//       to a fresh full run_sta over the mutated design (--verify off
//       skips the check). Reports retimed-instances per edit; exits 2 on
//       any mismatch. Wire timing from the golden simulator (--steps sets
//       its resolution) or a trained model with --model.
//
// Serving robustness flags (predict, and sta with --model):
//   --fallback P        analytic (default) degrades model-failed nets to the
//                       Elmore/D2M baseline; none returns zeroed estimates
//   --deadline-ms D     batch latency budget; nets started past it skip the
//                       model and degrade (0 = off, default)
//   --slow-ms S         WARN-log any net slower than S ms with its per-stage
//                       breakdown (0 = off, default)
//   --fault-inject P    deterministically inject faults into a fraction P of
//                       (site, net) decisions — testing/chaos knob, default 0
//   --fault-seed S      seed for the fault-injection hash (default 1)
//   --cache-mb N        byte budget (MiB) of the content-addressed estimate
//                       cache; identical (parasitics, context) pairs are
//                       served from stored model results, bitwise-identical
//                       values tagged "cached" (default 64; 0 disables).
//                       Also applies to serve.
//   --cache-off on      disable the estimate cache (same as --cache-mb 0)
//
// Model-quality flags (predict, sta/eco with --model):
//   --shadow-rate R     shadow-score fraction R of model-served nets against
//                       the analytic Elmore/D2M baseline (deterministic
//                       pure-hash sample; 0 = off, default). Residuals and
//                       per-feature PSI export as gnntrans_quality_* metrics,
//                       the /quality endpoint, and the stats-interval lines.
//   --shadow-seed S     seed for the shadow sampling hash (default 1)
//   --psi-alert X       a feature PSI above X flips /readyz to 503
//                       (default 0.25)
//   --residual-alert P  shadow delay-residual p99 above P percent flips
//                       /readyz to 503 (default 50)
//
// Telemetry flags (any subcommand; most useful on predict/sta/train):
//   --log-level L       trace|debug|info|warn|error|off (default info)
//   --log-json FILE     mirror log records to FILE as JSON lines
//   --metrics-out FILE  write a metrics snapshot on success; .json extension
//                       selects JSON, anything else Prometheus text
//   --trace-out FILE    record TraceSpans and write Chrome trace JSON on
//                       success (open in chrome://tracing or Perfetto)
//   --trace-sample N    span sampling: record 1 in N spans (default 1)
//   --trace-rate R      request head-sampling rate in [0,1] (default 1/64):
//                       fraction of serve requests that get a full stage-
//                       clock trace, /tracez retention, and flow events
//   --trace-seed N      head-sampling hash seed (varies which requests are
//                       picked without changing the rate)
//   --obs-port P        serve GET /metrics /metrics.json /healthz /readyz
//                       /buildinfo /flight /quality /tracez on P while the
//                       command runs (0 = ephemeral; the bound port is logged)
//   --obs-addr A        bind address for --obs-port (default 127.0.0.1)
//   --flight-out FILE   write the flight-recorder JSON on exit; also installs
//                       a fatal-signal handler that dumps the black box
//   --stats-interval S  log serving-stat deltas (nets/s, fallback %, p50/p99)
//                       every S seconds while the command runs (0 = off)
//
// Flags are strict "--name value" pairs. An unknown flag, a flag without its
// value, or a numeric value that does not parse completely is a usage error.
//
// Exit code 0 on success, 1 on usage errors, 2 on runtime failures.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>

#include "cell/liberty.hpp"
#include "core/estimate_cache.hpp"
#include "core/estimator.hpp"
#include "core/fault_injector.hpp"
#include "core/metrics.hpp"
#include "core/telemetry/telemetry.hpp"
#include "features/dataset.hpp"
#include "netlist/generate.hpp"
#include "netlist/incremental.hpp"
#include "netlist/report.hpp"
#include "netlist/sta.hpp"
#include "netlist/verilog.hpp"
#include "rcnet/generate.hpp"
#include "rcnet/spef.hpp"
#include "serve/server.hpp"

using namespace gnntrans;

namespace {

enum class FlagKind { kText, kInteger, kNumber };

struct FlagSpec {
  std::string_view name;
  FlagKind kind;
};

/// Every flag some subcommand reads, and the value it takes.
constexpr FlagSpec kFlags[] = {
    // Inputs, outputs and model shape.
    {"spef", FlagKind::kText},
    {"verilog", FlagKind::kText},
    {"liberty", FlagKind::kText},
    {"model", FlagKind::kText},
    {"arch", FlagKind::kText},
    {"nets", FlagKind::kInteger},
    {"seed", FlagKind::kInteger},
    {"non-tree", FlagKind::kNumber},
    {"cells", FlagKind::kInteger},
    {"epochs", FlagKind::kInteger},
    {"hidden", FlagKind::kInteger},
    {"l1", FlagKind::kInteger},
    {"l2", FlagKind::kInteger},
    {"threads", FlagKind::kInteger},
    {"batch", FlagKind::kInteger},
    {"paths", FlagKind::kInteger},
    // serve.
    {"addr", FlagKind::kText},
    {"port", FlagKind::kInteger},
    {"queue", FlagKind::kInteger},
    {"max-conns", FlagKind::kInteger},
    {"duration-s", FlagKind::kNumber},
    {"max-requests", FlagKind::kInteger},
    // eco.
    {"edits", FlagKind::kInteger},
    {"startpoints", FlagKind::kInteger},
    {"levels", FlagKind::kInteger},
    {"width", FlagKind::kInteger},
    {"steps", FlagKind::kInteger},
    {"verify", FlagKind::kText},
    // Serving robustness and the estimate cache.
    {"fallback", FlagKind::kText},
    {"deadline-ms", FlagKind::kNumber},
    {"slow-ms", FlagKind::kNumber},
    {"fault-inject", FlagKind::kNumber},
    {"fault-seed", FlagKind::kInteger},
    {"cache-mb", FlagKind::kInteger},
    {"cache-off", FlagKind::kText},
    // Model quality.
    {"shadow-rate", FlagKind::kNumber},
    {"shadow-seed", FlagKind::kInteger},
    {"psi-alert", FlagKind::kNumber},
    {"residual-alert", FlagKind::kNumber},
    // Telemetry.
    {"log-level", FlagKind::kText},
    {"log-json", FlagKind::kText},
    {"metrics-out", FlagKind::kText},
    {"trace-out", FlagKind::kText},
    {"trace-sample", FlagKind::kInteger},
    {"trace-rate", FlagKind::kNumber},
    {"trace-seed", FlagKind::kInteger},
    {"obs-port", FlagKind::kInteger},
    {"obs-addr", FlagKind::kText},
    {"flight-out", FlagKind::kText},
    {"stats-interval", FlagKind::kNumber},
};

/// \p text as a whole integer, or nullopt.
std::optional<long> parse_long(std::string_view text) {
  long value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size()) return std::nullopt;
  return value;
}

/// \p text as a whole finite number, or nullopt.
std::optional<double> parse_double(std::string_view text) {
  double value = 0.0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size() ||
      !std::isfinite(value))
    return std::nullopt;
  return value;
}

[[noreturn]] void usage_error(const std::string& message) {
  GNNTRANS_LOG_ERROR("cli", "%s", message.c_str());
  std::exit(1);
}

/// Strict --flag value parser: every flag must be in kFlags, carry a value,
/// and a numeric value must parse completely. Anything else exits 1.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; i += 2) {
      const std::string_view arg = argv[i];
      if (!arg.starts_with("--"))
        usage_error("unexpected argument '" + std::string(arg) +
                    "' (expected --flag value)");
      const std::string name(arg.substr(2));
      const auto spec =
          std::find_if(std::begin(kFlags), std::end(kFlags),
                       [&](const FlagSpec& f) { return f.name == name; });
      if (spec == std::end(kFlags)) usage_error("unknown flag --" + name);
      if (i + 1 >= argc || std::string_view(argv[i + 1]).starts_with("--"))
        usage_error("flag --" + name + " is missing its value");
      const std::string value = argv[i + 1];
      if ((spec->kind == FlagKind::kInteger && !parse_long(value)) ||
          (spec->kind == FlagKind::kNumber && !parse_double(value)))
        usage_error("flag --" + name + " expects " +
                    (spec->kind == FlagKind::kInteger ? "an integer"
                                                      : "a number") +
                    ", got '" + value + "'");
      values_[name] = value;
    }
  }
  [[nodiscard]] std::optional<std::string> get(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return std::nullopt;
    return it->second;
  }
  [[nodiscard]] std::string require(const std::string& key) const {
    const auto v = get(key);
    if (!v) {
      GNNTRANS_LOG_ERROR("cli", "missing --%s", key.c_str());
      std::exit(1);
    }
    return *v;
  }
  // Numeric values were validated at parse time.
  [[nodiscard]] long get_long(const std::string& key, long fallback) const {
    const auto v = get(key);
    return v ? *parse_long(*v) : fallback;
  }
  [[nodiscard]] double get_double(const std::string& key, double fallback) const {
    const auto v = get(key);
    return v ? *parse_double(*v) : fallback;
  }

 private:
  std::map<std::string, std::string> values_;
};

std::vector<rcnet::RcNet> load_spef(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    GNNTRANS_LOG_ERROR("spef", "cannot open %s", path.c_str());
    std::exit(2);
  }
  rcnet::SpefParseResult result = rcnet::parse_spef(in);
  for (const std::string& w : result.warnings)
    GNNTRANS_LOG_WARN("spef", "%s", w.c_str());
  if (result.nets.empty()) {
    GNNTRANS_LOG_ERROR("spef", "no nets in %s", path.c_str());
    std::exit(2);
  }
  return result.nets;
}

/// Opens \p path for writing or exits 2 with a logged error.
std::ofstream open_output(const std::string& path, const char* component) {
  std::ofstream out(path);
  if (!out) {
    GNNTRANS_LOG_ERROR(component, "cannot open %s for write", path.c_str());
    std::exit(2);
  }
  return out;
}

/// Deterministic per-net context: seeded by the net name so predict/eval of
/// the same file always time the same scenario.
features::NetContext context_for(const cell::CellLibrary& library,
                                 const rcnet::RcNet& net) {
  std::mt19937_64 rng(std::hash<std::string>{}(net.name));
  return features::random_context(library, net, rng);
}

std::vector<features::WireRecord> label_nets(const std::vector<rcnet::RcNet>& nets,
                                             const cell::CellLibrary& library) {
  sim::GoldenTimer timer{sim::TransientConfig{}};
  std::vector<features::WireRecord> records;
  records.reserve(nets.size());
  for (const rcnet::RcNet& net : nets) {
    if (!net.validate().empty()) continue;
    records.push_back(
        features::make_record(net, context_for(library, net), timer));
  }
  GNNTRANS_LOG_INFO("label", "labeled %zu nets with the golden timer (%.2f s)",
                    records.size(), timer.stats().wall_seconds);
  return records;
}

nn::ModelKind arch_from_name(const std::string& name) {
  if (name == "gnntrans") return nn::ModelKind::kGnnTrans;
  if (name == "graphsage") return nn::ModelKind::kGraphSage;
  if (name == "gcnii") return nn::ModelKind::kGcnii;
  if (name == "gat") return nn::ModelKind::kGat;
  if (name == "transformer") return nn::ModelKind::kGraphTransformer;
  GNNTRANS_LOG_ERROR("cli", "unknown --arch '%s'", name.c_str());
  std::exit(1);
}

int cmd_generate(const Args& args) {
  rcnet::NetGenConfig cfg;
  cfg.non_tree_fraction = args.get_double("non-tree", cfg.non_tree_fraction);
  std::mt19937_64 rng(static_cast<std::uint64_t>(args.get_long("seed", 1)));
  const long count = args.get_long("nets", 100);

  std::vector<rcnet::RcNet> nets;
  nets.reserve(static_cast<std::size_t>(count));
  for (long i = 0; i < count; ++i)
    nets.push_back(rcnet::generate_net(cfg, rng, "net" + std::to_string(i)));

  const std::string path = args.require("spef");
  std::ofstream out = open_output(path, "spef");
  out.precision(17);
  rcnet::write_spef(out, nets);
  std::printf("wrote %ld nets to %s\n", count, path.c_str());
  return 0;
}

int cmd_design(const Args& args) {
  const auto library = cell::CellLibrary::make_default();
  netlist::DesignGenConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(args.get_long("seed", 1));
  const long cells = args.get_long("cells", 300);
  cfg.levels = 6;
  cfg.cells_per_level =
      std::max<std::uint32_t>(3, static_cast<std::uint32_t>(cells * 0.8 / cfg.levels));
  cfg.startpoints =
      std::max<std::uint32_t>(4, static_cast<std::uint32_t>(cells * 0.12));
  const netlist::Design design =
      netlist::generate_design(cfg, library, "cli_design");

  {
    std::ofstream out = open_output(args.require("verilog"), "verilog");
    netlist::write_verilog(out, design, library);
  }
  {
    std::vector<rcnet::RcNet> nets;
    for (const netlist::DesignNet& net : design.nets) nets.push_back(net.rc);
    std::ofstream out = open_output(args.require("spef"), "spef");
    out.precision(17);
    rcnet::write_spef(out, nets);
  }
  std::printf("wrote design '%s': %zu cells, %zu nets, %zu endpoints\n",
              design.name.c_str(), design.cell_count(), design.net_count(),
              design.endpoints.size());
  return 0;
}

int cmd_libgen(const Args& args) {
  const auto library = cell::CellLibrary::make_default();
  std::ofstream out = open_output(args.require("liberty"), "liberty");
  cell::write_liberty(out, library);
  std::printf("wrote %zu cells\n", library.size());
  return 0;
}

/// Loads a model checkpoint, installs its quality baseline into the global
/// monitor (so --shadow-rate can compute feature PSI), and flips readiness.
/// Reports a rejected checkpoint (unsupported version, malformed
/// standardizer) through its typed error code instead of a generic failure.
core::WireTimingEstimator load_model_file(const std::string& path) {
  try {
    core::WireTimingEstimator estimator =
        core::WireTimingEstimator::load_file(path);
    estimator.install_quality_baseline();
    telemetry::set_model_ready(true);
    return estimator;
  } catch (const core::CheckpointError& e) {
    GNNTRANS_LOG_ERROR("cli", "%s: [%s] %s", path.c_str(),
                       core::to_string(e.status().code()),
                       e.status().message().c_str());
    std::exit(2);
  }
}

int cmd_train(const Args& args) {
  const auto library = cell::CellLibrary::make_default();
  const auto records = label_nets(load_spef(args.require("spef")), library);

  core::WireTimingEstimator::Options opt;
  opt.kind = arch_from_name(args.get("arch").value_or("gnntrans"));
  opt.model.hidden_dim = static_cast<std::size_t>(args.get_long("hidden", 16));
  opt.model.gnn_layers = static_cast<std::size_t>(args.get_long("l1", 4));
  opt.model.transformer_layers = static_cast<std::size_t>(args.get_long("l2", 2));
  opt.model.seed = static_cast<std::uint64_t>(args.get_long("seed", 1));
  opt.train.epochs = static_cast<std::size_t>(args.get_long("epochs", 30));
  opt.train.on_epoch = [](std::size_t epoch, double loss) {
    GNNTRANS_LOG_INFO("train", "epoch %zu loss %.5f", epoch, loss);
  };
  const auto estimator = core::WireTimingEstimator::train(records, opt);
  estimator.install_quality_baseline();
  telemetry::set_model_ready(true);
  estimator.save_file(args.require("model"));
  std::printf("trained %s (%zu parameters) in %.1f s -> %s\n",
              estimator.model().name().c_str(),
              estimator.model().parameter_count(),
              estimator.train_report().wall_seconds,
              args.require("model").c_str());
  return 0;
}

int cmd_eval(const Args& args) {
  const auto library = cell::CellLibrary::make_default();
  const auto estimator = load_model_file(args.require("model"));
  const auto records = label_nets(load_spef(args.require("spef")), library);
  const core::Evaluation eval = estimator.evaluate(records);
  std::printf("nets: %zu paths: %zu\n", records.size(), eval.path_count);
  std::printf("slew  R^2 %.4f   max |err| %.2f ps\n", eval.slew_r2,
              eval.slew_max_abs * 1e12);
  std::printf("delay R^2 %.4f   max |err| %.2f ps\n", eval.delay_r2,
              eval.delay_max_abs * 1e12);
  std::printf("inference: %.3f s total\n", eval.inference_seconds);
  return 0;
}

/// Reads the shared serving-robustness flags into \p options and arms the
/// global fault injector when --fault-inject is nonzero.
void apply_serving_flags(const Args& args, core::BatchOptions& options) {
  const std::string policy = args.get("fallback").value_or("analytic");
  if (policy == "analytic") {
    options.fallback = core::FallbackPolicy::kAnalytic;
  } else if (policy == "none") {
    options.fallback = core::FallbackPolicy::kNone;
  } else {
    GNNTRANS_LOG_ERROR("cli", "unknown --fallback '%s' (analytic|none)",
                       policy.c_str());
    std::exit(1);
  }
  options.deadline_seconds = args.get_double("deadline-ms", 0.0) * 1e-3;
  options.slow_net_warn_seconds = args.get_double("slow-ms", 0.0) * 1e-3;

  const double fault_p = args.get_double("fault-inject", 0.0);
  if (fault_p > 0.0) {
    core::FaultInjector::Config cfg;
    cfg.probability = fault_p;
    cfg.seed = static_cast<std::uint64_t>(args.get_long("fault-seed", 1));
    core::FaultInjector::global().configure(cfg);
    GNNTRANS_LOG_WARN("cli", "fault injection armed: p=%.4f seed=%llu",
                      fault_p,
                      static_cast<unsigned long long>(cfg.seed));
  }

  // Model-quality monitoring: shadow scoring + drift alerting. Configured
  // alongside the other serving knobs so every model-serving subcommand
  // (predict, sta/eco --model) takes the same flags.
  const double shadow_rate = args.get_double("shadow-rate", 0.0);
  if (shadow_rate > 0.0) {
    telemetry::QualityConfig qcfg;
    qcfg.shadow_rate = shadow_rate;
    qcfg.shadow_seed = static_cast<std::uint64_t>(args.get_long("shadow-seed", 1));
    qcfg.psi_alert = args.get_double("psi-alert", qcfg.psi_alert);
    qcfg.residual_alert_pct =
        args.get_double("residual-alert", qcfg.residual_alert_pct);
    telemetry::QualityMonitor::global().configure(qcfg);
    GNNTRANS_LOG_INFO("cli",
                      "shadow scoring armed: rate=%.4f seed=%llu "
                      "psi-alert=%.2f residual-alert=%.0f%%",
                      shadow_rate,
                      static_cast<unsigned long long>(qcfg.shadow_seed),
                      qcfg.psi_alert,
                      qcfg.residual_alert_pct);
  } else if (args.get("shadow-seed") || args.get("psi-alert") ||
             args.get("residual-alert")) {
    GNNTRANS_LOG_WARN("cli", "quality flags have no effect without "
                             "--shadow-rate > 0");
  }
}

/// Reads --cache-mb / --cache-off. The content-addressed estimate cache is on
/// by default (64 MiB) for every model-serving subcommand; nullopt means
/// caching is disabled. Exits 1 on a malformed --cache-off value.
std::optional<core::EstimateCacheConfig> cache_config_from(const Args& args) {
  const std::string off = args.get("cache-off").value_or("off");
  const bool disabled = off == "on" || off == "1" || off == "true";
  if (!disabled && off != "off" && off != "0" && off != "false") {
    GNNTRANS_LOG_ERROR("cli", "unknown --cache-off '%s' (on|off)", off.c_str());
    std::exit(1);
  }
  const long mb = args.get_long("cache-mb", 64);
  if (disabled || mb <= 0) {
    if (disabled && args.get("cache-mb"))
      GNNTRANS_LOG_WARN("cli", "--cache-mb has no effect with --cache-off on");
    return std::nullopt;
  }
  core::EstimateCacheConfig cfg;
  cfg.capacity_bytes = static_cast<std::size_t>(mb) << 20;
  return cfg;
}

/// One summary line of cache effectiveness after a run (hit rate is the
/// headline; evictions reveal an undersized --cache-mb).
void log_cache_stats(const core::EstimateCache& cache) {
  const core::EstimateCacheStats s = cache.stats();
  GNNTRANS_LOG_INFO(
      "serving",
      "estimate cache: %.1f%% hit rate (%llu hits, %llu of them heads-only, "
      "%llu misses), %llu entries / %.1f MiB resident, %llu evictions",
      100.0 * s.hit_rate(), static_cast<unsigned long long>(s.hits),
      static_cast<unsigned long long>(s.reused),
      static_cast<unsigned long long>(s.misses),
      static_cast<unsigned long long>(s.entries),
      static_cast<double>(s.resident_bytes) / (1024.0 * 1024.0),
      static_cast<unsigned long long>(s.evictions));
}

int cmd_predict(const Args& args) {
  const auto library = cell::CellLibrary::make_default();
  const auto estimator = load_model_file(args.require("model"));
  const auto nets = load_spef(args.require("spef"));
  const auto threads =
      static_cast<std::size_t>(std::max(1L, args.get_long("threads", 1)));
  const auto batch_size =
      static_cast<std::size_t>(std::max(1L, args.get_long("batch", 64)));

  std::vector<const rcnet::RcNet*> valid;
  std::vector<features::NetContext> contexts;
  for (const rcnet::RcNet& net : nets) {
    if (!net.validate().empty()) continue;
    valid.push_back(&net);
    contexts.push_back(context_for(library, net));
  }

  // Serve through the batched path: one pool + per-worker workspaces reused
  // across batches, so slabs stay warm for the whole file.
  core::ThreadPool pool(threads);
  std::vector<nn::Workspace> workspaces;
  core::BatchOptions options;
  options.pool = threads > 1 ? &pool : nullptr;
  options.threads = threads;
  options.workspaces = &workspaces;
  apply_serving_flags(args, options);
  std::unique_ptr<core::EstimateCache> cache;
  if (const auto ccfg = cache_config_from(args)) {
    cache = std::make_unique<core::EstimateCache>(*ccfg);
    options.cache = cache.get();
  }
  core::InferenceStats total;

  std::printf("%-16s %-6s %12s %12s  %s\n", "net", "sink", "delay(ps)",
              "slew(ps)", "source");
  for (std::size_t begin = 0; begin < valid.size(); begin += batch_size) {
    const std::size_t count = std::min(batch_size, valid.size() - begin);
    std::vector<core::NetBatchItem> items(count);
    for (std::size_t i = 0; i < count; ++i)
      items[i] = {valid[begin + i], &contexts[begin + i]};
    core::InferenceStats stats;
    const auto batches = estimator.estimate_batch(items, options, &stats);
    total.merge(stats);
    for (std::size_t i = 0; i < count; ++i)
      for (const core::PathEstimate& pe : batches[i])
        std::printf("%-16s %-6u %12.2f %12.2f  %s\n",
                    valid[begin + i]->name.c_str(), pe.sink, pe.delay * 1e12,
                    pe.slew * 1e12, core::to_string(pe.provenance));
  }
  GNNTRANS_LOG_INFO("serving", "%s", total.summary().c_str());
  if (cache) log_cache_stats(*cache);
  return 0;
}

int cmd_sta(const Args& args) {
  const auto library = cell::CellLibrary::make_default();
  const std::string verilog_path = args.require("verilog");
  std::ifstream vin(verilog_path);
  if (!vin) {
    GNNTRANS_LOG_ERROR("verilog", "cannot open %s", verilog_path.c_str());
    return 2;
  }
  netlist::VerilogParseResult parsed = netlist::parse_verilog(vin, library);
  for (const std::string& w : parsed.warnings)
    GNNTRANS_LOG_WARN("verilog", "%s", w.c_str());

  const auto spef_nets = load_spef(args.require("spef"));
  std::vector<std::string> warnings;
  netlist::attach_spef(parsed.design, spef_nets, &warnings);
  for (const std::string& w : warnings)
    GNNTRANS_LOG_WARN("sta", "%s", w.c_str());
  if (const auto errors = parsed.design.validate(); !errors.empty()) {
    GNNTRANS_LOG_ERROR("sta", "design invalid: %s", errors.front().c_str());
    return 2;
  }

  netlist::StaResult sta;
  std::string source_name;
  std::optional<core::WireTimingEstimator> estimator;
  if (const auto model_path = args.get("model")) {
    const auto threads =
        static_cast<std::size_t>(std::max(1L, args.get_long("threads", 1)));
    estimator = load_model_file(*model_path);
    core::EstimatorWireSource source(*estimator, parsed.design, library,
                                     threads);
    core::BatchOptions serving;
    apply_serving_flags(args, serving);
    source.set_serving_options(serving);
    if (const auto ccfg = cache_config_from(args)) source.enable_cache(*ccfg);
    sta = netlist::run_sta(parsed.design, library, source);
    source_name = source.name();
    GNNTRANS_LOG_INFO("serving", "%s", source.stats().summary().c_str());
    if (source.cache()) log_cache_stats(*source.cache());
  } else {
    netlist::GoldenWireSource source{sim::TransientConfig{}};
    sta = netlist::run_sta(parsed.design, library, source);
    source_name = source.name();
  }

  std::printf("wire timing source: %s\n", source_name.c_str());
  std::printf("gate %.3f s + wire %.3f s\n", sta.gate_seconds, sta.wire_seconds);
  std::printf("%-10s %14s\n", "endpoint", "arrival(ps)");
  for (std::size_t e = 0; e < parsed.design.endpoints.size(); ++e)
    std::printf("u%-9u %14.2f\n", parsed.design.endpoints[e],
                sta.endpoint_arrival[e] * 1e12);

  const long report_paths = args.get_long("paths", 0);
  if (report_paths > 0) {
    std::ostringstream report;
    netlist::write_timing_report(report, parsed.design, library, sta,
                                 static_cast<std::size_t>(report_paths));
    std::printf("\n%s", report.str().c_str());
  }
  return 0;
}

volatile std::sig_atomic_t g_serve_stop = 0;
void handle_serve_signal(int) { g_serve_stop = 1; }

int cmd_serve(const Args& args) {
  const auto estimator = load_model_file(args.require("model"));

  serve::NetServerConfig cfg;
  cfg.addr = args.get("addr").value_or(cfg.addr);
  cfg.port = static_cast<std::uint16_t>(args.get_long("port", 0));
  cfg.threads =
      static_cast<std::size_t>(std::max(1L, args.get_long("threads", 1)));
  cfg.batch_max =
      static_cast<std::size_t>(std::max(1L, args.get_long("batch", 64)));
  cfg.queue_capacity =
      static_cast<std::size_t>(std::max(1L, args.get_long("queue", 1024)));
  cfg.max_connections =
      static_cast<std::size_t>(std::max(1L, args.get_long("max-conns", 64)));
  apply_serving_flags(args, cfg.batch);
  // The batch deadline is owned by the server: each request carries its own
  // budget on the wire and the batcher propagates the tightest one.
  cfg.batch.deadline_seconds = 0.0;
  if (const auto ccfg = cache_config_from(args))
    cfg.cache_bytes = ccfg->capacity_bytes;

  serve::NetServer server(estimator, cfg);
  try {
    server.start();
  } catch (const std::exception& e) {
    GNNTRANS_LOG_ERROR("serve", "%s", e.what());
    return 2;
  }
  std::printf("serving wire timing on %s:%u (Ctrl-C drains and exits)\n",
              cfg.addr.c_str(), server.port());
  std::fflush(stdout);

  g_serve_stop = 0;
  std::signal(SIGINT, handle_serve_signal);
  std::signal(SIGTERM, handle_serve_signal);

  const double duration_s = args.get_double("duration-s", 0.0);
  const long max_requests = args.get_long("max-requests", 0);
  const auto started = std::chrono::steady_clock::now();
  while (!g_serve_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
            .count();
    if (duration_s > 0.0 && elapsed >= duration_s) break;
    if (max_requests > 0 &&
        server.ledger().requests_decoded.load() >=
            static_cast<std::uint64_t>(max_requests))
      break;
  }
  server.stop();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);

  const serve::NetServerLedger& ledger = server.ledger();
  const core::InferenceStats stats = server.stats();
  std::printf(
      "drained: %llu connections, %llu requests, %llu served, %llu rejected "
      "(%llu overload, %llu malformed, %llu deadline, %llu shutdown), %llu "
      "batches\n",
      static_cast<unsigned long long>(ledger.connections_accepted.load()),
      static_cast<unsigned long long>(ledger.requests_decoded.load()),
      static_cast<unsigned long long>(ledger.served.load()),
      static_cast<unsigned long long>(ledger.rejected_total()),
      static_cast<unsigned long long>(ledger.rejected_overload.load()),
      static_cast<unsigned long long>(ledger.rejected_malformed.load()),
      static_cast<unsigned long long>(ledger.rejected_deadline.load()),
      static_cast<unsigned long long>(ledger.rejected_shutdown.load()),
      static_cast<unsigned long long>(ledger.batches.load()));
  GNNTRANS_LOG_INFO("serving", "%s", stats.summary().c_str());
  if (server.cache()) log_cache_stats(*server.cache());
  return 0;
}

/// True when every per-instance timing quantity of \p a and \p b is bitwise
/// identical — the ECO equivalence contract (doubles compared by bit pattern,
/// so NaNs or signed zeros would not slip through a numeric ==).
bool bitwise_equal(const netlist::StaResult& a, const netlist::StaResult& b,
                   const char** what) {
  auto eq_d = [](const std::vector<double>& x, const std::vector<double>& y) {
    return x.size() == y.size() &&
           (x.empty() ||
            std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
  };
  if (!eq_d(a.arrival, b.arrival)) return *what = "arrival", false;
  if (!eq_d(a.slew, b.slew)) return *what = "slew", false;
  if (!eq_d(a.required, b.required)) return *what = "required", false;
  if (!eq_d(a.slack, b.slack)) return *what = "slack", false;
  if (a.arrival_settled != b.arrival_settled)
    return *what = "arrival_settled", false;
  if (!eq_d(a.endpoint_arrival, b.endpoint_arrival))
    return *what = "endpoint_arrival", false;
  if (!eq_d(a.endpoint_slack, b.endpoint_slack))
    return *what = "endpoint_slack", false;
  return true;
}

int cmd_eco(const Args& args) {
  const auto library = cell::CellLibrary::make_default();
  netlist::DesignGenConfig dcfg;
  dcfg.startpoints =
      static_cast<std::uint32_t>(std::max(1L, args.get_long("startpoints", 8)));
  dcfg.levels =
      static_cast<std::uint32_t>(std::max(1L, args.get_long("levels", 5)));
  dcfg.cells_per_level =
      static_cast<std::uint32_t>(std::max(1L, args.get_long("width", 10)));
  dcfg.seed = static_cast<std::uint64_t>(std::max(1L, args.get_long("seed", 1)));
  netlist::Design design = netlist::generate_design(dcfg, library, "eco");
  const long edits = std::max(1L, args.get_long("edits", 20));
  const bool verify = args.get("verify").value_or("on") != "off";

  std::unique_ptr<netlist::WireTimingSource> source;
  core::EstimatorWireSource* estimator_source = nullptr;
  std::optional<core::WireTimingEstimator> estimator;
  if (const auto model_path = args.get("model")) {
    estimator = load_model_file(*model_path);
    auto src = std::make_unique<core::EstimatorWireSource>(
        *estimator, design, library,
        static_cast<std::size_t>(std::max(1L, args.get_long("threads", 1))));
    core::BatchOptions serving;
    apply_serving_flags(args, serving);
    src->set_serving_options(serving);
    // ECO + caching compose for free: content addressing means an edit's
    // retimes miss (new parasitic bytes, new key) while untouched nets hit.
    if (const auto ccfg = cache_config_from(args)) src->enable_cache(*ccfg);
    estimator_source = src.get();
    source = std::move(src);
  } else {
    sim::TransientConfig tc;
    tc.steps = static_cast<std::size_t>(std::max(50L, args.get_long("steps", 300)));
    source = std::make_unique<netlist::GoldenWireSource>(tc);
  }

  // Default StaConfig: incremental_tolerance 0 == the bitwise contract.
  const netlist::StaConfig sta_config;
  // Pass a copy: the estimator stays bound to `design` through the
  // constructor's full STA, then gets re-pointed at the engine's own copy
  // (and again after edits that create nets).
  netlist::IncrementalSta inc(design, library, *source, sta_config);
  if (estimator_source) estimator_source->rebind(inc.design());

  std::mt19937_64 rng(dcfg.seed * 0x9e3779b97f4a7c15ULL + 1);
  std::size_t total_retimed = 0;
  std::size_t total_required = 0;
  std::size_t mismatches = 0;

  // Live ECO observability: with --obs-port these counters and the per-edit
  // flight records make a running ECO session scrapable mid-flight, not just
  // summarized at exit.
  auto& registry = telemetry::MetricsRegistry::global();
  const telemetry::Counter eco_edits = registry.counter(
      "gnntrans_eco_edits_total", "ECO edits applied via the incremental engine");
  const telemetry::Counter eco_retimed = registry.counter(
      "gnntrans_eco_retimed_instances_total",
      "Instances retimed by incremental ECO updates");
  const telemetry::Counter eco_verify_failures = registry.counter(
      "gnntrans_eco_verify_failures_total",
      "ECO edits whose incremental result diverged from a full run_sta");
  telemetry::FlightRecorder& flight = telemetry::FlightRecorder::global();

  std::printf("%-5s %-52s %9s %9s\n", "edit", "description", "forward",
              "required");
  for (long i = 0; i < edits; ++i) {
    netlist::EcoEdit edit =
        netlist::apply_random_edit(inc, library, rng, dcfg.net_config);
    std::size_t fixup = 0;
    if (estimator_source && edit.kind == netlist::EcoEdit::Kind::kInsertBuffer) {
      // The splice created a net the source has never seen and changed the
      // load list of the original one; re-point the source and refresh both
      // nets so their stored timings reflect the rebound contexts.
      estimator_source->rebind(inc.design());
      const std::uint32_t touched[2] = {
          edit.net, static_cast<std::uint32_t>(inc.design().nets.size() - 1)};
      for (const std::uint32_t net_idx : touched) {
        rcnet::RcNet rc = inc.design().nets[net_idx].rc;
        fixup += inc.reroute_net(net_idx, std::move(rc));
      }
    }
    total_retimed += edit.retimed + fixup;
    total_required += edit.required_updates;
    eco_edits.inc();
    eco_retimed.inc(edit.retimed + fixup);
    if (flight.enabled()) {
      telemetry::FlightRecord fr;
      fr.set_net("eco_edit_" + std::to_string(i));
      fr.set_outcome(edit.kind_name());
      fr.total_us = static_cast<float>(edit.retimed + fixup);
      flight.record(fr);
    }
    std::printf("%-5ld %-52s %9zu %9zu\n", i, edit.describe().c_str(),
                edit.retimed + fixup, edit.required_updates);
    if (verify) {
      const netlist::StaResult full =
          netlist::run_sta(inc.design(), library, *source, sta_config);
      const char* what = "";
      if (!bitwise_equal(inc.result(), full, &what)) {
        ++mismatches;
        eco_verify_failures.inc();
        if (flight.enabled()) {
          telemetry::FlightRecord fr;
          fr.set_net("eco_edit_" + std::to_string(i));
          fr.set_outcome("eco_mismatch");
          fr.set_error(what);
          fr.degraded = 1;  // pins past ring wrap, like a degraded net
          flight.record(fr);
        }
        GNNTRANS_LOG_ERROR("eco",
                           "edit %ld (%s): incremental %s diverges from full "
                           "run_sta",
                           i, edit.kind_name(), what);
      }
    }
  }

  const std::size_t instances = inc.design().instances.size();
  const double mean_retimed =
      static_cast<double>(total_retimed) / static_cast<double>(edits);
  std::printf(
      "\n%zu instances; %ld edits; mean %.1f retimed + %.1f required-updates "
      "per edit (%.1f%% of design); worst arrival %.2f ps, worst slack %.2f "
      "ps\n",
      instances, edits, mean_retimed,
      static_cast<double>(total_required) / static_cast<double>(edits),
      100.0 * mean_retimed / static_cast<double>(instances),
      inc.worst_arrival() * 1e12, inc.worst_slack() * 1e12);
  if (verify)
    std::printf("verification: %ld/%ld edits bitwise-equal to full run_sta\n",
                edits - static_cast<long>(mismatches), edits);
  if (estimator_source && estimator_source->cache())
    log_cache_stats(*estimator_source->cache());

  const long report_paths = args.get_long("paths", 0);
  if (report_paths > 0) {
    std::ostringstream report;
    netlist::write_timing_report(report, inc.design(), library, inc.result(),
                                 static_cast<std::size_t>(report_paths));
    std::printf("\n%s", report.str().c_str());
  }
  return mismatches == 0 ? 0 : 2;
}

void usage() {
  GNNTRANS_LOG_ERROR(
      "cli",
      "usage: gnntrans_cli "
      "<generate|design|libgen|train|eval|predict|sta|serve|eco> "
      "[--flag value ...]; telemetry flags (any command): --log-level "
      "<trace|debug|info|warn|error|off> --log-json FILE --metrics-out FILE "
      "--trace-out FILE --trace-rate R --trace-seed N --obs-port P "
      "--flight-out FILE --stats-interval S "
      "(see the header comment of tools/gnntrans_cli.cpp for per-command "
      "flags)");
}

/// Applies --log-level / --log-json / --trace-out / --trace-sample /
/// --trace-rate / --trace-seed / --flight-out before
/// command dispatch. Exits 1 on an unknown level name, 2 on an unwritable
/// log file.
void setup_telemetry(const Args& args) {
  if (const auto level_name = args.get("log-level")) {
    bool ok = false;
    const telemetry::LogLevel level = telemetry::parse_log_level(*level_name, &ok);
    if (!ok) {
      GNNTRANS_LOG_ERROR("cli", "unknown --log-level '%s'", level_name->c_str());
      std::exit(1);
    }
    telemetry::Logger::global().set_level(level);
  }
  if (const auto log_json = args.get("log-json")) {
    try {
      telemetry::Logger::global().add_sink(
          std::make_shared<telemetry::JsonLinesSink>(*log_json));
    } catch (const std::exception& e) {
      GNNTRANS_LOG_ERROR("cli", "%s", e.what());
      std::exit(2);
    }
  }
  telemetry::TraceConfig trace_cfg;
  trace_cfg.sample_every =
      static_cast<std::size_t>(std::max(1L, args.get_long("trace-sample", 1)));
  // Head sampling for request tracing: --trace-rate is the fraction of
  // requests that get a full stage-clock trace (clamped to [0,1]); the seed
  // varies which requests are picked without changing the rate.
  trace_cfg.head_sample_rate = std::clamp(
      args.get_double("trace-rate", trace_cfg.head_sample_rate), 0.0, 1.0);
  if (const long seed = args.get_long("trace-seed", 0); seed != 0)
    trace_cfg.head_seed = static_cast<std::uint64_t>(seed);
  telemetry::TraceRecorder::global().configure(trace_cfg);
  if (args.get("trace-out")) telemetry::TraceRecorder::global().enable();
  if (const auto flight_path = args.get("flight-out"))
    telemetry::install_flight_signal_dump(flight_path->c_str());
}

/// Live observability started from flags. The members shut themselves down
/// when this goes out of scope at the end of main(), after the command and
/// the telemetry flush have finished.
struct Observability {
  std::unique_ptr<telemetry::ObsServer> server;
  std::unique_ptr<telemetry::StatsReporter> reporter;
};

Observability start_observability(const Args& args) {
  Observability obs;
  if (args.get("obs-port")) {
    telemetry::ObsServerConfig cfg;
    cfg.addr = args.get("obs-addr").value_or(cfg.addr);
    cfg.port = static_cast<std::uint16_t>(args.get_long("obs-port", 0));
    obs.server = std::make_unique<telemetry::ObsServer>(cfg);
    try {
      obs.server->start();
    } catch (const std::exception& e) {
      GNNTRANS_LOG_ERROR("cli", "%s", e.what());
      std::exit(2);
    }
  } else if (args.get("obs-addr")) {
    GNNTRANS_LOG_WARN("cli", "--obs-addr has no effect without --obs-port");
  }
  const double interval = args.get_double("stats-interval", 0.0);
  if (interval > 0.0) {
    obs.reporter = std::make_unique<telemetry::StatsReporter>(
        telemetry::StatsReporterConfig{interval});
    obs.reporter->start();
  }
  return obs;
}

/// Writes --metrics-out / --trace-out files after a successful command.
/// Returns 2 if an output file cannot be written, 0 otherwise.
int flush_telemetry(const Args& args) {
  int rc = 0;
  if (const auto metrics_path = args.get("metrics-out")) {
    std::ofstream out(*metrics_path);
    if (!out) {
      GNNTRANS_LOG_ERROR("cli", "cannot open %s for write", metrics_path->c_str());
      rc = 2;
    } else {
      const auto& registry = telemetry::MetricsRegistry::global();
      const bool json = metrics_path->size() >= 5 &&
                        metrics_path->compare(metrics_path->size() - 5, 5,
                                              ".json") == 0;
      out << (json ? registry.json_text() : registry.prometheus_text());
      GNNTRANS_LOG_DEBUG("cli", "wrote metrics snapshot to %s",
                         metrics_path->c_str());
    }
  }
  if (const auto trace_path = args.get("trace-out")) {
    std::ofstream out(*trace_path);
    if (!out) {
      GNNTRANS_LOG_ERROR("cli", "cannot open %s for write", trace_path->c_str());
      rc = 2;
    } else {
      telemetry::TraceRecorder::global().write_chrome_json(out);
      GNNTRANS_LOG_DEBUG("cli", "wrote %zu trace events to %s",
                         telemetry::TraceRecorder::global().event_count(),
                         trace_path->c_str());
    }
  }
  if (const auto flight_path = args.get("flight-out")) {
    std::ofstream out(*flight_path);
    if (!out) {
      GNNTRANS_LOG_ERROR("cli", "cannot open %s for write", flight_path->c_str());
      rc = 2;
    } else {
      telemetry::FlightRecorder::global().write_json(out);
      GNNTRANS_LOG_DEBUG("cli", "wrote %llu flight records to %s",
                         static_cast<unsigned long long>(
                             telemetry::FlightRecorder::global().recorded_total()),
                         flight_path->c_str());
    }
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 1;
  }
  const std::string cmd = argv[1];
  const Args args(argc, argv);
  setup_telemetry(args);
  const Observability obs = start_observability(args);
  int rc = -1;
  try {
    if (cmd == "generate") rc = cmd_generate(args);
    else if (cmd == "design") rc = cmd_design(args);
    else if (cmd == "libgen") rc = cmd_libgen(args);
    else if (cmd == "train") rc = cmd_train(args);
    else if (cmd == "eval") rc = cmd_eval(args);
    else if (cmd == "predict") rc = cmd_predict(args);
    else if (cmd == "sta") rc = cmd_sta(args);
    else if (cmd == "serve") rc = cmd_serve(args);
    else if (cmd == "eco") rc = cmd_eco(args);
  } catch (const std::exception& e) {
    GNNTRANS_LOG_ERROR("cli", "%s", e.what());
    return 2;
  }
  if (rc < 0) {
    usage();
    return 1;
  }
  if (rc == 0) {
    if (const int telemetry_rc = flush_telemetry(args); telemetry_rc != 0)
      return telemetry_rc;
  }
  return rc;
}
