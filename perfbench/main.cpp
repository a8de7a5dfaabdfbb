// The repository benchmark driver. One run: build the served-model fixture
// (timed as set-up), run one workload for --seconds, check every output, and
// print the metrics. The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
// holding the end-to-end metrics, or with --trace 1 the per-layer metrics of
// a traced run. Exit status 0 only when every check passed.
//
//   perfbench --workload batch_small|batch_large|eco_retime
//             --seed N --seconds S --trace 0|1 [--out DIR] [--smoke 1]
//             [--flip-bit 1]
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

/// Every per-layer metric a traced run reports, with its unit. A workload
/// reports the layers on its path; the others read 0 (not exercised).
const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"rcnet.validate_us", "us"},
    {"sim.analyze_wire_us", "us"},
    {"sim.analyze_wire_share_pct", "%"},
    {"features.extract_self_us", "us"},
    {"features.make_sample_us", "us"},
    {"nn.forward_us", "us"},
    {"nn.forward_share_pct", "%"},
    {"nn.forward_mflop", "MFLOP"},
    {"nn.forward_gflops", "GFLOP/s"},
    {"nn.forward_scaling", "ratio"},
    {"tensor.arena_reuse_ratio", "ratio"},
    {"core.estimate_us", "us"},
    {"core.batch_self_us", "us"},
    {"core.thread_scaling", "ratio"},
    {"core.cache_hit_ratio", "ratio"},
    {"core.cache_lookup_us", "us"},
    {"core.cache_insert_us", "us"},
    {"core.degraded_nets", "count"},
    {"netlist.sta_wire_share", "ratio"},
    {"netlist.sta_level_batch_p50", "count"},
    {"netlist.sta_warm_ms", "ms"},
    {"netlist.edit_cone", "count"},
    {"netlist.edit_nets_retimed", "count"},
    {"netlist.edit_wire_ms", "ms"},
    {"netlist.edit_self_ms", "ms"},
    {"serve.slo_rps", "1/s"},
    {"serve.encode_us", "us"},
    {"serve.decode_us", "us"},
    {"serve.overhead_us_p50", "us"},
    {"serve.batch_size_mean", "count"},
    {"serve.rejected", "count"},
    {"serve.timeouts", "count"},
    {"bench.gen_lag_ms_p99", "ms"},
    {"bench.trace_overhead_pct", "%"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out DIR] [--smoke 1] [--flip-bit 1]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) usage("flag without a value");
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0.0)) usage("--seconds takes a positive number");
    } else if (flag == "--trace" || flag == "--smoke" || flag == "--flip-bit") {
      if (value != "0" && value != "1") usage("expected 0 or 1");
      (flag == "--trace" ? o.trace : flag == "--smoke" ? o.smoke : o.flip_bit) =
          value == "1";
    } else if (flag == "--out") {
      o.out_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (o.workload != "batch_small" && o.workload != "batch_large" &&
      o.workload != "eco_retime")
    usage("unknown --workload");
  return o;
}

volatile double g_calibration_sink = 0.0;

/// A fixed integer/floating-point loop; its wall time on one thread and on
/// nproc threads at once fingerprints the box and how busy it is.
double calibration_ms(std::size_t threads) {
  const auto t0 = Clock::now();
  std::vector<std::thread> workers;
  std::vector<double> sink(threads, 0.0);
  for (std::size_t t = 0; t < threads; ++t)
    workers.emplace_back([&sink, t] {
      std::uint64_t x = 88172645463325252ULL + t;
      double acc = 0.0;
      for (int i = 0; i < 20'000'000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += static_cast<double>(x & 0xffff) * 1e-9;
      }
      sink[t] = acc;
    });
  for (std::thread& w : workers) w.join();
  const double ms = seconds_since(t0) * 1e3;
  g_calibration_sink = sink[0];
  return ms;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

std::string perfbench::trace_path(const Options& options) {
  return options.out_dir + "/trace-" + options.workload + "-seed" +
         std::to_string(options.seed) + ".json";
}

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  std::filesystem::create_directories(options.out_dir);

  const double calib_1 = calibration_ms(1);
  const double calib_n = calibration_ms(nproc());
  std::printf(
      "{\"fingerprint\": {\"nproc\": %zu, \"cpu\": \"%s\", "
      "\"calib_1thread_ms\": %.3f, \"calib_nthread_ms\": %.3f, "
      "\"parallel_speedup\": %.3f, \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %.3f, \"trace\": %d}}\n",
      nproc(), json_escape(cpu_model()).c_str(), calib_1, calib_n,
      static_cast<double>(nproc()) * calib_1 / calib_n, options.workload.c_str(),
      static_cast<unsigned long long>(options.seed), options.seconds,
      options.trace ? 1 : 0);

  Report report;
  Fixture fixture;
  double setup_s = 0.0;
  build_fixture(fixture, options, options.smoke ? 1 : 3, &setup_s, report);
  const core::Evaluation eval = fixture.estimator->evaluate(fixture.heldout);

  if (options.workload == "batch_small") run_batch(options, fixture, report, false);
  else if (options.workload == "batch_large") run_batch(options, fixture, report, true);
  else run_eco_retime(options, fixture, report);

  std::vector<Report::Metric> metrics;
  if (!options.trace) {
    metrics.push_back({"setup_s", setup_s, "s"});
    metrics.push_back({"peak_rss_mb", peak_rss_mib(), "MiB"});
    metrics.insert(metrics.end(), report.e2e().begin(), report.e2e().end());
    metrics.push_back({"delay_r2", eval.delay_r2, "R2"});
    metrics.push_back({"slew_r2", eval.slew_r2, "R2"});
  } else {
    for (const auto& [name, unit] : kLayerMetrics) {
      Report::Metric m{name, 0.0, unit};
      for (const Report::Metric& r : report.layers())
        if (r.name == name) m = r;
      metrics.push_back(m);
    }
    for (const Report::Metric& r : report.layers()) {
      bool known = false;
      for (const auto& entry : kLayerMetrics) known |= entry.first == r.name;
      if (!known) report.fail("uncatalogued per-layer metric " + r.name);
    }
  }

  const double fail_pct =
      report.attempted() == 0
          ? 0.0
          : 100.0 * static_cast<double>(report.failed()) /
                static_cast<double>(report.attempted());
  std::printf("\n%-28s %18s  %s\n", "metric", "value", "unit");
  for (const Report::Metric& m : metrics)
    std::printf("%-28s %18.6f  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("%-28s %18.6f  %s\n", "fail_pct", fail_pct, "%");
  for (const std::string& why : report.failures())
    std::printf("FAILED CHECK: %s\n", why.c_str());

  const bool correct = report.failed() == 0 && report.attempted() > 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted());
  json += ", \"failed\": " + std::to_string(report.failed());
  json += ", \"metrics\": {";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
