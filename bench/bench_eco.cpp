// ECO what-if benchmark: incremental retime cost vs full-STA cost.
//
// Protocol: generate a levelized design, run the golden wire timer once to
// price a full run_sta pass, then drive the IncrementalSta engine through N
// seeded random ECO edits (cell swaps, net reroutes, buffer insertions) and
// record the per-edit wall time and cone size (forward re-evaluations +
// reverse required-time updates). The paper's incremental-optimization claim
// holds when the mean cone stays well below the design size and the mean
// edit cost stays well below a full pass.
//
// A machine-readable summary always lands in BENCH_eco.json in the working
// directory (override the path with --json-out). Flags:
//   --edits N          edit count (default 200)
//   --seed S           design + edit-stream seed (default 1)
//   --steps T          transient resolution of the golden timer (default 300)
//   --startpoints P --levels L --width W   design shape (default 10/6/12)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "cell/library.hpp"
#include "core/telemetry/telemetry.hpp"
#include "netlist/generate.hpp"
#include "netlist/incremental.hpp"
#include "netlist/sta.hpp"
#include "support.hpp"

using namespace gnntrans;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Quantile over a sorted sample (nearest-rank; 0 on empty).
double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

struct KindStats {
  std::size_t edits = 0;
  std::size_t cone_sum = 0;
  double seconds = 0.0;
};

struct BenchSummary {
  std::size_t instances = 0;
  std::size_t edits = 0;
  double full_sta_seconds = 0.0;
  double mean_edit_seconds = 0.0;
  double speedup = 0.0;  ///< full_sta_seconds / mean_edit_seconds
  double mean_cone = 0.0;
  double cone_fraction = 0.0;  ///< mean_cone / instances
  double cone_p50 = 0.0;
  double cone_p90 = 0.0;
  double cone_max = 0.0;
  double mean_required_updates = 0.0;
  KindStats swap, reroute, insert;
};

void write_summary_json(const std::string& path, const BenchSummary& s) {
  std::ofstream out(path);
  if (!out) {
    GNNTRANS_LOG_ERROR("bench", "cannot open %s for write", path.c_str());
    return;
  }
  auto kind_mean_cone = [](const KindStats& k) {
    return k.edits == 0 ? 0.0
                        : static_cast<double>(k.cone_sum) /
                              static_cast<double>(k.edits);
  };
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "{\n"
                "  \"instances\": %zu,\n"
                "  \"edits\": %zu,\n"
                "  \"full_sta_seconds\": %.6f,\n"
                "  \"mean_edit_seconds\": %.6f,\n"
                "  \"speedup_vs_full_sta\": %.2f,\n"
                "  \"mean_retimed_per_edit\": %.2f,\n"
                "  \"cone_fraction_of_design\": %.4f,\n"
                "  \"cone_p50\": %.1f,\n"
                "  \"cone_p90\": %.1f,\n"
                "  \"cone_max\": %.1f,\n"
                "  \"mean_required_updates\": %.2f,\n"
                "  \"swap_edits\": %zu,\n"
                "  \"swap_mean_cone\": %.2f,\n"
                "  \"reroute_edits\": %zu,\n"
                "  \"reroute_mean_cone\": %.2f,\n"
                "  \"insert_edits\": %zu,\n"
                "  \"insert_mean_cone\": %.2f\n"
                "}\n",
                s.instances, s.edits, s.full_sta_seconds, s.mean_edit_seconds,
                s.speedup, s.mean_cone, s.cone_fraction, s.cone_p50, s.cone_p90,
                s.cone_max, s.mean_required_updates, s.swap.edits,
                kind_mean_cone(s.swap), s.reroute.edits,
                kind_mean_cone(s.reroute), s.insert.edits,
                kind_mean_cone(s.insert));
  out << buf;
  GNNTRANS_LOG_INFO("bench", "wrote %s", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_eco.json";
  std::size_t edits = 200;
  std::uint64_t seed = 1;
  std::size_t steps = 300;
  netlist::DesignGenConfig dcfg;
  dcfg.startpoints = 10;
  dcfg.levels = 6;
  dcfg.cells_per_level = 12;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--json-out") == 0) json_path = argv[i + 1];
    else if (std::strcmp(argv[i], "--edits") == 0)
      edits = static_cast<std::size_t>(std::atol(argv[i + 1]));
    else if (std::strcmp(argv[i], "--seed") == 0)
      seed = static_cast<std::uint64_t>(std::atol(argv[i + 1]));
    else if (std::strcmp(argv[i], "--steps") == 0)
      steps = static_cast<std::size_t>(std::atol(argv[i + 1]));
    else if (std::strcmp(argv[i], "--startpoints") == 0)
      dcfg.startpoints = static_cast<std::uint32_t>(std::atol(argv[i + 1]));
    else if (std::strcmp(argv[i], "--levels") == 0)
      dcfg.levels = static_cast<std::uint32_t>(std::atol(argv[i + 1]));
    else if (std::strcmp(argv[i], "--width") == 0)
      dcfg.cells_per_level = static_cast<std::uint32_t>(std::atol(argv[i + 1]));
  }
  dcfg.seed = seed;

  const auto library = cell::CellLibrary::make_default();
  netlist::Design design = netlist::generate_design(dcfg, library, "bench_eco");
  sim::TransientConfig tc;
  tc.steps = steps;
  netlist::GoldenWireSource source(tc);
  const netlist::StaConfig sta_config;

  // Price a full pass (the cost every what-if would pay without the engine).
  constexpr int kFullRuns = 3;
  const auto full_start = Clock::now();
  for (int r = 0; r < kFullRuns; ++r) {
    const netlist::StaResult full =
        netlist::run_sta(design, library, source, sta_config);
    (void)full;
  }
  const double full_seconds = seconds_since(full_start) / kFullRuns;

  netlist::IncrementalSta inc(std::move(design), library, source, sta_config);
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 1);

  BenchSummary summary;
  summary.edits = edits;
  summary.full_sta_seconds = full_seconds;

  std::vector<double> cones;
  cones.reserve(edits);
  double edit_seconds_total = 0.0;
  std::size_t required_total = 0;
  for (std::size_t i = 0; i < edits; ++i) {
    const auto edit_start = Clock::now();
    const netlist::EcoEdit edit =
        netlist::apply_random_edit(inc, library, rng, dcfg.net_config);
    const double edit_seconds = seconds_since(edit_start);
    edit_seconds_total += edit_seconds;
    required_total += edit.required_updates;
    cones.push_back(static_cast<double>(edit.retimed));
    KindStats& k = edit.kind == netlist::EcoEdit::Kind::kSwapCell
                       ? summary.swap
                       : edit.kind == netlist::EcoEdit::Kind::kRerouteNet
                             ? summary.reroute
                             : summary.insert;
    ++k.edits;
    k.cone_sum += edit.retimed;
    k.seconds += edit_seconds;
  }

  summary.instances = inc.design().instances.size();
  summary.mean_edit_seconds = edit_seconds_total / static_cast<double>(edits);
  summary.speedup = summary.mean_edit_seconds > 0.0
                        ? summary.full_sta_seconds / summary.mean_edit_seconds
                        : 0.0;
  double cone_sum = 0.0;
  for (const double c : cones) cone_sum += c;
  summary.mean_cone = cone_sum / static_cast<double>(edits);
  summary.cone_fraction =
      summary.mean_cone / static_cast<double>(summary.instances);
  std::sort(cones.begin(), cones.end());
  summary.cone_p50 = quantile(cones, 0.50);
  summary.cone_p90 = quantile(cones, 0.90);
  summary.cone_max = cones.empty() ? 0.0 : cones.back();
  summary.mean_required_updates =
      static_cast<double>(required_total) / static_cast<double>(edits);

  std::printf("design: %zu instances, %zu nets after %zu edits\n",
              summary.instances, inc.design().nets.size(), edits);
  std::printf("full run_sta: %.4f s/pass (golden, %zu steps)\n", full_seconds,
              steps);
  std::printf("incremental:  %.6f s/edit mean -> %.1fx vs full pass\n",
              summary.mean_edit_seconds, summary.speedup);
  std::printf("cone size:    mean %.1f (%.1f%% of design)  p50 %.0f  p90 %.0f"
              "  max %.0f\n",
              summary.mean_cone, 100.0 * summary.cone_fraction,
              summary.cone_p50, summary.cone_p90, summary.cone_max);
  std::printf("required:     mean %.1f reverse updates/edit\n",
              summary.mean_required_updates);
  auto print_kind = [](const char* name, const KindStats& k) {
    if (k.edits == 0) return;
    std::printf("  %-14s %4zu edits  mean cone %6.1f  mean %.6f s\n", name,
                k.edits, static_cast<double>(k.cone_sum) /
                             static_cast<double>(k.edits),
                k.seconds / static_cast<double>(k.edits));
  };
  print_kind("swap_cell", summary.swap);
  print_kind("reroute_net", summary.reroute);
  print_kind("insert_buffer", summary.insert);

  write_summary_json(json_path, summary);
  return 0;
}
