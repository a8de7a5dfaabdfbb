// The three workloads. Each fills the report with its end-to-end metrics
// (untraced run) or its per-layer metrics (traced run) and records every
// output check it makes.
#pragma once

#include "common.hpp"

namespace perfbench {

class Tracer;

/// batch_small (\p large false) and batch_large (\p large true).
void run_batch(const Options& options, const Fixture& fixture, Report& report,
               bool large);
void run_eco_retime(const Options& options, const Fixture& fixture,
                    Report& report);

/// The serve layer, measured in batch_small's traced run: NetServer on
/// loopback under open-loop load of batch_small-distribution nets. Reports
/// the serve.* metrics and bench.gen_lag_ms_p99; its spans go to \p tracer.
void run_serve_layers(const Options& options, const Fixture& fixture,
                      Tracer& tracer, Report& report);

/// Path of the Chrome trace file of a traced run.
[[nodiscard]] std::string trace_path(const Options& options);

}  // namespace perfbench
