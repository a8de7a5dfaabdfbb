/// \file telemetry.hpp
/// Umbrella header for the observability subsystem: the stage table every
/// stage-timed record names its stages from (stage.hpp), structured logging
/// (log.hpp), the sharded metrics registry (metrics.hpp), trace-span
/// profiling with adaptive sampling and request head sampling (trace.hpp),
/// the per-net flight recorder that also keeps the slowest sampled requests
/// for /tracez (flight_recorder.hpp), the HTTP scrape server (obs_server.hpp),
/// the periodic stats reporter (stats_reporter.hpp), and the model-quality
/// monitor (quality.hpp: shadow scoring, feature drift, accuracy-aware
/// readiness). Zero external
/// dependencies; see DESIGN.md "Telemetry" for the architecture and
/// overhead budget.
#pragma once

#include "core/telemetry/flight_recorder.hpp"
#include "core/telemetry/log.hpp"
#include "core/telemetry/metrics.hpp"
#include "core/telemetry/obs_server.hpp"
#include "core/telemetry/quality.hpp"
#include "core/telemetry/stage.hpp"
#include "core/telemetry/stats_reporter.hpp"
#include "core/telemetry/trace.hpp"
