/// \file features.hpp
/// Raw node and path features (paper Table I).
///
/// Node features (per capacitance): exactly the ten node rows of Table I —
/// 8 structural values plus the Elmore downstream capacitance and stage
/// delay. Driver context (input slew, drive cell) enters only through the
/// *path* features, exactly as in the paper; this asymmetry is what gives
/// GNNTrans its edge over mean-pooled baselines in Tables III/IV.
///
/// Path features (per wire path): input slew, drive-cell strength and
/// function, load-cell strength and function, load effective capacitance, and
/// the path's Elmore and D2M delays — plus the impulse-response spread
/// sqrt(2*m2 - m1^2) at the sink, the classical two-moment *slew* metric from
/// the same Elmore-moment family Table I draws on (the paper selects features
/// by "parameter-sweeping experiments"; this one is what such a sweep selects
/// for the slew target).
///
/// "Input/output" node directions follow the shortest-path-tree orientation
/// away from the source (the paper's stage decomposition).
#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "cell/library.hpp"
#include "rcnet/rcnet.hpp"
#include "sim/wire_analysis.hpp"

namespace gnntrans::features {

/// Node feature column indices / count.
enum NodeFeature : std::size_t {
  kCapValue = 0,
  kNumInputNodes,
  kNumOutputNodes,
  kTotInputCap,
  kTotOutputCap,
  kNumConnectedRes,
  kTotInputRes,
  kTotOutputRes,
  kDownstreamCap,
  kStageDelay,
  kNodeFeatureCount
};

/// Path feature column indices / count.
enum PathFeature : std::size_t {
  kInputSlew = 0,
  kDriveStrength,
  kDriveFunction,
  kLoadStrength,
  kLoadFunction,
  kLoadCeff,
  kElmoreDelay,
  kD2mDelay,
  kImpulseSpread,
  kPathFeatureCount
};

/// The path-feature columns that depend only on the net, not on its context:
/// kElmoreDelay, kD2mDelay and kImpulseSpread, in PathFeature order.
inline constexpr std::size_t kNetPathFeatureBase = kElmoreDelay;
inline constexpr std::size_t kNetPathFeatureCount =
    kPathFeatureCount - kNetPathFeatureBase;
static_assert(kD2mDelay == kElmoreDelay + 1 && kImpulseSpread == kD2mDelay + 1 &&
              kNetPathFeatureCount == 3);

/// Load cell attached to one sink.
struct SinkLoad {
  std::uint32_t drive_strength = 1;
  std::uint32_t function = 0;
  double input_cap = 1e-15;  ///< farads
};

/// Driver / load / slew context a net is timed under.
struct NetContext {
  double input_slew = 4e-11;         ///< seconds (20/80)
  double driver_resistance = 200.0;  ///< ohms
  std::uint32_t driver_strength = 1;
  std::uint32_t driver_function = 0;
  std::vector<SinkLoad> loads;  ///< aligned with net.sinks
};

/// Draws a random-but-plausible context from \p library (random driver cell,
/// lognormal input slew, random load cells).
[[nodiscard]] NetContext random_context(const cell::CellLibrary& library,
                                        const rcnet::RcNet& net,
                                        std::mt19937_64& rng);

/// Canonical FNV-1a/splitmix hash of the full timing context: input slew,
/// driver resistance/strength/function and every SinkLoad, doubles by raw bit
/// pattern. Combined with RcNet::validate()'s content hash this forms the
/// content-addressed estimate-cache key: any value that can change a
/// PathEstimate changes the hash.
[[nodiscard]] std::uint64_t content_hash(const NetContext& context) noexcept;

/// Raw (unstandardized) feature matrices plus the analysis they came from.
struct RawFeatures {
  std::vector<float> x;  ///< [node_count x kNodeFeatureCount], row-major
  std::vector<float> h;  ///< [path_count x kPathFeatureCount], row-major
  sim::WireAnalysis analysis;
};

/// Raw path-feature rows [P x kPathFeatureCount] under \p context, from the
/// net's own columns \p net_columns ([P x kNetPathFeatureCount], P =
/// context.loads.size()). extract_features builds its h with this, so a net
/// retimed under a new context gets the same floats from stored columns.
[[nodiscard]] std::vector<float> path_features(
    const NetContext& context, std::span<const float> net_columns);

/// Extracts Table I features for \p net under \p context.
///
/// Precondition: net.validate() is empty; context.loads covers net.sinks.
[[nodiscard]] RawFeatures extract_features(const rcnet::RcNet& net,
                                           const NetContext& context);

/// Stable, metric-name-safe ([a-z0-9_]) names for every input feature column,
/// in monitoring order: the kNodeFeatureCount node columns ("node_*"), then
/// the kPathFeatureCount path columns ("path_*"). This is the feature axis of
/// the quality-monitoring baseline (telemetry::FeatureBaseline) — names
/// become gnntrans_quality_feature_psi_* gauge suffixes, so renames break
/// dashboards; treat as append-only.
[[nodiscard]] const std::vector<std::string>& quality_feature_names();

/// quality_feature_names() index of node-feature column 0 (== 0) and of
/// path-feature column 0 (== kNodeFeatureCount); here for symmetry at call
/// sites that observe the two matrices separately.
inline constexpr std::size_t kQualityNodeFeatureBase = 0;
inline constexpr std::size_t kQualityPathFeatureBase = kNodeFeatureCount;

}  // namespace gnntrans::features
