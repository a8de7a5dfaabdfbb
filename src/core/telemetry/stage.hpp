/// \file stage.hpp
/// The one stage vocabulary of the live process. Its names are perfbench's
/// layer names, so a number read off /flight, /tracez, the crash dump or a
/// slow-net WARN line means the same span of work as the bench's row.
///
/// Per net (estimate_batch; NetOutcome::stages):
///   features.extract      extract_features, analyze_wire included
///   features.make_sample  Standardizer::make_sample
///   nn.forward            the model's full forward pass
///   nn.forward_heads      a heads-only pass over a stored embedding
///   core.fallback         the analytic fallback rung
/// Per request (NetServer), adjacent stages sharing their clock reads so
/// they telescope to the request's wall time:
///   serve.queue           admission-queue wait
///   serve.batch_wait      in-batch wait on peer nets
///   core.estimate         the net's own wall time in estimate_batch
///   serve.encode          response frame encode
///   serve.write           outbox-ready to socket-write completion
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>

#include "core/telemetry/metrics.hpp"
#include "core/telemetry/trace.hpp"

namespace gnntrans::telemetry {

enum class Stage : std::uint8_t {
  kExtract = 0,
  kMakeSample,
  kForward,
  kForwardHeads,
  kFallback,
  kQueue,
  kBatchWait,
  kEstimate,
  kEncode,
  kWrite,
};

inline constexpr std::size_t kStageCount = 10;
/// The per-net stages are the first kNetStageCount entries of the table.
inline constexpr std::size_t kNetStageCount = 5;

inline constexpr std::array<const char*, kStageCount> kStageNames = {
    "features.extract", "features.make_sample", "nn.forward",
    "nn.forward_heads", "core.fallback",        "serve.queue",
    "serve.batch_wait", "core.estimate",        "serve.encode",
    "serve.write"};
static_assert(static_cast<std::size_t>(Stage::kWrite) + 1 == kStageCount);

[[nodiscard]] constexpr const char* stage_name(Stage stage) noexcept {
  return kStageNames[static_cast<std::size_t>(stage)];
}

/// Seconds per stage; a stage the record does not cover stays 0.
struct StageTimes {
  std::array<double, kStageCount> seconds{};

  [[nodiscard]] double& operator[](Stage stage) noexcept {
    return seconds[static_cast<std::size_t>(stage)];
  }
  [[nodiscard]] double operator[](Stage stage) const noexcept {
    return seconds[static_cast<std::size_t>(stage)];
  }
};

/// The stage's histogram, gnntrans_net_stage_<name with dots as
/// underscores>_seconds. The first call registers one per stage.
[[nodiscard]] const Histogram& stage_histogram(Stage stage);

/// Times consecutive stages with shared boundaries: each lap() charges the
/// time since the previous boundary (or construction) to one stage, and is a
/// trace slice when the recorder was enabled at construction.
class StageClock {
 public:
  using Clock = std::chrono::steady_clock;

  explicit StageClock(StageTimes* times) noexcept : times_(times) {}

  void lap(Stage stage) noexcept {
    const Clock::time_point now = Clock::now();
    if (times_)
      (*times_)[stage] += std::chrono::duration<double>(now - mark_).count();
    if (recorder_)
      recorder_->record(stage_name(stage), "serving", recorder_->ns_at(mark_),
                        recorder_->ns_at(now));
    mark_ = now;
  }

 private:
  StageTimes* times_;
  /// Null unless the recorder was enabled at construction.
  TraceRecorder* recorder_ =
      TraceRecorder::global().enabled() ? &TraceRecorder::global() : nullptr;
  Clock::time_point mark_ = Clock::now();
};

}  // namespace gnntrans::telemetry
