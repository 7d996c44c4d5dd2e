#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/controller.h"
#include "expr/runner.h"
#include "sim/simulator.h"
#include "spans.h"

namespace perfbench {

// Layer names of the single-run trace.
inline constexpr const char* kBuild = "expr.build";       ///< setup to t=0
inline constexpr const char* kSimRun = "sim.run";         ///< simulating phase
inline constexpr const char* kEvent = "vod.event";        ///< between grid instants
inline constexpr const char* kRebalance = "vod.rebalance";  ///< odd instants
inline constexpr const char* kTick = "vod.tick";          ///< even instants
inline constexpr const char* kEstimate = "core.estimate";

struct SliceStats {
  long instants = 0;         ///< grid instants crossed (= periodic rebalances)
  long odd_instants = 0;     ///< of which odd multiples of the grid
  long anomalies = 0;        ///< odd instants that ran other than one event
  std::size_t pending_peak = 0;  ///< pending events, max over grid instants
};

/// Drive `sim` from now() to `horizon` in slices, one span each:
///  - up to just before each grid instant t (run_until(nextafter(t, 0))):
///    event-driven work only, recorded as vod.event;
///  - instant t itself (run_until(t)): periodic work. The grid is the
///    rebalance interval, and every other periodic task has an even
///    multiple of it as its period, so at odd multiples the rebalance runs
///    alone (vod.rebalance) and even multiples carry the rest (vod.tick).
/// The event order is the one a single run_until(horizon) produces, so the
/// simulation is unchanged. `probe` runs after every grid instant.
SliceStats run_sliced(cloudmedia::sim::Simulator& sim, double horizon,
                      double grid, SpanLog& log,
                      const std::function<void()>& probe);

/// DemandPolicy decorator: times every estimate() as a core.estimate span
/// under the span open at the call, and keeps a copy of each report so the
/// plans can be replayed through Controller::plan afterwards.
class TimedPolicy final : public cloudmedia::core::DemandPolicy {
 public:
  TimedPolicy(std::unique_ptr<cloudmedia::core::DemandPolicy> inner,
              SpanLog& log,
              std::vector<cloudmedia::core::TrackerReport>* captured)
      : inner_(std::move(inner)), log_(&log), captured_(captured) {}

  [[nodiscard]] cloudmedia::core::DemandSet estimate(
      const cloudmedia::core::TrackerReport& report) override;
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<cloudmedia::core::DemandPolicy> inner_;
  SpanLog* log_;
  std::vector<cloudmedia::core::TrackerReport>* captured_;
};

struct TracedRun {
  cloudmedia::expr::ExperimentResult result;
  SliceStats slices;
  std::vector<cloudmedia::core::TrackerReport> reports;
  std::size_t live_cohorts_peak = 0;
  std::size_t ring_capacity = 0;
};

/// The run ExperimentRunner::run performs for a model-based config with no
/// timeline, assembled from the public headers and driven by run_sliced.
/// Its summary must match ExperimentRunner::run byte for byte.
[[nodiscard]] TracedRun run_traced(
    const cloudmedia::expr::ExperimentConfig& config, SpanLog& log);

/// Host seconds to replay `reports` through a fresh Controller::plan, and
/// the part of it spent in the demand policy's estimate().
struct ReplayTimes {
  double plan_s = 0.0;
  double estimate_s = 0.0;
};
[[nodiscard]] ReplayTimes replay_plans(
    const cloudmedia::expr::ExperimentConfig& config,
    const std::vector<cloudmedia::core::TrackerReport>& reports);

}  // namespace perfbench
