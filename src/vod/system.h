#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "cloud/cloud_service.h"
#include "core/controller.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "util/stats.h"
#include "vod/service_pool.h"
#include "vod/tracker.h"
#include "workload/scenario.h"

namespace cloudmedia::vod {

/// Runtime knobs of the emulated CloudMedia deployment.
struct StreamingOptions {
  core::StreamingMode mode = core::StreamingMode::kClientServer;
  /// The paper runs the provisioning algorithm every T = 1 hour (Sec. V-B).
  double provisioning_interval = 3600.0;
  /// How often bandwidth is re-split across a channel's chunks: the cloud
  /// share follows current requests (VMs serve whichever of their chunks
  /// is asked for, Sec. V-A2), and in P2P mode peer upload follows the
  /// rarest-first scheduler (Sec. IV-C).
  double rebalance_interval = 30.0;
  /// Standby weight an idle chunk keeps when the channel's cloud bandwidth
  /// is re-split (so a fresh request is not starved until the next tick).
  double standby_weight = 0.25;
  /// Bandwidth / population sampling cadence for the metrics series.
  double sample_interval = 60.0;
  /// Streaming quality is "the percentage of users ... with smooth
  /// playback in the past 5 minutes" (Sec. VI-B).
  double quality_interval = 300.0;
  double quality_window = 300.0;
  /// Issue an initial plan at t = 0 from the provider's prior knowledge
  /// (ground-truth arrival rates), as the paper's provider does when first
  /// deploying ("based on the application's empirical user scale and
  /// viewing pattern information", Sec. V-B).
  bool bootstrap_plan = true;
};

/// Per-channel metric series (the scatter sources for Figs. 6–9).
struct ChannelSeries {
  util::TimeSeries size;               ///< concurrent users
  util::TimeSeries quality;            ///< smooth fraction
  util::TimeSeries provisioned_mbps;   ///< cloud bandwidth assigned
  util::TimeSeries storage_utility;    ///< Σ u_f Δ_i x_if (Fig. 8)
  util::TimeSeries vm_utility;         ///< Σ ũ_v z_iv (Fig. 9)
};

struct SystemCounters {
  long arrivals = 0;
  long departures = 0;
  long chunk_downloads = 0;
  long late_downloads = 0;
  long buffered_replays = 0;  ///< revisits served from the local buffer
  long rejected_plans = 0;    ///< SLA-rejected submissions
};

struct SystemMetrics {
  util::TimeSeries reserved_mbps;      ///< billed cloud bandwidth (Fig. 4)
  util::TimeSeries used_cloud_mbps;    ///< instantaneous cloud rate (Fig. 4)
  util::TimeSeries used_peer_mbps;     ///< instantaneous peer rate
  util::TimeSeries quality;            ///< system smooth fraction (Fig. 5)
  util::TimeSeries vm_cost_rate;       ///< $/h (Fig. 10)
  util::TimeSeries storage_cost_rate;  ///< $/h
  util::TimeSeries concurrent_users;
  std::vector<ChannelSeries> channels;
  SystemCounters counters;

  /// Total samples retained across every series (system + per-channel) —
  /// the memory-footprint proxy the store bench reports.
  [[nodiscard]] std::size_t total_samples() const noexcept;
};

/// The CloudMedia loop of Fig. 3, written once for every population model:
/// the tracker observes the swarms, the controller plans VMs and storage,
/// the cloud applies the plan, and the channel's cloud bandwidth is
/// re-split over its C × J ServicePools. It owns the cloud hooks, the
/// pools, tracker, last plan and metrics, and schedules the periodic
/// provisioning / rebalance / sample / quality tasks.
///
/// How viewers are modelled is left to a subclass (StreamingSystem: one
/// object per peer; CohortSystem: fluid cohorts), which supplies five
/// hooks: start its population; observe occupancy and mean uplink for the
/// hourly harvest; per-chunk demand plus the peer share for the
/// rebalance; quality now; users now. The hooks run only on the periodic
/// paths — a model's per-viewer hot path stays non-virtual.
class System {
 public:
  virtual ~System() = default;
  System(const System&) = delete;
  System& operator=(const System&) = delete;
  System(System&&) = delete;
  System& operator=(System&&) = delete;

  /// Schedule, in this order: the t = 0 bootstrap plan, the population,
  /// and the provisioning, rebalance, sample and quality periodics. Call
  /// once, then drive the simulator (sim.run_until(...)).
  void start();

  [[nodiscard]] const SystemMetrics& metrics() const noexcept { return metrics_; }
  [[nodiscard]] SystemMetrics& metrics() noexcept { return metrics_; }

  // --- introspection (tests, benches) -----------------------------------
  /// Users in the system now (a fluid model rounds its viewer mass).
  [[nodiscard]] std::size_t current_users() const;
  [[nodiscard]] ServicePool& pool(int channel, int chunk) {
    return *pools_[pool_index(channel, chunk)];
  }
  [[nodiscard]] Tracker& tracker() noexcept { return tracker_; }
  /// The provisioning controller (mutable: the experiment runner's timed
  /// scenario ops renegotiate its budgets mid-run).
  [[nodiscard]] core::Controller& controller() noexcept { return *controller_; }
  [[nodiscard]] const core::ProvisioningPlan* last_plan() const noexcept {
    return last_plan_ ? last_plan_.get() : nullptr;
  }
  /// Sum of instantaneous cloud rates across pools (bytes/s).
  [[nodiscard]] double cloud_rate_now() const;
  [[nodiscard]] double peer_rate_now() const;

  /// The provider's prior at deployment time (Sec. V-B's "empirical user
  /// scale and viewing pattern information").
  ///
  /// Window-labelling convention: `interval_start` is the start of the
  /// window the report describes. The bootstrap prior describes the
  /// *upcoming* window [now, now+T) — a forecast — so it stamps
  /// `interval_start = now`. A periodic harvest describes the
  /// *just-measured* window [now−T, now), so run_provisioning stamps
  /// `interval_start = now − T`. The two agree: the t=0 bootstrap and the
  /// first harvest (at t=T) both label window [0, T), one as a prior and
  /// one as a measurement, and no consumer sees a negative time. The only
  /// consumer of interval_start is the clairvoyant oracle's look-ahead
  /// anchor (core::ModelBasedPolicy). It cannot tell the two reports
  /// apart, so both the t=0 plan and the first harvest ask it for [T, 2T).
  [[nodiscard]] core::TrackerReport bootstrap_report() const;

 protected:
  /// The completion handler of pool (channel, chunk), for models that
  /// enqueue discrete jobs.
  using CompletionRoute =
      std::function<ServicePool::CompletionHandler(int channel, int chunk)>;

  /// Validates `options` for every model. A model that passes no `route`
  /// enqueues no discrete jobs: it loads the pools as fluid job counts
  /// instead, re-set from chunk_demand right after each capacity split.
  System(sim::Simulator& simulator, const workload::Workload& workload,
         core::VodParameters params, cloud::CloudService& cloud,
         std::unique_ptr<core::Controller> controller,
         const StreamingOptions& options, const CompletionRoute& route);

  // --- the population model ---------------------------------------------
  /// Schedule the model's arrivals (runs after the bootstrap plan is
  /// scheduled and before the periodics).
  virtual void start_population() = 0;
  /// Fill occupancy[c][j] (users at chunk position j) and mean_uplink[c]
  /// (bytes/s per user) for the hourly harvest. Both arrive zeroed.
  virtual void observe_population(std::vector<std::vector<double>>& occupancy,
                                  std::vector<double>& mean_uplink) const = 0;
  /// Fill demand[k] (concurrent downloads) and peer[k] (peer upload,
  /// bytes/s) for every pool k = pool_index(c, j). Both arrive zeroed. The
  /// shell splits each channel's cloud capacity pro rata over
  /// demand + standby_weight.
  virtual void chunk_demand(std::vector<double>& demand,
                            std::vector<double>& peer) const = 0;
  /// Smooth-playback fraction now: writes each channel's to
  /// per_channel[c] and returns the system's.
  [[nodiscard]] virtual double quality_now(
      std::vector<double>& per_channel) const = 0;
  /// Users now: writes each channel's to per_channel[c] and returns the
  /// total.
  [[nodiscard]] virtual double users_now(
      std::vector<double>& per_channel) const = 0;

  /// The range check behind every public (channel[, chunk]) argument:
  /// throws util::PreconditionError when out of range.
  void check_channel(int channel) const {
    CM_EXPECTS(channel >= 0 && channel < num_channels_);
  }
  void check_cell(int channel, int chunk) const {
    check_channel(channel);
    CM_EXPECTS(chunk >= 0 && chunk < num_chunks_);
  }
  /// Flat C × J index of pool (channel, chunk), range-checked.
  [[nodiscard]] std::size_t pool_index(int channel, int chunk) const {
    check_cell(channel, chunk);
    return static_cast<std::size_t>(channel) * static_cast<std::size_t>(num_chunks_) +
           static_cast<std::size_t>(chunk);
  }

  sim::Simulator* sim_;
  const workload::Workload* workload_;
  core::VodParameters params_;
  cloud::CloudService* cloud_;
  StreamingOptions options_;
  int num_channels_;
  int num_chunks_;
  std::vector<std::unique_ptr<ServicePool>> pools_;  ///< C × J
  Tracker tracker_;
  SystemMetrics metrics_;

 private:
  void run_provisioning(double now);
  void apply_plan(const core::ProvisioningPlan& plan);
  void record_plan_series(double now);
  void rebalance_capacity();
  void sample_bandwidth(double now);
  void sample_quality(double now);

  std::unique_ptr<core::Controller> controller_;
  bool fluid_pools_;
  std::vector<double> served_cloud_snapshot_;  ///< bytes at interval start
  std::shared_ptr<core::ProvisioningPlan> last_plan_;
  bool started_ = false;
};

}  // namespace cloudmedia::vod
