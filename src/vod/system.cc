#include "vod/system.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/log.h"
#include "util/units.h"

namespace cloudmedia::vod {

System::System(sim::Simulator& simulator, const workload::Workload& workload,
               core::VodParameters params, cloud::CloudService& cloud,
               std::unique_ptr<core::Controller> controller,
               const StreamingOptions& options, const CompletionRoute& route)
    : sim_(&simulator),
      workload_(&workload),
      params_(params),
      cloud_(&cloud),
      options_(options),
      num_channels_(workload.num_channels()),
      num_chunks_(params.chunks_per_video),
      tracker_(workload.num_channels(), params.chunks_per_video),
      controller_(std::move(controller)),
      fluid_pools_(!route) {
  params_.validate();
  CM_EXPECTS(controller_ != nullptr);
  CM_EXPECTS(workload.config().chunks_per_video == params.chunks_per_video);
  CM_EXPECTS(options_.provisioning_interval > 0.0);
  CM_EXPECTS(options_.rebalance_interval > 0.0);
  CM_EXPECTS(options_.sample_interval > 0.0);
  CM_EXPECTS(options_.quality_interval > 0.0);
  CM_EXPECTS(options_.quality_window > 0.0);

  const std::size_t total =
      static_cast<std::size_t>(num_channels_) * static_cast<std::size_t>(num_chunks_);
  pools_.reserve(total);
  for (int c = 0; c < num_channels_; ++c) {
    for (int i = 0; i < num_chunks_; ++i) {
      ServicePool::CompletionHandler on_complete =
          route ? route(c, i) : [](const ServicePool::Completion&) {};
      pools_.push_back(std::make_unique<ServicePool>(
          simulator, params_.vm_bandwidth, std::move(on_complete)));
    }
  }
  served_cloud_snapshot_.assign(total, 0.0);
  metrics_.channels.resize(static_cast<std::size_t>(num_channels_));
}

std::size_t System::current_users() const {
  std::vector<double> per_channel(static_cast<std::size_t>(num_channels_), 0.0);
  return static_cast<std::size_t>(std::llround(std::max(0.0, users_now(per_channel))));
}

void System::start() {
  CM_EXPECTS(!started_);
  started_ = true;
  // Installed here rather than at construction, so a model whose own
  // constructor throws leaves no listener pointing at it.
  cloud_->vm_scheduler().set_capacity_listener([this] { rebalance_capacity(); });

  const double t0 = sim_->now();
  if (options_.bootstrap_plan) {
    sim_->schedule_at(t0, [this] {
      apply_plan(controller_->plan(bootstrap_report()));
      record_plan_series(sim_->now());
    });
  }
  start_population();
  sim_->schedule_periodic(t0 + options_.provisioning_interval,
                          options_.provisioning_interval,
                          [this](double t) { run_provisioning(t); });
  sim_->schedule_periodic(t0 + options_.rebalance_interval,
                          options_.rebalance_interval,
                          [this](double) { rebalance_capacity(); });
  sim_->schedule_periodic(t0 + options_.sample_interval, options_.sample_interval,
                          [this](double t) { sample_bandwidth(t); });
  sim_->schedule_periodic(t0 + options_.quality_interval,
                          options_.quality_interval,
                          [this](double t) { sample_quality(t); });
}

// --- provisioning loop ------------------------------------------------------

core::TrackerReport System::bootstrap_report() const {
  core::TrackerReport report;
  report.interval_start = sim_->now();
  report.interval_length = options_.provisioning_interval;
  report.channels.resize(static_cast<std::size_t>(num_channels_));
  const workload::ViewingBehavior& behavior = workload_->config().behavior;
  const util::Matrix transfer = behavior.transfer_matrix(num_chunks_);
  const std::vector<double> entry = behavior.entry_distribution(num_chunks_);
  const double uplink_mean = workload_->uplink_distribution().mean();
  for (int c = 0; c < num_channels_; ++c) {
    core::ChannelObservation& obs = report.channels[static_cast<std::size_t>(c)];
    obs.arrival_rate = workload_->channel_rate(c, sim_->now());
    obs.transfer = transfer;
    obs.entry = entry;
    obs.occupancy.assign(static_cast<std::size_t>(num_chunks_), 0.0);
    obs.served_cloud_bandwidth.assign(static_cast<std::size_t>(num_chunks_), 0.0);
    obs.mean_peer_uplink = uplink_mean;
  }
  return report;
}

void System::run_provisioning(double now) {
  const double interval = options_.provisioning_interval;

  std::vector<std::vector<double>> occupancy(
      static_cast<std::size_t>(num_channels_),
      std::vector<double>(static_cast<std::size_t>(num_chunks_), 0.0));
  std::vector<std::vector<double>> served = occupancy;
  std::vector<double> mean_uplink(static_cast<std::size_t>(num_channels_), 0.0);
  observe_population(occupancy, mean_uplink);

  for (int c = 0; c < num_channels_; ++c) {
    for (int i = 0; i < num_chunks_; ++i) {
      const std::size_t key = pool_index(c, i);
      ServicePool& p = *pools_[key];
      p.sync();
      served[static_cast<std::size_t>(c)][static_cast<std::size_t>(i)] =
          (p.cloud_bytes_served() - served_cloud_snapshot_[key]) / interval;
      served_cloud_snapshot_[key] = p.cloud_bytes_served();
    }
  }

  const core::TrackerReport report =
      tracker_.harvest(now - interval, interval, occupancy, mean_uplink, served);
  apply_plan(controller_->plan(report));
  record_plan_series(now);
}

void System::apply_plan(const core::ProvisioningPlan& plan) {
  if (!cloud_->submit_plan(plan, num_channels_, num_chunks_)) {
    ++metrics_.counters.rejected_plans;
    CM_LOG(kWarn) << "cloud rejected provisioning plan at t=" << sim_->now();
    return;
  }
  last_plan_ = std::make_shared<core::ProvisioningPlan>(plan);
  // Pool capacities refresh through the VM scheduler's listener.
}

void System::record_plan_series(double now) {
  if (!last_plan_) return;
  const core::ProvisioningPlan& plan = *last_plan_;
  metrics_.vm_cost_rate.add(now, cloud_->vm_cost_rate());
  metrics_.storage_cost_rate.add(now, cloud_->storage_cost_rate());
  for (int c = 0; c < num_channels_; ++c) {
    const auto ch = static_cast<std::size_t>(c);
    ChannelSeries& series = metrics_.channels[ch];
    double provisioned = 0.0;
    for (double b : plan.chunk_cloud_bandwidth[ch]) provisioned += b;
    series.provisioned_mbps.add(now, util::to_mbps(provisioned));
    series.storage_utility.add(
        now, core::channel_storage_utility(plan.storage_problem, plan.storage, c));
    series.vm_utility.add(now,
                          core::channel_vm_utility(plan.vm_problem, plan.vm, c));
  }
}

void System::rebalance_capacity() {
  // The cloud half of the re-split: a VM serves whichever of its
  // (consecutive) chunks is being requested (Sec. V-A2), so each channel's
  // planned cloud bandwidth is split across its chunks in proportion to
  // current demand, plus a small standby weight so a fresh request is never
  // starved until the next tick. The peer half is the model's.
  std::vector<double> demand(pools_.size(), 0.0);
  std::vector<double> peer(pools_.size(), 0.0);
  chunk_demand(demand, peer);

  for (int c = 0; c < num_channels_; ++c) {
    double channel_cloud = 0.0;
    double weight_total = 0.0;
    for (int i = 0; i < num_chunks_; ++i) {
      channel_cloud += cloud_->chunk_capacity(c, i);
      weight_total += demand[pool_index(c, i)] + options_.standby_weight;
    }
    const bool split = channel_cloud > 0.0 && weight_total > 0.0;
    for (int i = 0; i < num_chunks_; ++i) {
      const std::size_t key = pool_index(c, i);
      const double weight = demand[key] + options_.standby_weight;
      pools_[key]->set_capacity(peer[key],
                                split ? channel_cloud * weight / weight_total : 0.0);
      if (fluid_pools_) pools_[key]->set_fluid_jobs(demand[key]);
    }
  }
}

// --- metrics ---------------------------------------------------------------

double System::cloud_rate_now() const {
  double rate = 0.0;
  for (const auto& p : pools_) rate += p->cloud_rate();
  return rate;
}

double System::peer_rate_now() const {
  double rate = 0.0;
  for (const auto& p : pools_) rate += p->peer_rate();
  return rate;
}

void System::sample_bandwidth(double now) {
  metrics_.reserved_mbps.add(now, util::to_mbps(cloud_->reserved_bandwidth()));
  metrics_.used_cloud_mbps.add(now, util::to_mbps(cloud_rate_now()));
  metrics_.used_peer_mbps.add(now, util::to_mbps(peer_rate_now()));
  std::vector<double> per_channel(static_cast<std::size_t>(num_channels_), 0.0);
  metrics_.concurrent_users.add(now, users_now(per_channel));
  for (std::size_t c = 0; c < per_channel.size(); ++c) {
    metrics_.channels[c].size.add(now, per_channel[c]);
  }
}

void System::sample_quality(double now) {
  std::vector<double> per_channel(static_cast<std::size_t>(num_channels_), 0.0);
  metrics_.quality.add(now, quality_now(per_channel));
  for (std::size_t c = 0; c < per_channel.size(); ++c) {
    metrics_.channels[c].quality.add(now, per_channel[c]);
  }
}

std::size_t SystemMetrics::total_samples() const noexcept {
  std::size_t n = reserved_mbps.size() + used_cloud_mbps.size() +
                  used_peer_mbps.size() + quality.size() +
                  vm_cost_rate.size() + storage_cost_rate.size() +
                  concurrent_users.size();
  for (const ChannelSeries& series : channels) {
    n += series.size.size() + series.quality.size() +
         series.provisioned_mbps.size() + series.storage_utility.size() +
         series.vm_utility.size();
  }
  return n;
}

}  // namespace cloudmedia::vod
