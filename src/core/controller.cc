#include "core/controller.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace cloudmedia::core {

ModelBasedPolicy::ModelBasedPolicy(VodParameters params,
                                   DemandEstimatorConfig config,
                                   predict::ForecasterSpec forecaster)
    : estimator_(params, config), spec_(forecaster) {
  spec_.validate();
}

ModelBasedPolicy::ModelBasedPolicy(VodParameters params,
                                   DemandEstimatorConfig config,
                                   RateOracle future_rate)
    : estimator_(params, config), future_rate_(std::move(future_rate)) {
  CM_EXPECTS(future_rate_ != nullptr);
}

std::string ModelBasedPolicy::name() const {
  if (future_rate_) return "clairvoyant";
  if (spec_.kind == predict::ForecasterKind::kPersistence) return "model-based";
  return "model-based:" + predict::to_string(spec_.kind);
}

double ModelBasedPolicy::last_forecast(int channel) const {
  if (channel < 0 || static_cast<std::size_t>(channel) >= last_forecast_.size())
    return -1.0;
  return last_forecast_[static_cast<std::size_t>(channel)];
}

DemandSet ModelBasedPolicy::estimate(const TrackerReport& report) {
  const std::size_t channels = report.channels.size();
  if (last_forecast_.empty()) {
    last_forecast_.assign(channels, -1.0);
    if (!future_rate_) {
      const auto prototype = predict::make_forecaster(spec_);
      bank_.reserve(channels);
      for (std::size_t c = 0; c < channels; ++c) {
        bank_.push_back(prototype->clone());
      }
    }
  }
  CM_EXPECTS(last_forecast_.size() == channels);
  // The plan serves the interval after the one the report describes.
  const double t0 = report.interval_start + report.interval_length;
  const double t1 = t0 + report.interval_length;

  DemandSet out;
  out.cloud_demand.reserve(channels);
  out.estimates.reserve(channels);
  for (std::size_t c = 0; c < channels; ++c) {
    // Only the arrival rate is predicted; viewing patterns stay as measured.
    ChannelObservation obs = report.channels[c];
    if (future_rate_) {
      obs.arrival_rate = future_rate_(static_cast<int>(c), t0, t1);
    } else {
      bank_[c]->observe(obs.arrival_rate);
      obs.arrival_rate = bank_[c]->forecast();
    }
    last_forecast_[c] = obs.arrival_rate;
    ChannelDemandEstimate est = estimator_.estimate(obs);
    out.cloud_demand.push_back(est.cloud_demand);
    out.estimates.push_back(std::move(est));
  }
  return out;
}

ReactivePolicy::ReactivePolicy(VodParameters params, double margin)
    : params_(params), margin_(margin) {
  params_.validate();
  CM_EXPECTS(margin >= 1.0);
}

DemandSet ReactivePolicy::estimate(const TrackerReport& report) {
  const auto j = static_cast<std::size_t>(params_.chunks_per_video);
  DemandSet out;
  out.cloud_demand.reserve(report.channels.size());
  for (const ChannelObservation& obs : report.channels) {
    std::vector<double> demand(j, 0.0);
    for (std::size_t i = 0; i < j; ++i) {
      double load = 0.0;
      if (!obs.served_cloud_bandwidth.empty()) {
        CM_EXPECTS(obs.served_cloud_bandwidth.size() == j);
        load = obs.served_cloud_bandwidth[i];
      }
      if (!obs.occupancy.empty()) {
        CM_EXPECTS(obs.occupancy.size() == j);
        // Users currently parked at chunk i consume r each; this is what
        // lets a usage-chaser recover from a cold start or a stall (served
        // bandwidth alone is zero in both).
        load = std::max(load, obs.occupancy[i] * params_.streaming_rate);
      }
      demand[i] = load * margin_;
    }
    out.cloud_demand.push_back(std::move(demand));
  }
  return out;
}

StaticPolicy::StaticPolicy(std::vector<std::vector<double>> cloud_demand)
    : demand_(std::move(cloud_demand)) {
  CM_EXPECTS(!demand_.empty());
  for (const auto& channel : demand_) {
    for (double d : channel) CM_EXPECTS(d >= 0.0);
  }
}

DemandSet StaticPolicy::estimate(const TrackerReport& report) {
  CM_EXPECTS(report.channels.size() == demand_.size());
  DemandSet out;
  out.cloud_demand = demand_;
  return out;
}

void ControllerConfig::validate() const {
  CM_EXPECTS(!vm_clusters.empty());
  CM_EXPECTS(!nfs_clusters.empty());
  for (const VmClusterSpec& c : vm_clusters) c.validate();
  for (const NfsClusterSpec& c : nfs_clusters) c.validate();
  CM_EXPECTS(vm_budget_per_hour >= 0.0);
  CM_EXPECTS(storage_budget_per_hour >= 0.0);
}

Controller::Controller(VodParameters params, ControllerConfig config,
                       std::unique_ptr<DemandPolicy> policy)
    : params_(params), config_(std::move(config)), policy_(std::move(policy)) {
  params_.validate();
  config_.validate();
  CM_EXPECTS(policy_ != nullptr);
}

void Controller::set_budgets(double vm_budget_per_hour,
                             double storage_budget_per_hour) {
  config_.vm_budget_per_hour = vm_budget_per_hour;
  config_.storage_budget_per_hour = storage_budget_per_hour;
  config_.validate();
}

ProvisioningPlan Controller::plan(const TrackerReport& report) const {
  const auto j = static_cast<std::size_t>(params_.chunks_per_video);

  ProvisioningPlan out;
  out.demand = policy_->estimate(report);
  CM_ENSURES(out.demand.cloud_demand.size() == report.channels.size());

  // Flatten [channel][chunk] demand for the two optimizers.
  std::vector<ChunkDemand> flat;
  flat.reserve(report.channels.size() * j);
  for (std::size_t c = 0; c < out.demand.cloud_demand.size(); ++c) {
    CM_ENSURES(out.demand.cloud_demand[c].size() == j);
    for (std::size_t i = 0; i < j; ++i) {
      flat.push_back(ChunkDemand{
          ChunkRef{static_cast<int>(c), static_cast<int>(i)},
          out.demand.cloud_demand[c][i]});
    }
  }

  // Storage rental (Sec. V-A1). Note every chunk must be stored regardless
  // of demand: the cloud is "the only persistent source of all original
  // videos" (Sec. III-B).
  out.storage_problem = StorageProblem{config_.nfs_clusters, flat,
                                       params_.chunk_bytes(),
                                       config_.storage_budget_per_hour};
  out.storage = solve_storage_greedy(out.storage_problem);
  out.storage_cost_rate = out.storage.cost_per_hour;

  // VM configuration (Sec. V-A2).
  out.vm_problem = VmProblem{config_.vm_clusters, flat, params_.vm_bandwidth,
                             config_.vm_budget_per_hour};
  out.vm = solve_vm_greedy(out.vm_problem);
  out.instances = pack_instances(out.vm_problem, out.vm);
  out.vm_cost_rate = out.instances.cost_per_hour;

  // Realized per-chunk bandwidth (what the schedulers will provide).
  out.chunk_cloud_bandwidth.assign(report.channels.size(),
                                   std::vector<double>(j, 0.0));
  for (std::size_t k = 0; k < flat.size(); ++k) {
    double vms = 0.0;
    for (double share : out.vm.z[k]) vms += share;
    const double bandwidth = vms * params_.vm_bandwidth;
    const ChunkRef ref = flat[k].ref;
    out.chunk_cloud_bandwidth[static_cast<std::size_t>(ref.channel)]
                             [static_cast<std::size_t>(ref.chunk)] = bandwidth;
    out.reserved_bandwidth += bandwidth;
  }
  return out;
}

}  // namespace cloudmedia::core
