#include "traced.h"

#include <cmath>
#include <stdexcept>

#include "cloud/cloud_service.h"
#include "vod/cohort_system.h"
#include "vod/streaming_system.h"
#include "workload/scenario.h"

namespace perfbench {

namespace cm = cloudmedia;

SliceStats run_sliced(cm::sim::Simulator& sim, double horizon, double grid,
                      SpanLog& log, const std::function<void()>& probe) {
  SliceStats stats;
  for (double k = std::floor(sim.now() / grid) + 1.0; k * grid <= horizon;
       k += 1.0) {
    const double t = k * grid;
    int span = log.begin(kEvent);
    sim.run_until(std::nextafter(t, 0.0));
    log.end(span);

    const bool odd = std::fmod(k, 2.0) == 1.0;
    const std::uint64_t before = sim.events_processed();
    span = log.begin(odd ? kRebalance : kTick);
    sim.run_until(t);
    log.end(span);
    ++stats.instants;
    if (odd) {
      ++stats.odd_instants;
      if (sim.events_processed() != before + 1) ++stats.anomalies;
    }
    stats.pending_peak = std::max(stats.pending_peak, sim.pending());
    probe();
  }
  if (sim.now() < horizon) {
    const int span = log.begin(kEvent);
    sim.run_until(horizon);
    log.end(span);
  }
  return stats;
}

cm::core::DemandSet TimedPolicy::estimate(const cm::core::TrackerReport& report) {
  if (captured_ != nullptr) captured_->push_back(report);
  const int span = log_->begin(kEstimate);
  cm::core::DemandSet demand = inner_->estimate(report);
  log_->end(span);
  return demand;
}

namespace {

std::unique_ptr<cm::core::Controller> make_controller(
    const cm::expr::ExperimentConfig& config, SpanLog& log,
    std::vector<cm::core::TrackerReport>* captured) {
  cm::core::DemandEstimatorConfig estimator;
  estimator.mode = config.mode;
  estimator.capacity_model = config.capacity_model;
  estimator.occupancy_floor = config.occupancy_floor;
  estimator.p2p = config.p2p;
  cm::core::ControllerConfig controller_config{
      config.vm_clusters, config.nfs_clusters, config.vm_budget_per_hour,
      config.storage_budget_per_hour};
  return std::make_unique<cm::core::Controller>(
      config.vod, controller_config,
      std::make_unique<TimedPolicy>(
          std::make_unique<cm::core::ModelBasedPolicy>(config.vod, estimator),
          log, captured));
}

}  // namespace

TracedRun run_traced(const cm::expr::ExperimentConfig& config, SpanLog& log) {
  config.validate();
  if (!config.timeline.empty() ||
      config.strategy != cm::expr::Strategy::kModelBased) {
    throw std::runtime_error(
        "the traced assembly covers model-based runs without a timeline");
  }
  TracedRun traced;

  const int setup = log.begin(kBuild);
  cm::sim::Simulator simulator;
  const cm::workload::Workload workload(config.workload, config.seed);
  cm::cloud::CloudConfig cloud_config;
  cloud_config.sla =
      cm::cloud::SlaTerms{config.vm_budget_per_hour, config.storage_budget_per_hour,
                          config.vm_clusters, config.nfs_clusters};
  cloud_config.vm =
      cm::cloud::VmSchedulerConfig{config.vm_boot_delay, config.vod.vm_bandwidth};
  cm::cloud::CloudService cloud(simulator, cloud_config);
  auto controller = make_controller(config, log, &traced.reports);

  cm::vod::StreamingOptions options = config.streaming;
  options.mode = config.mode;
  const bool use_cohort =
      config.engine == cm::expr::Engine::kCohort ||
      (config.engine == cm::expr::Engine::kAuto &&
       cm::expr::estimated_peak_users(config) >= config.cohort_threshold);
  std::unique_ptr<cm::vod::StreamingSystem> discrete;
  std::unique_ptr<cm::vod::CohortSystem> cohort;
  if (use_cohort) {
    cm::vod::CohortOptions cohort_options;
    cohort_options.streaming = options;
    cohort_options.window = config.cohort_window;
    cohort = std::make_unique<cm::vod::CohortSystem>(
        simulator, workload, config.vod, cloud, std::move(controller),
        cohort_options);
    cohort->start();
  } else {
    discrete = std::make_unique<cm::vod::StreamingSystem>(
        simulator, workload, config.vod, cloud, std::move(controller), options);
    discrete->start();
  }
  simulator.run_until(0.0);  // the t = 0 bootstrap plan
  log.end(setup);

  const int run = log.begin(kSimRun);
  traced.slices = run_sliced(
      simulator, config.total_duration(), options.rebalance_interval, log, [&] {
        if (cohort) {
          traced.live_cohorts_peak =
              std::max(traced.live_cohorts_peak, cohort->live_cohorts());
        }
      });
  log.end(run);

  cm::expr::ExperimentResult& result = traced.result;
  result.metrics = cohort ? cohort->metrics() : discrete->metrics();
  result.measure_start = config.measure_start();
  result.measure_end = config.total_duration();
  result.vm_cost_total = cloud.billing().total("vm");
  result.storage_cost_total = cloud.billing().total("storage");
  result.plans_submitted = static_cast<long>(cloud.request_monitor().log().size());
  result.plans_rejected = result.metrics.counters.rejected_plans;
  result.vm_boots = cloud.vm_monitor().total_boots();
  result.vm_shutdowns = cloud.vm_monitor().total_shutdowns();
  result.sim_events = simulator.events_processed();
  result.final_users = static_cast<long>(cohort ? cohort->current_users()
                                                : discrete->current_users());
  result.used_cohort_engine = use_cohort;
  traced.ring_capacity = simulator.callback_ring_capacity();
  return traced;
}

ReplayTimes replay_plans(const cm::expr::ExperimentConfig& config,
                         const std::vector<cm::core::TrackerReport>& reports) {
  SpanLog log;
  const auto controller = make_controller(config, log, nullptr);
  const int root = log.begin("core.plan");
  for (const cm::core::TrackerReport& report : reports) {
    (void)controller->plan(report);
  }
  log.end(root);
  ReplayTimes times;
  for (const auto& [layer, totals] : layer_totals(log.spans())) {
    if (layer == "core.plan") times.plan_s = totals.total_s;
    if (layer == kEstimate) times.estimate_s = totals.total_s;
  }
  return times;
}

}  // namespace perfbench
