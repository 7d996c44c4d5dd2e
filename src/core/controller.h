#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/demand.h"
#include "core/storage_rental.h"
#include "core/vm_allocation.h"
#include "predict/forecaster.h"

namespace cloudmedia::core {

/// Everything the tracker hands to the controller at the end of one
/// provisioning interval (Sec. V-B, Fig. 3).
struct TrackerReport {
  double interval_start = 0.0;   ///< seconds
  double interval_length = 0.0;  ///< T; paper uses 1 hour
  std::vector<ChannelObservation> channels;
};

/// Per-chunk cloud bandwidth demands, indexed [channel][chunk] (bytes/s),
/// plus (for model-based policies) the full Sec.-IV diagnostics.
struct DemandSet {
  std::vector<std::vector<double>> cloud_demand;
  std::vector<ChannelDemandEstimate> estimates;  ///< empty for baselines
};

/// Strategy that converts tracker measurements into next-interval cloud
/// bandwidth demand. The paper's algorithm is ModelBasedPolicy (with any
/// arrival-rate predictor, or the clairvoyant oracle); ReactivePolicy and
/// StaticPolicy are model-free baselines for the ablation benches.
class DemandPolicy {
 public:
  virtual ~DemandPolicy() = default;
  [[nodiscard]] virtual DemandSet estimate(const TrackerReport& report) = 0;
  [[nodiscard]] virtual std::string name() const = 0;
};

/// The paper's policy: Sec.-IV queueing-model demand from a predicted
/// arrival rate and the measured viewing patterns P̂.
///
/// The only thing that varies is which rate the model sees for the next
/// interval. By default it is a per-channel predict::Forecaster fed the
/// measured Λ̂ each interval; persistence (next = last, the paper's Sec.
/// V-B predictor) is the default spec, and the other kinds implement the
/// paper's deferred "more accurate prediction" future work. Alternatively
/// a clairvoyant oracle supplies the true mean rate of the planned
/// interval (the reference row of the prediction-error ablation).
class ModelBasedPolicy final : public DemandPolicy {
 public:
  /// `future_rate(channel, t0, t1)` returns the true mean external arrival
  /// rate of `channel` over [t0, t1).
  using RateOracle = std::function<double(int, double, double)>;

  ModelBasedPolicy(VodParameters params, DemandEstimatorConfig config,
                   predict::ForecasterSpec forecaster = {});
  ModelBasedPolicy(VodParameters params, DemandEstimatorConfig config,
                   RateOracle future_rate);
  [[nodiscard]] DemandSet estimate(const TrackerReport& report) override;
  /// "model-based" (persistence), "model-based:<kind>" or "clairvoyant".
  [[nodiscard]] std::string name() const override;

  /// The rate the model used for `channel` in the last estimate() call;
  /// negative before the first call or for an unknown channel.
  [[nodiscard]] double last_forecast(int channel) const;

 private:
  DemandEstimator estimator_;
  predict::ForecasterSpec spec_;
  RateOracle future_rate_;  ///< set: clairvoyant; empty: forecaster bank
  std::vector<std::unique_ptr<predict::Forecaster>> bank_;  ///< per channel
  std::vector<double> last_forecast_;
};

/// Baseline: next interval = margin × last interval's observed load, where
/// observed load per chunk is max(measured cloud usage, occupancy · r) —
/// the two signals a usage-chasing autoscaler actually has. No queueing
/// model, no viewing-pattern analysis, no arrival prediction.
class ReactivePolicy final : public DemandPolicy {
 public:
  ReactivePolicy(VodParameters params, double margin);
  [[nodiscard]] DemandSet estimate(const TrackerReport& report) override;
  [[nodiscard]] std::string name() const override { return "reactive"; }

 private:
  VodParameters params_;
  double margin_;
};

/// Baseline: a fixed demand vector forever (peak provisioning).
class StaticPolicy final : public DemandPolicy {
 public:
  explicit StaticPolicy(std::vector<std::vector<double>> cloud_demand);
  [[nodiscard]] DemandSet estimate(const TrackerReport& report) override;
  [[nodiscard]] std::string name() const override { return "static"; }

 private:
  std::vector<std::vector<double>> demand_;
};

/// The provisioning plan sent to the cloud through the broker: the answer
/// to "how many VMs from which virtual cluster, and which NFS cluster
/// stores which chunk" for the next interval.
struct ProvisioningPlan {
  DemandSet demand;
  StorageProblem storage_problem;
  StorageAssignment storage;
  VmProblem vm_problem;
  VmAllocation vm;
  InstancePlan instances;
  /// Realized per-chunk cloud bandwidth Σ_v z_iv · R, [channel][chunk].
  std::vector<std::vector<double>> chunk_cloud_bandwidth;
  double reserved_bandwidth = 0.0;   ///< Σ chunk_cloud_bandwidth, bytes/s
  double vm_cost_rate = 0.0;         ///< $/h for integer VM instances
  double storage_cost_rate = 0.0;    ///< $/h for assigned chunks
};

struct ControllerConfig {
  std::vector<VmClusterSpec> vm_clusters;
  std::vector<NfsClusterSpec> nfs_clusters;
  double vm_budget_per_hour = 100.0;      ///< B_M (paper Sec. VI-A)
  double storage_budget_per_hour = 1.0;   ///< B_S (paper Sec. VI-A)

  void validate() const;
};

/// The dynamic cloud provisioning controller of Sec. V-B: each interval,
/// turn tracker statistics into demand (policy), then solve the storage
/// rental and VM configuration problems and emit the plan.
class Controller {
 public:
  Controller(VodParameters params, ControllerConfig config,
             std::unique_ptr<DemandPolicy> policy);

  [[nodiscard]] ProvisioningPlan plan(const TrackerReport& report) const;

  /// Renegotiate the budget ceilings mid-run (the timed-scenario hook:
  /// regional_outage@6h cuts them, recovery@18h restores them). Takes
  /// effect from the next plan() — the controller re-reads its config
  /// every interval, exactly the Sec. V-B adaptivity loop.
  void set_budgets(double vm_budget_per_hour, double storage_budget_per_hour);

  [[nodiscard]] const ControllerConfig& config() const noexcept { return config_; }
  [[nodiscard]] const VodParameters& params() const noexcept { return params_; }
  [[nodiscard]] const DemandPolicy& policy() const noexcept { return *policy_; }

 private:
  VodParameters params_;
  ControllerConfig config_;
  std::unique_ptr<DemandPolicy> policy_;
};

}  // namespace cloudmedia::core
