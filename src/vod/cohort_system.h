#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "util/matrix.h"
#include "vod/system.h"
#include "workload/cohort.h"

namespace cloudmedia::vod {

/// Knobs of the cohort engine on top of the shared streaming options.
struct CohortOptions {
  StreamingOptions streaming;
  /// Arrival batching window: all of a channel's arrivals within one window
  /// become one cohort (one Poisson count draw, one arena slot).
  double window = 300.0;
  /// A cohort whose surviving mass drops below this retires (its residual
  /// folds into the departure count and the slot is recycled).
  double min_mass = 1e-3;
};

/// The cohort/fluid population model: the same CloudMedia deployment as
/// StreamingSystem (the System shell's tracker + controller loop, SLA'd
/// cloud, per-(channel, chunk) ServicePools), but viewers are aggregated.
///
/// Statistically-identical viewers — same channel, same arrival window —
/// form one cohort: a struct-of-arrays arena slot holding the cohort's
/// occupancy mass per chunk position and its expected ownership mass per
/// chunk. One heap event per cohort *transition* advances every viewer in
/// the cohort through the ground-truth transfer matrix at once; download
/// demand drives the pools as fluid job counts (ServicePool::set_fluid_jobs)
/// rather than per-viewer discrete jobs. Cost: O(cohorts · J²) per window
/// instead of O(viewers) heap events — a 10M-peak-viewer day runs in
/// seconds (CohortScale.CalibratedCliffDayReachesTenMillionPeak in
/// tests/cohort_test.cc).
///
/// What is exact and what is fluid:
///  - exact: arrival counts (Poisson per channel-window), the provisioning
///    loop (same Tracker/Controller/CloudService code paths, weighted
///    tracker flows), cost accounting, pool byte accounting.
///  - fluid approximations: per-chunk flows use expected values of the
///    transfer matrix instead of sampled walks; ownership within a cohort
///    uses an independence approximation (owned/alive as a probability);
///    quality is mass-based (stalled mass over total mass) instead of
///    per-viewer smoothness bookkeeping.
/// Small-N runs wanting exactness should use the discrete engine — the
/// expr runner's `auto` engine does precisely that below the population
/// threshold.
class CohortSystem final : public System {
 public:
  CohortSystem(sim::Simulator& simulator, const workload::Workload& workload,
               core::VodParameters params, cloud::CloudService& cloud,
               std::unique_ptr<core::Controller> controller,
               CohortOptions options);

  // --- introspection (tests, benches) -----------------------------------
  [[nodiscard]] double current_viewer_mass() const noexcept { return total_mass_; }
  [[nodiscard]] double channel_viewer_mass(int channel) const;
  /// Largest viewer mass any bandwidth sample has seen.
  [[nodiscard]] double peak_viewer_mass() const;
  [[nodiscard]] long long viewers_admitted() const noexcept { return arrivals_count_; }
  [[nodiscard]] double departures_mass() const noexcept { return departures_mass_; }
  [[nodiscard]] std::size_t live_cohorts() const noexcept { return live_cohorts_; }

 private:
  void start_population() override;
  void observe_population(std::vector<std::vector<double>>& occupancy,
                          std::vector<double>& mean_uplink) const override;
  void chunk_demand(std::vector<double>& demand,
                    std::vector<double>& peer) const override;
  [[nodiscard]] double quality_now(std::vector<double>& per_channel) const override;
  [[nodiscard]] double users_now(std::vector<double>& per_channel) const override;

  void window_tick(double now);
  void transition(std::size_t slot, std::uint32_t generation);
  void retire(std::size_t slot);
  [[nodiscard]] std::size_t allocate_slot();
  void refresh_behavior_cache();
  void sync_counters();

  /// Mass of cohort `slot` currently downloading chunk j (occupancy that
  /// does not yet own the chunk, under the independence approximation).
  [[nodiscard]] double download_mass(std::size_t slot, int chunk) const;
  [[nodiscard]] std::size_t cell(std::size_t slot, int chunk) const;

  double window_;
  double min_mass_;

  // SoA cohort arena. A slot is live iff live_[slot]; freed slots recycle
  // through free_slots_ and bump generation_ so stale transition events
  // from a previous tenancy are ignored.
  std::vector<char> live_;
  std::vector<std::uint32_t> generation_;
  std::vector<int> channel_of_;
  std::vector<double> alive_;        ///< surviving viewer mass
  std::vector<double> uplink_rate_;  ///< mean per-viewer uplink (bytes/s)
  std::vector<double> occ_;          ///< [slot · J + j] position mass
  std::vector<double> owned_;        ///< [slot · J + j] ownership mass
  std::vector<std::size_t> free_slots_;
  std::size_t live_cohorts_ = 0;

  // Ground-truth behaviour cache (refreshed every window tick: set_config
  // can reshape it mid-run).
  util::Matrix transfer_;
  std::vector<double> entry_dist_;
  std::vector<double> leave_row_;

  std::vector<workload::CohortArrivals> arrivals_;  ///< per channel
  std::vector<double> channel_mass_;                ///< per channel
  double total_mass_ = 0.0;

  long long arrivals_count_ = 0;
  double departures_mass_ = 0.0;
  double downloads_mass_ = 0.0;
  double late_mass_ = 0.0;
  double replays_mass_ = 0.0;
};

}  // namespace cloudmedia::vod
