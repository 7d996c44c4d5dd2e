#include "vod/cohort_system.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "util/check.h"

namespace cloudmedia::vod {

namespace {
/// Floor for a pool rate when estimating sojourns (a starved pool would
/// otherwise divide by zero; the dwell clamp below bounds the result).
constexpr double kRateFloor = 1e-9;
/// A download can stretch its position dwell to at most this many chunk
/// durations (mirrors how badly a starved discrete viewer can stall before
/// provisioning reacts within one interval).
constexpr double kMaxStallFactor = 4.0;
}  // namespace

CohortSystem::CohortSystem(sim::Simulator& simulator,
                           const workload::Workload& workload,
                           core::VodParameters params,
                           cloud::CloudService& cloud,
                           std::unique_ptr<core::Controller> controller,
                           CohortOptions options)
    : System(simulator, workload, params, cloud, std::move(controller),
             options.streaming,
             // No completion route: the cohort engine never enqueues
             // discrete jobs; the pools exist for capacity splitting, fluid
             // processor sharing, and byte accounting.
             nullptr),
      window_(options.window),
      min_mass_(options.min_mass) {
  CM_EXPECTS(window_ > 0.0);
  CM_EXPECTS(min_mass_ > 0.0);
  channel_mass_.assign(static_cast<std::size_t>(num_channels_), 0.0);
  refresh_behavior_cache();
}

std::size_t CohortSystem::cell(std::size_t slot, int chunk) const {
  return slot * static_cast<std::size_t>(num_chunks_) +
         static_cast<std::size_t>(chunk);
}

double CohortSystem::channel_viewer_mass(int channel) const {
  check_channel(channel);
  return channel_mass_[static_cast<std::size_t>(channel)];
}

double CohortSystem::peak_viewer_mass() const {
  return std::max(0.0, metrics_.concurrent_users.max_value());
}

void CohortSystem::refresh_behavior_cache() {
  const workload::ViewingBehavior& behavior = workload_->config().behavior;
  transfer_ = behavior.transfer_matrix(num_chunks_);
  entry_dist_ = behavior.entry_distribution(num_chunks_);
  leave_row_.assign(static_cast<std::size_t>(num_chunks_), 0.0);
  for (int j = 0; j < num_chunks_; ++j) {
    double row = 0.0;
    for (int k = 0; k < num_chunks_; ++k) {
      row += transfer_(static_cast<std::size_t>(j), static_cast<std::size_t>(k));
    }
    leave_row_[static_cast<std::size_t>(j)] = std::max(0.0, 1.0 - row);
  }
}

void CohortSystem::start_population() {
  for (int c = 0; c < num_channels_; ++c) {
    arrivals_.push_back(workload_->make_cohort_arrivals(c, window_));
  }
  // Arrival windows: the tick at t covers [t, t + window).
  sim_->schedule_periodic(sim_->now(), window_,
                          [this](double t) { window_tick(t); });
}

std::size_t CohortSystem::allocate_slot() {
  if (!free_slots_.empty()) {
    const std::size_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  const std::size_t slot = live_.size();
  live_.push_back(0);
  generation_.push_back(0);
  channel_of_.push_back(0);
  alive_.push_back(0.0);
  uplink_rate_.push_back(0.0);
  occ_.resize(occ_.size() + static_cast<std::size_t>(num_chunks_), 0.0);
  owned_.resize(owned_.size() + static_cast<std::size_t>(num_chunks_), 0.0);
  return slot;
}

void CohortSystem::window_tick(double now) {
  refresh_behavior_cache();
  const double uplink_mean = workload_->uplink_distribution().mean();

  std::vector<std::pair<double, sim::Simulator::Callback>> batch;
  for (int c = 0; c < num_channels_; ++c) {
    const long long n = arrivals_[static_cast<std::size_t>(c)].sample_count(now);
    if (n <= 0) continue;

    const std::size_t slot = allocate_slot();
    live_[slot] = 1;
    ++live_cohorts_;
    channel_of_[slot] = c;
    const auto mass = static_cast<double>(n);
    alive_[slot] = mass;
    uplink_rate_[slot] = uplink_mean;
    for (int j = 0; j < num_chunks_; ++j) {
      const double m = mass * entry_dist_[static_cast<std::size_t>(j)];
      occ_[cell(slot, j)] = m;
      owned_[cell(slot, j)] = 0.0;
      if (m > 0.0) tracker_.record_arrival(c, j, m);
    }
    arrivals_count_ += n;
    channel_mass_[static_cast<std::size_t>(c)] += mass;
    total_mass_ += mass;

    // First transition after one nominal dwell; the transition itself
    // re-estimates subsequent dwells from live pool rates. All first
    // transitions of this window go to the heap as one bulk batch.
    const std::uint32_t generation = generation_[slot];
    batch.emplace_back(now + params_.chunk_duration,
                       [this, slot, generation] { transition(slot, generation); });
  }
  if (!batch.empty()) sim_->schedule_bulk(std::move(batch));
  sync_counters();
}

double CohortSystem::download_mass(std::size_t slot, int chunk) const {
  const double alive = alive_[slot];
  if (alive <= 0.0) return 0.0;
  const double occ = occ_[cell(slot, chunk)];
  const double own_prob = std::min(1.0, owned_[cell(slot, chunk)] / alive);
  return occ * (1.0 - own_prob);
}

void CohortSystem::transition(std::size_t slot, std::uint32_t generation) {
  if (slot >= live_.size() || !live_[slot] || generation_[slot] != generation) {
    return;  // stale event from a recycled slot
  }
  const int c = channel_of_[slot];
  const double alive = alive_[slot];
  if (alive < min_mass_) {
    retire(slot);
    return;
  }

  const auto j_count = static_cast<std::size_t>(num_chunks_);
  std::vector<double> dl(j_count, 0.0);
  std::vector<double> next_occ(j_count, 0.0);
  double dl_total = 0.0;
  double replay_total = 0.0;
  double dwell_weighted = 0.0;

  // Phase 1 — the position each viewer just finished: split occupancy into
  // fresh downloads vs buffered replays, estimate the dwell the download
  // cost (the pool's current fluid rate decides whether it stalled), and
  // absorb the downloaded chunks into ownership.
  for (int j = 0; j < num_chunks_; ++j) {
    const double occ = occ_[cell(slot, j)];
    if (occ <= 0.0) continue;
    const double d = download_mass(slot, j);
    const double replay = occ - d;
    dl[static_cast<std::size_t>(j)] = d;
    dl_total += d;
    replay_total += replay;
    dwell_weighted += replay * params_.chunk_duration;
    if (d > 0.0) {
      const ServicePool& p = *pools_[pool_index(c, j)];
      const double rate = std::max(p.per_job_rate(), kRateFloor);
      const double sojourn = params_.chunk_bytes() / rate;
      if (sojourn > params_.chunk_duration + 1e-9) late_mass_ += d;
      const double dwell =
          std::clamp(sojourn, params_.chunk_duration,
                     kMaxStallFactor * params_.chunk_duration);
      dwell_weighted += d * dwell;
    }
  }
  downloads_mass_ += dl_total;
  replays_mass_ += replay_total;

  // Phase 2 — advance every viewer through the ground-truth transfer
  // matrix at once, reporting the same (now weighted) flows the discrete
  // engine's per-peer record_transition calls produce.
  double stay_total = 0.0;
  for (int j = 0; j < num_chunks_; ++j) {
    const double occ = occ_[cell(slot, j)];
    if (occ <= 0.0) continue;
    for (int k = 0; k < num_chunks_; ++k) {
      const double flow =
          occ * transfer_(static_cast<std::size_t>(j), static_cast<std::size_t>(k));
      if (flow <= 0.0) continue;
      next_occ[static_cast<std::size_t>(k)] += flow;
      stay_total += flow;
      tracker_.record_transition(c, j, k, flow);
    }
    const double leave = occ * leave_row_[static_cast<std::size_t>(j)];
    if (leave > 0.0) tracker_.record_transition(c, j, std::nullopt, leave);
  }
  const double departed = std::max(0.0, alive - stay_total);
  departures_mass_ += departed;

  // Ownership: downloads convert occupancy into owned chunks, then the
  // whole vector scales by the survival ratio (leavers take their buffers
  // with them; ownership within a cohort is independent of who leaves).
  const double survival = std::min(1.0, stay_total / alive);
  for (int j = 0; j < num_chunks_; ++j) {
    const double mid = std::min(
        alive, owned_[cell(slot, j)] + dl[static_cast<std::size_t>(j)]);
    owned_[cell(slot, j)] = mid * survival;
    occ_[cell(slot, j)] = next_occ[static_cast<std::size_t>(j)];
  }
  alive_[slot] = stay_total;
  channel_mass_[static_cast<std::size_t>(c)] += stay_total - alive;
  total_mass_ += stay_total - alive;
  sync_counters();

  if (stay_total < min_mass_) {
    retire(slot);
    return;
  }
  const double total_flow = dl_total + replay_total;
  const double dwell = total_flow > 0.0 ? dwell_weighted / total_flow
                                        : params_.chunk_duration;
  const std::uint32_t gen = generation_[slot];
  sim_->schedule_in(dwell, [this, slot, gen] { transition(slot, gen); });
}

void CohortSystem::retire(std::size_t slot) {
  const int c = channel_of_[slot];
  const double residual = std::max(0.0, alive_[slot]);
  // Sub-min_mass residue departs without per-chunk flows — it is below the
  // engine's resolution by construction.
  departures_mass_ += residual;
  channel_mass_[static_cast<std::size_t>(c)] -= residual;
  total_mass_ -= residual;
  alive_[slot] = 0.0;
  for (int j = 0; j < num_chunks_; ++j) {
    occ_[cell(slot, j)] = 0.0;
    owned_[cell(slot, j)] = 0.0;
  }
  live_[slot] = 0;
  ++generation_[slot];
  --live_cohorts_;
  free_slots_.push_back(slot);
  sync_counters();
}

void CohortSystem::sync_counters() {
  metrics_.counters.arrivals = static_cast<long>(arrivals_count_);
  metrics_.counters.departures = std::lround(departures_mass_);
  metrics_.counters.chunk_downloads = std::lround(downloads_mass_);
  metrics_.counters.late_downloads = std::lround(late_mass_);
  metrics_.counters.buffered_replays = std::lround(replays_mass_);
}

// --- population hooks -------------------------------------------------------

void CohortSystem::observe_population(
    std::vector<std::vector<double>>& occupancy,
    std::vector<double>& mean_uplink) const {
  std::vector<double> uplink_weighted(static_cast<std::size_t>(num_channels_),
                                      0.0);
  for (std::size_t slot = 0; slot < live_.size(); ++slot) {
    if (!live_[slot]) continue;
    const auto ch = static_cast<std::size_t>(channel_of_[slot]);
    for (int j = 0; j < num_chunks_; ++j) {
      occupancy[ch][static_cast<std::size_t>(j)] += occ_[cell(slot, j)];
    }
    uplink_weighted[ch] += alive_[slot] * uplink_rate_[slot];
  }
  for (std::size_t ch = 0; ch < mean_uplink.size(); ++ch) {
    mean_uplink[ch] = channel_mass_[ch] > 0.0
                          ? uplink_weighted[ch] / channel_mass_[ch]
                          : workload_->uplink_distribution().mean();
  }
}

void CohortSystem::chunk_demand(std::vector<double>& demand,
                                std::vector<double>& peer) const {
  // The fluid analogue of the discrete engine's active jobs: demand per
  // (channel, chunk) is the download-active mass scaled by a duty factor
  // (the fraction of its dwell a downloading viewer actually occupies the
  // pool: sojourn / dwell, 1 when the pool is at or below the streaming
  // rate); the shell feeds it to the pools as fluid job counts. In P2P
  // mode the aggregate cohort uplink waterfalls rarest-first over
  // ownership mass.
  const double r = params_.streaming_rate;
  const double t0 = params_.chunk_duration;
  const auto j_count = static_cast<std::size_t>(num_chunks_);

  std::vector<double> dl_mass(pools_.size(), 0.0);
  std::vector<double> owned_mass(pools_.size(), 0.0);
  std::vector<double> channel_uplink(static_cast<std::size_t>(num_channels_),
                                     0.0);
  for (std::size_t slot = 0; slot < live_.size(); ++slot) {
    if (!live_[slot]) continue;
    const int c = channel_of_[slot];
    for (int j = 0; j < num_chunks_; ++j) {
      dl_mass[pool_index(c, j)] += download_mass(slot, j);
      owned_mass[pool_index(c, j)] += owned_[cell(slot, j)];
    }
    channel_uplink[static_cast<std::size_t>(c)] +=
        alive_[slot] * uplink_rate_[slot];
  }

  for (int c = 0; c < num_channels_; ++c) {
    const auto ch = static_cast<std::size_t>(c);

    // Fluid job counts: previous per-job rate estimates the duty factor
    // (starved pools → duty 1, over-provisioned pools → sojourn/T0 < 1).
    for (int j = 0; j < num_chunks_; ++j) {
      const std::size_t key = pool_index(c, j);
      const double m = dl_mass[key];
      if (m <= 0.0) continue;
      const double prev_rate = std::max(pools_[key]->per_job_rate(), kRateFloor);
      const double duty =
          std::min(1.0, (params_.chunk_bytes() / prev_rate) / t0);
      demand[key] = m * duty;
    }

    // Peer share: rarest-first waterfall over ownership mass. The channel's
    // aggregate uplink supplies chunks ascending by owners; each chunk may
    // draw at most the uplink fraction its owners hold.
    if (options_.mode != core::StreamingMode::kP2p ||
        channel_mass_[ch] <= 0.0 || channel_uplink[ch] <= 0.0) {
      continue;
    }
    double total_owned = 0.0;
    for (int j = 0; j < num_chunks_; ++j) {
      total_owned += owned_mass[pool_index(c, j)];
    }
    if (total_owned <= 0.0) continue;
    std::vector<int> order(j_count);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      return owned_mass[pool_index(c, a)] < owned_mass[pool_index(c, b)];
    });
    double remaining = channel_uplink[ch];
    for (int chunk : order) {
      const std::size_t key = pool_index(c, chunk);
      if (owned_mass[key] <= 0.0) continue;
      const double wanted = demand[key] * r;
      const double available = channel_uplink[ch] * owned_mass[key] / total_owned;
      const double give = std::min({wanted, available, remaining});
      if (give <= 0.0) continue;
      peer[key] = give;
      remaining -= give;
    }
    // Residual uplink stands by over owned chunks, like the discrete
    // engine's per-peer residual split.
    if (remaining > 0.0) {
      for (int j = 0; j < num_chunks_; ++j) {
        const std::size_t key = pool_index(c, j);
        peer[key] += remaining * owned_mass[key] / total_owned;
      }
    }
  }
}

double CohortSystem::quality_now(std::vector<double>& per_channel) const {
  // Fluid quality: the mass currently downloading from a pool whose
  // per-job rate is below the streaming rate is stalled; smooth fraction =
  // 1 − stalled/total. Instantaneous (the discrete engine's per-viewer
  // quality_window bookkeeping has no cheap fluid analogue).
  const double r = params_.streaming_rate;
  std::vector<double> stalled(static_cast<std::size_t>(num_channels_), 0.0);
  for (std::size_t slot = 0; slot < live_.size(); ++slot) {
    if (!live_[slot]) continue;
    const int c = channel_of_[slot];
    for (int j = 0; j < num_chunks_; ++j) {
      const double m = download_mass(slot, j);
      if (m <= 0.0) continue;
      if (pools_[pool_index(c, j)]->per_job_rate() < r * (1.0 - 1e-9)) {
        stalled[static_cast<std::size_t>(c)] += m;
      }
    }
  }
  double stalled_total = 0.0;
  for (std::size_t ch = 0; ch < stalled.size(); ++ch) {
    stalled_total += stalled[ch];
    const double mass = channel_mass_[ch];
    per_channel[ch] =
        mass > 0.0 ? 1.0 - std::min(1.0, stalled[ch] / mass) : 1.0;
  }
  return total_mass_ > 0.0 ? 1.0 - std::min(1.0, stalled_total / total_mass_)
                           : 1.0;
}

double CohortSystem::users_now(std::vector<double>& per_channel) const {
  per_channel = channel_mass_;
  return total_mass_;
}

}  // namespace cloudmedia::vod
