// The cohort/fluid engine's correctness surface: the bulk event scheduler,
// the batched Poisson arrivals, the engine knob, discrete/auto equivalence
// at small N (the `auto` routing guarantee every committed golden relies
// on), cohort-engine determinism, mass conservation in a forced-cohort
// run, and the engine's scale claim: a calibrated day reaches a 10M
// concurrent peak.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <ostream>
#include <utility>
#include <vector>

#include "cloud/cloud_service.h"
#include "core/controller.h"
#include "expr/config.h"
#include "expr/runner.h"
#include "sim/simulator.h"
#include "sweep/scenario_catalog.h"
#include "util/check.h"
#include "util/rng.h"
#include "vod/cohort_system.h"
#include "workload/cohort.h"
#include "workload/scenario.h"

namespace cloudmedia {
namespace {

using core::StreamingMode;

// ------------------------------------------------- Simulator::schedule_bulk

TEST(ScheduleBulk, MatchesLoopOfScheduleAt) {
  // Bulk scheduling is a throughput optimization only: firing order must be
  // exactly what the same (time, callback) list gets from schedule_at —
  // including FIFO order among equal times.
  const std::vector<double> times{5.0, 1.0, 3.0, 1.0, 3.0, 1.0, 2.0};

  std::vector<int> loop_order;
  sim::Simulator loop_sim;
  for (std::size_t i = 0; i < times.size(); ++i) {
    loop_sim.schedule_at(times[i],
                         [&loop_order, i] { loop_order.push_back(static_cast<int>(i)); });
  }
  loop_sim.run_all();

  std::vector<int> bulk_order;
  sim::Simulator bulk_sim;
  std::vector<std::pair<double, sim::Simulator::Callback>> batch;
  for (std::size_t i = 0; i < times.size(); ++i) {
    batch.emplace_back(times[i], [&bulk_order, i] {
      bulk_order.push_back(static_cast<int>(i));
    });
  }
  (void)bulk_sim.schedule_bulk(std::move(batch));
  bulk_sim.run_all();

  EXPECT_EQ(bulk_order, loop_order);
}

TEST(ScheduleBulk, EmptyBatchIsNoop) {
  sim::Simulator sim;
  sim.schedule_bulk({});
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.run_all(), 0u);
}

TEST(ScheduleBulk, SharesFifoOrderWithScheduleAt) {
  // A batch takes sequence numbers between the events scheduled before and
  // after it, and rebuilding the heap keeps every earlier handle usable.
  sim::Simulator sim;
  std::vector<int> fired;
  const auto record = [&fired](int i) {
    return [&fired, i] { fired.push_back(i); };
  };
  const sim::EventId first = sim.schedule_at(1.0, record(0));
  const sim::EventId doomed = sim.schedule_at(1.0, record(1));
  std::vector<std::pair<double, sim::Simulator::Callback>> batch;
  batch.emplace_back(1.0, record(2));
  batch.emplace_back(0.5, record(3));
  batch.emplace_back(1.0, record(4));
  sim.schedule_bulk(std::move(batch));  // 3 >= 5 / 4: the heapify branch
  sim.schedule_at(1.0, record(5));
  EXPECT_TRUE(sim.cancel(doomed));
  EXPECT_FALSE(sim.cancel(doomed));
  EXPECT_TRUE(sim.retime(first, 1.0));  // now behind everything at t = 1
  EXPECT_EQ(sim.run_all(), 5u);
  EXPECT_EQ(fired, (std::vector<int>{3, 2, 4, 5, 0}));
}

TEST(ScheduleBulk, LargeBatchOnSmallHeapHeapifies) {
  // A batch larger than a quarter of the existing heap takes the
  // heapify branch; order must still come out fully sorted.
  sim::Simulator sim;
  std::vector<int> fired;
  sim.schedule_at(500.0, [&fired] { fired.push_back(-1); });
  std::vector<std::pair<double, sim::Simulator::Callback>> batch;
  for (int i = 63; i >= 0; --i) {  // reverse-time order in the batch
    batch.emplace_back(static_cast<double>(i), [&fired, i] { fired.push_back(i); });
  }
  (void)sim.schedule_bulk(std::move(batch));
  sim.run_all();
  ASSERT_EQ(fired.size(), 65u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(fired.back(), -1);
}

// ------------------------------------------------------------ sample_poisson

TEST(SamplePoisson, ZeroMeanIsZeroAndNegativeMeanThrows) {
  util::Rng rng(1);
  EXPECT_EQ(workload::sample_poisson(rng, 0.0), 0);
  EXPECT_THROW((void)workload::sample_poisson(rng, -3.0),
               util::PreconditionError);
}

TEST(SamplePoisson, SmallMeanMatchesExpectation) {
  util::Rng rng(42);
  const double mean = 4.0;
  const int n = 4000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const long long k = workload::sample_poisson(rng, mean);
    ASSERT_GE(k, 0);
    sum += static_cast<double>(k);
  }
  // Std error of the sample mean is sqrt(4/4000) ~ 0.032; 6 sigma bound.
  EXPECT_NEAR(sum / n, mean, 0.2);
}

TEST(SamplePoisson, LargeMeanUsesNormalBranch) {
  util::Rng rng(7);
  const double mean = 1e6;
  for (int i = 0; i < 16; ++i) {
    const long long k = workload::sample_poisson(rng, mean);
    EXPECT_NEAR(static_cast<double>(k), mean, 6.0 * std::sqrt(mean));
  }
}

TEST(SamplePoisson, DeterministicForEqualSeeds) {
  util::Rng a(99);
  util::Rng b(99);
  for (const double mean : {0.3, 7.0, 63.9, 64.1, 5000.0}) {
    EXPECT_EQ(workload::sample_poisson(a, mean),
              workload::sample_poisson(b, mean));
  }
}

// ------------------------------------------------------------ CohortArrivals

TEST(CohortArrivals, WindowMeanIntegratesFlatRate) {
  workload::CohortArrivals arrivals([](double) { return 2.0; }, 300.0,
                                    util::Rng(1));
  EXPECT_NEAR(arrivals.window_mean(0.0), 600.0, 1e-9);
  EXPECT_NEAR(arrivals.window_mean(7200.0), 600.0, 1e-9);
  EXPECT_DOUBLE_EQ(arrivals.window(), 300.0);
}

TEST(CohortArrivals, CountStreamIsDeterministic) {
  const auto rate = [](double t) { return t < 600.0 ? 1.0 : 3.0; };
  workload::CohortArrivals a(rate, 300.0, util::Rng(5));
  workload::CohortArrivals b(rate, 300.0, util::Rng(5));
  for (int w = 0; w < 8; ++w) {
    const double t = 300.0 * w;
    EXPECT_EQ(a.sample_count(t), b.sample_count(t)) << "window " << w;
  }
}

// --------------------------------------------------------------- the knob

TEST(EngineKnob, ParsesAndPrints) {
  EXPECT_EQ(expr::engine_from_string("discrete"), expr::Engine::kDiscrete);
  EXPECT_EQ(expr::engine_from_string("cohort"), expr::Engine::kCohort);
  EXPECT_EQ(expr::engine_from_string("auto"), expr::Engine::kAuto);
  EXPECT_EQ(expr::to_string(expr::Engine::kCohort), "cohort");
  EXPECT_EQ(expr::engine_from_string(expr::to_string(expr::Engine::kAuto)),
            expr::Engine::kAuto);
  EXPECT_THROW((void)expr::engine_from_string("hybrid"), util::PreconditionError);
}

TEST(EngineKnob, EstimatedPeakScalesLinearlyWithArrivalRate) {
  expr::ExperimentConfig cfg =
      expr::ExperimentConfig::make_default(StreamingMode::kClientServer);
  cfg.workload.total_arrival_rate = 1.0;
  const double per_unit = expr::estimated_peak_users(cfg);
  EXPECT_GT(per_unit, 0.0);
  cfg.workload.total_arrival_rate = 10.0;
  EXPECT_NEAR(expr::estimated_peak_users(cfg), 10.0 * per_unit,
              1e-9 * per_unit);
}

// ----------------------------------------------------- engine equivalence

expr::ExperimentConfig small_config(StreamingMode mode) {
  expr::ExperimentConfig cfg = expr::ExperimentConfig::make_default(mode);
  cfg.workload.num_channels = 3;
  cfg.workload.total_arrival_rate = 0.08;
  cfg.workload.diurnal = workload::DiurnalPattern::flat();
  cfg.warmup_hours = 0.5;
  cfg.measure_hours = 2.0;
  cfg.seed = 7;
  return cfg;
}

void expect_identical_results(const expr::ExperimentResult& a,
                              const expr::ExperimentResult& b) {
  EXPECT_EQ(a.metrics.counters.arrivals, b.metrics.counters.arrivals);
  EXPECT_EQ(a.metrics.counters.departures, b.metrics.counters.departures);
  EXPECT_EQ(a.metrics.counters.chunk_downloads,
            b.metrics.counters.chunk_downloads);
  EXPECT_EQ(a.metrics.counters.late_downloads,
            b.metrics.counters.late_downloads);
  EXPECT_EQ(a.metrics.counters.buffered_replays,
            b.metrics.counters.buffered_replays);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_DOUBLE_EQ(a.vm_cost_total, b.vm_cost_total);
  EXPECT_DOUBLE_EQ(a.storage_cost_total, b.storage_cost_total);
  ASSERT_EQ(a.metrics.quality.size(), b.metrics.quality.size());
  for (std::size_t i = 0; i < a.metrics.quality.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.metrics.quality.value_at(i),
                     b.metrics.quality.value_at(i));
  }
  ASSERT_EQ(a.metrics.reserved_mbps.size(), b.metrics.reserved_mbps.size());
  for (std::size_t i = 0; i < a.metrics.reserved_mbps.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.metrics.reserved_mbps.value_at(i),
                     b.metrics.reserved_mbps.value_at(i));
  }
  ASSERT_EQ(a.metrics.concurrent_users.size(),
            b.metrics.concurrent_users.size());
  for (std::size_t i = 0; i < a.metrics.concurrent_users.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.metrics.concurrent_users.value_at(i),
                     b.metrics.concurrent_users.value_at(i));
  }
}

TEST(CohortEquivalence, AutoRoutesToDiscreteBelowThreshold) {
  // The guarantee every committed golden rides on: below the population
  // threshold, engine=auto replays the discrete engine bit for bit.
  expr::ExperimentConfig cfg = small_config(StreamingMode::kP2p);
  cfg.engine = expr::Engine::kDiscrete;
  const expr::ExperimentResult discrete = expr::ExperimentRunner::run(cfg);
  cfg.engine = expr::Engine::kAuto;  // ~110 peak users << 250k threshold
  const expr::ExperimentResult routed = expr::ExperimentRunner::run(cfg);
  expect_identical_results(discrete, routed);
}

TEST(CohortEquivalence, ThresholdZeroRoutesAutoToCohort) {
  expr::ExperimentConfig cfg = small_config(StreamingMode::kClientServer);
  cfg.engine = expr::Engine::kDiscrete;
  const expr::ExperimentResult discrete = expr::ExperimentRunner::run(cfg);
  cfg.engine = expr::Engine::kAuto;
  cfg.cohort_threshold = 1.0;  // any population routes to the cohort core
  const expr::ExperimentResult cohort = expr::ExperimentRunner::run(cfg);
  // A different core: far fewer heap events, but a live population and a
  // full metrics surface.
  EXPECT_LT(cohort.sim_events, discrete.sim_events);
  EXPECT_GT(cohort.metrics.counters.arrivals, 0);
  EXPECT_FALSE(cohort.metrics.quality.empty());
  EXPECT_FALSE(cohort.metrics.reserved_mbps.empty());
}

TEST(CohortEquivalence, CohortTracksDiscretePopulationScale) {
  // The fluid approximation must agree with the exact engine on the
  // *scale* of the run: same arrival process mean, similar concurrency.
  expr::ExperimentConfig cfg = small_config(StreamingMode::kClientServer);
  cfg.engine = expr::Engine::kDiscrete;
  const expr::ExperimentResult discrete = expr::ExperimentRunner::run(cfg);
  cfg.engine = expr::Engine::kCohort;
  const expr::ExperimentResult cohort = expr::ExperimentRunner::run(cfg);

  const auto da = static_cast<double>(discrete.metrics.counters.arrivals);
  const auto ca = static_cast<double>(cohort.metrics.counters.arrivals);
  EXPECT_GT(ca, 0.0);
  EXPECT_NEAR(ca, da, 0.25 * da);  // both Poisson around the same mean
  EXPECT_NEAR(cohort.mean_concurrent_users(), discrete.mean_concurrent_users(),
              0.35 * discrete.mean_concurrent_users());
}

TEST(CohortEngine, DeterministicAcrossRuns) {
  expr::ExperimentConfig cfg = small_config(StreamingMode::kP2p);
  cfg.engine = expr::Engine::kCohort;
  const expr::ExperimentResult a = expr::ExperimentRunner::run(cfg);
  const expr::ExperimentResult b = expr::ExperimentRunner::run(cfg);
  expect_identical_results(a, b);
}

// ----------------------------------------------------- pinned cohort outputs

/// FNV-1a over the bit patterns of every (time, value) sample of `series`,
/// folded into `hash`: equal digests mean every sample is bit-identical.
std::uint64_t fold_series(std::uint64_t hash, const util::TimeSeries& series) {
  const auto fold = [&hash](double x) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xffu;
      hash *= 0x100000001b3ull;
    }
  };
  fold(static_cast<double>(series.size()));
  for (std::size_t i = 0; i < series.size(); ++i) {
    fold(series.time_at(i));
    fold(series.value_at(i));
  }
  return hash;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

/// Exact outputs of a small forced-cohort run. No committed golden runs the
/// cohort engine, so this pin is what holds its outputs bit-stable.
struct CohortPin {
  StreamingMode mode;
  long arrivals, departures, chunk_downloads, late_downloads,
      buffered_replays, rejected_plans;
  std::uint64_t sim_events;
  long final_users;
  double vm_cost_total, storage_cost_total;
  /// reserved, used cloud, used peer, quality, vm cost, storage cost, users.
  std::array<std::uint64_t, 7> system;
  /// size, quality, provisioned, storage utility, vm utility — each folded
  /// over the channels in order.
  std::array<std::uint64_t, 5> channel;
};

void PrintTo(const CohortPin& pin, std::ostream* os) {
  *os << (pin.mode == StreamingMode::kP2p ? "p2p" : "cs");
}

class CohortPinned : public ::testing::TestWithParam<CohortPin> {};

TEST_P(CohortPinned, OutputsAreBitStable) {
  const CohortPin& pin = GetParam();
  expr::ExperimentConfig cfg = small_config(pin.mode);
  cfg.engine = expr::Engine::kCohort;
  cfg.workload.total_arrival_rate = 1.0;
  const expr::ExperimentResult r = expr::ExperimentRunner::run(cfg);
  const vod::SystemMetrics& m = r.metrics;

  EXPECT_EQ(m.counters.arrivals, pin.arrivals);
  EXPECT_EQ(m.counters.departures, pin.departures);
  EXPECT_EQ(m.counters.chunk_downloads, pin.chunk_downloads);
  EXPECT_EQ(m.counters.late_downloads, pin.late_downloads);
  EXPECT_EQ(m.counters.buffered_replays, pin.buffered_replays);
  EXPECT_EQ(m.counters.rejected_plans, pin.rejected_plans);
  EXPECT_EQ(r.sim_events, pin.sim_events);
  EXPECT_EQ(r.final_users, pin.final_users);
  EXPECT_EQ(r.vm_cost_total, pin.vm_cost_total);
  EXPECT_EQ(r.storage_cost_total, pin.storage_cost_total);

  const util::TimeSeries* system[] = {
      &m.reserved_mbps, &m.used_cloud_mbps,   &m.used_peer_mbps,
      &m.quality,       &m.vm_cost_rate,      &m.storage_cost_rate,
      &m.concurrent_users};
  for (std::size_t s = 0; s < pin.system.size(); ++s) {
    EXPECT_EQ(fold_series(kFnvBasis, *system[s]), pin.system[s])
        << "system series " << s;
  }
  ASSERT_EQ(m.channels.size(), 3u);
  std::array<std::uint64_t, 5> channel;
  channel.fill(kFnvBasis);
  for (const vod::ChannelSeries& ch : m.channels) {
    const util::TimeSeries* series[] = {&ch.size, &ch.quality,
                                        &ch.provisioned_mbps,
                                        &ch.storage_utility, &ch.vm_utility};
    for (std::size_t s = 0; s < channel.size(); ++s) {
      channel[s] = fold_series(channel[s], *series[s]);
    }
  }
  for (std::size_t s = 0; s < pin.channel.size(); ++s) {
    EXPECT_EQ(channel[s], pin.channel[s]) << "channel series " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(
    BothModes, CohortPinned,
    ::testing::Values(
        CohortPin{StreamingMode::kClientServer,
                  9195, 7138, 41605, 0, 7823, 0, 1911, 2057,
                  0x1.931999999999ap+6, 0x1.05e1c15097c81p-12,
                  {0x8eb6c075a1fa7039ull, 0x722466a0b4fee93dull,
                   0x9abd124b5cc37019ull, 0xada2b43a95493215ull,
                   0x45a97964ce341ab7ull, 0x85f35cdae456a3b4ull,
                   0xc4f881052f33280eull},
                  {0xa263f4c9f663cdd7ull, 0xf0e11be3f0f847d5ull,
                   0xcd4588fbd254e180ull, 0x735e88187c7690f7ull,
                   0xd57d8cc9189bffe6ull}},
        CohortPin{StreamingMode::kP2p,
                  9195, 7134, 41599, 516, 7806, 0, 1895, 2061,
                  0x1.9333333333334p+2, 0x1.05e1c15097c81p-12,
                  {0x32fd36d8d57108a9ull, 0x44d1685e3645aa02ull,
                   0x1124b44d8d826f78ull, 0x0b1f880f0eb82ab4ull,
                   0xc77dd64afd8113d3ull, 0x85f35cdae456a3b4ull,
                   0x30202433f96c3845ull},
                  {0xaf9e4a9329480702ull, 0x8f7daecfaf663ae6ull,
                   0xc3b3118bd038ca8cull, 0xac3bae1fef81d551ull,
                   0xe8629f97acae4b57ull}}),
    [](const ::testing::TestParamInfo<CohortPin>& info) {
      return info.param.mode == StreamingMode::kP2p ? "P2p" : "ClientServer";
    });

// --------------------------------------------------- cohort mass accounting

TEST(CohortSystem, ConservesViewerMass) {
  expr::ExperimentConfig cfg = small_config(StreamingMode::kClientServer);
  cfg.workload.total_arrival_rate = 0.5;

  sim::Simulator sim;
  const workload::Workload workload(cfg.workload, cfg.seed);
  cloud::CloudConfig cloud_cfg;
  cloud_cfg.sla = cloud::SlaTerms{cfg.vm_budget_per_hour,
                                  cfg.storage_budget_per_hour,
                                  cfg.vm_clusters, cfg.nfs_clusters};
  cloud_cfg.vm = cloud::VmSchedulerConfig{0.0, cfg.vod.vm_bandwidth};
  cloud::CloudService cloud(sim, cloud_cfg);
  core::DemandEstimatorConfig est;
  est.mode = StreamingMode::kClientServer;
  auto controller = std::make_unique<core::Controller>(
      cfg.vod,
      core::ControllerConfig{cfg.vm_clusters, cfg.nfs_clusters,
                             cfg.vm_budget_per_hour,
                             cfg.storage_budget_per_hour},
      std::make_unique<core::ModelBasedPolicy>(cfg.vod, est));

  vod::CohortOptions options;
  options.streaming.mode = StreamingMode::kClientServer;
  vod::CohortSystem system(sim, workload, cfg.vod, cloud,
                           std::move(controller), options);
  system.start();
  sim.run_until(3.0 * 3600.0);

  const auto admitted = static_cast<double>(system.viewers_admitted());
  ASSERT_GT(admitted, 0.0);
  // Every admitted viewer is either still in the system or departed
  // (retirement folds sub-threshold residual mass into departures).
  EXPECT_NEAR(system.departures_mass() + system.current_viewer_mass(),
              admitted, 1e-6 * admitted);

  double channel_sum = 0.0;
  for (int c = 0; c < cfg.workload.num_channels; ++c) {
    channel_sum += system.channel_viewer_mass(c);
  }
  EXPECT_NEAR(channel_sum, system.current_viewer_mass(),
              1e-9 * std::max(1.0, channel_sum));
  EXPECT_GE(system.peak_viewer_mass(), system.current_viewer_mass());
  EXPECT_EQ(system.metrics().counters.arrivals,
            static_cast<long>(system.viewers_admitted()));
  EXPECT_GT(system.live_cohorts(), 0u);
}

// ------------------------------------------------------------- cohort scale

TEST(CohortScale, CalibratedCliffDayReachesTenMillionPeak) {
  // The cohort engine exists to run populations the discrete engine cannot
  // touch: one live_event_cliff day with the arrival rate calibrated to a
  // 10M concurrent peak (perfbench's cohort_10m uses the same
  // calibration). estimated_peak_users() is linear in the arrival rate,
  // and the realized peak lands below the closed-form estimate (the cliff
  // is narrower than a session), so the rate carries a 1.3 factor. The
  // run is deterministic at seed 42, and its cost does not grow with the
  // target.
  constexpr double kTargetPeak = 1e7;
  expr::ExperimentConfig cfg =
      sweep::ScenarioCatalog::global().make_config("live_event_cliff");
  cfg.warmup_hours = 0.0;
  cfg.measure_hours = 24.0;
  cfg.seed = 42;
  cfg.engine = expr::Engine::kCohort;
  cfg.workload.total_arrival_rate = 1.0;
  cfg.workload.total_arrival_rate =
      1.3 * kTargetPeak / expr::estimated_peak_users(cfg);

  const expr::ExperimentResult result = expr::ExperimentRunner::run(cfg);
  EXPECT_TRUE(result.used_cohort_engine);
  EXPECT_GE(result.metrics.concurrent_users.max_value(), kTargetPeak);
}

}  // namespace
}  // namespace cloudmedia
