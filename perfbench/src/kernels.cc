#include "kernels.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/simulator.h"
#include "spans.h"
#include "util/rng.h"
#include "vod/service_pool.h"

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

/// One loop unit: 4096 uniform draws plus one 64-job ServicePool drain.
double calibration_unit(cloudmedia::util::Rng& rng) {
  double acc = 0.0;
  for (int i = 0; i < 4096; ++i) acc += rng.uniform();
  cloudmedia::sim::Simulator sim;
  long completions = 0;
  cloudmedia::vod::ServicePool pool(
      sim, 1'250'000.0,
      [&completions](const cloudmedia::vod::ServicePool::Completion&) {
        ++completions;
      });
  pool.set_capacity(5e6, 5e6);
  for (int i = 0; i < 64; ++i) {
    pool.add_job(1e6 + 1e5 * rng.uniform(), static_cast<std::uint64_t>(i));
  }
  sim.run_all();
  return acc + static_cast<double>(completions);
}

/// Reschedules itself a random delay ahead, so the pending depth stays at
/// the number of tickers seeded.
struct Ticker {
  cloudmedia::sim::Simulator* sim;
  cloudmedia::util::Rng* rng;
  double mean_gap;
  void operator()() const {
    sim->schedule_in(2.0 * mean_gap * rng->uniform(), *this);
  }
};

}  // namespace

double calibration_ns() {
  constexpr int kUnits = 200;
  std::vector<double> trials;
  volatile double sink = 0.0;
  for (int trial = 0; trial < 5; ++trial) {
    cloudmedia::util::Rng rng(42);
    double acc = 0.0;
    const auto t0 = Clock::now();
    for (int u = 0; u < kUnits; ++u) acc += calibration_unit(rng);
    const double ns = seconds_between(t0, Clock::now()) * 1e9;
    sink = sink + acc;
    trials.push_back(ns / kUnits);
  }
  return median(trials);
}

double dispatch_ns_per_event(std::size_t pending, std::size_t events) {
  pending = std::max<std::size_t>(pending, 1);
  std::vector<double> trials;
  for (int trial = 0; trial < 3; ++trial) {
    cloudmedia::sim::Simulator sim;
    cloudmedia::util::Rng rng(7);
    // One simulated second per event on average across the whole set.
    const double mean_gap = static_cast<double>(pending);
    for (std::size_t i = 0; i < pending; ++i) {
      sim.schedule_at(2.0 * mean_gap * rng.uniform(),
                      Ticker{&sim, &rng, mean_gap});
    }
    const double horizon = static_cast<double>(events);
    const auto t0 = Clock::now();
    sim.run_until(horizon);
    const double ns = seconds_between(t0, Clock::now()) * 1e9;
    trials.push_back(ns / static_cast<double>(std::max<std::uint64_t>(
                              sim.events_processed(), 1)));
  }
  return median(trials);
}

}  // namespace perfbench
