#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Median of `values` (the mean of the middle two for an even count; 0 for
/// none).
[[nodiscard]] double median(std::vector<double> values);

/// Machine indicator timed in the same process as the workload: a fixed
/// loop of public util::Rng draws and vod::ServicePool job churn, reported
/// as nanoseconds per loop unit (median of five trials). A trajectory read
/// on another machine can be normalised by it; it is never gated.
[[nodiscard]] double calibration_ns();

/// Host nanoseconds per event of sim::Simulator dispatch alone: empty
/// callbacks that reschedule themselves through schedule_in, driven by
/// run_until, with `pending` events kept in flight (the depth a workload
/// was observed at). Median of three trials of `events` events each.
[[nodiscard]] double dispatch_ns_per_event(std::size_t pending,
                                           std::size_t events);

}  // namespace perfbench
