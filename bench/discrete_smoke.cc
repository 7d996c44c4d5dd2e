// Discrete-engine throughput gate: every golden preset, every sweep cell
// under the cohort auto-threshold, and all CI fuzz profiles run the
// *discrete* core, so its single-run events/s bounds the wall-clock of the
// whole figure/fuzz pipeline. This bench runs one flash_crowd day in P2P
// mode (the heaviest discrete path: per-peer walks, rarest-first
// rebalances, pool churn) at a population far above the golden presets',
// and emits BENCH_discrete.json (events/s, peers simulated, peak RSS).
//
// The gate: events/s must reach --min-events-per-sec, whose default is
// 2x the pre-overhaul baseline measured by this same bench on the
// reference container (kBaselineEventsPerSec below; unordered_map peers +
// std::function events + map-based pools). Both the baseline and the
// realized figure land in the JSON so the speedup is recorded, not
// asserted. Peak RSS must stay under --max-rss-mb, whose default is about
// 3x the 11 MB this bench peaks at on the reference container: an event
// store that grows with the run instead of the pending set (the old
// id-indexed callback ring peaked at 57 MB here) fails it. Sanitizer/debug
// builds detect themselves and skip both gates (the run itself still
// exercises the hot path).
//
// Flags: --rate=6.0 --hours=10 --warmup=0 --seed=42
//        --min-events-per-sec=<2x baseline> --max-rss-mb=32
//        --out=BENCH_discrete.json

#include <chrono>
#include <cstdio>
#include <string>

#include "expr/flags.h"
#include "expr/runner.h"
#include "sweep/scenario_catalog.h"
#include "util/check.h"
#include "util/json.h"
#include "util/rss.h"

using namespace cloudmedia;

namespace {

/// Pre-overhaul (PR 9) discrete-engine throughput on the reference
/// container, measured by this bench at its default arguments. The CI gate
/// demands >= 2x this figure from the slab/SBO/sorted-vector hot path.
constexpr double kBaselineEventsPerSec = 1.96e5;

}  // namespace

int main(int argc, char** argv) {
  const expr::Flags flags(argc, argv);
  const double rate = flags.get("rate", 6.0);
  const double hours = flags.get("hours", 10.0);
  const double warmup = flags.get("warmup", 0.0);
  const double min_events_per_sec =
      flags.get("min-events-per-sec", 2.0 * kBaselineEventsPerSec);
  const double max_rss_mb = flags.get("max-rss-mb", 32.0);
  CM_EXPECTS(rate > 0.0 && hours > 0.0 && max_rss_mb > 0.0);

  expr::ExperimentConfig cfg = sweep::ScenarioCatalog::global().make_config(
      "flash_crowd", core::StreamingMode::kP2p);
  cfg.warmup_hours = warmup;
  cfg.measure_hours = hours;
  cfg.seed = static_cast<std::uint64_t>(flags.get_ll("seed", 42));
  cfg.engine = expr::Engine::kDiscrete;
  cfg.workload.total_arrival_rate = rate;

  std::printf(
      "discrete_smoke: flash_crowd p2p, %.0fh, arrival rate %.1f/s "
      "(~%.3g est. peak viewers)\n",
      hours, rate, expr::estimated_peak_users(cfg));

  const auto t0 = std::chrono::steady_clock::now();
  const expr::ExperimentResult result = expr::ExperimentRunner::run(cfg);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  CM_ENSURES(!result.used_cohort_engine);

  const auto events = static_cast<double>(result.sim_events);
  const double events_per_sec = events / wall;
  const double rss_mb = util::peak_rss_mb();
  const auto viewers = static_cast<double>(result.metrics.counters.arrivals);
  std::printf(
      "  %.3g events in %.2f s  |  %.3g events/s  |  %.3g viewers  |  "
      "peak rss %.1f MB\n",
      events, wall, events_per_sec, viewers, rss_mb);
  std::printf("  gate: >= %.3g events/s (baseline %.3g, %.2fx realized), "
              "rss <= %.0f MB\n",
              min_events_per_sec, kBaselineEventsPerSec,
              events_per_sec / kBaselineEventsPerSec, max_rss_mb);

  if (util::kSanitizedBuild) {
    std::printf("  sanitizer build: throughput/RSS gates skipped\n");
  } else {
    // The regression gates. Throughput halving or an RSS blow-up in the
    // slab/event/pool hot path fails CI on both compilers.
    CM_ENSURES(events_per_sec >= min_events_per_sec);
    CM_ENSURES(rss_mb <= max_rss_mb);
  }

  util::JsonValue bench = util::JsonValue::object();
  bench["bench"] = "discrete_smoke";
  bench["engine"] = "discrete";
  bench["scenario"] = "flash_crowd";
  bench["mode"] = "p2p";
  bench["hours"] = hours;
  bench["arrival_rate"] = rate;
  bench["viewers_simulated"] = viewers;
  bench["sim_events"] = events;
  bench["wall_seconds"] = wall;
  bench["events_per_sec"] = events_per_sec;
  bench["baseline_events_per_sec"] = kBaselineEventsPerSec;
  bench["speedup_vs_baseline"] = events_per_sec / kBaselineEventsPerSec;
  bench["min_events_per_sec"] = min_events_per_sec;
  bench["peak_rss_mb"] = rss_mb;
  bench["max_rss_mb"] = max_rss_mb;
  bench["gates_enforced"] = !util::kSanitizedBuild;
  const std::string out = flags.get("out", std::string("BENCH_discrete.json"));
  util::write_json_file(out, bench);
  std::printf("[json] %s\n", out.c_str());
  return 0;
}
