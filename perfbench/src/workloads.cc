#include "workloads.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "checks.h"
#include "expr/runner.h"
#include "kernels.h"
#include "profile/profile.h"
#include "spans.h"
#include "store/results_store.h"
#include "sweep/scenario_catalog.h"
#include "sweep/sweep_runner.h"
#include "traced.h"
#include "util/rss.h"

namespace perfbench {

namespace cm = cloudmedia;
namespace fs = std::filesystem;

namespace {

constexpr const char* kGoldenSweep = "golden_sweep";

/// Set-up probes per repetition, half before and half after the main run
/// so they sample the host at two moments: each is the workload's config
/// cut to one simulated second, run through ExperimentRunner::run
/// (validation, dry pass, construction, start() and the t = 0 bootstrap
/// plan).
constexpr int kSetupProbes = 21;
constexpr double kProbeHours = 1.0 / 3600.0;
/// The golden sweep runs on at most this many threads, so the workload is
/// the same on any machine with at least that many cores.
constexpr unsigned kMaxSweepThreads = 4;
/// Events in the dispatch kernel of a traced repetition.
constexpr std::size_t kDispatchEvents = std::size_t{1} << 20;

/// True for the workloads that are one ExperimentRunner::run each.
bool is_single_run(const std::string& workload) {
  return workload != kGoldenSweep;
}

/// The fixed configuration of a single-run workload at `seed`.
cm::expr::ExperimentConfig single_run_config(const std::string& workload,
                                             std::uint64_t seed) {
  const cm::sweep::ScenarioCatalog& catalog = cm::sweep::ScenarioCatalog::global();
  cm::expr::ExperimentConfig config;
  if (workload == "p2p_flash_discrete") {
    // bench_discrete_smoke's day: ~4.9e4 estimated peak viewers, P2P.
    config = catalog.make_config("flash_crowd", cm::core::StreamingMode::kP2p);
    config.warmup_hours = 0.0;
    config.measure_hours = 10.0;
    config.engine = cm::expr::Engine::kDiscrete;
    config.workload.total_arrival_rate = 6.0;
  } else if (workload == "cs_week_discrete") {
    // The paper's headline configuration for one simulated week.
    config = catalog.make_config("baseline_diurnal");
    config.warmup_hours = 4.0;
    config.measure_hours = 164.0;
    config.engine = cm::expr::Engine::kDiscrete;
  } else if (workload == "cohort_10m") {
    // bench_cohort_smoke's day: arrival rate calibrated so the realized
    // concurrent peak reaches 10M viewers.
    config = catalog.make_config("live_event_cliff");
    config.warmup_hours = 0.0;
    config.measure_hours = 24.0;
    config.engine = cm::expr::Engine::kCohort;
    config.workload.total_arrival_rate = 1.0;
    config.workload.total_arrival_rate =
        1.3 * 10'000'000.0 / cm::expr::estimated_peak_users(config);
  } else {
    throw std::invalid_argument("not a single-run workload: " + workload);
  }
  config.seed = seed;
  return config;
}

double since(Clock::time_point t0) { return seconds_between(t0, Clock::now()); }

/// This process's resident high-water mark in MiB. Read from VmHWM, which
/// belongs to the address space exec created; getrusage's ru_maxrss also
/// keeps the high-water mark of the process that forked this one, so a
/// repetition spawned by a larger parent would report the parent's size.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      double kib = 0.0;
      std::istringstream(line.substr(6)) >> kib;
      return kib / 1024.0;
    }
  }
  return cm::util::peak_rss_mb();
}

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::string reference_path(const RepContext& ctx) {
  return ctx.root + "/perfbench/reference/" + ctx.workload + ".json";
}

/// Output checks of one single run: the invariants at every seed, and at
/// the default seed the pinned summary of a discrete workload (the
/// cohort engine has no validated reference, so it gets none).
std::vector<std::string> check_single(const RepContext& ctx,
                                      const cm::expr::ExperimentConfig& config,
                                      const cm::expr::ExperimentResult& result) {
  std::vector<std::string> failures = check_run(config, result);
  if (ctx.seed == kDefaultSeed && !result.used_cohort_engine) {
    const std::string actual =
        run_summary_json(ctx.workload, ctx.seed, result).dump(2) + "\n";
    if (actual != read_text(reference_path(ctx))) {
      failures.push_back("run summary differs from " + reference_path(ctx));
    }
  }
  return failures;
}

void record_failures(RepResult& rep, std::vector<std::string> failures) {
  ++rep.attempted;
  if (failures.empty()) return;
  ++rep.failed;
  for (std::string& f : failures) rep.failures.push_back(std::move(f));
}

// ------------------------------------------------------------ single runs

RepResult single_untraced(const RepContext& ctx) {
  const cm::expr::ExperimentConfig config =
      single_run_config(ctx.workload, ctx.seed);
  cm::expr::ExperimentConfig probe = config;
  probe.warmup_hours = 0.0;
  probe.measure_hours = kProbeHours;
  std::vector<double> setups;
  const auto probe_setup = [&probe, &setups](int count) {
    for (int i = 0; i < count; ++i) {
      const auto t0 = Clock::now();
      (void)cm::expr::ExperimentRunner::run(probe);
      setups.push_back(since(t0));
    }
  };

  probe_setup(kSetupProbes / 2);
  const auto t0 = Clock::now();
  const cm::expr::ExperimentResult result = cm::expr::ExperimentRunner::run(config);
  const double run_s = since(t0);
  RepResult rep;
  record_failures(rep, check_single(ctx, config, result));
  rep.metrics["wall_s"] = since(t0);
  rep.metrics["peak_rss_mb"] = peak_rss_mb();
  probe_setup(kSetupProbes - kSetupProbes / 2);
  const double setup_s = median(setups);
  rep.metrics["setup_s"] = setup_s;
  rep.metrics["viewers_per_s"] =
      static_cast<double>(result.metrics.counters.arrivals) /
      std::max(run_s - setup_s, 1e-9);
  return rep;
}

RepResult single_traced(const RepContext& ctx) {
  const cm::expr::ExperimentConfig config =
      single_run_config(ctx.workload, ctx.seed);

  const auto t0 = Clock::now();
  const cm::expr::ExperimentResult untraced = cm::expr::ExperimentRunner::run(config);
  const double untraced_s = since(t0);

  SpanLog log;
  const auto t1 = Clock::now();
  const TracedRun traced = run_traced(config, log);
  const double traced_s = since(t1);

  RepResult rep;
  std::vector<std::string> failures = check_single(ctx, config, traced.result);
  if (run_summary_json(ctx.workload, ctx.seed, traced.result).dump() !=
      run_summary_json(ctx.workload, ctx.seed, untraced).dump()) {
    failures.push_back("traced run summary differs from ExperimentRunner::run");
  }
  record_failures(rep, std::move(failures));

  const ReplayTimes replay = replay_plans(config, traced.reports);
  const auto totals = layer_totals(log.spans());
  const auto layer = [&totals](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? LayerTotals{} : it->second;
  };
  const LayerTotals sim_run = layer(kSimRun);
  const double events = static_cast<double>(traced.result.sim_events);
  auto& m = rep.metrics;
  m["expr.build_s"] = layer(kBuild).self_s;
  // The rebalance is measured alone at odd instants; its per-call cost
  // stands in for the rebalances inside the even-instant ticks.
  const SliceStats& slices = traced.slices;
  const double per_call =
      layer(kRebalance).self_s / std::max(1.0, static_cast<double>(slices.odd_instants));
  const double even_instants = static_cast<double>(slices.instants - slices.odd_instants);
  m["vod.event_s"] = layer(kEvent).self_s;
  m["vod.rebalance_calls"] = static_cast<double>(slices.instants);
  m["vod.rebalance_ms_per_call"] = 1e3 * per_call;
  m["vod.rebalance_s"] = per_call * static_cast<double>(slices.instants);
  m["vod.sample_s"] = layer(kTick).self_s - per_call * even_instants;
  m["vod.tick_s"] = layer(kRebalance).total_s + layer(kTick).total_s;
  m["vod.peak_users"] = traced.result.metrics.concurrent_users.max_value();
  m["vod.live_cohorts_peak"] = static_cast<double>(traced.live_cohorts_peak);
  m["core.plans"] = static_cast<double>(traced.reports.size());
  m["core.estimate_s"] = layer(kEstimate).total_s;
  m["core.plan_s"] = replay.plan_s;
  m["core.solve_s"] = replay.plan_s - replay.estimate_s;
  m["sim.events"] = events;
  m["sim.events_per_s"] = events / std::max(sim_run.total_s, 1e-9);
  m["sim.event_ns"] = 1e9 * sim_run.total_s / std::max(events, 1.0);
  m["sim.pending_peak"] = static_cast<double>(slices.pending_peak);
  m["sim.ring_capacity"] = static_cast<double>(traced.ring_capacity);
  m["sim.dispatch_ns_per_event"] =
      dispatch_ns_per_event(slices.pending_peak, kDispatchEvents);
  m["cloud.plans_submitted"] = static_cast<double>(traced.result.plans_submitted);
  m["cloud.plans_rejected"] = static_cast<double>(traced.result.plans_rejected);
  m["cloud.vm_boots"] = static_cast<double>(traced.result.vm_boots);
  m["cloud.vm_shutdowns"] = static_cast<double>(traced.result.vm_shutdowns);
  m["trace.overhead_s"] = traced_s - untraced_s;
  m["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s;
  m["trace.coverage"] =
      1.0 - sim_run.self_s / std::max(sim_run.total_s, 1e-12);
  m["trace.grid_anomalies"] = static_cast<double>(slices.anomalies);
  log.write_csv(ctx.out_dir + "/spans.csv");
  return rep;
}

// ----------------------------------------------------------- golden sweep

struct GoldenJob {
  std::string name;
  cm::sweep::SweepSpec spec;
};

std::vector<std::string> profile_paths(const std::string& root) {
  std::vector<std::string> paths;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(root + "/profiles")) {
    if (entry.is_regular_file() && entry.path().extension() == ".json") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  if (paths.empty()) throw std::runtime_error("no profiles under " + root);
  return paths;
}

unsigned sweep_threads() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, kMaxSweepThreads);
}

/// Profile parse and SweepSpec::from_profile for every committed profile,
/// timed apart when a log is given.
std::vector<GoldenJob> load_jobs(const RepContext& ctx, SpanLog* log) {
  std::vector<GoldenJob> jobs;
  for (const std::string& path : profile_paths(ctx.root)) {
    GoldenJob job;
    job.name = fs::path(path).stem().string();
    const int load = log ? log->begin("profile.load") : -1;
    cm::profile::Profile profile = cm::profile::Profile::load(path);
    profile.seed = ctx.seed;
    if (log) log->end(load);
    const int build = log ? log->begin(kBuild) : -1;
    job.spec = cm::sweep::SweepSpec::from_profile(profile);
    if (log) log->end(build);
    job.spec.threads = sweep_threads();
    jobs.push_back(std::move(job));
  }
  return jobs;
}

/// The config SweepRunner builds for one cell (scenario, horizon,
/// overrides, grid point), for the budget check.
cm::expr::ExperimentConfig cell_config(const GoldenJob& job,
                                       const cm::sweep::GridPoint& point) {
  cm::expr::ExperimentConfig config =
      cm::sweep::ScenarioCatalog::global().make_config(job.spec.scenario);
  config.warmup_hours = job.spec.warmup_hours;
  config.measure_hours = job.spec.measure_hours;
  for (const auto& [name, value] : job.spec.overrides) {
    cm::sweep::apply_parameter(config, name, value);
  }
  for (const auto& [name, value] : point.coords) {
    cm::sweep::apply_parameter(config, name, value);
  }
  return config;
}

thread_local std::int64_t cell_start_ns = 0;

struct SweepTotals {
  double sweep_s = 0.0;
  double arrivals = 0.0;
  double events = 0.0;
  double peak_users = 0.0;
};

/// All 19 sweeps through SweepRunner and ResultsStore, each checked.
SweepTotals run_jobs(const RepContext& ctx, const std::vector<GoldenJob>& jobs,
                     RepResult& rep, SpanLog* log) {
  SweepTotals totals;
  for (const GoldenJob& job : jobs) {
    const std::string base = ctx.out_dir + "/" + job.name;
    cm::store::StoreOptions options;
    options.base = base;
    cm::store::ResultsStore store(options, job.spec);
    cm::sweep::SweepSpec spec = job.spec;
    spec.sink = store.sink();

    const int root = log ? log->begin("sweep.run") : -1;
    if (log) {
      spec.customize = [log](cm::expr::ExperimentConfig&) {
        cell_start_ns = log->now_ns();
      };
      spec.sink = [log, root, sink = store.sink()](std::size_t cell,
                                                   cm::sweep::RunSummary row) {
        const std::int64_t done = log->now_ns();
        log->add("sweep.cell", cell_start_ns, done, root);
        sink(cell, std::move(row));
        log->add("store.sink", done, log->now_ns(), root);
      };
    }
    const auto t0 = Clock::now();
    (void)cm::sweep::SweepRunner::run(spec);
    totals.sweep_s += since(t0);
    if (log) log->end(root);

    const int finalize = log ? log->begin("store.finalize") : -1;
    store.finish();
    const cm::sweep::SweepResult result = store.finalize();
    if (log) log->end(finalize);
    const int write = log ? log->begin("store.write") : -1;
    result.write(base);
    if (log) log->end(write);

    std::vector<std::string> failures;
    if (ctx.seed == kDefaultSeed) {
      for (const char* ext : {".csv", ".json"}) {
        std::string diff =
            compare_files(base + ext, ctx.root + "/goldens/" + job.name + ext);
        if (!diff.empty()) failures.push_back(std::move(diff));
      }
    }
    for (const cm::sweep::RunSummary& row : result.runs) {
      for (std::string& f : check_row(cell_config(job, row.point), row)) {
        failures.push_back(job.name + " " + row.point.label() + ": " + f);
      }
      totals.arrivals += static_cast<double>(row.arrivals);
      totals.events += static_cast<double>(row.sim_events);
      totals.peak_users = std::max(totals.peak_users, row.peak_users);
    }
    record_failures(rep, std::move(failures));
  }
  return totals;
}

RepResult golden_untraced(const RepContext& ctx) {
  std::vector<double> setups;
  std::vector<GoldenJob> jobs;
  const auto load_timed = [&ctx, &setups, &jobs](int count) {
    for (int i = 0; i < count; ++i) {
      const auto t0 = Clock::now();
      jobs = load_jobs(ctx, nullptr);
      setups.push_back(since(t0));
    }
  };

  load_timed(kSetupProbes / 2);
  RepResult rep;
  const auto t0 = Clock::now();
  const SweepTotals totals = run_jobs(ctx, jobs, rep, nullptr);
  const double run_s = since(t0);
  rep.metrics["peak_rss_mb"] = peak_rss_mb();
  load_timed(kSetupProbes - kSetupProbes / 2);
  const double setup_s = median(setups);
  // The whole workload includes one set-up pass, like any other run.
  rep.metrics["wall_s"] = run_s + setup_s;
  rep.metrics["setup_s"] = setup_s;
  rep.metrics["viewers_per_s"] = totals.arrivals / std::max(totals.sweep_s, 1e-9);
  return rep;
}

RepResult golden_traced(const RepContext& ctx) {
  RepResult untraced;
  const auto t0 = Clock::now();
  (void)run_jobs(ctx, load_jobs(ctx, nullptr), untraced, nullptr);
  const double untraced_s = since(t0);

  SpanLog log;
  RepResult rep;
  const auto t1 = Clock::now();
  const SweepTotals totals = run_jobs(ctx, load_jobs(ctx, &log), rep, &log);
  const double traced_s = since(t1);

  std::vector<double> cells;
  const std::vector<std::int64_t> self = self_times_ns(log.spans());
  double covered_s = 0.0;
  double cell_s = 0.0;
  for (std::size_t i = 0; i < log.spans().size(); ++i) {
    const Span& s = log.spans()[i];
    const double d = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    if (std::string_view(s.layer) == "sweep.cell") {
      cells.push_back(d);
      cell_s += d;
    }
    if (std::string_view(s.layer) == "sweep.run") {
      covered_s += d - static_cast<double>(self[i]) * 1e-9;
    }
  }
  const auto totals_by_layer = layer_totals(log.spans());
  const auto total = [&totals_by_layer](const char* name) {
    const auto it = totals_by_layer.find(name);
    return it == totals_by_layer.end() ? 0.0 : it->second.total_s;
  };
  auto& m = rep.metrics;
  m["profile.load_s"] = total("profile.load");
  m["expr.build_s"] = total(kBuild);
  m["sweep.cells"] = static_cast<double>(cells.size());
  m["sweep.cell_s_p50"] = median(cells);
  m["sweep.cell_s_max"] =
      cells.empty() ? 0.0 : *std::max_element(cells.begin(), cells.end());
  m["sweep.busy_frac"] =
      cell_s / (static_cast<double>(sweep_threads()) * total("sweep.run"));
  m["store.sink_s"] = total("store.sink");
  m["store.finalize_s"] = total("store.finalize");
  m["store.write_s"] = total("store.write");
  m["sim.events"] = totals.events;
  m["sim.events_per_s"] = totals.events / std::max(total("sweep.run"), 1e-9);
  m["sim.event_ns"] = 1e9 * cell_s / std::max(totals.events, 1.0);
  m["vod.peak_users"] = totals.peak_users;
  m["trace.overhead_s"] = traced_s - untraced_s;
  m["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s;
  m["trace.coverage"] = covered_s / std::max(total("sweep.run"), 1e-12);
  log.write_csv(ctx.out_dir + "/spans.csv");
  return rep;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{
      "p2p_flash_discrete", "cs_week_discrete", "cohort_10m", kGoldenSweep};
  return names;
}

RepResult run_untraced(const RepContext& ctx) {
  return is_single_run(ctx.workload) ? single_untraced(ctx) : golden_untraced(ctx);
}

RepResult run_traced_rep(const RepContext& ctx) {
  return is_single_run(ctx.workload) ? single_traced(ctx) : golden_traced(ctx);
}

std::string summary_text(const std::string& workload, std::uint64_t seed) {
  const cm::expr::ExperimentResult result =
      cm::expr::ExperimentRunner::run(single_run_config(workload, seed));
  return run_summary_json(workload, seed, result).dump(2) + "\n";
}

}  // namespace perfbench
