#include "checks.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>

namespace perfbench {

namespace cm = cloudmedia;

cm::util::JsonValue run_summary_json(const std::string& scenario,
                                     std::uint64_t seed,
                                     const cm::expr::ExperimentResult& r) {
  cm::util::JsonValue j =
      cm::sweep::RunSummary::from_result(scenario, {}, seed, r).to_json();
  const cm::vod::SystemCounters& c = r.metrics.counters;
  j["departures"] = static_cast<double>(c.departures);
  j["final_users"] = static_cast<double>(r.final_users);
  j["chunk_downloads"] = static_cast<double>(c.chunk_downloads);
  j["late_downloads"] = static_cast<double>(c.late_downloads);
  j["plans_submitted"] = static_cast<double>(r.plans_submitted);
  j["plans_rejected"] = static_cast<double>(r.plans_rejected);
  j["vm_boots"] = static_cast<double>(r.vm_boots);
  j["vm_shutdowns"] = static_cast<double>(r.vm_shutdowns);
  j["vm_cost_total"] = r.vm_cost_total;
  j["storage_cost_total"] = r.storage_cost_total;
  j["cohort_engine"] = r.used_cohort_engine;
  return j;
}

BudgetCap budget_cap(const cm::expr::ExperimentConfig& config) {
  cm::expr::ExperimentConfig baseline = config;
  baseline.timeline.clear();
  BudgetCap cap{baseline.vm_budget_per_hour, baseline.storage_budget_per_hour};
  std::vector<const cm::expr::TimedConfigOp*> ops;
  for (const cm::expr::TimedConfigOp& op : config.timeline) ops.push_back(&op);
  std::stable_sort(ops.begin(), ops.end(), [](const auto* a, const auto* b) {
    return a->fire_time < b->fire_time;
  });
  cm::expr::ExperimentConfig scratch = baseline;
  for (const cm::expr::TimedConfigOp* op : ops) {
    op->apply(scratch, baseline);
    cap.vm = std::max(cap.vm, scratch.vm_budget_per_hour);
    cap.storage = std::max(cap.storage, scratch.storage_budget_per_hour);
  }
  for (const cm::core::VmClusterSpec& cluster : config.vm_clusters) {
    cap.vm += cluster.price_per_hour;
  }
  return cap;
}

namespace {

bool exceeds(double value, double cap) {
  return !(value <= cap * (1.0 + 1e-9) + 1e-9);
}

bool is_fraction(double q) {
  return std::isfinite(q) && q >= -1e-12 && q <= 1.0 + 1e-12;
}

std::string num(double v) { return cm::util::format_number(v); }

}  // namespace

std::vector<std::string> check_run(const cm::expr::ExperimentConfig& config,
                                   const cm::expr::ExperimentResult& r) {
  std::vector<std::string> failures;
  const long arrivals = r.metrics.counters.arrivals;
  const long departures = r.metrics.counters.departures;
  const long drift = arrivals - departures - r.final_users;
  const long slack =
      r.used_cohort_engine ? std::max<long>(2, arrivals / 100000) : 0;
  if (std::labs(drift) > slack) {
    failures.push_back("conservation: arrivals " + std::to_string(arrivals) +
                       " != departures " + std::to_string(departures) +
                       " + final_users " + std::to_string(r.final_users));
  }
  for (const double q : r.metrics.quality.values()) {
    if (!is_fraction(q)) {
      failures.push_back("quality: sample " + num(q) + " outside [0, 1]");
      break;
    }
  }
  const BudgetCap cap = budget_cap(config);
  for (const double v : r.metrics.vm_cost_rate.values()) {
    if (exceeds(v, cap.vm)) {
      failures.push_back("budget: vm " + num(v) + " $/h above " + num(cap.vm));
      break;
    }
  }
  for (const double v : r.metrics.storage_cost_rate.values()) {
    if (exceeds(v, cap.storage)) {
      failures.push_back("budget: storage " + num(v) + " $/h above " +
                         num(cap.storage));
      break;
    }
  }
  return failures;
}

std::vector<std::string> check_row(const cm::expr::ExperimentConfig& cell_config,
                                   const cm::sweep::RunSummary& row) {
  std::vector<std::string> failures;
  for (const double q : {row.mean_quality, row.p05_quality, row.p95_quality}) {
    if (!is_fraction(q)) {
      failures.push_back("quality: " + num(q) + " outside [0, 1]");
      break;
    }
  }
  const BudgetCap cap = budget_cap(cell_config);
  if (exceeds(row.cost_per_hour, cap.vm + cap.storage)) {
    failures.push_back("budget: " + num(row.cost_per_hour) + " $/h above " +
                       num(cap.vm + cap.storage));
  }
  if (row.arrivals <= 0) failures.push_back("no arrivals");
  return failures;
}

namespace {

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  return true;
}

}  // namespace

std::string compare_files(const std::string& actual, const std::string& expected) {
  std::string a, e;
  if (!read_file(actual, a)) return "cannot read " + actual;
  if (!read_file(expected, e)) return "cannot read " + expected;
  if (a == e) return "";
  const auto diff = std::mismatch(a.begin(), a.end(), e.begin(), e.end());
  const auto offset = static_cast<long>(diff.first - a.begin());
  return actual + " differs from " + expected + " at byte " +
         std::to_string(offset);
}

}  // namespace perfbench
