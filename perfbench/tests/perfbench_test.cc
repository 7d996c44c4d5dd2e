// Tests of the benchmark's own code: the median, span self time, slice
// attribution of the traced run, and the output checker.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "checks.h"
#include "kernels.h"
#include "sim/simulator.h"
#include "spans.h"
#include "traced.h"
#include "util/rng.h"

namespace {

using namespace perfbench;
namespace cm = cloudmedia;

TEST(Median, OddEvenAndEmpty) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(SelfTime, SpanMinusTheUnionOfItsChildren) {
  const std::vector<Span> spans{
      {"root", 0, 100, -1},
      {"a", 10, 30, 0},
      {"b", 20, 50, 0},   // overlaps a: covered once
      {"c", 90, 120, 0},  // clipped to the parent's end
      {"d", 12, 18, 1},   // grandchild: only a loses it
  };
  const std::vector<std::int64_t> self = self_times_ns(spans);
  EXPECT_EQ(self[0], 100 - (50 - 10) - (100 - 90));
  EXPECT_EQ(self[1], 20 - 6);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 6);
  const auto totals = layer_totals(spans);
  EXPECT_DOUBLE_EQ(totals.at("root").self_s, 50e-9);
  EXPECT_DOUBLE_EQ(totals.at("root").total_s, 100e-9);
  EXPECT_EQ(totals.at("a").count, 1);
}

TEST(SelfTime, NestedBeginEndRecordsParents) {
  SpanLog log;
  const int outer = log.begin("outer");
  const int inner = log.begin("inner");
  EXPECT_EQ(log.open(), inner);
  log.end(inner);
  log.end(outer);
  EXPECT_EQ(log.spans()[0].parent, -1);
  EXPECT_EQ(log.spans()[1].parent, outer);
  EXPECT_THROW(log.end(outer), std::logic_error);
}

/// Simulator with the streaming system's periodic schedule (scheduled in
/// StreamingSystem::start's order) plus Poisson background events. Every
/// callback records the span open while it ran.
struct SlicedFixture {
  cm::sim::Simulator sim;
  SpanLog log;
  std::vector<std::pair<double, int>> rebalances, samples, provisions, events;
  cm::util::Rng rng{3};

  void background(double t) {
    sim.schedule_at(t, [this, t] {
      events.emplace_back(t, log.open());
      background(t + rng.exponential(0.2));
    });
  }

  SliceStats run(double horizon) {
    sim.schedule_periodic(3600.0, 3600.0, [this](double t) {
      provisions.emplace_back(t, log.open());
      const int estimate = log.begin(kEstimate);  // what TimedPolicy records
      log.end(estimate);
    });
    sim.schedule_periodic(30.0, 30.0,
                          [this](double t) { rebalances.emplace_back(t, log.open()); });
    sim.schedule_periodic(60.0, 60.0,
                          [this](double t) { samples.emplace_back(t, log.open()); });
    sim.schedule_periodic(300.0, 300.0,
                          [this](double t) { samples.emplace_back(t, log.open()); });
    background(rng.exponential(0.2));
    return run_sliced(sim, horizon, 30.0, log, [] {});
  }

  [[nodiscard]] std::string layer(int span) const {
    return span < 0 ? "" : log.spans()[static_cast<std::size_t>(span)].layer;
  }
};

bool odd_instant(double t) { return static_cast<long>(t / 30.0) % 2 == 1; }

TEST(SliceAttribution, EachKindOfWorkLandsInItsLayer) {
  SlicedFixture f;
  const SliceStats stats = f.run(7200.0);
  EXPECT_EQ(stats.instants, 240);
  EXPECT_EQ(stats.odd_instants, 120);
  EXPECT_EQ(stats.anomalies, 0);
  ASSERT_EQ(f.samples.size(), 120u + 24u);
  for (const auto& [t, span] : f.samples) EXPECT_EQ(f.layer(span), kTick) << t;
  ASSERT_EQ(f.provisions.size(), 2u);
  for (const auto& [t, span] : f.provisions) EXPECT_EQ(f.layer(span), kTick) << t;
  ASSERT_GT(f.events.size(), 1000u);
  for (const auto& [t, span] : f.events) EXPECT_EQ(f.layer(span), kEvent) << t;
  // The estimate nests under the tick, so the tick's self time excludes it.
  long estimates = 0;
  for (const Span& s : f.log.spans()) {
    if (std::string(s.layer) != kEstimate) continue;
    ++estimates;
    EXPECT_EQ(f.layer(s.parent), kTick);
  }
  EXPECT_EQ(estimates, 2);
}

TEST(SliceAttribution, OddInstantsCarryTheRebalanceAlone) {
  SlicedFixture f;
  (void)f.run(3600.0);
  ASSERT_EQ(f.rebalances.size(), 120u);
  for (const auto& [t, span] : f.rebalances) {
    EXPECT_EQ(f.layer(span), odd_instant(t) ? kRebalance : kTick) << t;
  }
  // No other work ran inside a vod.rebalance span: its time is the
  // rebalance's alone.
  for (const auto& [t, span] : f.samples) EXPECT_NE(f.layer(span), kRebalance) << t;
  for (const auto& [t, span] : f.events) EXPECT_NE(f.layer(span), kRebalance) << t;
}

TEST(SliceAttribution, ExtraWorkAtAnOddInstantIsCounted) {
  cm::sim::Simulator sim;
  SpanLog log;
  sim.schedule_periodic(30.0, 30.0, [](double) {});
  sim.schedule_at(90.0, [] {});
  const SliceStats stats = run_sliced(sim, 120.0, 30.0, log, [] {});
  EXPECT_EQ(stats.instants, 4);
  EXPECT_EQ(stats.anomalies, 1);
}

std::string root() {
  const char* env = std::getenv("PERFBENCH_ROOT");
  return env ? env : "..";
}

TEST(Checker, FlagsAGoldenRowWithOneByteChanged) {
  const std::string golden = root() + "/goldens/sweep_demo.csv";
  std::ifstream in(golden, std::ios::binary);
  ASSERT_TRUE(in) << golden;
  std::string bytes{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  const std::string copy =
      (std::filesystem::current_path() / "perfbench_golden_copy.csv").string();
  const auto write = [&copy](const std::string& text) {
    std::ofstream(copy, std::ios::binary) << text;
  };
  write(bytes);
  EXPECT_EQ(compare_files(copy, golden), "");
  const std::size_t row = bytes.find('\n') + 5;  // inside the first data row
  bytes[row] = bytes[row] == '1' ? '2' : '1';
  write(bytes);
  EXPECT_NE(compare_files(copy, golden).find("at byte " + std::to_string(row)),
            std::string::npos);
  std::filesystem::remove(copy);
}

TEST(Checker, FlagsABrokenConservationCount) {
  const cm::expr::ExperimentConfig config =
      cm::expr::ExperimentConfig::make_default(cm::core::StreamingMode::kClientServer);
  cm::expr::ExperimentResult result;
  result.metrics.counters.arrivals = 10;
  result.metrics.counters.departures = 7;
  result.final_users = 3;
  EXPECT_TRUE(check_run(config, result).empty());
  result.final_users = 2;
  const std::vector<std::string> failures = check_run(config, result);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].rfind("conservation", 0), 0u);
  // The cohort engine rounds fluid mass and gets a few viewers of slack.
  result.used_cohort_engine = true;
  EXPECT_TRUE(check_run(config, result).empty());
}

TEST(Checker, FlagsQualityOutsideTheUnitIntervalAndOverBudgetBilling) {
  const cm::expr::ExperimentConfig config =
      cm::expr::ExperimentConfig::make_default(cm::core::StreamingMode::kClientServer);
  cm::expr::ExperimentResult result;
  result.metrics.quality.add(60.0, 1.5);
  result.metrics.vm_cost_rate.add(60.0, budget_cap(config).vm * 1.01);
  const std::vector<std::string> failures = check_run(config, result);
  ASSERT_EQ(failures.size(), 2u);
  EXPECT_EQ(failures[0].rfind("quality", 0), 0u);
  EXPECT_EQ(failures[1].rfind("budget", 0), 0u);
}

}  // namespace
