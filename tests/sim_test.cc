#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "util/check.h"
#include "util/rng.h"

namespace cloudmedia::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run_until(10.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
}

TEST(Simulator, EqualTimesFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ClockIsEventTimeInsideCallback) {
  Simulator sim;
  double seen = -1.0;
  sim.schedule_at(4.5, [&] { seen = sim.now(); });
  sim.run_until(100.0);
  EXPECT_DOUBLE_EQ(seen, 4.5);
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  double seen = -1.0;
  sim.schedule_at(2.0, [&] {
    sim.schedule_in(3.0, [&] { seen = sim.now(); });
  });
  sim.run_until(10.0);
  EXPECT_DOUBLE_EQ(seen, 5.0);
}

TEST(Simulator, RunUntilIncludesBoundary) {
  Simulator sim;
  bool ran = false;
  sim.schedule_at(5.0, [&] { ran = true; });
  sim.run_until(5.0);
  EXPECT_TRUE(ran);
}

TEST(Simulator, RunUntilStopsBeforeLaterEvents) {
  Simulator sim;
  bool ran = false;
  sim.schedule_at(5.1, [&] { ran = true; });
  sim.run_until(5.0);
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule_at(1.0, [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // already cancelled
  sim.run_until(2.0);
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelInvalidIsNoop) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel(kInvalidEvent));
  EXPECT_FALSE(sim.cancel(999));
}

TEST(Simulator, CancelFromInsideCallback) {
  Simulator sim;
  bool second_ran = false;
  const EventId second = sim.schedule_at(2.0, [&] { second_ran = true; });
  sim.schedule_at(1.0, [&] { sim.cancel(second); });
  sim.run_until(5.0);
  EXPECT_FALSE(second_ran);
}

TEST(Simulator, EventsScheduledAtCurrentTimeRunInSameDrain) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&] {
    order.push_back(1);
    sim.schedule_at(1.0, [&] { order.push_back(2); });
  });
  sim.run_until(1.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, RejectsSchedulingInThePast) {
  Simulator sim;
  sim.schedule_at(5.0, [] {});
  sim.run_until(5.0);
  EXPECT_THROW(sim.schedule_at(4.0, [] {}), util::PreconditionError);
  EXPECT_THROW(sim.schedule_in(-1.0, [] {}), util::PreconditionError);
}

TEST(Simulator, RejectsBackwardRunUntil) {
  Simulator sim;
  sim.run_until(5.0);
  EXPECT_THROW(sim.run_until(4.0), util::PreconditionError);
}

TEST(Simulator, RunAllReturnsCountAndRespectsCap) {
  Simulator sim;
  for (int i = 0; i < 10; ++i) sim.schedule_at(i, [] {});
  EXPECT_EQ(sim.run_all(4), 4u);
  EXPECT_EQ(sim.pending(), 6u);
  EXPECT_EQ(sim.run_all(), 6u);
  EXPECT_EQ(sim.events_processed(), 10u);
}

TEST(Simulator, PeriodicFiresAtFixedCadence) {
  Simulator sim;
  std::vector<double> fires;
  sim.schedule_periodic(10.0, 5.0, [&](double t) { fires.push_back(t); });
  sim.run_until(27.0);
  EXPECT_EQ(fires, (std::vector<double>{10.0, 15.0, 20.0, 25.0}));
}

TEST(Simulator, PeriodicCancelStops) {
  Simulator sim;
  int count = 0;
  Simulator::PeriodicHandle handle =
      sim.schedule_periodic(1.0, 1.0, [&](double) { ++count; });
  sim.run_until(3.5);
  EXPECT_EQ(count, 3);
  handle.cancel();
  EXPECT_FALSE(handle.active());
  sim.run_until(10.0);
  EXPECT_EQ(count, 3);
}

TEST(Simulator, PeriodicCancelFromInsideCallback) {
  Simulator sim;
  int count = 0;
  Simulator::PeriodicHandle handle;
  handle = sim.schedule_periodic(1.0, 1.0, [&](double) {
    if (++count == 2) handle.cancel();
  });
  sim.run_until(10.0);
  EXPECT_EQ(count, 2);
}

TEST(Simulator, PeriodicValidatesArguments) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_periodic(0.0, 0.0, [](double) {}),
               util::PreconditionError);
  EXPECT_THROW(sim.schedule_periodic(0.0, -1.0, [](double) {}),
               util::PreconditionError);
}

TEST(Simulator, ManyInterleavedEventsKeepOrder) {
  Simulator sim;
  std::vector<double> times;
  // Schedule in scrambled order; execution must be sorted.
  for (int i = 0; i < 500; ++i) {
    const double t = static_cast<double>((i * 7919) % 1000);
    sim.schedule_at(t, [&times, &sim] { times.push_back(sim.now()); });
  }
  sim.run_all();
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_LE(times[i - 1], times[i]);
  }
  EXPECT_EQ(times.size(), 500u);
}

TEST(Simulator, CallbackExceptionPropagates) {
  Simulator sim;
  sim.schedule_at(1.0, [] { throw std::runtime_error("boom"); });
  EXPECT_THROW(sim.run_until(2.0), std::runtime_error);
}

TEST(Simulator, RetimeOrdersLikeCancelThenSchedule) {
  // Run the same script twice: once moving `a` with retime(), once with
  // cancel() + schedule_at(). Both must fire in the same order, including
  // the moved event's place behind everything already at its new time.
  for (const double target : {0.5, 1.0, 1.5, 3.0}) {
    std::vector<std::vector<char>> orders;
    for (const bool use_retime : {true, false}) {
      Simulator sim;
      std::vector<char> order;
      const auto record = [&order](char c) {
        return [&order, c] { order.push_back(c); };
      };
      const EventId a = sim.schedule_at(1.0, record('a'));
      sim.schedule_at(1.0, record('b'));
      sim.schedule_at(1.0, record('c'));
      sim.schedule_at(3.0, record('d'));
      sim.schedule_at(0.5, record('e'));
      if (use_retime) {
        EXPECT_TRUE(sim.retime(a, target));
      } else {
        EXPECT_TRUE(sim.cancel(a));
        sim.schedule_at(target, record('a'));
      }
      sim.schedule_at(target, record('f'));  // scheduled after the move
      sim.run_all();
      orders.push_back(order);
    }
    EXPECT_EQ(orders[0], orders[1]) << "target " << target;
  }
  Simulator sim;
  std::vector<char> order;
  const EventId a = sim.schedule_at(1.0, [&order] { order.push_back('a'); });
  sim.schedule_at(1.0, [&order] { order.push_back('b'); });
  EXPECT_TRUE(sim.retime(a, 1.0));  // same time: still behind b
  sim.run_until(1.0);
  EXPECT_EQ(order, (std::vector<char>{'b', 'a'}));
  EXPECT_FALSE(sim.retime(a, 2.0));  // already ran
  EXPECT_FALSE(sim.retime(kInvalidEvent, 2.0));
  const EventId c = sim.schedule_at(2.0, [] {});
  EXPECT_THROW((void)sim.retime(c, 0.5), util::PreconditionError);
}

TEST(Simulator, StaleHandleAfterSlotReuseIsRejected) {
  Simulator sim;
  bool second_ran = false;
  const EventId first = sim.schedule_at(1.0, [] {});
  ASSERT_TRUE(sim.cancel(first));
  const EventId second = sim.schedule_at(1.0, [&] { second_ran = true; });
  // The freed slot is reused, under a new generation.
  EXPECT_EQ(static_cast<std::uint32_t>(first),
            static_cast<std::uint32_t>(second));
  EXPECT_NE(first, second);
  EXPECT_FALSE(sim.cancel(first));
  EXPECT_FALSE(sim.retime(first, 2.0));
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_all();
  EXPECT_TRUE(second_ran);
  EXPECT_FALSE(sim.cancel(second));  // ran: its slot is free again
  EXPECT_EQ(sim.callback_ring_capacity(), 1u);
}

TEST(Simulator, ArenaTracksPeakPendingNotRunLength) {
  // An hour-long event stays pending while short timers churn through
  // hundreds of thousands of events, retimed and cancelled the way a
  // ServicePool drives its completion timer. The pinned event used to hold
  // the oldest id back and grow an id-indexed ring with the run length;
  // the arena only ever needs one slot per event pending at once.
  Simulator sim;
  bool hour_fired = false;
  sim.schedule_at(3600.0, [&] { hour_fired = true; });
  constexpr int kChains = 8;
  std::size_t ticks = 0;
  std::function<void(int)> step = [&](int chain) {
    if (sim.now() + 0.05 >= 3600.0) return;
    EventId timer = sim.schedule_in(0.1, [&step, chain] { step(chain); });
    // Pull it in, as add_job does, and now and then cancel and re-arm it,
    // as a pool that goes idle does.
    EXPECT_TRUE(sim.retime(timer, sim.now() + 0.05));
    if (++ticks % 3 == 0) {
      EXPECT_TRUE(sim.cancel(timer));
      timer = sim.schedule_in(0.05, [&step, chain] { step(chain); });
    }
  };
  for (int chain = 0; chain < kChains; ++chain) {
    sim.schedule_in(0.01 * chain, [&step, chain] { step(chain); });
  }
  sim.run_all();
  EXPECT_TRUE(hour_fired);
  EXPECT_GT(sim.events_processed(), 500'000u);
  EXPECT_EQ(sim.callback_ring_capacity(),
            static_cast<std::size_t>(kChains) + 1);
}

// Differential check of the event queue against a reference ordered set of
// (time, seq): every schedule_at, schedule_bulk, cancel and retime — from
// the top level and from inside running callbacks — is mirrored on both, and
// each event must fire exactly when it is the reference's minimum. Times
// sit on a small integer grid so equal-time ties are common.
class QueueModel {
 public:
  explicit QueueModel(std::uint64_t seed) : rng_(seed) {}

  void random_op(bool in_callback) {
    switch (rng_.uniform_int(0, in_callback ? 4 : 5)) {
      case 0:
      case 1: schedule(); break;
      case 2: bulk(); break;
      case 3: cancel(); break;
      case 4: retime(); break;
      default:
        sim_.run_all(static_cast<std::size_t>(rng_.uniform_int(1, 8)));
        break;
    }
    EXPECT_EQ(sim_.pending(), ref_.size());
  }

  void drain() {
    sim_.run_all();
    EXPECT_TRUE(ref_.empty());
    EXPECT_EQ(sim_.events_processed(), fired_);
    // A slot is only created when every existing one holds a pending event.
    EXPECT_EQ(sim_.callback_ring_capacity(), peak_);
  }

  [[nodiscard]] std::size_t fired() const noexcept { return fired_; }

 private:
  double draw_time() { return sim_.now() + rng_.uniform_int(0, 4); }

  Simulator::Callback make(int label) {
    return [this, label] { fire(label); };
  }

  void expect(int label, double t) {
    ref_.emplace(t, seq_, label);
    keys_[label] = {t, seq_};
    ++seq_;
    peak_ = std::max(peak_, ref_.size());
  }

  void forget(int label) {
    const auto it = keys_.find(label);
    ref_.erase({it->second.first, it->second.second, label});
    keys_.erase(it);
  }

  void schedule() {
    const int label = next_label_++;
    const double t = draw_time();
    handles_.emplace_back(sim_.schedule_at(t, make(label)), label);
    expect(label, t);
  }

  void bulk() {
    const int n = rng_.uniform_int(0, 5) == 0 ? 40 : rng_.uniform_int(0, 3);
    std::vector<std::pair<double, Simulator::Callback>> batch;
    for (int i = 0; i < n; ++i) {
      const int label = next_label_++;
      const double t = draw_time();
      batch.emplace_back(t, make(label));
      expect(label, t);
    }
    sim_.schedule_bulk(std::move(batch));
  }

  void cancel() {
    if (handles_.empty()) return;
    const auto [id, label] = pick();
    const bool live = keys_.count(label) > 0;
    EXPECT_EQ(sim_.cancel(id), live);
    if (live) forget(label);
  }

  void retime() {
    if (handles_.empty()) return;
    const auto [id, label] = pick();
    const bool live = keys_.count(label) > 0;
    const double t = draw_time();
    EXPECT_EQ(sim_.retime(id, t), live);
    if (live) {
      forget(label);
      expect(label, t);
    }
  }

  std::pair<EventId, int> pick() {
    return handles_[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<int>(handles_.size()) - 1))];
  }

  void fire(int label) {
    ASSERT_FALSE(ref_.empty());
    const auto [t, seq, expected] = *ref_.begin();
    ASSERT_EQ(label, expected) << "at t=" << t << " seq=" << seq;
    EXPECT_EQ(sim_.now(), t);
    forget(label);
    ++fired_;
    // Mean offspring per firing stays well below 1, so the drain ends.
    if (rng_.uniform() < 0.3) random_op(/*in_callback=*/true);
  }

  Simulator sim_;
  util::Rng rng_;
  /// (time, seq, label) of every pending event.
  std::set<std::tuple<double, std::uint64_t, int>> ref_;
  /// Pending label → its (time, seq) key in ref_.
  std::map<int, std::pair<double, std::uint64_t>> keys_;
  std::vector<std::pair<EventId, int>> handles_;  ///< every handle issued
  std::uint64_t seq_ = 0;
  int next_label_ = 0;
  std::size_t peak_ = 0;
  std::size_t fired_ = 0;
};

TEST(Simulator, MatchesReferenceOrderedSetUnderRandomOps) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    QueueModel model(seed);
    for (int i = 0; i < 5000; ++i) model.random_op(/*in_callback=*/false);
    model.drain();
    EXPECT_GT(model.fired(), 1000u);
    if (testing::Test::HasFailure()) break;
  }
}

}  // namespace
}  // namespace cloudmedia::sim
