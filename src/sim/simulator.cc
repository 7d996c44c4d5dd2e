#include "sim/simulator.h"

#include <functional>
#include <utility>

#include "util/check.h"

namespace cloudmedia::sim {

bool Simulator::is_pending(EventId id) const noexcept {
  // A freed slot has a bumped generation, so only the handle of its current
  // occupant matches; generations start at 1, so kInvalidEvent never does.
  const auto slot = static_cast<std::uint32_t>(id);
  return slot < slots_.size() && slots_[slot].generation == (id >> 32);
}

std::uint64_t Simulator::next_key(std::uint32_t slot) {
  CM_EXPECTS(next_seq_ < (std::uint64_t{1} << (64 - kSlotBits)));
  return (next_seq_++ << kSlotBits) | slot;
}

std::uint32_t Simulator::acquire(Callback&& fn) {
  CM_EXPECTS(fn != nullptr);
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();  // LIFO: still in cache
    free_slots_.pop_back();
    callbacks_[slot] = std::move(fn);
    return slot;
  }
  CM_EXPECTS(slots_.size() <= kSlotMask);
  callbacks_.push_back(std::move(fn));
  slots_.emplace_back();
  // Room for every slot on the free list, so release() (and with it the
  // noexcept cancel()) never allocates.
  free_slots_.reserve(slots_.capacity());
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Simulator::release(std::uint32_t slot) noexcept {
  std::uint32_t& generation = slots_[slot].generation;
  if (++generation == 0) generation = 1;  // keep handles != kInvalidEvent
  free_slots_.push_back(slot);
}

void Simulator::place(std::size_t pos, const Entry& e) noexcept {
  heap_[pos] = e;
  slots_[slot_of(e)].heap_pos = static_cast<std::uint32_t>(pos);
}

void Simulator::sift_up(std::size_t pos) noexcept {
  const Entry e = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!before(e, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, e);
}

void Simulator::sift_down(std::size_t pos) noexcept {
  const Entry e = heap_[pos];
  const std::size_t top = pos;
  const std::size_t n = heap_.size();
  // Walk the hole down to a leaf along the earlier children, then sift `e`
  // back up: the displaced entry is usually the heap's last, which belongs
  // near the bottom, so this takes about half the comparisons.
  for (std::size_t child = 2 * pos + 1; child < n; child = 2 * pos + 1) {
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    place(pos, heap_[child]);
    pos = child;
  }
  while (pos > top) {
    const std::size_t parent = (pos - 1) / 2;
    if (!before(e, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, e);
}

void Simulator::resift(std::size_t pos) noexcept {
  if (pos > 0 && before(heap_[pos], heap_[(pos - 1) / 2])) {
    sift_up(pos);
  } else {
    sift_down(pos);
  }
}

void Simulator::erase_at(std::size_t pos) noexcept {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;
  place(pos, last);
  resift(pos);
}

EventId Simulator::schedule_at(double t, Callback fn) {
  CM_EXPECTS(t >= now_);
  const std::uint32_t slot = acquire(std::move(fn));
  heap_.push_back(Entry{t, next_key(slot)});
  sift_up(heap_.size() - 1);
  return slot | (static_cast<EventId>(slots_[slot].generation) << 32);
}

EventId Simulator::schedule_in(double delay, Callback fn) {
  CM_EXPECTS(delay >= 0.0);
  return schedule_at(now_ + delay, std::move(fn));
}

void Simulator::schedule_bulk(std::vector<std::pair<double, Callback>> batch) {
  if (batch.empty()) return;
  heap_.reserve(heap_.size() + batch.size());
  for (auto& [t, fn] : batch) {
    CM_EXPECTS(t >= now_);
    const std::uint32_t slot = acquire(std::move(fn));
    heap_.push_back(Entry{t, next_key(slot)});
    slots_[slot].heap_pos = static_cast<std::uint32_t>(heap_.size() - 1);
  }
  // Heapify beats per-entry sift-up once the batch rivals the pending set:
  // Floyd's bottom-up build is O(total), the loop O(batch · log total).
  if (batch.size() >= heap_.size() / 4) {
    for (std::size_t k = heap_.size() / 2; k-- > 0;) sift_down(k);
  } else {
    for (std::size_t k = heap_.size() - batch.size(); k < heap_.size(); ++k) {
      sift_up(k);
    }
  }
}

bool Simulator::cancel(EventId id) noexcept {
  if (!is_pending(id)) return false;
  const auto slot = static_cast<std::uint32_t>(id);
  erase_at(slots_[slot].heap_pos);
  callbacks_[slot].reset();
  release(slot);
  return true;
}

bool Simulator::retime(EventId id, double t) {
  CM_EXPECTS(t >= now_);
  if (!is_pending(id)) return false;
  const auto slot = static_cast<std::uint32_t>(id);
  const std::size_t pos = slots_[slot].heap_pos;
  heap_[pos] = Entry{t, next_key(slot)};
  resift(pos);
  return true;
}

void Simulator::pop_and_run() {
  const Entry top = heap_.front();
  erase_at(0);
  const std::uint32_t slot = slot_of(top);
  // Move the callback out before running it: it may schedule events that
  // reuse this slot or grow the arena under it.
  Callback fn = std::move(callbacks_[slot]);
  release(slot);
  now_ = top.time;
  ++processed_;
  fn();
}

void Simulator::run_until(double t) {
  CM_EXPECTS(t >= now_);
  while (!heap_.empty() && heap_.front().time <= t) pop_and_run();
  now_ = t;
}

std::size_t Simulator::run_all(std::size_t max_events) {
  std::size_t n = 0;
  for (; n < max_events && !heap_.empty(); ++n) pop_and_run();
  return n;
}

Simulator::PeriodicHandle Simulator::schedule_periodic(
    double start, double interval, std::function<void(double)> fn) {
  CM_EXPECTS(interval > 0.0);
  CM_EXPECTS(start >= now_);
  CM_EXPECTS(fn != nullptr);
  auto active = std::make_shared<bool>(true);
  // Self-rescheduling closure; the shared flag decouples cancellation from
  // the (changing) per-firing event id. The closure must hold itself only
  // weakly — a strong self-capture is a shared_ptr cycle that outlives the
  // simulator and leaks every periodic task ever scheduled. Ownership lives
  // in the pending event's callback: while a firing is queued (or running)
  // the lock() below succeeds, and when the last pending event is dropped
  // the whole closure chain is freed.
  auto tick = std::make_shared<std::function<void(double)>>();
  std::weak_ptr<std::function<void(double)>> weak_tick = tick;
  *tick = [this, active, interval, fn = std::move(fn),
           weak_tick](double fire_time) {
    if (!*active) return;
    fn(fire_time);
    if (!*active) return;
    const double next = fire_time + interval;
    if (auto self = weak_tick.lock()) {
      schedule_at(next, [self, next] { (*self)(next); });
    }
  };
  schedule_at(start, [tick, start] { (*tick)(start); });
  return PeriodicHandle(std::move(active));
}

}  // namespace cloudmedia::sim
