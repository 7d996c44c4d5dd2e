#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/callback.h"

namespace cloudmedia::sim {

/// Handle of a scheduled event: `slot | generation << 32`, generation-
/// guarded like the peer slab's handles, so a handle kept past its event
/// never matches the slot's next occupant. Generations start at 1, so no
/// live handle is ever kInvalidEvent.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

/// Deterministic single-threaded discrete-event simulator.
///
/// Events at equal timestamps fire in scheduling order (stable FIFO
/// tie-break via a monotonically increasing sequence number), which keeps
/// runs bitwise-reproducible for a given seed. Callbacks may schedule,
/// cancel and retime further events freely.
///
/// Storage layout, chosen for event throughput (bench/micro_core.cc):
/// callbacks live in a slot arena with a LIFO free list, so its size is
/// the peak number of *pending* events, not the run length or the spread
/// of ids in flight. The binary min-heap holds 16-byte (time, key) entries,
/// where the key packs the sequence number above the slot; each slot
/// records its heap position, so cancel() and retime() fix the heap in
/// place and the heap never holds a dead entry. The steady-state
/// schedule→pop→run cycle performs no hashing and — with the small-buffer
/// Callback — no allocation.
class Simulator {
 public:
  /// Scheduled events use the move-only small-buffer callback; every
  /// capture list the vod layer schedules fits its inline storage.
  using Callback = sim::Callback;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] double now() const noexcept { return now_; }

  /// Schedule `fn` at absolute time `t` (must be >= now()).
  EventId schedule_at(double t, Callback fn);
  /// Schedule `fn` after `delay` seconds (delay >= 0).
  EventId schedule_in(double delay, Callback fn);

  /// Schedule a whole batch in one call. Entries take sequence numbers in
  /// batch order, so equal-time events fire in batch order (the same FIFO
  /// guarantee as a loop of schedule_at), but storage is reserved once and
  /// the heap is rebuilt in O(pending + batch) when the batch is large
  /// instead of O(batch · log pending). The events get no handles.
  void schedule_bulk(std::vector<std::pair<double, Callback>> batch);

  /// Cancel a pending event. Returns false if it already ran or was
  /// cancelled. Cancelling kInvalidEvent is a no-op returning false.
  bool cancel(EventId id) noexcept;

  /// Move a pending event to time `t` (>= now()), keeping its callback and
  /// handle. Orders exactly like cancel() followed by schedule_at(t) with
  /// the same callback: the event takes a fresh sequence number, so it
  /// fires after every event already scheduled at `t`. Returns false (and
  /// does nothing) if the event already ran or was cancelled.
  bool retime(EventId id, double t);

  /// Run every event with timestamp <= t, then advance the clock to t.
  void run_until(double t);
  /// Run until the queue drains or `max_events` have fired.
  /// Returns the number of events processed.
  std::size_t run_all(std::size_t max_events = SIZE_MAX);

  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }
  [[nodiscard]] std::uint64_t events_processed() const noexcept { return processed_; }

  /// Callback-arena size in slots, i.e. the peak number of events pending
  /// at once (tests/benches only: pins the "arena tracks peak pending, not
  /// run length" contract).
  [[nodiscard]] std::size_t callback_ring_capacity() const noexcept {
    return callbacks_.size();
  }

  /// Handle controlling a periodic task; destroying the handle does NOT
  /// cancel the task (call cancel()). Copyable (shared control block).
  class PeriodicHandle {
   public:
    PeriodicHandle() = default;
    void cancel() noexcept {
      if (active_) *active_ = false;
    }
    [[nodiscard]] bool active() const noexcept { return active_ && *active_; }

   private:
    friend class Simulator;
    explicit PeriodicHandle(std::shared_ptr<bool> active)
        : active_(std::move(active)) {}
    std::shared_ptr<bool> active_;
  };

  /// Fire `fn(fire_time)` at `start`, `start + interval`, ... until the
  /// returned handle is cancelled. interval must be > 0.
  PeriodicHandle schedule_periodic(double start, double interval,
                                   std::function<void(double)> fn);

 private:
  struct Entry {
    double time;
    std::uint64_t key;  ///< seq << kSlotBits | slot; seq is never reused
  };
  struct Slot {
    std::uint32_t heap_pos = 0;    ///< index of this slot's entry in heap_
    std::uint32_t generation = 1;  ///< bumped each time the slot is freed
  };

  /// Heap keys keep the slot in the low bits: 2^24 slots bounds the events
  /// pending at once, and the 40-bit sequence bounds events per simulator.
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask =
      (std::uint64_t{1} << kSlotBits) - 1;

  [[nodiscard]] static bool before(const Entry& a, const Entry& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.key < b.key;
  }
  [[nodiscard]] static std::uint32_t slot_of(const Entry& e) noexcept {
    return static_cast<std::uint32_t>(e.key & kSlotMask);
  }

  /// True when `id` names an event that has neither run nor been cancelled.
  [[nodiscard]] bool is_pending(EventId id) const noexcept;
  /// Fresh key for `slot`: the next sequence number above the slot bits.
  [[nodiscard]] std::uint64_t next_key(std::uint32_t slot);
  /// Take a free slot (or grow the arena by one) and store `fn` in it.
  std::uint32_t acquire(Callback&& fn);
  /// Retire a slot whose heap entry is already gone: bump its generation
  /// and push it on the free list.
  void release(std::uint32_t slot) noexcept;

  void place(std::size_t pos, const Entry& e) noexcept;
  void sift_up(std::size_t pos) noexcept;
  void sift_down(std::size_t pos) noexcept;
  /// Restore heap order after heap_[pos] changed in either direction.
  void resift(std::size_t pos) noexcept;
  /// Drop the entry at `pos` from the heap.
  void erase_at(std::size_t pos) noexcept;
  void pop_and_run();

  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::vector<Entry> heap_;
  std::vector<Callback> callbacks_;  ///< by slot
  std::vector<Slot> slots_;          ///< by slot
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace cloudmedia::sim
