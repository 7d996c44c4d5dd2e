#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One timed interval at a layer boundary. `layer` points at a string
/// literal; `parent` indexes the enclosing span in the same log (-1 for a
/// root). Times are nanoseconds since the log was created.
struct Span {
  const char* layer = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
};

/// In-memory span store. begin()/end() nest on one thread (the single-run
/// traces); add() records a finished span from any thread (the sweep's
/// workers). Nothing is written until the run is over.
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  [[nodiscard]] std::int64_t now_ns() const;
  /// Open a span as a child of the innermost open span.
  int begin(const char* layer);
  void end(int index);
  /// Record a finished span; thread-safe.
  int add(const char* layer, std::int64_t start_ns, std::int64_t end_ns,
          int parent);
  /// The innermost open span, or -1.
  [[nodiscard]] int open() const;

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  /// One line per span: index,parent,layer,start_ns,end_ns.
  void write_csv(const std::string& path) const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Each span's self time: its duration minus the part of its interval
/// that the union of its children's intervals covers. Overlapping
/// children (worker threads) are merged, and children are clipped to the
/// parent, so self time is never negative and never double-subtracts.
[[nodiscard]] std::vector<std::int64_t> self_times_ns(
    const std::vector<Span>& spans);

struct LayerTotals {
  double self_s = 0.0;   ///< Σ self time
  double total_s = 0.0;  ///< Σ span duration (children included)
  long count = 0;        ///< spans recorded
};

[[nodiscard]] std::map<std::string, LayerTotals> layer_totals(
    const std::vector<Span>& spans);

}  // namespace perfbench
