#include "spans.h"

#include <algorithm>
#include <fstream>
#include <stdexcept>

namespace perfbench {

std::int64_t SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int SpanLog::begin(const char* layer) {
  const std::int64_t start = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(Span{layer, start, start, parent});
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void SpanLog::end(int index) {
  const std::int64_t stop = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  if (stack_.empty() || stack_.back() != index) {
    throw std::logic_error("SpanLog::end: spans must close innermost first");
  }
  stack_.pop_back();
  spans_[static_cast<std::size_t>(index)].end_ns = stop;
}

int SpanLog::add(const char* layer, std::int64_t start_ns, std::int64_t end_ns,
                 int parent) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{layer, start_ns, end_ns, parent});
  return static_cast<int>(spans_.size()) - 1;
}

int SpanLog::open() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stack_.empty() ? -1 : stack_.back();
}

void SpanLog::write_csv(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  out << "index,parent,layer,start_ns,end_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << ',' << s.parent << ',' << s.layer << ',' << s.start_ns << ','
        << s.end_ns << '\n';
  }
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int parent = spans[i].parent;
    if (parent >= 0) children[static_cast<std::size_t>(parent)].push_back(i);
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  std::vector<std::pair<std::int64_t, std::int64_t>> covered;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    covered.clear();
    for (const std::size_t c : children[i]) {
      const std::int64_t lo = std::max(s.start_ns, spans[c].start_ns);
      const std::int64_t hi = std::min(s.end_ns, spans[c].end_ns);
      if (hi > lo) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    std::int64_t union_ns = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [lo, hi] : covered) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) union_ns += hi - from;
      reach = std::max(reach, hi);
    }
    self[i] = (s.end_ns - s.start_ns) - union_ns;
  }
  return self;
}

std::map<std::string, LayerTotals> layer_totals(const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::map<std::string, LayerTotals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerTotals& t = totals[spans[i].layer];
    t.self_s += static_cast<double>(self[i]) * 1e-9;
    t.total_s += static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-9;
    ++t.count;
  }
  return totals;
}

}  // namespace perfbench
