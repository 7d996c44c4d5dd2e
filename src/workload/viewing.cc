#include "workload/viewing.h"

#include "util/check.h"

namespace cloudmedia::workload {

void ViewingBehavior::validate() const {
  CM_EXPECTS(alpha >= 0.0 && alpha <= 1.0);
  CM_EXPECTS(jump_prob >= 0.0 && leave_prob >= 0.0);
  CM_EXPECTS(jump_prob + leave_prob <= 1.0);
  CM_EXPECTS(leave_prob > 0.0);  // sessions must terminate
}

util::Matrix ViewingBehavior::transfer_matrix(int num_chunks) const {
  validate();
  CM_EXPECTS(num_chunks >= 1);
  const auto j = static_cast<std::size_t>(num_chunks);
  util::Matrix p(j, j);
  if (num_chunks == 1) return p;  // single chunk: any transition is a leave
  const double jump_each = jump_prob / static_cast<double>(num_chunks - 1);
  for (std::size_t i = 0; i < j; ++i) {
    for (std::size_t k = 0; k < j; ++k) {
      if (k != i) p(i, k) = jump_each;
    }
    if (i + 1 < j) p(i, i + 1) += 1.0 - jump_prob - leave_prob;
  }
  return p;
}

std::vector<double> ViewingBehavior::entry_distribution(int num_chunks) const {
  validate();
  CM_EXPECTS(num_chunks >= 1);
  std::vector<double> d(static_cast<std::size_t>(num_chunks), 0.0);
  if (num_chunks == 1) {
    d[0] = 1.0;
    return d;
  }
  d[0] = alpha;
  const double rest = (1.0 - alpha) / static_cast<double>(num_chunks - 1);
  for (std::size_t i = 1; i < d.size(); ++i) d[i] = rest;
  return d;
}

std::optional<int> ViewingBehavior::sample_next(int chunk, int num_chunks,
                                                util::Rng& rng) const {
  CM_EXPECTS(chunk >= 0 && chunk < num_chunks);
  const double u = rng.uniform();
  if (u < leave_prob) return std::nullopt;
  if (u < leave_prob + jump_prob && num_chunks > 1) {
    int target = rng.uniform_int(0, num_chunks - 2);
    if (target >= chunk) ++target;  // uniform over chunks != current
    return target;
  }
  if (chunk + 1 < num_chunks) return chunk + 1;
  return std::nullopt;  // finished the video
}

int ViewingBehavior::sample_entry(int num_chunks, util::Rng& rng) const {
  CM_EXPECTS(num_chunks >= 1);
  if (num_chunks == 1) return 0;
  if (rng.uniform() < alpha) return 0;
  return rng.uniform_int(1, num_chunks - 1);
}

SessionGenerator::SessionGenerator(ViewingBehavior behavior, int num_chunks,
                                   int max_chunks)
    : behavior_(behavior), num_chunks_(num_chunks), max_chunks_(max_chunks) {
  behavior_.validate();
  CM_EXPECTS(num_chunks >= 1);
  CM_EXPECTS(max_chunks >= 1);
}

void SessionGenerator::sample_walk(util::Rng& rng,
                                   std::vector<int>& walk) const {
  walk.clear();
  walk.push_back(behavior_.sample_entry(num_chunks_, rng));
  while (static_cast<int>(walk.size()) < max_chunks_) {
    const auto next = behavior_.sample_next(walk.back(), num_chunks_, rng);
    if (!next) break;
    walk.push_back(*next);
  }
}

}  // namespace cloudmedia::workload
