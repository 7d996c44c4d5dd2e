#pragma once

#include <optional>
#include <vector>

#include "util/matrix.h"
#include "util/rng.h"

namespace cloudmedia::workload {

/// Parameters of the per-chunk viewing behaviour that induces the paper's
/// chunk transfer probability matrix P (Sec. III-B / IV-A).
///
/// After finishing chunk i a viewer:
///   - leaves the channel with probability `leave_prob`;
///   - seeks to a uniformly random other chunk with probability `jump_prob`
///     (the paper's VCR operations; with T0 = 5 min chunks and a mean
///     15-minute inter-jump interval, jump_prob ≈ 1 - e^{-1/3} ≈ 0.28);
///   - otherwise continues to chunk i+1 (leaving after the last chunk).
/// A fraction `alpha` of arriving users starts at chunk 1; the rest start
/// uniformly across the other chunks (the paper's α).
struct ViewingBehavior {
  double alpha = 0.6;
  double jump_prob = 0.28;
  double leave_prob = 0.12;

  void validate() const;

  /// The J×J chunk transfer matrix P with P(i,j) = P_ij. Rows are
  /// sub-stochastic: 1 - Σ_j P_ij is the leave probability from chunk i.
  [[nodiscard]] util::Matrix transfer_matrix(int num_chunks) const;

  /// External entry distribution over chunks: alpha at chunk 0, the rest
  /// uniform (paper Sec. IV-A).
  [[nodiscard]] std::vector<double> entry_distribution(int num_chunks) const;

  /// Sample the chunk watched after `chunk`; nullopt means the user leaves.
  [[nodiscard]] std::optional<int> sample_next(int chunk, int num_chunks,
                                               util::Rng& rng) const;

  /// Sample the first chunk of a session.
  [[nodiscard]] int sample_entry(int num_chunks, util::Rng& rng) const;
};

/// A fully pre-determined user session: the chunks the user will watch, in
/// order. Sessions are drawn from per-user derived RNG streams so the same
/// (seed, user index) always yields the same walk — this is what lets us
/// replay identical workloads against different provisioning systems.
struct SessionScript {
  int channel = 0;
  double uplink = 0.0;          ///< peer upload capacity, bytes/s
  std::vector<int> chunks;      ///< non-empty chunk walk
};

/// Generates session scripts from a behaviour model.
class SessionGenerator {
 public:
  /// `max_chunks` bounds pathological walks (jump loops); the geometric
  /// leave probability makes hitting the bound astronomically unlikely.
  SessionGenerator(ViewingBehavior behavior, int num_chunks,
                   int max_chunks = 1000);

  /// Sample a chunk walk into `walk`, replacing its contents but keeping
  /// its capacity (the discrete engine's recycled peers walk allocation-free).
  void sample_walk(util::Rng& rng, std::vector<int>& walk) const;

  [[nodiscard]] const ViewingBehavior& behavior() const noexcept { return behavior_; }
  [[nodiscard]] int num_chunks() const noexcept { return num_chunks_; }

 private:
  ViewingBehavior behavior_;
  int num_chunks_;
  int max_chunks_;
};

}  // namespace cloudmedia::workload
