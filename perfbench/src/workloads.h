#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr std::uint64_t kDefaultSeed = 42;

/// The benchmark's workloads, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Where one repetition reads its inputs and writes its outputs.
struct RepContext {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  std::string root;     ///< repository checkout: profiles/, goldens/, perfbench/
  std::string out_dir;  ///< scratch directory for outputs and span files
};

/// One repetition: counts of runs attempted and failing their output
/// checks, a message per failure, and metrics by name.
struct RepResult {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, double> metrics;
};

/// Untraced repetition: the end-to-end metrics.
[[nodiscard]] RepResult run_untraced(const RepContext& context);
/// Traced repetition: the per-layer metrics.
[[nodiscard]] RepResult run_traced_rep(const RepContext& context);

/// The pinned run summary of a single-run workload, as written to
/// perfbench/reference/<workload>.json.
[[nodiscard]] std::string summary_text(const std::string& workload,
                                       std::uint64_t seed);

}  // namespace perfbench
