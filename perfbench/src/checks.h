#pragma once

#include <string>
#include <vector>

#include "expr/runner.h"
#include "sweep/run_summary.h"
#include "util/json.h"

namespace perfbench {

/// What one run is pinned by: RunSummary's columns plus the lifecycle and
/// cloud counters. Serialized with util::JsonValue, whose numbers are the
/// shortest round-trip decimals, so two dumps compare byte for byte.
[[nodiscard]] cloudmedia::util::JsonValue run_summary_json(
    const std::string& scenario, std::uint64_t seed,
    const cloudmedia::expr::ExperimentResult& result);

/// The largest billed $/h any timeline state of `config` allows: each
/// budget at its maximum over the timeline, plus the SLA's allowance of
/// one whole instance per VM cluster above the VM budget.
struct BudgetCap {
  double vm = 0.0;
  double storage = 0.0;
};
[[nodiscard]] BudgetCap budget_cap(const cloudmedia::expr::ExperimentConfig& config);

/// Invariants every run must meet, at any seed: viewer conservation
/// (exact on the discrete engine, a few viewers of slack on the cohort
/// engine, which rounds fluid mass), every quality sample finite and in
/// [0, 1], and every billed $/h sample within budget_cap(config). Returns
/// one message per broken invariant.
[[nodiscard]] std::vector<std::string> check_run(
    const cloudmedia::expr::ExperimentConfig& config,
    const cloudmedia::expr::ExperimentResult& result);

/// The checks a streamed sweep row still allows: quality columns in
/// [0, 1] and mean billed $/h within the cell's budget cap.
[[nodiscard]] std::vector<std::string> check_row(
    const cloudmedia::expr::ExperimentConfig& cell_config,
    const cloudmedia::sweep::RunSummary& row);

/// "" when the two files hold the same bytes, else a message naming the
/// first differing byte offset (or the unreadable file).
[[nodiscard]] std::string compare_files(const std::string& actual,
                                        const std::string& expected);

}  // namespace perfbench
