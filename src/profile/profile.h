#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sweep/param_grid.h"
#include "sweep/scenario_catalog.h"
#include "sweep/sweep_runner.h"
#include "util/json.h"

namespace cloudmedia::profile {

/// One value the paper reports, checked against one cell of the sweep.
struct PaperClaim {
  std::string cell;        ///< GridPoint::label() of a cell of the grid
  std::string metric;      ///< a RunSummary metric column (metric_columns())
  double paper = 0.0;      ///< the paper's value; finite and non-zero
  /// Largest |measured / paper - 1| that still counts as reproduced; > 0.
  /// Set from the paper's stated precision (half a unit in the last
  /// printed digit, relative to the value), never from the measurement.
  double tolerance = 0.0;
  /// Why the measurement misses the paper, or "unexplained". Empty means
  /// the claim must hold: a miss then fails `tool_sweep --paper`.
  std::string gap;
};

/// The paper's side of a profile: the horizon its figure was produced at
/// and the values it reports. Kept out of SweepSpec and spec_hash() — it
/// describes the experiment, it does not change what a sweep computes.
struct PaperBlock {
  double warmup_hours = 0.0;   ///< finite, >= 0
  double measure_hours = 0.0;  ///< finite, > 0
  std::vector<PaperClaim> claims;
};

/// A PaperClaim measured on a finished sweep.
struct ClaimCheck {
  enum class Status { kOk, kGap, kMiss };

  PaperClaim claim;
  double measured = 0.0;
  double relative_error = 0.0;  ///< measured / paper - 1
  Status status = Status::kOk;

  /// "ok", "gap: <the claim's gap text>" or "MISS".
  [[nodiscard]] std::string status_text() const;
};

/// Measure every claim of `block` on `result`: ok within tolerance,
/// otherwise gap when the claim records one, else MISS. Throws
/// util::PreconditionError when a claim's cell is not among the result's
/// rows (e.g. a sharded run).
[[nodiscard]] std::vector<ClaimCheck> check_claims(
    const PaperBlock& block, const sweep::SweepResult& result);

/// Performance bounds a run of the profile must hold (the optional `gate`
/// block; at least one bound, each finite and > 0). Like PaperBlock it is
/// kept out of SweepSpec and spec_hash(): it judges a run, it does not
/// change what the sweep computes.
struct GateBlock {
  /// Sim events of every cell over the wall time of SweepRunner::run.
  std::optional<double> min_events_per_sec;
  /// Process peak resident set size (util::peak_rss_mb()).
  std::optional<double> max_peak_rss_mb;
};

/// One bound of a GateBlock against its measured value.
struct GateCheck {
  std::string bound_name;  ///< the gate key, e.g. "min_events_per_sec"
  double bound = 0.0;
  double measured = 0.0;
  bool ok = true;
};

/// Check each bound `gate` sets, in key order, against a run's measured
/// throughput and peak RSS.
[[nodiscard]] std::vector<GateCheck> check_gate(const GateBlock& gate,
                                                double events_per_sec,
                                                double peak_rss_mb);

/// A complete, declarative description of one experiment/sweep — the JSON
/// experiment-profile schema. Everything that defines *what a sweep
/// computes* lives here: the scenario expression (including `@` timeline
/// ops), the grid axes, fixed parameter overrides, seed, horizon, and
/// shard slice — plus, optionally, what the paper reports for it (the
/// `paper` block, see PaperBlock) and the performance a run must hold (the
/// `gate` block, see GateBlock). Execution knobs that cannot change the
/// output bytes (threads, keep_results, customize, sink) deliberately stay
/// out — they belong to SweepSpec, and `tool_sweep --dump-profile` proves
/// the profile side round-trips losslessly: JSON -> Profile ->
/// SweepSpec::from_profile -> Profile::from_spec -> identical JSON.
///
/// The three historical SweepSpec construction paths (golden presets in
/// C++, bench hand-builds, CLI flags) all collapse onto this type: the 19
/// golden presets are committed profiles/*.json embedded at build time,
/// `tool_sweep` builds its spec from a Profile in every mode (and
/// `--paper` checks a preset's claims), and `tool_fuzz` composes random
/// Profiles and checks invariants.
///
/// JSON schema (all keys optional; unknown keys are rejected with a
/// teaching error naming the key and listing the valid ones):
///
///   {
///     "name": "fig04_provisioning",        // preset identity (goldens)
///     "description": "what it guards",
///     "scenario": "regional_outage@45m+recovery@90m",
///     "seed": "42",                         // decimal string or integer
///     "warmup_hours": 0.25,                 // finite, >= 0
///     "measure_hours": 2.75,                // finite, > 0
///     "grid": [                             // axes, registry-validated
///       {"name": "mode", "values": ["cs", "p2p"]}
///     ],
///     "overrides": {"engine": "auto"},      // fixed parameters, applied
///                                           // after the scenario and
///                                           // before the grid point
///     "shard": "0/2",                       // k/N slice of the grid
///     "paper": {                            // the paper's side, see
///       "warmup_hours": 4,                  // PaperBlock; never part of
///       "measure_hours": 24,                // the SweepSpec
///       "claims": [
///         {"cell": "mode=cs", "metric": "cost_per_hour", "paper": 48,
///          "tolerance": 0.011, "gap": "unexplained"}
///       ]
///     },
///     "gate": {                             // perf bounds, see GateBlock;
///       "min_events_per_sec": 392000,       // never part of the SweepSpec
///       "max_peak_rss_mb": 32
///     }
///   }
///
/// Values inside "grid" and "overrides" may be JSON strings or numbers;
/// numbers canonicalize through util::format_number. to_json() emits the
/// canonical form: keys in the order above, seed as a decimal string, and
/// default-valued optional keys omitted — which is what makes the
/// committed profiles byte-stable under load/dump round trips.
struct Profile {
  std::string name;         ///< optional; required for golden presets
  std::string description;  ///< optional; what the profile is for
  std::string scenario = "baseline_diurnal";
  std::uint64_t seed = 42;
  double warmup_hours = 1.0;
  double measure_hours = 6.0;
  sweep::ParamGrid grid;  ///< empty = one unmodified run
  /// Fixed parameter assignments from the same applier registry as the
  /// grid ("engine", "cohort_threshold", "vm_budget", ...), applied to
  /// every cell after the scenario and before the cell's own coordinates
  /// (so a grid axis wins over an override of the same parameter). Kept
  /// in insertion order for byte-stable serialization.
  std::vector<std::pair<std::string, std::string>> overrides;
  sweep::ShardSpec shard;
  /// What the paper reports for this experiment (optional). Its claims
  /// name cells of `grid`, so validate() checks them against it.
  std::optional<PaperBlock> paper;
  /// The performance bounds `tool_sweep` enforces after a run (optional).
  std::optional<GateBlock> gate;

  /// Parse and fully validate a profile document. Throws
  /// util::PreconditionError with a teaching message on an unknown key
  /// (naming it and listing the valid keys), a wrong type, an unparsable
  /// seed, a negative/non-finite horizon, a malformed scenario expression
  /// or `@` fire time, an unknown grid parameter or override, an invalid
  /// parameter value, a bad shard ("k/N" with k < N), or a paper claim
  /// naming a cell the grid does not have or an unknown metric (both
  /// errors list the valid names) or with a tolerance <= 0, or a gate
  /// block that is empty or has a bound that is not finite and > 0.
  [[nodiscard]] static Profile from_json(
      const util::JsonValue& doc,
      const sweep::ScenarioCatalog& catalog = sweep::ScenarioCatalog::global());

  /// from_json() over a file; parse errors are rethrown naming the path.
  [[nodiscard]] static Profile load(
      const std::string& path,
      const sweep::ScenarioCatalog& catalog = sweep::ScenarioCatalog::global());

  /// Rebuild the declarative side of a spec (the inverse of
  /// SweepSpec::from_profile). name/description (and the paper and gate
  /// blocks) are not spec fields, so the caller threads them through;
  /// execution knobs are dropped.
  [[nodiscard]] static Profile from_spec(const sweep::SweepSpec& spec,
                                         std::string name = {},
                                         std::string description = {});

  /// Canonical JSON (see the schema comment). from_json(to_json()) is the
  /// identity, and dumping a loaded canonical file reproduces its bytes.
  [[nodiscard]] util::JsonValue to_json() const;

  /// Re-validate the semantic constraints (horizons, scenario expression,
  /// grid/override values against the applier registry, paper claims
  /// against the grid, gate bounds). from_json validates on entry; call
  /// this again after mutating fields in code. SweepSpec::from_profile
  /// always calls it.
  void validate(const sweep::ScenarioCatalog& catalog =
                    sweep::ScenarioCatalog::global()) const;
};

/// The valid top-level profile keys, in canonical order (for error text
/// and docs).
[[nodiscard]] const std::vector<std::string>& profile_keys();

}  // namespace cloudmedia::profile
