#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "expr/config.h"

namespace cloudmedia::sweep {

/// One named sweep axis: the parameter name and the values it takes, in
/// the order the caller listed them.
struct ParamAxis {
  std::string name;
  std::vector<std::string> values;
};

/// One cell of the cartesian product: (name, value) per axis, in axis
/// order.
struct GridPoint {
  std::vector<std::pair<std::string, std::string>> coords;

  /// "channels=4,mode=cs" — stable human/CSV label.
  [[nodiscard]] std::string label() const;
};

/// Apply one named parameter to an experiment config. Throws
/// util::PreconditionError on an unknown name or unparsable value. The
/// registry is the single source of truth for what `tool_sweep --grid`
/// and ParamGrid accept.
void apply_parameter(expr::ExperimentConfig& config, const std::string& name,
                     const std::string& value);

/// True when the parameter shapes the *workload* (arrival process, catalog,
/// viewing behaviour) rather than the serving system (mode, policy,
/// budgets). Only workload-shaping coordinates feed the per-run seed, so
/// runs that differ solely in system policy face byte-identical workloads —
/// the comparison discipline the paper's figures rely on. Scenario ops
/// (ScenarioOp::workload_shaping) carry the same split for introspection,
/// but scenario names never feed the seed — only grid coordinates do.
[[nodiscard]] bool parameter_affects_workload(const std::string& name);

/// Registered parameter names, sorted (for --list-params and error text).
[[nodiscard]] std::vector<std::string> known_parameters();

/// Cartesian product of named parameter axes. The first axis varies
/// slowest, the last fastest; point(i) decodes index i in that mixed-radix
/// order, so enumeration order is deterministic and independent of how the
/// sweep is scheduled across threads.
class ParamGrid {
 public:
  /// Adds an axis. Throws on an empty value list, a duplicate axis, or a
  /// name missing from the parameter registry.
  void add_axis(std::string name, std::vector<std::string> values);

  /// Parse "name=v1,v2,..." specs (one per --grid occurrence).
  [[nodiscard]] static ParamGrid parse(const std::vector<std::string>& specs);

  [[nodiscard]] const std::vector<ParamAxis>& axes() const noexcept {
    return axes_;
  }
  /// Number of grid cells; 1 for the empty grid (a single unmodified run).
  [[nodiscard]] std::size_t num_points() const noexcept;
  [[nodiscard]] GridPoint point(std::size_t index) const;

  /// Hash of the workload-shaping coordinates of `point` (FNV-1a over
  /// "name=value" in axis order; system-side coordinates are skipped — see
  /// parameter_affects_workload).
  [[nodiscard]] static std::uint64_t workload_hash(const GridPoint& point);

 private:
  std::vector<ParamAxis> axes_;
};

}  // namespace cloudmedia::sweep
