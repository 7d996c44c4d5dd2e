#pragma once

#include <map>
#include <string>
#include <vector>

namespace cloudmedia::expr {

/// Tiny command-line flag parser for the bench/example binaries:
/// accepts `--key=value` and `--key value`; bare `--key` means "true".
/// A flag may repeat (`--grid a=1 --grid b=2`): scalar getters return the
/// last occurrence, get_all() returns every occurrence in order.
/// Unknown positional arguments throw util::PreconditionError (benches take
/// no positionals) unless the caller opts in, in which case non-flag tokens
/// that were not consumed as a `--key value` value collect into
/// positionals() in order. Numeric and boolean getters parse the whole
/// value and throw util::PreconditionError naming the flag on a malformed
/// or out-of-range one (`--hours=abc`, `--hours=3x`, `--p2p=ture`).
class Flags {
 public:
  Flags(int argc, const char* const* argv, bool allow_positionals = false);

  /// Non-flag arguments, in command-line order (opt-in; see constructor).
  [[nodiscard]] const std::vector<std::string>& positionals() const noexcept {
    return positionals_;
  }

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const;
  [[nodiscard]] double get(const std::string& key, double fallback) const;
  [[nodiscard]] int get(const std::string& key, int fallback) const;
  [[nodiscard]] long long get_ll(const std::string& key, long long fallback) const;
  /// Exactly true|1|yes or false|0|no; anything else throws.
  [[nodiscard]] bool get(const std::string& key, bool fallback) const;
  /// All values given for a repeated flag, in command-line order (empty
  /// when the flag is absent).
  [[nodiscard]] std::vector<std::string> get_all(const std::string& key) const;

  /// Declared-flag registry: throw util::PreconditionError if any parsed
  /// flag is not in `known`. The error names the offending flag, suggests
  /// the closest declared names ("did you mean --hours?") when one is
  /// within edit distance 2, and lists every valid flag. Binaries call
  /// this once, right after construction, so `--serie-stride` dies with a
  /// teaching message instead of being silently ignored.
  void require_known(const std::vector<std::string>& known) const;

 private:
  std::map<std::string, std::vector<std::string>> values_;
  std::vector<std::string> positionals_;
};

/// The body of a binary's main: `int main(int argc, char** argv) { return
/// run_main(argc, argv, run); }`. Returns run's exit code; a
/// util::PreconditionError (a usage error: malformed flag value, unknown
/// flag, out-of-range option) prints `error: <why>` to stderr and returns 2
/// instead of ending in std::terminate.
int run_main(int argc, char** argv, int (*run)(int, char**));

}  // namespace cloudmedia::expr
