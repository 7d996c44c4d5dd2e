#include "expr/flags.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "util/check.h"

namespace cloudmedia::expr {

namespace {

/// Plain Levenshtein distance, O(|a|*|b|); flag names are short.
std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diagonal = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t substitution =
          diagonal + (a[i - 1] == b[j - 1] ? 0 : 1);
      diagonal = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, substitution});
    }
  }
  return row[b.size()];
}

[[noreturn]] void reject_value(const std::string& key, const std::string& value,
                               const char* expected) {
  throw util::PreconditionError("--" + key + "=" + value + " is not " +
                                expected);
}

/// The whole value must parse: strtod/strtoll accept what std::stod/stoll
/// did, but the end-pointer check also rejects trailing garbage ("3x").
double parse_double(const std::string& key, const std::string& value) {
  const char* begin = value.c_str();
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(begin, &end);
  if (end == begin || *end != '\0' || errno == ERANGE) {
    reject_value(key, value, "a number");
  }
  return parsed;
}

long long parse_integer(const std::string& key, const std::string& value,
                        long long lo, long long hi) {
  const char* begin = value.c_str();
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(begin, &end, 10);
  if (end == begin || *end != '\0' || errno == ERANGE || parsed < lo ||
      parsed > hi) {
    reject_value(key, value, "an integer in range");
  }
  return parsed;
}

}  // namespace

Flags::Flags(int argc, const char* const* argv, bool allow_positionals) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      if (!allow_positionals) {
        throw util::PreconditionError("unexpected positional argument: " +
                                      arg);
      }
      positionals_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)].push_back(arg.substr(eq + 1));
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg].push_back(argv[++i]);
    } else {
      values_[arg].push_back("true");
    }
  }
}

bool Flags::has(const std::string& key) const { return values_.count(key) > 0; }

std::string Flags::get(const std::string& key, const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second.back();
}

double Flags::get(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : parse_double(key, it->second.back());
}

int Flags::get(const std::string& key, int fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return static_cast<int>(parse_integer(key, it->second.back(),
                                        std::numeric_limits<int>::min(),
                                        std::numeric_limits<int>::max()));
}

long long Flags::get_ll(const std::string& key, long long fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return parse_integer(key, it->second.back(),
                       std::numeric_limits<long long>::min(),
                       std::numeric_limits<long long>::max());
}

bool Flags::get(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& value = it->second.back();
  if (value == "true" || value == "1" || value == "yes") return true;
  if (value == "false" || value == "0" || value == "no") return false;
  reject_value(key, value, "a boolean (true|false|1|0|yes|no)");
}

std::vector<std::string> Flags::get_all(const std::string& key) const {
  const auto it = values_.find(key);
  return it == values_.end() ? std::vector<std::string>{} : it->second;
}

void Flags::require_known(const std::vector<std::string>& known) const {
  for (const auto& [key, unused] : values_) {
    (void)unused;
    if (std::find(known.begin(), known.end(), key) != known.end()) continue;
    std::string message = "unknown flag --" + key;
    // Suggest close declared names first; a typo is the common case.
    std::vector<std::string> close;
    for (const std::string& candidate : known) {
      if (edit_distance(key, candidate) <= 2) close.push_back(candidate);
    }
    if (!close.empty()) {
      message += " — did you mean ";
      for (std::size_t i = 0; i < close.size(); ++i) {
        if (i > 0) message += close.size() == 2 ? " or " : ", ";
        message += "--" + close[i];
      }
      message += "?";
    }
    message += " (valid flags:";
    for (const std::string& candidate : known) message += " --" + candidate;
    message += ")";
    throw util::PreconditionError(message);
  }
}

int run_main(int argc, char** argv, int (*run)(int, char**)) {
  try {
    return run(argc, argv);
  } catch (const util::PreconditionError& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  }
}

}  // namespace cloudmedia::expr
