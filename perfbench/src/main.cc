// One repetition of one benchmark workload. perfbench/run.py runs this
// binary once per repetition (each in its own process, so peak RSS is the
// workload's own) and aggregates the records; see perfbench/README.md.
//
//   perfbench --workload=<name> --root=<checkout> --out=<dir>
//             [--seed=42] [--trace] [--summary]
//
// The last line of stdout is one JSON record: runs attempted and failed,
// failure messages, metrics by name, and the build that produced them.
// --summary prints the pinned run summary of a single-run workload
// instead (how perfbench/reference/*.json is regenerated).

#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "expr/flags.h"
#include "kernels.h"
#include "util/json.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const cloudmedia::expr::Flags flags(argc, argv);
    flags.require_known({"workload", "seed", "root", "out", "trace", "summary"});
    RepContext ctx;
    ctx.workload = flags.get("workload", std::string());
    ctx.seed = static_cast<std::uint64_t>(
        flags.get_ll("seed", static_cast<long long>(kDefaultSeed)));
    ctx.root = flags.get("root", std::string("."));
    ctx.out_dir = flags.get("out", std::string("."));
    bool known = false;
    for (const std::string& name : workload_names()) known |= name == ctx.workload;
    if (!known) {
      std::fprintf(stderr, "unknown --workload '%s'\n", ctx.workload.c_str());
      return 2;
    }
    if (flags.has("summary")) {
      std::fputs(summary_text(ctx.workload, ctx.seed).c_str(), stdout);
      return 0;
    }
    std::filesystem::create_directories(ctx.out_dir);

    const RepResult rep = flags.has("trace") ? run_traced_rep(ctx)
                                             : run_untraced(ctx);
    cloudmedia::util::JsonValue record = cloudmedia::util::JsonValue::object();
    record["attempted"] = static_cast<double>(rep.attempted);
    record["failed"] = static_cast<double>(rep.failed);
    cloudmedia::util::JsonValue failures = cloudmedia::util::JsonValue::array();
    for (const std::string& f : rep.failures) failures.push_back(f);
    record["failures"] = failures;
    cloudmedia::util::JsonValue metrics = cloudmedia::util::JsonValue::object();
    for (const auto& [name, value] : rep.metrics) metrics[name] = value;
    metrics["host.calib_ns"] = calibration_ns();
    record["metrics"] = metrics;
    record["compiler"] = compiler();
    record["build_type"] = PERFBENCH_BUILD_TYPE;
    std::printf("%s\n", record.dump(-1).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
