#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "expr/flags.h"
#include "util/check.h"

namespace cloudmedia::expr {
namespace {

Flags make_flags(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, ParsesEqualsForm) {
  const Flags f = make_flags({"--hours=24", "--seed=7"});
  EXPECT_EQ(f.get("hours", 0.0), 24.0);
  EXPECT_EQ(f.get("seed", 0), 7);
}

TEST(Flags, ParsesSpaceForm) {
  const Flags f = make_flags({"--hours", "12"});
  EXPECT_EQ(f.get("hours", 0.0), 12.0);
}

TEST(Flags, BareFlagIsTrue) {
  const Flags f = make_flags({"--verbose"});
  EXPECT_TRUE(f.has("verbose"));
  EXPECT_TRUE(f.get("verbose", false));
}

TEST(Flags, FallbacksWhenMissing) {
  const Flags f = make_flags({});
  EXPECT_EQ(f.get("hours", 100.0), 100.0);
  EXPECT_EQ(f.get("name", std::string("x")), "x");
  EXPECT_FALSE(f.get("flag", false));
  EXPECT_EQ(f.get_ll("seed", 42), 42);
}

TEST(Flags, BooleanSpellings) {
  EXPECT_TRUE(make_flags({"--a=true"}).get("a", false));
  EXPECT_TRUE(make_flags({"--a=1"}).get("a", false));
  EXPECT_TRUE(make_flags({"--a=yes"}).get("a", false));
  EXPECT_FALSE(make_flags({"--a=no"}).get("a", true));
  EXPECT_FALSE(make_flags({"--a=false"}).get("a", true));
  EXPECT_FALSE(make_flags({"--a=0"}).get("a", true));
  EXPECT_FALSE(make_flags({"--a", "no"}).get("a", true));
}

TEST(Flags, RejectsMalformedBooleansNamingTheFlag) {
  // `--p2p=ture` must not silently read as false.
  for (const char* arg : {"--p2p=ture", "--p2p=", "--p2p=TRUE", "--p2p=2"}) {
    SCOPED_TRACE(arg);
    try {
      (void)make_flags({arg}).get("p2p", false);
      ADD_FAILURE() << "accepted " << arg;
    } catch (const util::PreconditionError& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string(arg) +
                    " is not a boolean (true|false|1|0|yes|no)");
    }
  }
}

TEST(RunMain, UsageErrorsExitTwoAndOtherCodesPassThrough) {
  std::vector<char*> argv{const_cast<char*>("prog")};
  EXPECT_EQ(run_main(1, argv.data(), [](int, char**) { return 0; }), 0);
  EXPECT_EQ(run_main(1, argv.data(), [](int, char**) { return 1; }), 1);
  EXPECT_EQ(run_main(1, argv.data(),
                     [](int, char**) -> int {
                       throw util::PreconditionError("--hours=abc is bad");
                     }),
            2);
  // Only usage errors are caught: an invariant failure is a bug.
  EXPECT_THROW((void)run_main(1, argv.data(),
                              [](int, char**) -> int {
                                throw util::InvariantError("broken");
                              }),
               util::InvariantError);
}

TEST(Flags, RejectsPositionalArguments) {
  EXPECT_THROW(make_flags({"positional"}), util::PreconditionError);
}

TEST(Flags, RejectsMalformedNumbersNamingTheFlag) {
  const Flags f = make_flags({"--hours=abc", "--days=3x", "--seed=", "--n=1.5",
                              "--big=99999999999", "--rate=1e999",
                              "--ok=2.5e1", "--neg=-7"});
  const auto error_of = [](const std::function<void()>& get) -> std::string {
    try {
      get();
    } catch (const util::PreconditionError& e) {
      return e.what();
    }
    return "no error";
  };
  EXPECT_EQ(error_of([&f] { (void)f.get("hours", 1.0); }),
            "--hours=abc is not a number");
  EXPECT_EQ(error_of([&f] { (void)f.get("days", 1.0); }),
            "--days=3x is not a number");
  EXPECT_EQ(error_of([&f] { (void)f.get_ll("seed", 1LL); }),
            "--seed= is not an integer in range");
  EXPECT_THROW((void)f.get("days", 1), util::PreconditionError);
  EXPECT_THROW((void)f.get("n", 1), util::PreconditionError);
  EXPECT_THROW((void)f.get("big", 1), util::PreconditionError);
  EXPECT_THROW((void)f.get("rate", 1.0), util::PreconditionError);
  // Whole, in-range values still parse as before.
  EXPECT_EQ(f.get("big", 0.0), 99999999999.0);
  EXPECT_EQ(f.get_ll("big", 0LL), 99999999999LL);
  EXPECT_EQ(f.get("ok", 0.0), 25.0);
  EXPECT_EQ(f.get("neg", 0), -7);
}

TEST(Flags, CollectsPositionalsWhenAllowed) {
  // tool_sweep --diff a.json b.json relies on this opt-in: flags parse as
  // usual, and non-flag tokens not consumed as a `--key value` value
  // collect in order.
  const std::vector<const char*> argv{"prog", "a.json", "--tol=0.5",
                                      "b.json"};
  const Flags f(static_cast<int>(argv.size()), argv.data(),
                /*allow_positionals=*/true);
  EXPECT_EQ(f.positionals(),
            (std::vector<std::string>{"a.json", "b.json"}));
  EXPECT_EQ(f.get("tol", 0.0), 0.5);
}

TEST(Flags, SpaceFormValueIsNotAPositional) {
  const std::vector<const char*> argv{"prog", "--out", "report.json",
                                      "a.json"};
  const Flags f(static_cast<int>(argv.size()), argv.data(),
                /*allow_positionals=*/true);
  EXPECT_EQ(f.get("out", std::string()), "report.json");
  EXPECT_EQ(f.positionals(), (std::vector<std::string>{"a.json"}));
}

}  // namespace
}  // namespace cloudmedia::expr
