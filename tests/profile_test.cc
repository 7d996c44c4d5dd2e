// The declarative experiment-profile schema (src/profile/): junk documents
// are rejected with teaching errors at load time, every committed profile
// (profiles/*.json and the bench/ and fuzz/ subdirectories)
// byte-round-trips through Profile -> SweepSpec -> Profile, the gate block
// validates and evaluates its bounds,
// the build-time embedded copies agree with the files on disk, the fuzzer
// is seed-deterministic, and the pinned fuzzer-found repro under
// profiles/fuzz/ keeps passing the invariant checker.
//
// The profiles directory is baked in at configure time
// (CLOUDMEDIA_PROFILE_DIR, tests/CMakeLists.txt), so the test runs from any
// working directory.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "expr/flags.h"
#include "profile/embedded.h"
#include "profile/fuzzer.h"
#include "profile/invariants.h"
#include "profile/profile.h"
#include "sweep/goldens.h"
#include "util/check.h"
#include "util/json.h"
#include "util/rng.h"

namespace cloudmedia::profile {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    ADD_FAILURE() << "cannot open " << path;
    return {};
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string profile_path(const std::string& name) {
  return std::string(CLOUDMEDIA_PROFILE_DIR) + "/" + name + ".json";
}

Profile parse(const std::string& text) {
  return Profile::from_json(util::JsonValue::parse(text));
}

/// The teaching-error contract: loading `text` must throw a
/// PreconditionError whose message contains every expected fragment.
void expect_rejected(const std::string& text,
                     const std::vector<std::string>& fragments) {
  try {
    (void)parse(text);
    ADD_FAILURE() << "accepted junk profile: " << text;
  } catch (const util::PreconditionError& error) {
    const std::string message = error.what();
    for (const std::string& fragment : fragments) {
      EXPECT_NE(message.find(fragment), std::string::npos)
          << "error for " << text << " should mention '" << fragment
          << "', got: " << message;
    }
  }
}

TEST(ProfileSchema, UnknownKeyNamesItselfAndListsValidKeys) {
  expect_rejected(R"({"scenarios": "baseline_diurnal"})",
                  {"unknown profile key 'scenarios'", "valid keys:",
                   "scenario", "seed", "grid", "overrides", "shard"});
}

TEST(ProfileSchema, WrongTypesAreNamed) {
  expect_rejected(R"({"scenario": 7})", {"scenario", "expected a string",
                                         "got a number"});
  expect_rejected(R"({"warmup_hours": "soon"})",
                  {"warmup_hours", "expected a number", "got a string"});
  expect_rejected(R"({"grid": {"mode": ["cs"]}})",
                  {"grid", "expected an array", "got an object"});
  expect_rejected(R"({"overrides": ["engine=auto"]})",
                  {"overrides", "expected an object", "got an array"});
  expect_rejected(R"([1, 2])", {"must be a JSON object", "got an array"});
}

TEST(ProfileSchema, HorizonsMustBeFiniteAndPositive) {
  expect_rejected(R"({"measure_hours": -2})", {"measure_hours", "> 0"});
  expect_rejected(R"({"measure_hours": 0})", {"measure_hours", "> 0"});
  expect_rejected(R"({"warmup_hours": -0.5})", {"warmup_hours", ">= 0"});
}

TEST(ProfileSchema, SeedsRejectNonIntegersAndOverflow) {
  expect_rejected(R"({"seed": -1})", {"seed", "non-negative integer"});
  expect_rejected(R"({"seed": 1.5})", {"seed", "non-negative integer"});
  // 2^53 + epsilon territory: numeric seeds that cannot survive a double
  // round-trip must point at the decimal-string spelling.
  expect_rejected(R"({"seed": 18446744073709551615})",
                  {"seed", "decimal string"});
  expect_rejected(R"({"seed": "42x"})", {"seed", "not a decimal"});
  expect_rejected(R"({"seed": "99999999999999999999"})",
                  {"seed", "64 bits"});
  EXPECT_EQ(parse(R"({"seed": "18446744073709551615"})").seed,
            18446744073709551615ull);
}

TEST(ProfileSchema, MalformedScenarioExpressionsFailAtLoadTime) {
  EXPECT_THROW((void)parse(R"({"scenario": "no_such_scenario"})"),
               util::PreconditionError);
  EXPECT_THROW((void)parse(R"({"scenario": "flash_crowd@notatime"})"),
               util::PreconditionError);
  EXPECT_THROW((void)parse(R"({"scenario": "flash_crowd@-5m"})"),
               util::PreconditionError);
  // A timed op that mutates a frozen field (channel count) must be caught
  // by the load-time dry pass, not mid-sweep on a worker thread.
  EXPECT_THROW((void)parse(R"({"scenario": "long_tail_catalog@30m"})"),
               util::PreconditionError);
}

TEST(ProfileSchema, GridAxesAreRegistryValidated) {
  expect_rejected(R"({"grid": [{"name": "warp", "values": ["9"]}]})",
                  {"warp"});
  expect_rejected(R"({"grid": [{"name": "mode"}]})",
                  {"grid", "values"});
  expect_rejected(R"({"grid": [{"name": "mode", "values": []}]})",
                  {"grid", "non-empty"});
  expect_rejected(
      R"({"grid": [{"name": "mode", "values": ["cs"], "extra": 1}]})",
      {"grid", "unknown axis key 'extra'"});
  // Values may be numbers; they canonicalize through format_number.
  const Profile p = parse(R"({"grid": [{"name": "channels",
                                        "values": [8, "12"]}]})");
  ASSERT_EQ(p.grid.axes().size(), 1u);
  EXPECT_EQ(p.grid.axes()[0].values,
            (std::vector<std::string>{"8", "12"}));
}

TEST(ProfileSchema, OverridesRejectBadParametersAndValues) {
  EXPECT_THROW((void)parse(R"({"overrides": {"warp": "9"}})"),
               util::PreconditionError);
  EXPECT_THROW((void)parse(R"({"overrides": {"mode": "warp"}})"),
               util::PreconditionError);
  EXPECT_THROW((void)parse(R"({"overrides": {"chunk_minutes": "-3"}})"),
               util::PreconditionError);
}

TEST(ProfileSchema, ShardMustBeAProperSlice) {
  EXPECT_THROW((void)parse(R"({"shard": "3/2"})"), util::PreconditionError);
  EXPECT_THROW((void)parse(R"({"shard": "2/2"})"), util::PreconditionError);
  EXPECT_THROW((void)parse(R"({"shard": "banana"})"), util::PreconditionError);
  const Profile p = parse(R"({"shard": "1/4"})");
  EXPECT_EQ(p.shard.index, 1u);
  EXPECT_EQ(p.shard.count, 4u);
}

TEST(ProfileSchema, SeriesStrideIsNoLongerAKey) {
  // Retained-series downsampling is gone; an old profile that still sets
  // it must fail loudly instead of being half-honoured.
  expect_rejected(R"({"series_stride": 4})",
                  {"unknown profile key 'series_stride'", "paper"});
}

TEST(ProfileSchema, DuplicateKeysAreLastWinsAtTheParser) {
  // util::JsonValue's object semantics: a repeated key overwrites (the
  // parser dedups before from_json sees the document). Pin it so a parser
  // change to duplicate-preserving surfaces here, where from_json's own
  // duplicate guard would start firing.
  EXPECT_EQ(parse(R"({"seed": "1", "seed": "2"})").seed, 2u);
}

// Every committed golden profile byte-round-trips: file bytes == embedded
// copy == to_json(from_json(file)) == the dump after a full trip through
// SweepSpec::from_profile / Profile::from_spec. This is the property that
// makes `tool_sweep --dump-profile` a lossless canonicalizer and keeps the
// goldens regenerable from profiles/*.json alone.
/// `committed` is canonical: it dumps back to its own bytes, directly and
/// through the spec with the paper and gate blocks threaded around it (the
/// `tool_sweep --dump-profile` path). Returns the parsed profile.
Profile expect_canonical(const std::string& committed) {
  const Profile p = parse(committed);
  EXPECT_EQ(p.to_json().dump(2) + "\n", committed);
  Profile back = Profile::from_spec(sweep::SweepSpec::from_profile(p), p.name,
                                    p.description);
  back.paper = p.paper;
  back.gate = p.gate;
  EXPECT_EQ(back.to_json().dump(2) + "\n", committed);
  return p;
}

TEST(ProfileRoundTrip, AllCommittedProfilesAreByteStable) {
  const std::vector<EmbeddedProfile>& embedded = embedded_golden_profiles();
  ASSERT_GE(embedded.size(), 19u);
  for (const EmbeddedProfile& entry : embedded) {
    SCOPED_TRACE(entry.name);
    const std::string committed = read_file(profile_path(entry.name));
    EXPECT_EQ(committed, entry.json)
        << "embedded copy is stale — rerun cmake (EmbedProfiles.cmake)";
    EXPECT_EQ(expect_canonical(committed).name, entry.name)
        << "profile file stem and \"name\" field disagree";
  }
}

TEST(ProfileRoundTrip, BenchAndFuzzProfilesAreByteStable) {
  // The subdirectories are not golden presets (nothing embeds them), so
  // they are read from disk: bench/ holds gated benchmarks, fuzz/ pinned
  // fuzzer repros.
  std::size_t files = 0;
  bool saw_gate = false;
  for (const char* dir : {"bench", "fuzz"}) {
    for (const auto& entry : std::filesystem::directory_iterator(
             std::string(CLOUDMEDIA_PROFILE_DIR) + "/" + dir)) {
      if (entry.path().extension() != ".json") continue;
      SCOPED_TRACE(entry.path().string());
      ++files;
      const Profile p = expect_canonical(read_file(entry.path().string()));
      EXPECT_EQ(p.name, entry.path().stem().string());
      saw_gate = saw_gate || p.gate.has_value();
    }
  }
  EXPECT_GE(files, 2u);
  EXPECT_TRUE(saw_gate) << "profiles/bench/ should hold a gated profile";
}

TEST(ProfileRoundTrip, GoldenPresetsCarryTheirProfile) {
  for (const sweep::GoldenPreset& preset : sweep::golden_presets()) {
    SCOPED_TRACE(preset.name);
    EXPECT_EQ(preset.profile.name, preset.name);
    EXPECT_EQ(preset.profile.seed, sweep::kGoldenSeed);
    // The spec is exactly what from_profile builds — no side-channel edits.
    EXPECT_EQ(Profile::from_spec(preset.spec).to_json().dump(2),
              Profile::from_spec(
                  sweep::SweepSpec::from_profile(preset.profile))
                  .to_json()
                  .dump(2));
  }
}

// ------------------------------------------------------------ paper claims

/// A two-cell profile with a paper block around one claim; `claim` is the
/// claim object's JSON body.
std::string paper_profile(const std::string& claim) {
  return R"({"grid": [{"name": "mode", "values": ["cs", "p2p"]}],
             "paper": {"warmup_hours": 4, "measure_hours": 24,
                       "claims": [{)" + claim + "}]}}";
}

TEST(PaperClaims, LoadRejectsBadCellMetricAndTolerance) {
  expect_rejected(paper_profile(R"("cell": "mode=p3p", "metric":
      "cost_per_hour", "paper": 48, "tolerance": 0.01)"),
                  {"paper.claims.cell", "'mode=p3p'",
                   "valid cells: mode=cs, mode=p2p"});
  expect_rejected(paper_profile(R"("cell": "mode=cs", "metric": "cost",
      "paper": 48, "tolerance": 0.01)"),
                  {"paper.claims.metric", "'cost'", "valid metrics:",
                   "mean_quality", "cost_per_hour", "sim_events"});
  for (const char* tolerance : {"0", "-0.1"}) {
    expect_rejected(paper_profile(std::string(R"("cell": "mode=cs",
        "metric": "cost_per_hour", "paper": 48, "tolerance": )") +
                                  tolerance),
                    {"paper.claims.tolerance", "> 0"});
  }
  expect_rejected(paper_profile(R"("cell": "mode=cs", "metric":
      "cost_per_hour", "paper": 48)"),
                  {"paper.claims", "missing \"tolerance\""});
  expect_rejected(R"({"paper": {"measure_hours": 24}})",
                  {"paper", "missing \"warmup_hours\""});
  expect_rejected(R"({"paper": {"warmup_hours": 4, "measure_hours": 0}})",
                  {"paper.measure_hours", "> 0"});
  expect_rejected(R"({"paper": {"warmup_hours": 4, "measure_hours": 24,
                                "clams": []}})",
                  {"unknown key 'clams'", "claims"});
}

TEST(PaperClaims, EvaluatesOkGapAndMissOnASyntheticSweep) {
  sweep::SweepResult result;
  for (const char* mode : {"cs", "p2p"}) {
    sweep::RunSummary run;
    run.point.coords = {{"mode", mode}};
    run.cost_per_hour = std::string(mode) == "cs" ? 57.5 : 4.27;
    run.mean_quality = 0.966;
    result.runs.push_back(run);
  }
  PaperBlock block;
  block.claims = {
      {"mode=p2p", "cost_per_hour", 4.27, 0.0012, ""},
      {"mode=cs", "cost_per_hour", 48.0, 0.011, "unexplained"},
      {"mode=cs", "mean_quality", 0.5, 0.01, ""},
  };
  const std::vector<ClaimCheck> checks = check_claims(block, result);
  ASSERT_EQ(checks.size(), 3u);

  EXPECT_EQ(checks[0].status, ClaimCheck::Status::kOk);
  EXPECT_EQ(checks[0].status_text(), "ok");
  EXPECT_DOUBLE_EQ(checks[0].measured, 4.27);
  EXPECT_NEAR(checks[0].relative_error, 0.0, 1e-12);

  EXPECT_EQ(checks[1].status, ClaimCheck::Status::kGap);
  EXPECT_EQ(checks[1].status_text(), "gap: unexplained");
  EXPECT_DOUBLE_EQ(checks[1].measured, 57.5);
  EXPECT_NEAR(checks[1].relative_error, 57.5 / 48.0 - 1.0, 1e-12);

  EXPECT_EQ(checks[2].status, ClaimCheck::Status::kMiss);
  EXPECT_EQ(checks[2].status_text(), "MISS");
  EXPECT_NEAR(checks[2].relative_error, 0.966 / 0.5 - 1.0, 1e-12);

  // A claim whose cell did not run here (a shard) cannot be judged.
  result.runs.pop_back();
  EXPECT_THROW((void)check_claims(block, result), util::PreconditionError);
}

TEST(PaperClaims, EveryCommittedClaimResolvesAgainstItsPreset) {
  std::size_t claims = 0;
  std::vector<std::string> with_claims;
  for (const sweep::GoldenPreset& preset : sweep::golden_presets()) {
    if (!preset.profile.paper) continue;
    SCOPED_TRACE(preset.name);
    const PaperBlock& block = *preset.profile.paper;
    if (!block.claims.empty()) with_claims.push_back(preset.name);
    // One synthetic row per cell of the preset's grid: every claim must
    // find its cell and read its metric.
    sweep::SweepResult result;
    for (std::size_t i = 0; i < preset.spec.grid.num_points(); ++i) {
      sweep::RunSummary run;
      run.point = preset.spec.grid.point(i);
      result.runs.push_back(run);
    }
    EXPECT_EQ(check_claims(block, result).size(), block.claims.size());
    claims += block.claims.size();
  }
  EXPECT_EQ(with_claims,
            (std::vector<std::string>{"fig04_provisioning", "fig05_quality",
                                      "fig10_vm_cost",
                                      "fig11_peer_sufficiency"}));
  EXPECT_EQ(claims, 9u);
}

TEST(PaperClaims, DumpProfileRoundTripsAPaperBlock) {
  Profile p = parse(paper_profile(R"("cell": "mode=cs", "metric":
      "cost_per_hour", "paper": 48, "tolerance": 0.011, "gap":
      "unexplained")"));
  p.name = "paper_round_trip";
  const std::string canonical = p.to_json().dump(2);
  EXPECT_NE(canonical.find("\"gap\": \"unexplained\""), std::string::npos);
  EXPECT_EQ(parse(canonical).to_json().dump(2), canonical);
  // The `tool_sweep --dump-profile` path: through the spec and back, with
  // the block threaded around it. The spec never sees it.
  const sweep::SweepSpec spec = sweep::SweepSpec::from_profile(p);
  Profile back = Profile::from_spec(spec, p.name, p.description);
  EXPECT_FALSE(back.paper.has_value());
  back.paper = p.paper;
  EXPECT_EQ(back.to_json().dump(2), canonical);
  // And the block stays out of what the sweep computes.
  Profile bare = p;
  bare.paper.reset();
  EXPECT_EQ(sweep::SweepSpec::from_profile(bare).spec_hash(),
            spec.spec_hash());
}

// ------------------------------------------------------------ gate block

TEST(ProfileGate, AcceptsOneOrBothBoundsAndRoundTrips) {
  const Profile events = parse(R"({"gate": {"min_events_per_sec": 392000}})");
  ASSERT_TRUE(events.gate.has_value());
  EXPECT_EQ(events.gate->min_events_per_sec, 392000.0);
  EXPECT_FALSE(events.gate->max_peak_rss_mb.has_value());

  const Profile rss = parse(R"({"gate": {"max_peak_rss_mb": 32}})");
  ASSERT_TRUE(rss.gate.has_value());
  EXPECT_FALSE(rss.gate->min_events_per_sec.has_value());
  EXPECT_EQ(rss.gate->max_peak_rss_mb, 32.0);

  // Both keys, written out of order, dump in key order and round-trip.
  Profile both = parse(R"({"gate": {"max_peak_rss_mb": 32,
                                    "min_events_per_sec": 392000}})");
  const std::string canonical = both.to_json().dump(2);
  EXPECT_NE(canonical.find("\"gate\": {\n    \"min_events_per_sec\": 392000,"
                           "\n    \"max_peak_rss_mb\": 32\n  }"),
            std::string::npos)
      << canonical;
  EXPECT_EQ(parse(canonical).to_json().dump(2), canonical);
  // Like the paper block, the gate never reaches what the sweep computes.
  Profile bare = both;
  bare.gate.reset();
  EXPECT_EQ(sweep::SweepSpec::from_profile(bare).spec_hash(),
            sweep::SweepSpec::from_profile(both).spec_hash());
  EXPECT_FALSE(Profile::from_spec(sweep::SweepSpec::from_profile(both))
                   .gate.has_value());
}

TEST(ProfileGate, RejectsUnknownKeysEmptyBlocksAndBadBounds) {
  expect_rejected(R"({"gate": {"min_events_per_second": 1}})",
                  {"gate", "unknown key 'min_events_per_second'",
                   "valid keys: min_events_per_sec, max_peak_rss_mb"});
  expect_rejected(R"({"gate": {}})", {"gate", "at least one bound"});
  expect_rejected(R"({"gate": 32})", {"gate", "expected an object"});
  expect_rejected(R"({"gate": {"max_peak_rss_mb": "32"}})",
                  {"gate.max_peak_rss_mb", "expected a number"});
  for (const char* bound : {"0", "-1"}) {
    expect_rejected(std::string(R"({"gate": {"min_events_per_sec": )") +
                        bound + "}}",
                    {"gate.min_events_per_sec", "finite number > 0"});
    expect_rejected(std::string(R"({"gate": {"max_peak_rss_mb": )") + bound +
                        "}}",
                    {"gate.max_peak_rss_mb", "finite number > 0"});
  }
  // JSON has no spelling for infinity or NaN; a profile built in code can.
  for (const double bound : {std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()}) {
    Profile p;
    p.gate = GateBlock{};
    p.gate->max_peak_rss_mb = bound;
    EXPECT_THROW(p.validate(), util::PreconditionError);
  }
}

TEST(ProfileGate, ReportsOkOrFailPerBound) {
  GateBlock gate;
  gate.min_events_per_sec = 392000.0;
  gate.max_peak_rss_mb = 32.0;

  std::vector<GateCheck> checks = check_gate(gate, 1.4e6, 12.0);
  ASSERT_EQ(checks.size(), 2u);
  EXPECT_EQ(checks[0].bound_name, "min_events_per_sec");
  EXPECT_EQ(checks[0].bound, 392000.0);
  EXPECT_EQ(checks[0].measured, 1.4e6);
  EXPECT_TRUE(checks[0].ok);
  EXPECT_EQ(checks[1].bound_name, "max_peak_rss_mb");
  EXPECT_EQ(checks[1].measured, 12.0);
  EXPECT_TRUE(checks[1].ok);

  // Each bound fails on its own side; a value at the bound holds.
  checks = check_gate(gate, 3.9e5, 32.0);
  EXPECT_FALSE(checks[0].ok);
  EXPECT_TRUE(checks[1].ok);
  checks = check_gate(gate, 392000.0, 57.0);
  EXPECT_TRUE(checks[0].ok);
  EXPECT_FALSE(checks[1].ok);

  // An unset bound is not checked.
  gate.min_events_per_sec.reset();
  checks = check_gate(gate, 0.0, 1.0);
  ASSERT_EQ(checks.size(), 1u);
  EXPECT_EQ(checks[0].bound_name, "max_peak_rss_mb");
}

TEST(FlagsRequireKnown, SuggestsCloseFlagAndListsValid) {
  const char* argv[] = {"prog", "--sede=7"};
  const expr::Flags flags(2, argv);
  try {
    flags.require_known({"seed", "hours", "out"});
    FAIL() << "accepted unknown flag --sede";
  } catch (const util::PreconditionError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("unknown flag --sede"), std::string::npos)
        << message;
    EXPECT_NE(message.find("did you mean --seed?"), std::string::npos)
        << message;
    EXPECT_NE(message.find("valid flags: --seed --hours --out"),
              std::string::npos)
        << message;
  }
}

TEST(FlagsRequireKnown, AcceptsDeclaredFlagsAndFarTyposGetNoSuggestion) {
  const char* argv[] = {"prog", "--seed=7", "--hours=2"};
  const expr::Flags flags(3, argv);
  EXPECT_NO_THROW(flags.require_known({"seed", "hours"}));
  const char* bad[] = {"prog", "--zzzzzzz=1"};
  const expr::Flags far(2, bad);
  try {
    far.require_known({"seed"});
    FAIL() << "accepted unknown flag --zzzzzzz";
  } catch (const util::PreconditionError& error) {
    EXPECT_EQ(std::string(error.what()).find("did you mean"),
              std::string::npos)
        << error.what();
  }
}

TEST(Fuzzer, SameSeedComposesIdenticalProfiles) {
  util::Rng a(12345), b(12345);
  for (int i = 0; i < 8; ++i) {
    const Profile pa = random_profile(a);
    const Profile pb = random_profile(b);
    EXPECT_EQ(pa.to_json().dump(2), pb.to_json().dump(2));
  }
}

TEST(Fuzzer, MinimizeDropsEverythingIrrelevant) {
  Profile failing;
  failing.scenario = "flash_crowd+churn_heavy";
  failing.overrides = {{"vm_budget", "50"}, {"boot_delay", "120"}};
  failing.grid.add_axis("mode", {"cs", "p2p"});
  failing.grid.add_axis("strategy", {"model", "static"});
  // Synthetic oracle: the "failure" only needs the vm_budget override.
  const auto still_fails = [](const Profile& candidate) {
    for (const auto& [name, value] : candidate.overrides) {
      if (name == "vm_budget") return true;
    }
    return false;
  };
  const Profile minimal = minimize_failing_profile(failing, still_fails);
  EXPECT_EQ(minimal.scenario, "baseline_diurnal");
  EXPECT_TRUE(minimal.grid.axes().empty());
  ASSERT_EQ(minimal.overrides.size(), 1u);
  EXPECT_EQ(minimal.overrides[0].first, "vm_budget");
}

// The pinned fuzzer-found repro: a 50 $/h vm budget with the static peak
// plan bills 50.55 $/h, legal only because the SLA admits one
// whole-instance rounding per cluster. Replaying it through the checker
// pins the billing/admission allowance contract (SlaNegotiator::admit) —
// if the envelope or the broker regress, this fails before tool_fuzz has
// to rediscover it.
TEST(FuzzRegression, PinnedBudgetRoundingProfileHoldsAllInvariants) {
  const Profile p = Profile::load(profile_path("fuzz/budget_rounding"));
  EXPECT_EQ(p.name, "budget_rounding");
  const InvariantReport report = check_profile_invariants(p, 2);
  EXPECT_EQ(report.cells, 1u);
  EXPECT_TRUE(report.ok()) << report.summary();
}

}  // namespace
}  // namespace cloudmedia::profile
