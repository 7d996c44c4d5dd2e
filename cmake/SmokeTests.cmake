# Smoke tier: fast pass/fail runs of paper-figure code, labelled "smoke".
# Run with `ctest -L smoke`. Each job downsizes the simulated horizon where
# the binary takes flags, so the whole tier completes in well under a minute.

# Per-test timeout. The default fits an optimized build; the CI sanitize
# job raises it (ASan/UBSan on a Debug build is several times slower).
if(NOT DEFINED CLOUDMEDIA_SMOKE_TIMEOUT)
  set(CLOUDMEDIA_SMOKE_TIMEOUT 45)
endif()

# add_smoke_test(<name> <target> [args...])
function(add_smoke_test name target)
  if(NOT TARGET ${target})
    message(WARNING "smoke test ${name}: target ${target} missing, skipped")
    return()
  endif()
  add_test(NAME smoke.${name} COMMAND ${target} ${ARGN})
  set_tests_properties(smoke.${name} PROPERTIES
    LABELS "smoke"
    TIMEOUT ${CLOUDMEDIA_SMOKE_TIMEOUT})
endfunction()

# add_exit_test(<name> <code> <output-regex> <target> [args...]) — a smoke
# test that passes only when the run exits with exactly <code> and prints
# (stdout or stderr) something matching <output-regex>. A crash fails it.
function(add_exit_test name code regex target)
  if(NOT TARGET ${target})
    message(WARNING "smoke test ${name}: target ${target} missing, skipped")
    return()
  endif()
  add_test(NAME smoke.${name} COMMAND ${CMAKE_COMMAND}
    -DEXPECT_CODE=${code} "-DEXPECT_OUTPUT=${regex}"
    -P ${PROJECT_SOURCE_DIR}/cmake/ExpectExit.cmake
    -- $<TARGET_FILE:${target}> ${ARGN})
  set_tests_properties(smoke.${name} PROPERTIES
    LABELS "smoke"
    TIMEOUT ${CLOUDMEDIA_SMOKE_TIMEOUT})
endfunction()

if(CLOUDMEDIA_BUILD_EXAMPLES)
  add_smoke_test(quickstart example_quickstart)
  add_smoke_test(capacity_planning example_capacity_planning)
  add_smoke_test(cs_vs_p2p example_cs_vs_p2p --hours=2 --seed=42)
  add_smoke_test(flash_crowd example_flash_crowd --hours=2 --warmup=1 --seed=42)
  add_smoke_test(forecasting example_forecasting --days=2 --seed=42)
  add_smoke_test(geo_distributed example_geo_distributed --hours=2 --seed=42)
  add_smoke_test(trace_replay example_trace_replay --hours=2 --seed=42)
  # Every example and bench routes its main through expr::run_main, so a
  # malformed flag value prints `error: <why>` and exits 2, not SIGABRT.
  add_exit_test(usage_error_example 2 "error: --hours=abc is not a number"
    example_flash_crowd --hours=abc)
endif()

if(CLOUDMEDIA_BUILD_TOOLS)
  # The sweep_demo golden preset (the same grid the goldens/ snapshot
  # pins); CI uploads its CSV/JSON.
  add_smoke_test(sweep_demo tool_sweep --golden=sweep_demo --threads=4
    --out=${CMAKE_BINARY_DIR}/artifacts/sweep_demo)
  # One composed-scenario sweep per commit: `a+b` goes through
  # ScenarioCatalog::resolve end to end (CI runs the smoke tier on both
  # gcc and clang, so the resolver is exercised on each).
  add_smoke_test(sweep_composed tool_sweep
    --scenario=flash_crowd+churn_heavy --grid mode=cs,p2p
    --hours=0.25 --warmup=0.1 --seed=42
    --out=${CMAKE_BINARY_DIR}/artifacts/sweep_composed)
  # One timed-scenario sweep per commit: `@`-ops travel through resolve,
  # land on the config timeline, and fire at the hour-1 and hour-2
  # provisioning boundaries inside the 0.5 + 2.5 h horizon.
  add_smoke_test(sweep_timeline tool_sweep
    --scenario=regional_outage@1h+recovery@2h --grid mode=cs
    --hours=2.5 --warmup=0.5 --seed=42
    --out=${CMAKE_BINARY_DIR}/artifacts/sweep_timeline)
  # Gate the smoke tier on the checked-in snapshot: the demo output just
  # written above must diff clean against goldens/sweep_demo.json.
  add_smoke_test(golden_diff tool_sweep --diff
    ${CMAKE_BINARY_DIR}/artifacts/sweep_demo.json
    ${PROJECT_SOURCE_DIR}/goldens/sweep_demo.json
    --out=${CMAKE_BINARY_DIR}/artifacts/golden_diff.json)
  if(TEST smoke.golden_diff)
    set_tests_properties(smoke.golden_diff PROPERTIES DEPENDS smoke.sweep_demo)
  endif()
  # Scenario fuzzer at smoke scale: a few seeded random profiles through
  # all four invariants (conservation, budget, quality, determinism); the
  # full 25-profile sweep runs in CI's fuzz-smoke step with a
  # commit-stable seed. Plus the pinned fuzzer-found repro, replayed so
  # the budget-rounding contract is exercised under the sanitizers too.
  add_smoke_test(fuzz tool_fuzz --runs=3 --seed=42
    --out=${CMAKE_BINARY_DIR}/artifacts/fuzz)
  add_smoke_test(fuzz_replay tool_fuzz
    --replay=${PROJECT_SOURCE_DIR}/profiles/fuzz/budget_rounding.json)
  # Distributed path, end to end: the same demo grid as two --shard halves,
  # stitched with --merge, then diffed against the committed golden — the
  # shard/merge round-trip must reproduce the single-process bytes.
  add_smoke_test(sweep_shard0 tool_sweep --golden=sweep_demo --shard=0/2
    --threads=2 --out=${CMAKE_BINARY_DIR}/artifacts/sweep_demo_shard0)
  add_smoke_test(sweep_shard1 tool_sweep --golden=sweep_demo --shard=1/2
    --threads=2 --out=${CMAKE_BINARY_DIR}/artifacts/sweep_demo_shard1)
  add_smoke_test(sweep_merge tool_sweep --merge
    ${CMAKE_BINARY_DIR}/artifacts/sweep_demo_merged
    ${CMAKE_BINARY_DIR}/artifacts/sweep_demo_shard0.json
    ${CMAKE_BINARY_DIR}/artifacts/sweep_demo_shard1.json)
  add_smoke_test(shard_merge_diff tool_sweep --diff
    ${CMAKE_BINARY_DIR}/artifacts/sweep_demo_merged.json
    ${PROJECT_SOURCE_DIR}/goldens/sweep_demo.json
    --out=${CMAKE_BINARY_DIR}/artifacts/shard_merge_diff.json)
  if(TEST smoke.sweep_merge)
    set_tests_properties(smoke.sweep_merge PROPERTIES
      DEPENDS "smoke.sweep_shard0;smoke.sweep_shard1")
    set_tests_properties(smoke.shard_merge_diff PROPERTIES
      DEPENDS smoke.sweep_merge)
  endif()

  # Every figure and sweep ablation is a golden preset: run each end to
  # end through the CLI at its golden horizon (CI's Figures step also runs
  # the ones with a paper block at the paper's horizon via --paper).
  foreach(figure IN ITEMS
      fig04:fig04_provisioning fig05:fig05_quality fig06:fig06_modes
      fig07:fig07_bandwidth_scaling fig08:fig08_storage_utility
      fig09:fig09_vm_utility fig10:fig10_vm_cost
      fig11:fig11_peer_sufficiency ablation_boot_delay:ablation_boot_delay
      ablation_chunk_size:ablation_chunk_size ablation_geo:ablation_geo
      ablation_strategies:ablation_strategies)
    string(REPLACE ":" ";" figure "${figure}")
    list(GET figure 0 test_name)
    list(GET figure 1 preset)
    add_smoke_test(${test_name} tool_sweep --golden=${preset} --threads=2
      --out=${CMAKE_BINARY_DIR}/artifacts/figures/${preset})
  endforeach()
  # Literal vs pooled sizing has no preset (a new golden would change the
  # committed golden set); it is one plain grid.
  add_smoke_test(ablation_pooling tool_sweep --grid capacity=literal,pooled
    --grid arrival=0.14,0.28,0.55,1.1 --hours=1 --warmup=0.25 --seed=42
    --threads=2 --out=${CMAKE_BINARY_DIR}/artifacts/ablation_pooling)
  # Paper claims as data: Fig. 10 at the paper's 4 + 24 h horizon, both
  # claims checked (exit 0 when each is ok or a recorded gap) ...
  add_smoke_test(paper_claims tool_sweep --golden=fig10_vm_cost --paper
    --threads=2 --out=${CMAKE_BINARY_DIR}/artifacts/fig10_vm_cost_paper)
  # ... and a claim that cannot hold must fail the run with exit 1.
  add_exit_test(paper_claims_miss 1 "MISS" tool_sweep
    --profile=${PROJECT_SOURCE_DIR}/tests/data/paper_miss.json --paper
    --threads=1 --out=${CMAKE_BINARY_DIR}/artifacts/paper_miss)
  # Usage errors print `error: <why>` and exit 2 instead of aborting.
  add_exit_test(usage_error_frozen_flag 2
    "error: --hours conflicts with --golden" tool_sweep
    --golden=ablation_strategies --hours=48)
  add_exit_test(usage_error_grid 2 "error: .*bogus" tool_sweep
    --grid bogus=1)
  add_exit_test(usage_error_bad_value 2 "error: --hours=abc is not a number"
    tool_sweep --hours=abc)
  add_exit_test(usage_error_fuzz 2 "error: --runs must be >= 1" tool_fuzz
    --runs=0)
endif()

# The sweep engine's contract tests — thread-count determinism, the
# scenario-catalog round-trip, and the parameter-applier registry — also
# gate the smoke tier, so the fast path (scripts/verify.sh --smoke, CI's
# smoke step) cannot pass with a nondeterministic or unconstructible sweep.
if(TARGET sweep_test)
  add_smoke_test(sweep_determinism sweep_test
    --gtest_filter=SweepRunner.*:ScenarioCatalog.*:ParamGrid.*)
endif()

# The analytic ablations (their sweep halves are the presets above).
if(CLOUDMEDIA_BUILD_BENCH)
  add_smoke_test(ablation_hetero bench_ablation_hetero)
  add_smoke_test(ablation_p2p_cap bench_ablation_p2p_cap)
  add_smoke_test(ablation_prediction bench_ablation_prediction --days=1
    --seed=42)
  add_exit_test(usage_error_bench 2 "error: --days=x is not an integer"
    bench_ablation_prediction --days=x)
  # Streaming results-store gate at smoke scale (the full ~10k-cell grid
  # runs in a dedicated CI step): flat streaming RSS + buffered separation.
  add_smoke_test(store_bench bench_store_smoke --cells=3072
    --out=${CMAKE_BINARY_DIR}/artifacts/BENCH_store_smoke.json
    --store-out=${CMAKE_BINARY_DIR}/artifacts/store_smoke)
endif()

# Cohort/discrete engine equivalence gates the smoke tier too: engine=auto
# below the population threshold must replay the discrete engine bit for
# bit, or every committed golden is at risk.
if(TARGET cohort_test)
  add_smoke_test(cohort_equivalence cohort_test
    --gtest_filter=CohortEquivalence.*:EngineKnob.*)
endif()
