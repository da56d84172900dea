# Benchmark binaries: one per paper table/figure plus substrate
# microbenchmarks. Included from the top-level CMakeLists (not via
# add_subdirectory) so that build/bench/ contains only the executables and
# `for b in build/bench/*; do $b; done` runs the whole suite cleanly.
function(asf_add_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cc)
  target_link_libraries(${name} PRIVATE asf_harness)
  set_target_properties(${name} PROPERTIES RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
  # Smoke test: a --quick run must succeed and emit a parseable --json report
  # containing the required keys, host cost header included (validated by
  # tools/json_check).
  add_test(NAME bench_smoke_${name}
           COMMAND ${name} --quick --json ${CMAKE_BINARY_DIR}/bench/${name}.smoke.json)
  add_test(NAME bench_smoke_${name}_json
           COMMAND json_check ${CMAKE_BINARY_DIR}/bench/${name}.smoke.json
                   benchmark quick seed tables host.peak_rss_mb host.wall_s)
  set_tests_properties(bench_smoke_${name}_json PROPERTIES
                       DEPENDS bench_smoke_${name})
endfunction()

asf_add_bench(fig3_sim_accuracy)
asf_add_bench(fig4_stamp_scalability)
asf_add_bench(fig5_intset_scalability)
asf_add_bench(fig6_abort_reasons)
asf_add_bench(fig7_capacity)
asf_add_bench(fig8_early_release)
asf_add_bench(fig9_table1_overheads)
asf_add_bench(ablation_design_choices)
asf_add_bench(stress_faults)
asf_add_bench(litmus_progress)
asf_add_bench(perf_selfcheck)

# Progress-race gate (docs/ROBUSTNESS.md): the smoke run already hard-fails
# unless no-backoff starves and exp-backoff keeps every core committing;
# label it into `ctest -L litmus` alongside the semantics tests.
set_tests_properties(bench_smoke_litmus_progress bench_smoke_litmus_progress_json
                     PROPERTIES LABELS "litmus;stress")

# Litmus semantics smoke: enumerate every test on every runtime (exit 0 iff
# all reachable outcomes are within the allowed sets). Builds with
# ASF_SANITIZE=ON run this under ASan/UBSan like every other target.
add_test(NAME litmus_explore_all COMMAND asf_explore --litmus all)
set_tests_properties(litmus_explore_all PROPERTIES LABELS "litmus")
# The same matrix on the ASF1 static-set variant: the dirty-read allowed set
# widens there (every multi-line writer demotes to its unisolated fallback;
# see FallbackWeaklyIsolated in src/litmus/tests.cc and docs/ROBUSTNESS.md).
add_test(NAME litmus_explore_asf1 COMMAND asf_explore --litmus all --variant asf1)
set_tests_properties(litmus_explore_asf1 PROPERTIES LABELS "litmus")
# Mutation check: with requester-wins deliberately broken for plain loads the
# dirty-read litmus MUST fail (exit 1), or the harness has lost its teeth.
add_test(NAME litmus_mutation_check
         COMMAND asf_explore --litmus dirty-read --runtime asf --break-rw 1)
set_tests_properties(litmus_mutation_check PROPERTIES WILL_FAIL TRUE LABELS "litmus")

# The self-benchmark smoke doubles as the sweep-determinism gate (serial and
# parallel passes must produce identical digests); `ctest -L perf` runs just
# the perf anchors. Its parallel pass also puts it in the `host_threads` tier
# (the TSan tier in tools/run_tiers.sh) beside sweep_test and frame_pool_test.
set_tests_properties(bench_smoke_perf_selfcheck PROPERTIES LABELS "perf;host_threads")
set_tests_properties(bench_smoke_perf_selfcheck_json PROPERTIES LABELS "perf")

# Bit-identity gate for host-side fast paths: the full-mode digests must match
# the checked-in reference report exactly (regenerate BENCH_sim_throughput.json
# deliberately when simulated behavior is meant to change).
add_test(NAME perf_selfcheck_baseline
         COMMAND perf_selfcheck --jobs 1
                 --baseline ${CMAKE_SOURCE_DIR}/BENCH_sim_throughput.json)
set_tests_properties(perf_selfcheck_baseline PROPERTIES LABELS "perf")

# Gate-equivalence smoke: the fig5 slice must produce identical digests with
# the conflict directory's active-speculator gate force-disabled
# (asf::SetSpeculatorGateDisabled) — the gated fast path may never change
# simulated results.
add_test(NAME perf_smoke
         COMMAND perf_selfcheck --quick --gate-check)
set_tests_properties(perf_smoke PROPERTIES LABELS "perf")

# bench_diff sanity: a report diffed against itself reports no regressions,
# and its --json comparison report parses with the documented top-level keys.
add_test(NAME bench_diff_selfcheck
         COMMAND bench_diff ${CMAKE_BINARY_DIR}/bench/perf_selfcheck.smoke.json
                 ${CMAKE_BINARY_DIR}/bench/perf_selfcheck.smoke.json
                 --json ${CMAKE_BINARY_DIR}/bench/bench_diff.selfcheck.json)
set_tests_properties(bench_diff_selfcheck PROPERTIES
                     DEPENDS bench_smoke_perf_selfcheck LABELS "perf")
add_test(NAME bench_diff_selfcheck_json
         COMMAND json_check ${CMAKE_BINARY_DIR}/bench/bench_diff.selfcheck.json
                 benchmark threshold deltas progress_deltas summary)
set_tests_properties(bench_diff_selfcheck_json PROPERTIES
                     DEPENDS bench_diff_selfcheck LABELS "perf")

# Fault-injection stress targets (docs/ROBUSTNESS.md): one per built-in
# schedule on all four policy-driven runtimes, plus a determinism check that
# runs every configuration twice and compares the replay digests. All carry
# the "stress" label (`ctest -L stress`).
foreach(sched interrupt-heavy capacity-heavy adversarial-contention)
  add_test(NAME stress_faults_${sched}
           COMMAND stress_faults --quick --schedule ${sched})
  set_tests_properties(stress_faults_${sched} PROPERTIES LABELS "stress")
endforeach()
add_test(NAME stress_faults_replay
         COMMAND stress_faults --quick --verify-replay)
set_tests_properties(stress_faults_replay PROPERTIES LABELS "stress")

add_executable(micro_substrate ${CMAKE_SOURCE_DIR}/bench/micro_substrate.cc)
target_link_libraries(micro_substrate PRIVATE asf_harness benchmark::benchmark)
set_target_properties(micro_substrate PROPERTIES RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
# Runs every micro-benchmark once, briefly, so none of them rots between the
# changes that cite them. Timings from this run are not meaningful.
add_test(NAME micro_substrate_smoke COMMAND micro_substrate --benchmark_min_time=0.001)
set_tests_properties(micro_substrate_smoke PROPERTIES LABELS "perf")
