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
# unless no-backoff starves and exp-backoff/karma/greedy keep every core
# committing; label it into `ctest -L litmus` alongside the semantics tests.
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
# the perf anchors.
set_tests_properties(bench_smoke_perf_selfcheck bench_smoke_perf_selfcheck_json
                     PROPERTIES LABELS "perf")

# Bit-identity gate for host-side fast paths: the full-mode digests must match
# the checked-in reference report exactly (regenerate BENCH_sim_throughput.json
# deliberately when simulated behavior is meant to change).
add_test(NAME perf_selfcheck_baseline
         COMMAND perf_selfcheck --jobs 1
                 --baseline ${CMAKE_SOURCE_DIR}/BENCH_sim_throughput.json)
set_tests_properties(perf_selfcheck_baseline PROPERTIES LABELS "perf")

# Gate-equivalence smoke: the fig5 slice must produce identical digests with
# the conflict directory's active-speculator gate force-disabled (same toggle
# as the ASF_NO_SPECULATOR_GATE env var) — the gated fast path may never
# change simulated results.
add_test(NAME perf_smoke
         COMMAND perf_selfcheck --quick --gate-check)
set_tests_properties(perf_smoke PROPERTIES LABELS "perf")

# Bounded-slack tier (`ctest -L slack`, docs/PERFORMANCE.md): the quantum
# execution mode must stay bit-identical to the exact event loop.
# slack_check_smoke replays the whole --quick grid at a 256-cycle quantum and
# hard-fails on any digest mismatch; slack_verify_contended replays a
# contention-heavy list workload (cross-core aborts, serialize policy — the
# worst case for the window protocol) exact-vs-slack through asf_explore.
add_test(NAME slack_check_smoke COMMAND perf_selfcheck --quick --slack-check)
set_tests_properties(slack_check_smoke PROPERTIES LABELS "slack;perf")
add_test(NAME slack_verify_contended
         COMMAND asf_explore --workload intset --structure list --range 64
                 --update 100 --threads 8 --ops 80 --policy serialize
                 --slack 4096 --slack-verify 1)
set_tests_properties(slack_verify_contended PROPERTIES LABELS "slack")
# Mutation check: with the per-quantum dirty-line journal disabled
# (ASF_SLACK_NO_JOURNAL=1) the same verify MUST diverge (exit 1) — a slack
# mode that stays bit-identical without its tear/conflict journal means the
# journal is dead code and the equivalence gate has lost its teeth.
add_test(NAME slack_mutation_check
         COMMAND asf_explore --workload intset --structure list --range 64
                 --update 100 --threads 8 --ops 80 --policy serialize
                 --slack 4096 --slack-verify 1)
set_tests_properties(slack_mutation_check PROPERTIES
                     ENVIRONMENT "ASF_SLACK_NO_JOURNAL=1"
                     WILL_FAIL TRUE LABELS "slack")

# Host-parallel slack tier (`ctest -L slack_par`; subset of `-L slack`, so
# the TSan build covers it too): planning windows on a worker pool must stay
# bit-identical to both the exact loop and the serial slack backend.
# slack_par_check_smoke replays the --quick grid at --slack-jobs {1,2,4} and
# hard-fails on any digest mismatch, printing the worker-occupancy table;
# slack_par_verify sweeps the contended asf_explore config across thread
# counts x fan-outs.
add_test(NAME slack_par_check_smoke
         COMMAND perf_selfcheck --quick --slack 256 --slack-jobs 2 --slack-par-check)
set_tests_properties(slack_par_check_smoke PROPERTIES LABELS "slack_par;slack;perf")
add_test(NAME slack_par_verify
         COMMAND asf_explore --workload intset --structure list --range 64
                 --update 100 --threads 8 --ops 80 --policy serialize
                 --slack 4096 --slack-jobs 4 --slack-verify 1)
set_tests_properties(slack_par_verify PROPERTIES LABELS "slack_par;slack")
# Mutation check: with the cross-partition horizon dropped
# (ASF_SLACK_NO_BARRIER=1) the same verify MUST diverge (exit 1). The sweep
# includes --slack-jobs >= 2 because the mutation is deliberately a no-op on
# the jobs=1 scan backend (which never consults partitions) — a divergence
# there would mean the serial path regressed, not that the barrier matters.
add_test(NAME slack_par_mutation_check
         COMMAND asf_explore --workload intset --structure list --range 64
                 --update 100 --threads 8 --ops 80 --policy serialize
                 --slack 4096 --slack-jobs 4 --slack-verify 1)
set_tests_properties(slack_par_mutation_check PROPERTIES
                     ENVIRONMENT "ASF_SLACK_NO_BARRIER=1"
                     WILL_FAIL TRUE LABELS "slack_par;slack")

# Host-parallel window execution tier (`ctest -L slack_exec`; subset of
# `-L slack`, so the TSan build covers it too): resuming footprint-disjoint
# windows concurrently on the worker pool must stay bit-identical to the
# serial backends. slack_exec_check_smoke replays the --quick grid at
# --slack-exec-jobs {1,2,4} with extended observable digests (latency
# histograms + heatmap fingerprints) and prints the execution-occupancy
# table; slack_exec_verify sweeps the contended asf_explore config with the
# profitability gate disabled (ASF_SLACK_EXEC_EAGER=1) so every formable
# epoch actually co-runs.
add_test(NAME slack_exec_check_smoke
         COMMAND perf_selfcheck --quick --slack 256 --slack-exec-check)
set_tests_properties(slack_exec_check_smoke PROPERTIES
                     LABELS "slack_exec;slack;perf")
add_test(NAME slack_exec_verify
         COMMAND asf_explore --workload intset --structure list --range 64
                 --update 100 --threads 8 --ops 80 --runtime stm
                 --policy serialize --slack 4096 --slack-exec-jobs 4
                 --slack-verify 1)
set_tests_properties(slack_exec_verify PROPERTIES
                     ENVIRONMENT "ASF_SLACK_EXEC_EAGER=1"
                     LABELS "slack_exec;slack")
# Mutation check: with footprint admission, the first-touch license, and the
# wave ordering all dropped (ASF_SLACK_EXEC_NO_ADMISSION=1) the same verify
# MUST diverge or crash (non-zero exit) — co-execution that stays
# bit-identical without its admission machinery would mean the disjointness
# gate is dead code. The software-TM runtime is the load-bearing choice: its
# transactions are plain loads/stores of shared lines (list nodes, the lock
# table, the global clock), so unordered windows commit stale L1 hits whose
# invalidating writes replay earlier in simulated time. The hardware-ASF
# runtime would mask the mutation — active regions never co-run at all
# (AdmitParallelWindow refuses them), independent of the dropped checks.
add_test(NAME slack_exec_mutation_check
         COMMAND asf_explore --workload intset --structure list --range 64
                 --update 100 --threads 8 --ops 80 --runtime stm
                 --policy serialize --slack 4096 --slack-exec-jobs 4
                 --slack-verify 1)
set_tests_properties(slack_exec_mutation_check PROPERTIES
                     ENVIRONMENT "ASF_SLACK_EXEC_NO_ADMISSION=1"
                     WILL_FAIL TRUE LABELS "slack_exec;slack")

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
                 benchmark threshold modes deltas progress_deltas summary)
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
