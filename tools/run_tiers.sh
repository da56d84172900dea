#!/usr/bin/env bash
# Runs the repo's three verification tiers with one command and prints a
# summary table:
#
#   default   cmake -B build            + full ctest
#   asan      cmake -B build-san  -DASF_SANITIZE=address + full ctest
#   tsan      cmake -B build-tsan -DASF_SANITIZE=thread  + ctest -L host_threads
#
# The TSan tier runs only the `host_threads` label on purpose: the simulator
# itself is single-host-threaded (one Machine per host thread), so the only
# code that runs host threads concurrently is the sweep fan-out (sweep_test),
# the thread-local coroutine frame pool and a frame handed from one thread to
# another (frame_pool_test), and perf_selfcheck's serial-vs-`--jobs` smoke run
# (bench_smoke_perf_selfcheck), whose two passes must produce identical
# digests. The full suite under TSan's ~10x slowdown would dominate the wall
# clock without adding race coverage.
#
# Usage: tools/run_tiers.sh [--quick] [--jobs N] [tier...]
#   --quick    skip tiers whose build directory does not exist yet
#              (reconfiguring a sanitizer tree from scratch is the slow part)
#   --jobs N   build/test parallelism (default: nproc)
#   tier...    subset of {default asan tsan} (default: all three, in order)
#
# Exit status: 0 iff every selected tier built and passed its ctest run.
set -u

cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 2)
quick=0
tiers=()
while [ $# -gt 0 ]; do
  case "$1" in
    --quick) quick=1 ;;
    --jobs)
      shift
      jobs="${1:?--jobs requires an operand}"
      ;;
    default|asan|tsan) tiers+=("$1") ;;
    *)
      echo "usage: tools/run_tiers.sh [--quick] [--jobs N] [default|asan|tsan ...]" >&2
      exit 2
      ;;
  esac
  shift
done
[ ${#tiers[@]} -eq 0 ] && tiers=(default asan tsan)

# tier name -> (build dir, cmake cache args, ctest args)
tier_dir() {
  case "$1" in
    default) echo build ;;
    asan) echo build-san ;;
    tsan) echo build-tsan ;;
  esac
}
tier_cmake_args() {
  case "$1" in
    default) echo "" ;;
    asan) echo "-DASF_SANITIZE=address" ;;
    tsan) echo "-DASF_SANITIZE=thread" ;;
  esac
}
tier_ctest_args() {
  case "$1" in
    tsan) echo "-L host_threads" ;;
    *) echo "" ;;
  esac
}

declare -A status wall passed failed total
overall=0
for tier in "${tiers[@]}"; do
  dir=$(tier_dir "$tier")
  if [ "$quick" -eq 1 ] && [ ! -d "$dir" ]; then
    status[$tier]=skipped
    wall[$tier]=-
    passed[$tier]=-
    failed[$tier]=-
    total[$tier]=-
    continue
  fi
  echo "=== tier $tier ($dir) ==="
  t0=$SECONDS
  # shellcheck disable=SC2086  # cache args are single tokens by construction
  if ! cmake -B "$dir" -S . $(tier_cmake_args "$tier") >"$dir.configure.log" 2>&1; then
    echo "configure FAILED (see $dir.configure.log)"
    status[$tier]=configure-failed
    wall[$tier]=$((SECONDS - t0))s
    passed[$tier]=0; failed[$tier]=0; total[$tier]=0
    overall=1
    continue
  fi
  if ! cmake --build "$dir" -j "$jobs" >"$dir.build.log" 2>&1; then
    echo "build FAILED (see $dir.build.log)"
    status[$tier]=build-failed
    wall[$tier]=$((SECONDS - t0))s
    passed[$tier]=0; failed[$tier]=0; total[$tier]=0
    overall=1
    continue
  fi
  # shellcheck disable=SC2086
  (cd "$dir" && ctest --output-on-failure -j "$jobs" $(tier_ctest_args "$tier")) \
    | tee "$dir.ctest.log" | tail -n 4
  rc=${PIPESTATUS[0]}
  wall[$tier]=$((SECONDS - t0))s
  # "100% tests passed, 0 tests failed out of 423"
  summary=$(grep -Eo '[0-9]+ tests failed out of [0-9]+' "$dir.ctest.log" | tail -n 1)
  failed[$tier]=${summary%% *}
  total[$tier]=${summary##* }
  passed[$tier]=$(( ${total[$tier]:-0} - ${failed[$tier]:-0} ))
  if [ "$rc" -eq 0 ]; then
    status[$tier]=ok
  else
    status[$tier]=FAILED
    overall=1
  fi
done

echo
echo "tier      status            passed  failed  total   wall"
echo "--------  ----------------  ------  ------  ------  ------"
for tier in "${tiers[@]}"; do
  printf '%-8s  %-16s  %6s  %6s  %6s  %6s\n' \
    "$tier" "${status[$tier]}" "${passed[$tier]}" "${failed[$tier]}" \
    "${total[$tier]}" "${wall[$tier]}"
done
exit "$overall"
