#!/usr/bin/env bash
# check.sh: build the full tree under AddressSanitizer+UBSan and run the
# test suite, then again under standalone UBSan with
# -fno-sanitize-recover (asan's combined pass recovers and keeps going;
# this one traps, so any UB is a hard failure). The standalone pass also
# adds float-cast-overflow, which GCC's -fsanitize=undefined leaves out (a
# NaN, infinite or out-of-range double converted to an integer), and
# builds without NDEBUG, so it is the pass that runs every SOP_DCHECK.
# Then it runs the concurrency-heavy suites (fault injection, crash
# recovery, the serving and scale-out planes, and RunLanes: the SOP
# detector's point lanes and the partition lanes every multi-attribute
# and grouped-sop run takes, with SOP, MCOD and mcod-grid children)
# under ThreadSanitizer, then builds and runs everything again
# with the observability layer compiled out (-DSOP_NO_OBS) to keep the
# no-op macro expansions honest. Catches the memory bugs the release build
# hides (RunLanes' helper pool and mcod-grid's index in particular) and
# the races the server's ingest queue and the front's per-connection
# threads could hide.
#
# The asan pass also stretches the randomized fuzz loops — the checkpoint
# fuzz in recovery_test, the wire-frame fuzz in protocol_test, and the
# workload-churn fuzz in churn_fuzz_test — to ~2s each (SOP_FUZZ_MS); the
# churn fuzz additionally runs under tsan. Fuzz seeds are randomized per
# run and printed by the tests, so a failing run can be replayed exactly
# with SOP_FUZZ_SEED=<seed> tools/check.sh.
#
# Every cmake configure is checked explicitly so a broken preset or
# missing dependency fails the run immediately with a clear message,
# instead of surfacing later as a confusing build or ctest error.
#
# Usage: tools/check.sh [extra ctest args...]
set -euo pipefail

cd "$(dirname "$0")/.."

export SOP_FUZZ_MS="${SOP_FUZZ_MS:-2000}"

configure() {
  local preset="$1"
  cmake --preset "$preset" || {
    echo "check.sh: cmake configure failed for preset '$preset'" >&2
    exit 1
  }
}

configure asan
cmake --build --preset asan -j"$(nproc)"
ctest --preset asan -j"$(nproc)" "$@"

configure ubsan
cmake --build --preset ubsan -j"$(nproc)"
ctest --preset ubsan -j"$(nproc)" "$@"

configure tsan
cmake --build --preset tsan -j"$(nproc)"
ctest --preset tsan -j"$(nproc)" -R 'fault_test|recovery_test|engine_test|stream_test|protocol_test|net_test|ha_test|churn_fuzz_test|kernel_test|partition_test|cluster_test|sim_test|sop_detector_test|evidence_test|equivalence_test|ksky_test|multi_attribute_test|partitioned_test' "$@"

configure noobs
cmake --build --preset noobs -j"$(nproc)"
ctest --preset noobs -j"$(nproc)" "$@"
