#!/usr/bin/env bash
# Tier-1 verification: full build + test suite, a ThreadSanitizer pass over
# the concurrency-bearing tests (the parallel_for scheduler, parallel
# multi-start SCG, the decomposition-parallel exact solver's root tasks
# through that scheduler, cancellation under memory pressure,
# the portfolio and RWLS fan-out, per-instance memory budgets in a parallel
# map of the pipeline), then the chaos lane (scripts/chaos.sh): everything
# re-run under injected OOM schedules and a tight memory cap, asserting
# graceful degradation.
#
# Usage: scripts/tier1.sh [build-dir] [tsan-build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
TSAN_BUILD="${2:-build-tsan}"
JOBS="${JOBS:-$(nproc)}"

echo "=== tier 1: regular build + full ctest ==="
cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD" -j "$JOBS"
ctest --test-dir "$BUILD" --output-on-failure -j "$JOBS"

echo
echo "=== tier 1: ThreadSanitizer pass (parallel tests) ==="
cmake -B "$TSAN_BUILD" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DUCP_SANITIZE=thread
cmake --build "$TSAN_BUILD" -j "$JOBS" \
      --target test_thread_pool test_parallel_scg test_bnb_parallel \
               test_cancel_pressure test_portfolio test_mem_budget test_rwls
UCP_THREADS=4 ctest --test-dir "$TSAN_BUILD" --output-on-failure \
      -R 'test_thread_pool|test_parallel_scg|test_bnb_parallel|test_cancel_pressure|test_portfolio|test_mem_budget|test_rwls'

echo
echo "=== tier 1: chaos lane (injected OOM + tight caps) ==="
scripts/chaos.sh "$BUILD"

echo
echo "tier 1 OK"
