#!/usr/bin/env bash
# Runs every bench_* binary with --json and collects the BENCH_<name>.json
# files at the repository root (the binaries write them into their CWD).
# Human-readable output goes to <name>.out next to the JSON.
#
# Usage: scripts/bench_all.sh [build-dir] [out-dir]
#
# Compare a fresh run against the committed baselines with
#   scripts/check_baselines.py --fresh <out-dir>
# Solution fields (cost, closed, proved, runs, match, bounds) must be
# bit-identical across commits and thread counts; only *_ms / seconds /
# counters may move.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
OUT="${2:-.}"

if [ ! -d "$BUILD/bench" ]; then
    echo "error: $BUILD/bench not found — build first:" >&2
    echo "  cmake -B $BUILD -S . -DCMAKE_BUILD_TYPE=Release && cmake --build $BUILD" >&2
    exit 1
fi

mkdir -p "$OUT"
OUT="$(cd "$OUT" && pwd)"
BENCH_DIR="$(cd "$BUILD/bench" && pwd)"

for bin in "$BENCH_DIR"/bench_*; do
    [ -x "$bin" ] || continue
    name="$(basename "$bin")"
    name="${name#bench_}"
    echo "== $name =="
    (cd "$OUT" && "$bin" --json > "$name.out" 2>&1) \
        || { echo "FAILED: $name (see $OUT/$name.out)"; exit 1; }
done

echo
echo "JSON results:"
ls -1 "$OUT"/BENCH_*.json
