#!/usr/bin/env python3
"""Compare fresh BENCH_*.json runs against the committed baselines.

Solution fields (cost, proved, closed, bounds, match, ...) must be
bit-identical across commits, thread counts and engine rewrites — a drift
means the optimiser's *answers* changed, not just its speed. Timing fields
and performance counters are expected to move and are ignored.

The anytime "status" field is handled separately: it is excluded from the
drift comparison (older baselines predate it) but every fresh record that
carries one must say "ok" — a budget trip during an ungoverned baseline run
is a bug, not a timing artefact.

Usage: scripts/check_baselines.py [--baselines DIR] [--fresh DIR]

Exit status is non-zero when any solution field drifted, a baseline has no
fresh counterpart, or either file repeats an instance key (a duplicate would
silently shadow one of its records).
"""

import argparse
import json
import sys
from pathlib import Path

# Fields that measure speed, not answers. Everything else in a record must
# match the baseline exactly. Any field ending in `_ms` or `_seconds` is
# timing by convention (wall_ms, bitset_ms, the --min-of wall_min_ms /
# wall_median_ms extras, ...), as are the throughput and repeat-count fields
# the --min-of runs append — so a fresh run taken with --min-of=N still
# compares clean against a baseline recorded without it.
TIMING_FIELDS = {
    "speedup",
    "seconds",
    "repeats",  # --min-of repetition count, varies per invocation
    "throughput_per_s",
    "counters",  # perf counters (cache hits, GC runs, ...) move freely
    "status",  # checked separately: fresh runs must report "ok"
}


def is_timing_field(key: str) -> bool:
    return (
        key in TIMING_FIELDS
        or key.endswith("_ms")
        or key.endswith("_seconds")
    )


def solution_view(record: dict) -> dict:
    return {k: v for k, v in record.items() if not is_timing_field(k)}


def records_by_instance(doc: dict, label: str, drifts: list[str]) -> dict:
    """Indexes a file's records by instance key, reporting duplicates."""
    records = {}
    for r in doc.get("records", []):
        if r["instance"] in records:
            drifts.append(f"{r['instance']}: duplicate instance key in {label}")
        records[r["instance"]] = r
    return records


def compare_file(baseline_path: Path, fresh_path: Path) -> list[str]:
    """Returns a list of human-readable drift descriptions (empty = clean)."""
    baseline = json.loads(baseline_path.read_text())
    fresh = json.loads(fresh_path.read_text())

    if "benchmarks" in baseline:
        # google-benchmark output (micro suites): timing only, nothing to pin.
        return []

    drifts = []
    base_records = records_by_instance(baseline, "baseline", drifts)
    fresh_records = records_by_instance(fresh, "fresh run", drifts)

    for instance, base_rec in base_records.items():
        fresh_rec = fresh_records.get(instance)
        if fresh_rec is None:
            drifts.append(f"{instance}: missing from fresh run")
            continue
        want, got = solution_view(base_rec), solution_view(fresh_rec)
        for key in sorted(set(want) | set(got)):
            if want.get(key) != got.get(key):
                drifts.append(
                    f"{instance}.{key}: baseline={want.get(key)!r} "
                    f"fresh={got.get(key)!r}"
                )
        status = fresh_rec.get("status", "ok")
        if status != "ok":
            drifts.append(
                f"{instance}.status: fresh run reports {status!r} "
                f"(budget tripped during an ungoverned baseline run)"
            )
    return drifts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baselines", default="bench/baselines", type=Path)
    parser.add_argument("--fresh", default=".", type=Path)
    args = parser.parse_args()

    baseline_files = sorted(args.baselines.glob("BENCH_*.json"))
    if not baseline_files:
        print(f"error: no baselines in {args.baselines}", file=sys.stderr)
        return 2

    failed = False
    for baseline_path in baseline_files:
        fresh_path = args.fresh / baseline_path.name
        if not fresh_path.exists():
            print(f"MISSING  {baseline_path.name}: no fresh run at {fresh_path}")
            failed = True
            continue
        drifts = compare_file(baseline_path, fresh_path)
        if drifts:
            failed = True
            print(f"DRIFT    {baseline_path.name}:")
            for d in drifts:
                print(f"         {d}")
        else:
            print(f"OK       {baseline_path.name}")

    if failed:
        print("\nsolution-field drift detected — the solver's answers changed.")
        print("If intentional, regenerate: scripts/bench_all.sh build bench/baselines")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
