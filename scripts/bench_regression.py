#!/usr/bin/env python3
"""Bench-row regression gate for the CI bench-smoke artifact.

Diffs two directories of JSON Lines bench output (see bench/bench_json.h)
and fails when a throughput-like metric on a matching row drops by more than
the threshold (default 15%).

Row matching: rows are keyed by their "bench" and "name" tags plus every
string-valued field and every field in ID_FIELDS (configuration identity:
threads, shards, k, packet_bytes, ...). Some benches emit several rows under
one key; a key's rows pair up in emission order, so every row is compared.
Metric fields (THROUGHPUT_FIELDS) are higher-is-better rates; everything
else is ignored. Rows present on only one side are reported but do not fail
the gate -- benches grow and retire rows across PRs, and the gate's job is
catching regressions on work that still exists.

With --exact the script instead checks that a change is bit-identical: it
matches rows the same way and compares every field except the
wall-clock-derived ones listed in WALL_CLOCK_FIELDS and wall_clock_field().
Any other difference, and any row present on one side only, fails.

Usage:
  bench_regression.py --base DIR --current DIR [--threshold 0.15]
  bench_regression.py --base DIR --current DIR --exact
  bench_regression.py --self-test
"""

import argparse
import glob
import json
import os
import sys

# Higher-is-better rates worth gating. Figure-fidelity numbers (recovery
# rates, CDF points) are intentionally excluded: they are results, and result
# changes are what code review is for; this gate is about speed.
THROUGHPUT_FIELDS = (
    "mbps",
    "kpps",
    "mpps",
    "mev_per_sec",
    "events_per_sec",
    "mops_per_sec",
    "sessions_per_sec",
)

# Lower-is-better cost metrics. Gated on the RISE instead of the drop, with
# a small absolute floor so a base of (near-)zero -- the pooled steady state
# reports allocs_per_packet ~= 0 -- doesn't turn measurement noise into a
# division-blowup failure.
COST_FIELDS = ("allocs_per_packet",)
COST_ABS_FLOOR = 0.05

# Numeric fields that identify a row's configuration rather than measure it.
ID_FIELDS = (
    "threads",
    "shards",
    "k",
    "r",
    "packet_bytes",
    "payload",
    "paths",
    "packets",
    "live",
)


# Fields --exact does not compare: they are read off the wall clock or the
# process's peak RSS, so two runs of one binary already differ in them.
# Everything else a bench prints comes out of the simulation and must
# repeat exactly.
WALL_CLOCK_FIELDS = THROUGHPUT_FIELDS + ("fraction_of_kernel", "peak_rss_mb")
WALL_CLOCK_PREFIXES = ("wall", "speedup", "rss_")
WALL_CLOCK_SUFFIXES = ("_per_sec",)


def wall_clock_field(row, field):
    if field in WALL_CLOCK_FIELDS:
        return True
    if field.startswith(WALL_CLOCK_PREFIXES) or field.endswith(WALL_CLOCK_SUFFIXES):
        return True
    # bench_churn's leak canary: the 4x soak's peak RSS over the 1x soak's.
    return row.get("name") == "churn_rss_scaling" and field == "ratio"


def row_key(row):
    return tuple((k, row[k]) for k in sorted(row) if isinstance(row[k], str) or k in ID_FIELDS)


def read_rows(directory):
    """Yields every row of every .jsonl file under `directory`, in order."""
    for path in sorted(glob.glob(os.path.join(directory, "*.jsonl"))):
        with open(path) as f:
            for line in f:
                line = line.strip()
                if line:
                    yield json.loads(line)


def load_row_lists(directory):
    """Every row of each key, in emission order (benches repeat some keys)."""
    rows = {}
    for row in read_rows(directory):
        rows.setdefault(row_key(row), []).append(row)
    return rows


def paired_rows(base_rows, current_rows):
    """Yields (key, base, current) for every row of two load_row_lists maps,
    pairing a key's rows in emission order; a row without a partner comes
    with None on the other side."""
    for key in sorted(set(base_rows) | set(current_rows)):
        base = base_rows.get(key, [])
        current = current_rows.get(key, [])
        for i in range(max(len(base), len(current))):
            yield (key, base[i] if i < len(base) else None,
                   current[i] if i < len(current) else None)


def diff(base_rows, current_rows, threshold):
    """Returns (regressions, checked, unmatched) over two load_row_lists maps."""
    regressions = []
    checked = 0
    unmatched = 0
    for key, base, current in paired_rows(base_rows, current_rows):
        if base is None or current is None:
            unmatched += 1
            side = "current" if base is None else "base"
            print(f"[unmatched] {side}-only row: {dict(key)}")
            continue
        for field in THROUGHPUT_FIELDS:
            if field not in base or field not in current:
                continue
            b, c = float(base[field]), float(current[field])
            if b <= 0:
                continue
            checked += 1
            drop = (b - c) / b
            if drop > threshold:
                regressions.append((dict(key), field, b, c, drop))
        for field in COST_FIELDS:
            if field not in base or field not in current:
                continue
            b, c = float(base[field]), float(current[field])
            checked += 1
            allowed = max(b * (1.0 + threshold), b + COST_ABS_FLOOR)
            if c > allowed:
                rise = (c - b) / b if b > 0 else float("inf")
                regressions.append((dict(key), field, b, c, rise))
    return regressions, checked, unmatched


def exact_diff(base_rows, current_rows):
    """Returns (differences, compared) over two load_row_lists maps: each
    (key, field, base, current) outside the wall-clock fields that differs.
    A row present on one side only is one difference with field "<row>"."""
    diffs = []
    compared = 0
    for key, b, c in paired_rows(base_rows, current_rows):
        if b is None or c is None:
            diffs.append((dict(key), "<row>", b is not None, c is not None))
            continue
        for field in sorted(set(b) | set(c)):
            if wall_clock_field(b, field):
                continue
            compared += 1
            if b.get(field) != c.get(field):
                diffs.append((dict(key), field, b.get(field), c.get(field)))
    return diffs, compared


def run_exact(base_dir, current_dir):
    base_rows = load_row_lists(base_dir)
    current_rows = load_row_lists(current_dir)
    if not base_rows:
        print(f"No base rows under {base_dir}; nothing to compare.")
        return 1
    diffs, compared = exact_diff(base_rows, current_rows)
    print(
        f"{compared} field(s) compared across "
        f"{sum(len(v) for v in base_rows.values())} base row(s)."
    )
    for key, field, b, c in diffs:
        if field == "<row>":
            side = "base" if b else "current"
            print(f"[DIFF] {key}: row present in {side} only")
        else:
            print(f"[DIFF] {key}: {field} {b!r} -> {c!r}")
    if diffs:
        print(f"FAIL: {len(diffs)} difference(s) outside the wall-clock fields.")
        return 1
    print("OK: every row matches outside the wall-clock fields.")
    return 0


def run_gate(base_dir, current_dir, threshold):
    base_rows = load_row_lists(base_dir)
    current_rows = load_row_lists(current_dir)
    if not base_rows:
        print(f"No base rows under {base_dir}; nothing to gate.")
        return 0
    regressions, checked, unmatched = diff(base_rows, current_rows, threshold)
    print(
        f"{checked} metric(s) compared across "
        f"{sum(len(v) for v in base_rows.values())} base row(s); "
        f"{unmatched} unmatched row(s)."
    )
    for key, field, b, c, drop in regressions:
        print(
            f"[REGRESSION] {key}: {field} {b:.4g} -> {c:.4g} "
            f"(-{drop * 100:.1f}% > {threshold * 100:.0f}% threshold)"
        )
    if regressions:
        print(f"FAIL: {len(regressions)} throughput regression(s).")
        return 1
    print("OK: no throughput regressions.")
    return 0


def self_test():
    """Exercises the matcher and the gate on embedded fixtures."""

    def rows(*items):
        out = {}
        for r in items:
            out.setdefault(row_key(r), []).append(r)
        return out

    ok_base = rows({"bench": "x", "name": "a", "threads": 2, "mbps": 100.0})
    ok_cur = rows({"bench": "x", "name": "a", "threads": 2, "mbps": 90.0})
    regs, checked, _ = diff(ok_base, ok_cur, 0.15)
    assert checked == 1 and not regs, "10% drop must pass a 15% gate"

    bad_cur = rows({"bench": "x", "name": "a", "threads": 2, "mbps": 80.0})
    regs, _, _ = diff(ok_base, bad_cur, 0.15)
    assert len(regs) == 1, "20% drop must fail a 15% gate"

    # Different identity (threads) must not match -- no false comparisons.
    other = rows({"bench": "x", "name": "a", "threads": 4, "mbps": 10.0})
    regs, checked, unmatched = diff(ok_base, other, 0.15)
    assert checked == 0 and not regs and unmatched == 2, "identity mismatch must not compare"

    # A retired row (base-only: the bench no longer emits it) is reported as
    # unmatched and never fails the gate.
    retired = rows({"bench": "x", "name": "a", "threads": 2, "mbps": 100.0},
                   {"bench": "x", "name": "gone", "mbps": 100.0})
    regs, checked, unmatched = diff(retired, ok_cur, 0.15)
    assert checked == 1 and not regs and unmatched == 1, "retired rows must not fail"

    # Rows sharing a key pair up in emission order, so a regression in the
    # first of two such rows fails even though the last one holds.
    twin_base = rows({"bench": "x", "name": "a", "mbps": 100.0},
                     {"bench": "x", "name": "a", "mbps": 50.0})
    twin_cur = rows({"bench": "x", "name": "a", "mbps": 70.0},
                    {"bench": "x", "name": "a", "mbps": 50.0})
    regs, checked, unmatched = diff(twin_base, twin_cur, 0.15)
    assert checked == 2 and len(regs) == 1 and unmatched == 0, "every row of a key is gated"

    # Non-throughput fields are ignored even when they shrink.
    fid_base = rows({"bench": "x", "name": "overall", "overall_recovery": 0.9})
    fid_cur = rows({"bench": "x", "name": "overall", "overall_recovery": 0.5})
    regs, checked, _ = diff(fid_base, fid_cur, 0.15)
    assert checked == 0 and not regs, "fidelity fields are not gated"

    # Cost fields gate the RISE: a pooled steady state near zero must accept
    # noise inside the absolute floor but fail on a real pooling regression.
    cost_base = rows({"bench": "churn", "name": "a", "allocs_per_packet": 0.01})
    cost_noise = rows({"bench": "churn", "name": "a", "allocs_per_packet": 0.04})
    regs, checked, _ = diff(cost_base, cost_noise, 0.15)
    assert checked == 1 and not regs, "sub-floor cost noise must pass"

    cost_bad = rows({"bench": "churn", "name": "a", "allocs_per_packet": 2.0})
    regs, _, _ = diff(cost_base, cost_bad, 0.15)
    assert len(regs) == 1, "an allocs-per-packet blowup must fail the gate"

    # A cost field shrinking (pooling improved) never fails.
    cost_better = rows({"bench": "churn", "name": "a", "allocs_per_packet": 0.0})
    regs, _, _ = diff(cost_base, cost_better, 0.15)
    assert not regs, "cost improvements must pass"

    # --exact: a row differing only in a wall-clock field matches; one
    # differing in a simulation result, or missing on one side, does not.
    exact_base = rows({"bench": "x", "name": "a", "wall_sec": 1.0, "sim_events": 100},
                      {"bench": "churn", "name": "churn_rss_scaling", "ratio": 1.0})
    wall_only = rows({"bench": "x", "name": "a", "wall_sec": 2.5, "sim_events": 100},
                     {"bench": "churn", "name": "churn_rss_scaling", "ratio": 1.2})
    diffs, _ = exact_diff(exact_base, wall_only)
    assert not diffs, "wall-clock fields must not be compared"

    events_moved = rows({"bench": "x", "name": "a", "wall_sec": 1.0, "sim_events": 99},
                        {"bench": "churn", "name": "churn_rss_scaling", "ratio": 1.0})
    diffs, _ = exact_diff(exact_base, events_moved)
    assert [d[1] for d in diffs] == ["sim_events"], "a moved result must fail --exact"

    row_gone = rows({"bench": "x", "name": "a", "wall_sec": 1.0, "sim_events": 100})
    diffs, _ = exact_diff(exact_base, row_gone)
    assert [d[1] for d in diffs] == ["<row>"], "a missing row must fail --exact"

    print("self-test OK")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--base", help="directory of base-branch .jsonl rows")
    ap.add_argument("--current", help="directory of this build's .jsonl rows")
    ap.add_argument("--threshold", type=float, default=0.15)
    ap.add_argument(
        "--exact",
        action="store_true",
        help="fail on any difference outside the wall-clock-derived fields",
    )
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not args.base or not args.current:
        ap.error("--base and --current are required (or use --self-test)")
    if args.exact:
        return run_exact(args.base, args.current)
    return run_gate(args.base, args.current, args.threshold)


if __name__ == "__main__":
    sys.exit(main())
