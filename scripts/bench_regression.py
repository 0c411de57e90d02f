#!/usr/bin/env python3
"""Bench-row regression gate for the CI bench-smoke artifact.

Diffs two directories of JSON Lines bench output (see bench/bench_json.h)
and fails when a throughput-like metric on a matching row drops by more than
the threshold (default 15%).

Row matching: rows are keyed by their "bench" and "name" tags plus every
string-valued field and every field in ID_FIELDS (configuration identity:
threads, shards, k, packet_bytes, ...). Metric fields (THROUGHPUT_FIELDS)
are higher-is-better rates; everything else is ignored. Rows present on only
one side are reported but do not fail the gate -- benches grow and retire
rows across PRs, and the gate's job is catching regressions on work that
still exists.

Usage:
  bench_regression.py --base DIR --current DIR [--threshold 0.15]
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


def load_rows(directory):
    rows = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.jsonl"))):
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                row = json.loads(line)
                key_parts = []
                for k in sorted(row):
                    v = row[k]
                    if isinstance(v, str) or k in ID_FIELDS:
                        key_parts.append((k, v))
                key = tuple(key_parts)
                rows[key] = row
    return rows


def diff(base_rows, current_rows, threshold):
    """Returns (regressions, checked, unmatched) over the two row maps."""
    regressions = []
    checked = 0
    unmatched = 0
    for key, base in sorted(base_rows.items()):
        current = current_rows.get(key)
        if current is None:
            unmatched += 1
            print(f"[unmatched] base-only row: {dict(key)}")
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
    for key in sorted(current_rows):
        if key not in base_rows:
            unmatched += 1
            print(f"[unmatched] current-only row: {dict(key)}")
    return regressions, checked, unmatched


def run_gate(base_dir, current_dir, threshold):
    base_rows = load_rows(base_dir)
    current_rows = load_rows(current_dir)
    if not base_rows:
        print(f"No base rows under {base_dir}; nothing to gate.")
        return 0
    regressions, checked, unmatched = diff(base_rows, current_rows, threshold)
    print(
        f"{checked} metric(s) compared across {len(base_rows)} base row(s); "
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
    base = {
        ("a",): {"bench": "x", "name": "a", "mbps": 100.0},
        ("b",): {"bench": "x", "name": "b", "mbps": 100.0},
    }

    def rows(*items):
        out = {}
        for r in items:
            key = tuple(
                sorted(
                    (k, v)
                    for k, v in r.items()
                    if isinstance(v, str) or k in ID_FIELDS
                )
            )
            out[key] = r
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

    _ = base  # silence lint about the illustrative fixture
    print("self-test OK")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--base", help="directory of base-branch .jsonl rows")
    ap.add_argument("--current", help="directory of this build's .jsonl rows")
    ap.add_argument("--threshold", type=float, default=0.15)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not args.base or not args.current:
        ap.error("--base and --current are required (or use --self-test)")
    return run_gate(args.base, args.current, args.threshold)


if __name__ == "__main__":
    sys.exit(main())
