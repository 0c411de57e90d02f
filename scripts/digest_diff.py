#!/usr/bin/env python3
"""digest_diff: checks that two perfbench builds print bit-identical results.

    python3 scripts/digest_diff.py --base BASE_DIR --change CHANGE_DIR [--seeds 1 7919]

Run from the repository root. Each DIR is a perfbench build directory
(`cmake -S perfbench -B DIR -DCMAKE_BUILD_TYPE=Release && cmake --build DIR`),
for example the parent commit's and this tree's. For every sub-seed of every
perfbench workload, runs each build's jqos_perfbench_probe once and compares
the outcome digest and every exact count. The sub-seed list and numbering are
perfbench/run.py's own, imported from it.

The probe's `allocs` count is not part of the verdict: a change may move
allocations without moving a result, so its per-sub-seed deltas are reported
on their own. Exits 0 when every digest and every other exact count matched,
1 on any mismatch or any failed run, 2 when a build has no probe binary.
"""

import argparse
import importlib.util
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROBE = "jqos_perfbench_probe"


def load_perfbench():
    # Importing run.py must leave no bytecode cache in the benchmark's tree.
    sys.dont_write_bytecode = True
    path = os.path.join(ROOT, "perfbench", "run.py")
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_probe(exe, workload, seed):
    """One repetition; returns (record, failure or None)."""
    cmd = [exe, "--workload", workload, "--seed", str(seed)]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    except subprocess.TimeoutExpired:
        return None, "timed out"
    try:
        rec = json.loads(p.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None, f"exit {p.returncode}, no result: {p.stderr.strip()}"
    if p.returncode != 0 or rec["failures"]:
        return rec, rec["failures"] or f"exit {p.returncode}"
    return rec, None


def compare(base, change):
    """Mismatching fields of two records, `allocs` aside."""
    diffs = []
    if base["digest"] != change["digest"]:
        diffs.append(f"digest {base['digest']} -> {change['digest']}")
    keys = sorted((set(base["exact"]) | set(change["exact"])) - {"allocs"})
    for key in keys:
        a, b = base["exact"].get(key), change["exact"].get(key)
        if a != b:
            diffs.append(f"{key} {a} -> {b}")
    return diffs


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="perfbench build directory of the base")
    ap.add_argument("--change", required=True, help="perfbench build directory of the change")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 7919])
    args = ap.parse_args()

    exes = {}
    for side, bdir in (("base", args.base), ("change", args.change)):
        exes[side] = os.path.join(os.path.abspath(bdir), PROBE)
        if not os.access(exes[side], os.X_OK):
            print(f"digest_diff: no {PROBE} in {bdir}", file=sys.stderr)
            return 2

    perfbench = load_perfbench()
    runs = [(w, perfbench.sub_seed(seed, i), side)
            for seed in args.seeds
            for w, n in sorted(perfbench.SUB_SEEDS.items())
            for i in range(n)
            for side in ("base", "change")]
    with ThreadPoolExecutor(max_workers=max(1, min(4, os.cpu_count() or 1))) as pool:
        recs = dict(zip(runs, pool.map(lambda r: run_probe(exes[r[2]], r[0], r[1]), runs)))

    failed = 0
    for workload in sorted(perfbench.SUB_SEEDS):
        subs = sorted({s for (w, s, _) in recs if w == workload})
        mismatched = 0
        deltas = []
        for s in subs:
            base, why_base = recs[workload, s, "base"]
            change, why_change = recs[workload, s, "change"]
            diffs = [f"{side} run failed: {why}"
                     for side, why in (("base", why_base), ("change", why_change)) if why]
            if not diffs:
                diffs = compare(base, change)
                if "allocs" in base["exact"] and "allocs" in change["exact"]:
                    deltas.append(change["exact"]["allocs"] - base["exact"]["allocs"])
            if diffs:
                print(f"FAIL {workload} sub-seed {s}: " + "; ".join(diffs))
                mismatched += 1
        failed += mismatched
        verdict = "identical" if mismatched == 0 else f"{mismatched} differ"
        alloc_note = ""
        if deltas:
            moved = sum(1 for d in deltas if d != 0)
            alloc_note = (f"; allocs delta min {min(deltas):+d} max {max(deltas):+d} "
                          f"sum {sum(deltas):+d} ({moved} of {len(deltas)} moved)")
        print(f"{workload}: {len(subs)} sub-seeds, digest and exact counts {verdict}{alloc_note}")
    print(f"digest_diff: {'FAILED' if failed else 'ok'} "
          f"({failed} of {len(recs) // 2} sub-seeds differ or failed)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
