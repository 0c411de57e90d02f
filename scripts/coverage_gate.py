#!/usr/bin/env python3
"""Line-coverage gate for every layer under src/: the simulation core, the
cloud overlay, the DC services, the end-points, the common layer, the churn
workload, the erasure coder, the transport models, the applications, the
geography model and the live network runtime (src/netsim, src/exp,
src/overlay, src/services, src/endpoint, src/common, src/workload, src/fec,
src/transport, src/app, src/geo, src/net).

Runs gcov over every .gcda the coverage-preset test run produced, unions the
per-line execution counts across translation units (a header inlined into
ten tests counts as covered if ANY of them executed the line), and compares
the per-directory line coverage against the checked-in floor in
scripts/coverage_baseline.json. CI fails when a gated directory drops below
its floor — i.e. when a PR adds gated code without tests.

Usage:
  coverage_gate.py --build-dir build/coverage [--write-report cov.json]
  coverage_gate.py --build-dir build/coverage --print-only   # no gate

The baseline is a conservative floor, not the live number: raise it when a
PR meaningfully lifts coverage, so the ratchet only ever moves up.
"""

import argparse
import collections
import gzip
import json
import os
import subprocess
import sys
import tempfile

GATED_DIRS = ("src/netsim", "src/exp", "src/overlay", "src/services",
              "src/endpoint", "src/common", "src/workload", "src/fec",
              "src/transport", "src/app", "src/geo", "src/net")
BASELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "coverage_baseline.json")


def find_gcda(build_dir):
    out = []
    for root, _dirs, files in os.walk(build_dir):
        out.extend(os.path.abspath(os.path.join(root, f))
                   for f in files if f.endswith(".gcda"))
    return out


def run_gcov(gcda_files, scratch):
    """Runs gcov --json-format in batches; yields parsed per-TU reports."""
    batch = 64
    for i in range(0, len(gcda_files), batch):
        subprocess.run(
            ["gcov", "--json-format", "--branch-probabilities"] + gcda_files[i:i + batch],
            cwd=scratch, check=True, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        for name in os.listdir(scratch):
            if not name.endswith(".gcov.json.gz"):
                continue
            path = os.path.join(scratch, name)
            with gzip.open(path, "rt") as f:
                yield json.load(f)
            os.unlink(path)


def collect(build_dir, repo_root):
    """Returns {relative source path: {line: max hit count}}."""
    gcda = find_gcda(build_dir)
    if not gcda:
        sys.exit(f"no .gcda files under {build_dir}; run the coverage-preset "
                 "tests first (cmake --preset coverage && cmake --build "
                 "--preset coverage && ctest --preset coverage)")
    hits = collections.defaultdict(dict)
    with tempfile.TemporaryDirectory() as scratch:
        for report in run_gcov(gcda, scratch):
            for fentry in report.get("files", []):
                src = os.path.normpath(
                    os.path.join(report.get("current_working_directory", ""),
                                 fentry["file"]))
                rel = os.path.relpath(src, repo_root)
                if rel.startswith(".."):
                    continue  # system / third-party header
                per_line = hits[rel]
                for line in fentry.get("lines", []):
                    n = line["line_number"]
                    per_line[n] = max(per_line.get(n, 0), line["count"])
    return hits


def summarize(hits):
    """Returns {gated dir: (covered, total, pct)}."""
    summary = {}
    for gated in GATED_DIRS:
        covered = total = 0
        for rel, per_line in hits.items():
            if not rel.startswith(gated + os.sep):
                continue
            total += len(per_line)
            covered += sum(1 for c in per_line.values() if c > 0)
        pct = 100.0 * covered / total if total else 0.0
        summary[gated] = (covered, total, pct)
    return summary


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--build-dir", default="build/coverage")
    ap.add_argument("--write-report", help="write the summary as JSON here")
    ap.add_argument("--print-only", action="store_true",
                    help="report coverage without gating")
    args = ap.parse_args()

    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    summary = summarize(collect(args.build_dir, repo_root))

    baseline = {}
    if os.path.exists(BASELINE):
        baseline = json.load(open(BASELINE))

    failures = []
    print(f"{'directory':<14} {'lines':>8} {'covered':>8} {'pct':>7} {'floor':>7}")
    for gated, (covered, total, pct) in summary.items():
        floor = baseline.get(gated)
        floor_s = f"{floor:.1f}" if floor is not None else "-"
        print(f"{gated:<14} {total:>8} {covered:>8} {pct:>6.1f}% {floor_s:>6}%")
        if total == 0:
            failures.append(f"{gated}: no instrumented lines found")
        elif floor is not None and pct < floor:
            failures.append(
                f"{gated}: line coverage {pct:.1f}% fell below the "
                f"{floor:.1f}% floor in {os.path.basename(BASELINE)}")

    if args.write_report:
        json.dump({d: {"covered": c, "total": t, "pct": round(p, 2)}
                   for d, (c, t, p) in summary.items()},
                  open(args.write_report, "w"), indent=2)
        print(f"report written to {args.write_report}")

    if failures and not args.print_only:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        sys.exit(1)
    print("coverage gate ok" if not args.print_only else "coverage reported")


if __name__ == "__main__":
    main()
