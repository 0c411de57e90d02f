#!/usr/bin/env python3
"""perfbench: the repository's end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload wan_code --seed 1 --seconds 30 --trace 0

Run from the repository root. Builds the program and the single-repetition
binaries (perfbench/jqos_perfbench.cc) from source under .bench_build/, then
runs one repetition per process -- one simulation thread, one workload --
cycling through the run's fixed list of sub-seeds until --seconds have been
measured. After each repetition, one set-up-only process per CPU times the
deployment's construction. Every process checks its own outputs;
repetitions of one sub-seed must agree on every exact count and on the
outcome digest. The last line of stdout is one JSON object: correct /
attempted / failed / metrics, with the end-to-end metrics (--trace 0) or the
per-layer metrics (--trace 1).

--seed defaults to 1; seed 7919 is held out for checking later claims.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Sub-seeds per run: the run's inputs are these deployments, whatever the
# program's speed. A repetition takes 0.5 s (wan_forward) to 3.5 s
# (churn_web) on a 4-vCPU Xeon VM, so one cycle of sub-seeds fills most of a
# 30 s run.
SUB_SEEDS = {"wan_code": 12, "wan_forward": 48, "churn_web": 8}
REP_TIMEOUT_S = 150


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binaries; returns their directory or None."""
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    bdir = os.path.join(build_root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
    make = ["cmake", "--build", bdir, "-j", jobs]
    for attempt in range(2):
        if attempt == 1 or not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode:
                return None
        if subprocess.run(make, stdout=sys.stderr, stderr=sys.stderr).returncode == 0:
            return bdir
    return None


def sub_seed(seed, i):
    return seed * 256 + i


def run_rep(exe, workload, seed, cpu, spans=None, setup_only=False):
    """One repetition, or one set-up-only process, pinned to `cpu`; returns
    (record, failure or None). Host cores differ in speed from one another, so
    processes rotate over every allowed CPU instead of letting the
    scheduler keep a whole run on one of them."""
    cmd = [exe, "--workload", workload, "--seed", str(seed)]
    if spans:
        cmd += ["--trace", spans]
    if setup_only:
        cmd += ["--setup-only", "1"]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=REP_TIMEOUT_S,
                           preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    except subprocess.TimeoutExpired:
        return None, f"{workload} seed {seed}: timed out"
    try:
        rec = json.loads(p.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None, f"{workload} seed {seed}: exit {p.returncode}, no result: {p.stderr.strip()}"
    if p.returncode != 0 or rec["failures"]:
        return rec, f"{workload} seed {seed}: {rec['failures'] or 'exit %d' % p.returncode}"
    if not setup_only and rec["loop_cpu_s"] > 1.05 * rec["loop_s"]:
        return rec, f"{workload} seed {seed}: timed phase used more than one thread"
    return rec, None


def identity(rec):
    return rec["digest"], rec["exact"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SUB_SEEDS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bdir = build()
    if bdir is None:
        log("perfbench: build failed")
        return 2
    # Allocation counts come from the probe build, which only the per-layer
    # runs use; the end-to-end reps run without the counting allocator.
    plain = os.path.join(bdir, "jqos_perfbench")
    exe = os.path.join(bdir, "jqos_perfbench_probe") if args.trace == 1 else plain

    traced = args.trace == 1 and args.workload != "churn_web"
    spans_dir = os.path.join(bdir, "spans")
    if traced:
        os.makedirs(spans_dir, exist_ok=True)
    seeds = [sub_seed(args.seed, i) for i in range(SUB_SEEDS[args.workload])]
    reps = {s: [] for s in seeds}          # Untraced records per sub-seed.
    traced_reps = {s: [] for s in seeds}   # Traced records per sub-seed.
    setups = []                            # Set-up-only records.
    first = {}                             # Sub-seed -> identity of its first rep.
    attempted = failed = 0
    failures = []

    def account(rec, why, s=None):
        nonlocal attempted, failed
        attempted += 1
        if why is None and s in first and identity(rec) != first[s]:
            why = f"{args.workload} seed {s}: exact counts differ between repetitions"
        if why is not None:
            failed += 1
            failures.append(why)
            return False
        if s is not None:
            first.setdefault(s, identity(rec))
        return True

    cpus = sorted(os.sched_getaffinity(0))
    start = time.monotonic()
    i = 0
    while i < len(seeds) or time.monotonic() - start < args.seconds:
        s = seeds[i % len(seeds)]
        # Shift by one core per cycle of sub-seeds, so that the repetitions
        # of one sub-seed land on different cores.
        cpu = cpus[(i + i // len(seeds)) % len(cpus)]
        i += 1
        rec, why = run_rep(exe, args.workload, s, cpu)
        if account(rec, why, s):
            reps[s].append(rec)
        if traced:
            path = os.path.join(spans_dir, f"{args.workload}-{args.seed}.spans")
            rec, why = run_rep(exe, args.workload, s, cpu, spans=path)
            if account(rec, why, s):
                traced_reps[s].append(rec)
        for c in cpus:
            rec, why = run_rep(plain, args.workload, s, c, setup_only=True)
            if account(rec, why):
                setups.append(rec)

    for f in failures:
        log("perfbench: FAILED", f)
    if (any(not reps[s] for s in seeds) or not setups
            or (traced and any(not traced_reps[s] for s in seeds))):
        metrics = {}
    elif args.trace == 0:
        metrics = end_to_end(reps, setups)
    else:
        metrics = per_layer(args.workload, reps, traced_reps if traced else None, setups)
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def med(recs, key):
    return statistics.median(r[key] for r in recs)


def fastest(recs, key):
    """Fastest construction of the run. A build is sub-millisecond,
    deterministic work, and each process keeps its fastest build; host
    contention only ever adds to it (see README.md, spread record)."""
    return min(r[key] for r in recs)


def pkts_per_s(reps):
    """Packets over the summed per-sub-seed median timed-phase wall time."""
    sent = sum(recs[0]["sent"] for recs in reps.values())
    return sent / sum(med(recs, "loop_s") for recs in reps.values())


def exact_sum(reps, key):
    return sum(recs[0]["exact"][key] for recs in reps.values())


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(reps, setups):
    every = [r for recs in reps.values() for r in recs]
    sent = exact_sum(reps, "sent")
    delivered = exact_sum(reps, "delivered_direct") + exact_sum(reps, "recovered")
    return {
        "sim_pkts_per_s": metric(pkts_per_s(reps), "pkt/s"),
        "setup_s": metric(fastest(setups, "setup_s"), "s"),
        "peak_rss_mb": metric(med(every, "peak_rss_mb"), "MB"),
        "delivered_pct": metric(100.0 * delivered / sent, "%"),
        "cloud_egress_per_pkt": metric(exact_sum(reps, "egress") / sent, "pkt/pkt"),
    }


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(workload, reps, traced_reps, setups):
    """Per-layer metrics: exact counts pooled over the run's sub-seeds, span
    times summed over one traced repetition per sub-seed."""
    sent = exact_sum(reps, "sent")
    x = lambda key: exact_sum(reps, key)  # noqa: E731

    # Span classes are "<role>.<PacketType>.<ServiceType>"; per sub-seed,
    # take the traced repetition with the median loop time. churn_web has
    # no traced repetitions (traced_reps is None).
    calls, ns = {}, {}
    loop_ns = handler_ns = 0.0
    for recs in (traced_reps or {}).values():
        rec = sorted(recs, key=lambda r: r["loop_s"])[(len(recs) - 1) // 2]
        loop_ns += rec["loop_s"] * 1e9
        handler_ns += rec["trace"]["handler_ns"]
        for name, c in rec["trace"]["classes"].items():
            calls[name] = calls.get(name, 0) + c["calls"]
            ns[name] = ns.get(name, 0) + c["ns"]

    def select(pred):
        names = [n for n in calls if pred(*n.split("."))]
        return sum(calls[n] for n in names), sum(ns[n] for n in names)

    dc = select(lambda role, typ, svc: role == "dc")
    fwd = select(lambda role, typ, svc: role == "dc" and typ == "DATA" and svc == "forward")
    enc = select(lambda role, typ, svc: role == "dc" and typ == "DATA" and svc == "code")
    rec = select(lambda role, typ, svc: role == "dc" and typ != "DATA")
    rdata = select(lambda role, typ, svc: role == "receiver" and typ == "DATA")
    rcoded = select(lambda role, typ, svc: role == "receiver" and typ == "IN_CODED")
    residual = loop_ns - handler_ns
    share = lambda t: metric(100.0 * ratio(t, loop_ns), "%")  # noqa: E731
    per_call = lambda c: metric(ratio(c[1], c[0]), "ns/call")  # noqa: E731

    batches = x("enc_in_batches") + x("enc_cross_batches")
    sessions = x("sessions") if workload == "churn_web" else 0
    p99s = [recs[0]["p99_recovery_ms"] for recs in reps.values()]
    overhead = pkts_per_s(traced_reps) - pkts_per_s(reps) if traced_reps else 0.0
    return {
        "netsim.events_per_pkt": metric(x("events") / sent, "event/pkt"),
        "netsim.residual_ns_per_pkt": metric(residual / sent, "ns/pkt"),
        "netsim.residual_share": share(residual),
        "overlay.dc_calls_per_pkt": metric(dc[0] / sent, "call/pkt"),
        "overlay.dc_ns_per_call": per_call(dc),
        "overlay.dc_share": share(dc[1]),
        "services.forward.ns_per_call": per_call(fwd),
        "services.encoder.ns_per_call": per_call(enc),
        "services.encoder.share": share(enc[1]),
        "services.encoder.timer_flush_share": metric(ratio(x("enc_timer_flushes"), batches),
                                                     "flush/batch"),
        "services.recovery.ns_per_call": per_call(rec),
        "services.recovery.share": share(rec[1]),
        "services.recovery.coop_success_ratio": metric(
            ratio(x("rec_coop_success"), x("rec_coop_ops")), "op/op"),
        "services.recovery.nacks_per_pkt": metric(x("rec_nacks") / sent, "nack/pkt"),
        "services.recovery.p99_recovery_ms": metric(statistics.median(p99s), "ms"),
        "fec.coded_per_data": metric(ratio(x("enc_coded_sent"), x("enc_data_packets")),
                                     "pkt/pkt"),
        "fec.batches_per_pkt": metric(batches / sent, "batch/pkt"),
        "endpoint.receiver.data_ns_per_call": per_call(rdata),
        "endpoint.receiver.data_share": share(rdata[1]),
        "endpoint.receiver.coded_ns_per_call": per_call(rcoded),
        "common.allocs_per_pkt": metric(x("allocs") / sent, "alloc/pkt"),
        "common.pool_reuse_ratio": metric(
            ratio(x("pool_reused"), x("pool_reused") + x("pool_fresh"))
            if workload != "churn_web" else 0.0, "ratio"),
        "geo.paths_s": metric(fastest(setups, "geo_s"), "s"),
        "exp.build_s": metric(fastest(setups, "build_s"), "s"),
        "workload.events_per_session": metric(ratio(x("events"), sessions), "event/session"),
        "workload.allocs_per_session": metric(ratio(x("allocs"), sessions), "alloc/session"),
        "trace.overhead_pkts_per_s": metric(overhead, "pkt/s"),
    }


if __name__ == "__main__":
    sys.exit(main())
