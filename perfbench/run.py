#!/usr/bin/env python3
"""The repository benchmark: build, run one workload (or all), check, report.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload venue_campaign --seed 42 \\
        --seconds 15 --trace 0
    python3 perfbench/run.py                 # all three workloads
    python3 perfbench/run.py --short ...     # seconds-long smoke sizes

The simulator and the measuring binary (perfbench/workload.cpp) are built
from source with CMake into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset. Each workload runs in
its own process. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics: with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer ones. A per-layer metric
that cannot be read from outside the program on a workload reports
NOT_REACHABLE (-1); the table printed above the result line names it.

--out FILE also writes the samples, metrics and host fingerprint as JSON, for
perfbench/compare.py. The command exits non-zero when any operation failed
or did not match its reference digest.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("venue_campaign", "city_100k", "lossy_venue")
DEFAULT_SEED = 42
NOT_REACHABLE = -1.0
RUN_TIMEOUT_S = 170

# name -> unit. Must match BENCHMARK.json (test_perfbench.py checks).
END_TO_END = {
    "deliveries_per_s": "1/s",
    "setup_s": "s",
    "run_s_p50": "s",
    "run_s_p75": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "world.build_s": "s",
    "run.setup_s": "s",
    "run.sim_s": "s",
    "run.analysis_s": "s",
    "pool.utilization": "ratio",
    "pool.busy_max_s": "s",
    "pool.idle_s": "s",
    "shard.busy_max_s": "s",
    "shard.busy_mean_s": "s",
    "shard.barrier_idle_s": "s",
    "shard.epochs": "count",
    "shard.handoffs": "count",
    "shard.events": "count",
    "shard.deliveries_per_tx": "ratio",
    "queue.processed": "count",
    "queue.events_per_delivery": "ratio",
    "queue.peak_pending": "count",
    "queue.slab_reuse_ratio": "ratio",
    "medium.deliveries_per_tx": "ratio",
    "medium.candidates_loaded": "count",
    "medium.wasted_candidates": "count",
    "medium.pathloss_cache_hit_ratio": "ratio",
    "medium.simd_candidate_share": "ratio",
    "medium.bucket_max_occupancy": "count",
    "fault.retries": "count",
    "fault.drop_collision": "count",
    "fault.drop_crc_reject": "count",
    "fault.retry_exhausted": "count",
    "fault.loss_ratio": "ratio",
    "attacker.scan_windows": "count",
    "attacker.responses_sent": "count",
    "attacker.responses_per_hit": "ratio",
    "attacker.pb_resizes": "count",
    "attacker.scan_window_fill_mean": "count",
    "client.total": "count",
    "client.broadcast_only": "count",
    "stats.h_b": "ratio",
    "alloc.per_delivery": "ratio",
    "trace.overhead_pct": "%",
    "trace.overhead_pct_iqr": "%",
    "trace.dropped": "count",
    "trace.span_coverage_pct": "%",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ----------------------------------------------------------------- build

def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configure (once) and build; returns the workload binary's path."""
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configured = any(os.path.exists(os.path.join(bdir, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return os.path.join(bdir, "perfbench_workload")


# ----------------------------------------------------------- fingerprint

def host_fingerprint(build_info):
    """What makes two results comparable: same CPU, core count, ISA, build."""
    model = platform.processor() or "unknown"
    flags = set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name":
                    model = value.strip()
                elif key == "flags" and not flags:
                    flags = set(value.split())
    except OSError:
        pass
    return {
        "cpu_model": model,
        "nproc": os.cpu_count(),
        "avx2": "avx2" in flags or bool(build_info.get("avx2")),
        "avx512f": "avx512f" in flags or bool(build_info.get("avx512f")),
        "compiler": build_info.get("compiler", "unknown"),
        "build_type": build_info.get("build_type", "unknown"),
    }


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


# ---------------------------------------------------------------- stats

def median(xs):
    return statistics.median(xs) if xs else NOT_REACHABLE


def p75(xs):
    """Upper quartile, interpolated within the samples (city_100k has only a
    handful); a single sample is its own quartile."""
    if len(xs) < 2:
        return xs[0] if xs else NOT_REACHABLE
    return statistics.quantiles(xs, n=4, method="inclusive")[2]


def iqr(xs):
    if len(xs) < 2:
        return 0.0
    q = statistics.quantiles(xs, n=4)
    return q[2] - q[0]


def ratio(num, den):
    return num / den if den else 0.0


# ----------------------------------------------------------- correctness

def load_pinned(path, workload, short, seed):
    """Pinned digests for (workload, mode) when `seed` is the pinned seed."""
    with open(path) as f:
        pinned = json.load(f)
    entry = pinned.get(workload + ("/short" if short else ""))
    if entry is None or entry.get("seed") != seed:
        return None
    return entry


def check(raw, pinned):
    """Per-operation correctness: returns (attempted, failed, problems)."""
    problems = []
    attempted = failed = 0
    if raw["workload"] == "city_100k":
        ref = raw["reference"]
        want = {k: ref[k] for k in ("digest", "transmissions", "deliveries")}
        if pinned is not None:
            pin = {k: pinned[k] for k in want}
            if pin != want:
                problems.append(f"1-shard reference {want} != pinned {pin}")
        for i, rep in enumerate(raw["reps"]):
            attempted += 1
            got = {k: rep[k] for k in want}
            bad = rep["failed"] or got != want
            if pinned is not None:
                bad = bad or got != {k: pinned[k] for k in want}
            if bad:
                failed += 1
                problems.append(f"rep {i}: {got} vs 1-shard reference {want}")
        return attempted, failed, problems
    ref = raw["reference"]
    pins = pinned["runs"] if pinned is not None else None
    if pins is not None and len(pins) != len(ref):
        problems.append(f"pinned has {len(pins)} runs, mix has {len(ref)}")
        pins = ["missing"] * len(ref)
    for i, rep in enumerate(raw["reps"]):
        first = rep["draw"] * len(rep["runs"])
        for k, run in enumerate(rep["runs"], start=first):
            attempted += 1
            d = run["digest"]
            bad = d == "error" or d != ref[k] or (pins is not None and d != pins[k])
            if bad:
                failed += 1
                want = ref[k] if pins is None else f"{ref[k]} (pinned {pins[k]})"
                problems.append(f"rep {i} draw {rep['draw']} run {k - first}: "
                                f"digest {d}, want {want}")
    return attempted, failed, problems


# -------------------------------------------------------------- metrics

def untraced(raw):
    return [r for r in raw["reps"] if not r["traced"]]


def traced(raw):
    return [r for r in raw["reps"] if r["traced"]]


def cycles(raw, reps):
    """The repetitions in whole cycles of one repetition per input draw."""
    n = raw["draws"]
    return [reps[i:i + n] for i in range(0, len(reps) - n + 1, n)]


def end_to_end(raw):
    reps = untraced(raw)
    city = raw["workload"] == "city_100k"
    if city:
        setup = [r["setup_s"] for r in reps]
        run_s = [r["setup_s"] + r["loop_s"] for r in reps]
    else:
        setup = raw["setup_s"]
        run_s = [x["run_s"] for r in reps for x in r["runs"]]
    # Rates and CPU seconds per cycle, so each sample covers every draw.
    whole = cycles(raw, reps)
    return {
        "deliveries_per_s": median([sum(r["deliveries"] for r in c)
                                    / sum(r["wall_s"] for r in c)
                                    for c in whole]),
        "setup_s": median(setup),
        "run_s_p50": median(run_s),
        "run_s_p75": p75(run_s),
        "cpu_s": median([statistics.fmean(r["cpu_s"] for r in c)
                         for c in whole]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def venue_layers(raw, rep):
    m = rep["metrics"]
    q, ch, oc = rep["queue"], rep["channel"], rep["outcome"]
    busy = rep["pool"]["busy_s"]
    workers, pool_wall = rep["pool"]["workers"], rep["pool"]["wall_s"]
    loaded = m.get("medium.fanout_key_matched", 0) + m.get(
        "medium.fanout_wasted_candidates", 0)
    simd = m.get("medium.fanout_simd_candidates", 0)
    scalar = m.get("medium.fanout_scalar_candidates", 0)
    hits = m.get("medium.pathloss_cache_hits", 0)
    misses = m.get("medium.pathloss_cache_misses", 0)
    return {
        "world.build_s": median(raw["setup_s"]),
        "run.setup_s": rep["phases"]["setup_s"],
        "run.sim_s": rep["phases"]["sim_s"],
        "run.analysis_s": rep["phases"]["analysis_s"],
        "pool.utilization": ratio(sum(busy), workers * pool_wall),
        "pool.busy_max_s": max(busy),
        "pool.idle_s": workers * pool_wall - sum(busy),
        "queue.processed": q["processed"],
        "queue.events_per_delivery": ratio(q["processed"], rep["deliveries"]),
        "queue.peak_pending": q["peak_pending"],
        "queue.slab_reuse_ratio": ratio(q["slab_reuses"], q["scheduled"]),
        "medium.deliveries_per_tx": ratio(rep["deliveries"], rep["transmissions"]),
        "medium.candidates_loaded": loaded,
        "medium.wasted_candidates": m.get("medium.fanout_wasted_candidates", 0),
        "medium.pathloss_cache_hit_ratio": ratio(hits, hits + misses),
        "medium.simd_candidate_share": ratio(simd, simd + scalar),
        "medium.bucket_max_occupancy": m.get("medium.bucket_max_occupancy", 0),
        "fault.retries": ch["retries"],
        "fault.drop_collision": m.get("fault.drop_collision", 0),
        "fault.drop_crc_reject": m.get("fault.drop_crc_reject", 0),
        "fault.retry_exhausted": m.get("fault.retry_exhausted", 0),
        "fault.loss_ratio": ratio(ch["frames_lost"] + ch["frames_corrupted"],
                                  rep["transmissions"]),
        "attacker.scan_windows": m.get("attacker.scan_windows", 0),
        "attacker.responses_sent": m.get("attacker.responses_sent", 0),
        "attacker.responses_per_hit": ratio(m.get("attacker.responses_sent", 0),
                                            oc["connected"]),
        "attacker.pb_resizes": m.get("attacker.pb_grows", 0)
        + m.get("attacker.pb_shrinks", 0),
        "attacker.scan_window_fill_mean": ratio(
            m.get("attacker.scan_window_fill#sum", 0),
            m.get("attacker.scan_window_fill#count", 0)),
        "client.total": oc["clients"],
        "client.broadcast_only": oc["broadcast_clients"],
        "stats.h_b": ratio(oc["broadcast_connected"], oc["broadcast_clients"]),
        "trace.dropped": rep["trace_dropped"],
    }


def city_layers(rep):
    busy = rep["shard_busy_s"]
    per_tx = ratio(rep["deliveries"], rep["transmissions"])
    return {
        "shard.busy_max_s": max(busy),
        "shard.busy_mean_s": statistics.fmean(busy),
        "shard.barrier_idle_s": rep["workers"] * rep["loop_s"] - sum(busy),
        "shard.epochs": rep["epochs"],
        "shard.handoffs": rep["handoffs"],
        "shard.events": rep["events"],
        "shard.deliveries_per_tx": per_tx,
        "queue.processed": rep["events"],
        "queue.events_per_delivery": ratio(rep["events"], rep["deliveries"]),
        "medium.deliveries_per_tx": per_tx,
    }


def span_summary(spans):
    """Per span name: count, total, self time and child coverage.

    A span with lanes > 1 ran its children in parallel on that many
    workers, so they are accounted against lanes x duration. Self time is
    that capacity minus the time the children cover.
    """
    kids = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append(s)
    summary = {}
    for i, s in enumerate(spans):
        capacity = s["dur_s"] * s["lanes"]
        covered = sum(c["dur_s"] for c in kids.get(i, []))
        e = summary.setdefault(s["name"], {"count": 0, "total_s": 0.0,
                                           "self_s": 0.0, "capacity_s": 0.0,
                                           "covered_s": 0.0, "parent": None})
        e["count"] += 1
        e["total_s"] += s["dur_s"]
        e["self_s"] += capacity - covered if i in kids else s["dur_s"]
        if i in kids:
            e["capacity_s"] += capacity
            e["covered_s"] += covered
        if s["parent"] >= 0:
            e["parent"] = spans[s["parent"]]["name"]
    for e in summary.values():
        e["coverage_pct"] = (100.0 * e["covered_s"] / e["capacity_s"]
                             if e["capacity_s"] else None)
    return summary


def per_layer(raw):
    # A city run that threw has no shard numbers; check() already failed it.
    reps = [r for r in traced(raw) if not r.get("failed")]
    plain = untraced(raw)
    city = raw["workload"] == "city_100k"
    rows = [city_layers(r) if city else venue_layers(raw, r) for r in reps]
    values = {name: NOT_REACHABLE for name in PER_LAYER}
    for name in rows[0] if rows else ():
        values[name] = median([row[name] for row in rows])
    values["alloc.per_delivery"] = median(
        [ratio(r["allocs"], r["deliveries"]) for r in plain])
    pairs = [100.0 * (t["wall_s"] - u["wall_s"]) / u["wall_s"]
             for u, t in zip(raw["reps"][0::2], raw["reps"][1::2])]
    values["trace.overhead_pct"] = median(pairs)
    values["trace.overhead_pct_iqr"] = iqr(pairs)
    summary = span_summary(raw["spans"])
    root = next(e for n, e in summary.items() if e["parent"] is None)
    values["trace.span_coverage_pct"] = root["coverage_pct"]
    return values, summary


# --------------------------------------------------------------- output

def not_reachable(workload):
    """Per-layer metrics that exist on `workload` but sit out of reach."""
    with open(os.path.join(HERE, "layers.json")) as f:
        return set(json.load(f)["not_reachable"].get(workload, ()))


def fmt(v):
    if isinstance(v, float) and not v.is_integer():
        return f"{v:.6g}"
    return f"{v:.0f}" if isinstance(v, float) else str(v)


def print_report(raw, e2e, layers, summary, attempted, failed, problems, fp):
    w = raw["workload"]
    print(f"== {w}{' (short)' if raw['short'] else ''}  seed {raw['seed']}  "
          f"reps {len(raw['reps'])}  host {fp['cpu_model']} x{fp['nproc']} "
          f"avx2={fp['avx2']} avx512f={fp['avx512f']}  {fp['compiler']} "
          f"{fp['build_type']}  commit {git_commit()[:12]}")
    for p in problems[:10]:
        print(f"  MISMATCH {p}")
    print(f"  {'error_rate':<32} {ratio(failed, attempted):.6g} ratio "
          f"({failed} of {attempted} operations)")
    for name, unit in END_TO_END.items():
        if e2e is not None:
            print(f"  {name:<32} {fmt(e2e[name])} {unit}")
    if layers is not None:
        hidden = not_reachable(w)
        for name, unit in PER_LAYER.items():
            v = layers[name]
            if v != NOT_REACHABLE:
                print(f"  {name:<32} {fmt(v)} {unit}")
            elif name in hidden:
                print(f"  {name:<32} not reachable from outside")
            else:
                print(f"  {name:<32} n/a (no such layer on this workload)")
        print(f"  spans ({'span':<26} {'n':>4} {'total s':>9} {'self s':>9} "
              f"{'covered':>8})")
        for name, e in summary.items():
            cov = "" if e["coverage_pct"] is None else f"{e['coverage_pct']:.1f}%"
            print(f"        {name:<26} {e['count']:>4} {e['total_s']:>9.3f} "
                  f"{e['self_s']:>9.3f} {cov:>8}")


def run_workload(binary, args, workload, pinned_path):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.short:
        cmd.append("--short")
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, cwd=ROOT)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: perfbench_workload exited "
                           f"{proc.returncode}")
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    fp = host_fingerprint(raw["build"])
    pinned = load_pinned(pinned_path, workload, args.short, args.seed)
    attempted, failed, problems = check(raw, pinned)
    e2e = layers = summary = None
    if args.trace:
        layers, summary = per_layer(raw)
        spans_path = os.path.join(build_dir(),
                                  f"spans-{workload}-seed{args.seed}.json")
        with open(spans_path, "w") as f:
            json.dump({"spans": raw["spans"], "summary": summary}, f, indent=1)
    else:
        e2e = end_to_end(raw)
    print_report(raw, e2e, layers, summary, attempted, failed, problems, fp)
    metrics = e2e if e2e is not None else layers
    units = END_TO_END if e2e is not None else PER_LAYER
    return {
        "workload": workload,
        "fingerprint": fp,
        "pinned": pinned is not None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "raw": raw,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true",
                    help="seconds-long smoke size of each workload")
    ap.add_argument("--pinned", default=os.path.join(HERE, "pinned.json"),
                    help="pinned digests for the default seed")
    ap.add_argument("--out", help="also write samples and fingerprint here")
    args = ap.parse_args(argv)

    t0 = time.monotonic()
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 2
    log(f"perfbench: build ready in {time.monotonic() - t0:.1f} s")

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for w in workloads:
        try:
            results.append(run_workload(binary, args, w, args.pinned))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError,
                KeyError) as e:
            log(f"perfbench: {w}: {e}")
            return 2

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"fingerprint": results[0]["fingerprint"],
                       "commit": git_commit(),
                       "args": vars(args), "results": results}, f)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results
                   for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
