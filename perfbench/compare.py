#!/usr/bin/env python3
"""Compare benchmark results of two commits measured on the same host.

    python3 perfbench/compare.py --before a1.json [a2.json ...] \\
                                 --after b1.json [b2.json ...]

Each file is what `python3 perfbench/run.py --out FILE` wrote. Every file
must carry the same host fingerprint (CPU model, nproc, AVX2/AVX-512,
compiler, build type); otherwise the comparison is refused and nothing is
printed on standard output. For each workload and metric the table gives
both medians with their quartile spread, the change in the metric's
"worse" direction, and against the bound BENCHMARK.json fixes:
"regression" when the after median is worse by more than the bound,
"unresolved" when the before side's own spread is wider than the bound,
else "ok".
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(paths):
    runs = []
    for p in paths:
        with open(p) as f:
            runs.append(json.load(f))
    return runs


def samples(runs):
    """(workload, metric) -> list of values, one per file."""
    out = {}
    for run in runs:
        for r in run["results"]:
            for name, m in r["metrics"].items():
                out.setdefault((r["workload"], name), []).append(m["value"])
    return out


def spread(xs):
    if len(xs) < 2:
        return 0.0
    q = statistics.quantiles(xs, n=4)
    return q[2] - q[0]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", nargs="+", required=True)
    ap.add_argument("--after", nargs="+", required=True)
    ap.add_argument("--benchmark",
                    default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    args = ap.parse_args(argv)

    before, after = load(args.before), load(args.after)
    prints = {json.dumps(r["fingerprint"], sort_keys=True) for r in before + after}
    if len(prints) != 1:
        print("perfbench compare: refused, results come from different hosts "
              "or builds:", file=sys.stderr)
        for p in sorted(prints):
            print(f"  {p}", file=sys.stderr)
        return 2

    with open(args.benchmark) as f:
        bench = json.load(f)
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    b, a = samples(before), samples(after)
    print(f"host: {next(iter(prints))}")
    print(f"{'workload':<16} {'metric':<32} {'before':>12} {'±iqr':>10} "
          f"{'after':>12} {'±iqr':>10} {'worse by':>9}  verdict")
    for key in sorted(b.keys() & a.keys()):
        workload, name = key
        m = spec.get(name)
        if m is None:
            continue
        mb, ma = statistics.median(b[key]), statistics.median(a[key])
        if mb == 0:
            change = 0.0
        else:
            sign = 1.0 if m["better"] == "lower" else -1.0
            change = sign * (ma - mb) / abs(mb)
        verdict = ""
        if "bound" in m:
            if change > m["bound"]:
                verdict = "regression"
            elif mb and spread(b[key]) / abs(mb) > m["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
        print(f"{workload:<16} {name:<32} {mb:>12.6g} {spread(b[key]):>10.3g} "
              f"{ma:>12.6g} {spread(a[key]):>10.3g} {100 * change:>8.2f}%  "
              f"{verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
