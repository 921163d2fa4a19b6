#!/usr/bin/env python3
"""Compare two sets of pitk benchmark runs metric by metric.

    python3 benchmark/compare.py --base A1.json A2.json A3.json \\
                                 --head B1.json B2.json B3.json

Each file is a bench_results/<run>.json written by benchmark/run.py; give at
least three untraced runs per side (different seeds are fine: the seed
changes the inputs, not their sizes).  For every (workload, end-to-end
metric) of BENCHMARK.json, plus failed_frac, it prints each side's median
and quartiles and a verdict:

  worse       the head median is worse than the base median by more than
              the metric's bound (a share of the base median; failed_frac
              uses an absolute bound);
  unresolved  the run-to-run spread (quartile distance over median) of
              either side exceeds the bound, so a difference of that size
              cannot be told from noise -- unless every head run beats
              every base run, which reads as better;
  better      the head median beats the base median by more than the bound;
  same        otherwise.

Every file must be an untraced run (--trace 0), and all of them must have
been made with the same --seconds, which sets the operation counts and so
the sample count behind each percentile; anything else is refused.

Exit status 1 when any verdict is "worse", 2 when the inputs are refused,
else 0.  Quartiles are statistics.quantiles(values, n=4).
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Metrics compared with an absolute rather than relative bound: their
#: healthy median is 0, where a share of the median means nothing.
ABSOLUTE_BOUNDS = {"failed_frac": ("ratio", "lower", 0.005)}


def quartiles(values):
    """(q1, median, q3) of `values`, as statistics.quantiles(n=4) gives them."""
    values = list(values)
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, head, better, bound, absolute=False):
    """Verdict for one metric: 'better', 'same', 'worse' or 'unresolved'.

    `better` is 'lower' or 'higher'; `bound` is a share of the base median
    (or an absolute amount when `absolute`)."""
    b1, bm, b3 = quartiles(base)
    h1, hm, h3 = quartiles(head)
    sign = 1.0 if better == "lower" else -1.0
    if absolute:
        scale_b = scale_h = 1.0
    else:
        scale_b = abs(bm) or 1e-300
        scale_h = abs(hm) or 1e-300
    worse_by = sign * (hm - bm) / scale_b
    spread = max((b3 - b1) / scale_b, (h3 - h1) / scale_h)
    if better == "lower":
        every_head_better = max(head) < min(base)
    else:
        every_head_better = min(head) > max(base)
    if spread > bound:
        return "better" if every_head_better else "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > bound:
        return "better"
    return "same"


def read_runs(paths):
    """The result files, parsed."""
    runs = []
    for p in paths:
        with open(p, encoding="utf-8") as f:
            runs.append(json.load(f))
    return runs


def check_comparable(runs):
    """Raise ValueError unless every run is untraced and all were made with
    the same --seconds."""
    traced = [r.get("run", "?") for r in runs if r.get("trace", 0) != 0]
    if traced:
        raise ValueError(f"traced runs are not gated: {', '.join(traced)}")
    seconds = sorted({r.get("seconds") for r in runs}, key=str)
    if len(seconds) > 1:
        raise ValueError(f"runs made with different --seconds: {seconds}")


def collect(runs):
    """{workload: {metric: [values...]}} over the given runs."""
    out = {}
    for run in runs:
        for name, res in run["workloads"].items():
            per = out.setdefault(name, {})
            for metric, m in res["metrics"].items():
                per.setdefault(metric, []).append(m["value"])
            per.setdefault("failed_frac", []).append(
                res.get("failed_frac", res["failed"] / max(1, res["attempted"])))
    return out


def compare(spec, base_runs, head_runs):
    """Rows (workload, metric, unit, base quartiles, head quartiles, change,
    bound, verdict) for every metric both sides measured."""
    metrics = [(m["name"], m["unit"], m["better"], m["bound"], False) for m in spec["end_to_end"]]
    metrics += [(n, u, b, bound, True) for n, (u, b, bound) in ABSOLUTE_BOUNDS.items()]
    rows = []
    for w in [w["name"] for w in spec["workloads"]]:
        base, head = base_runs.get(w, {}), head_runs.get(w, {})
        for name, unit, better, bound, absolute in metrics:
            if name not in base or name not in head:
                continue
            qb, qh = quartiles(base[name]), quartiles(head[name])
            change = qh[1] - qb[1] if absolute else (qh[1] - qb[1]) / (abs(qb[1]) or 1e-300)
            rows.append((w, name, unit, qb, qh, change, bound, absolute,
                         verdict(base[name], head[name], better, bound, absolute)))
    return rows


def main(argv=None):
    p = argparse.ArgumentParser(description="Compare two sets of pitk benchmark runs.")
    p.add_argument("--base", nargs="+", required=True, help="result files of the base commit")
    p.add_argument("--head", nargs="+", required=True, help="result files of the head commit")
    p.add_argument("--spec", default=str(ROOT / "BENCHMARK.json"))
    args = p.parse_args(argv)
    if len(args.base) < 3 or len(args.head) < 3:
        sys.stderr.write("compare.py: need at least 3 runs per side\n")
        return 2
    with open(args.spec, encoding="utf-8") as f:
        spec = json.load(f)
    base, head = read_runs(args.base), read_runs(args.head)
    try:
        check_comparable(base + head)
    except ValueError as e:
        sys.stderr.write(f"compare.py: {e}\n")
        return 2
    rows = compare(spec, collect(base), collect(head))
    print(f"{'workload':14s} {'metric':18s} {'base median [q1, q3]':>36s} "
          f"{'head median [q1, q3]':>36s} {'change':>9s} {'bound':>7s}  verdict")
    for w, name, unit, qb, qh, change, bound, absolute, v in rows:
        fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}] {unit}"
        ch = f"{change:+.4g}" if absolute else f"{change * 100:+.1f}%"
        bd = f"{bound:g}" if absolute else f"{bound * 100:.0f}%"
        print(f"{w:14s} {name:18s} {fmt(qb):>36s} {fmt(qh):>36s} {ch:>9s} {bd:>7s}  {v}")
    return 1 if any(r[-1] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
