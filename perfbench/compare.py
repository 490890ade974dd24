#!/usr/bin/env python3
"""Compares two acbm benchmark result sets metric by metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR
    python3 perfbench/compare.py RESULTS_DIR          # one set: spreads only

A result set is a directory of <workload>.jsonl files, one JSON record per
run, as written by `perfbench/run.py --record DIR`. For every workload and
metric the script prints each side's median and quartiles
(statistics.quantiles(values, n=4)) and the quartile spread as a share of
the median, then a verdict on the change from BASE to NEW:

  better / worse  end-to-end metrics: the median moved by more than the
                  metric's bound in BENCHMARK.json, in that direction.
                  Per-layer metrics (no bound): the interquartile ranges
                  do not overlap, or - for counts that repeat exactly - the
                  values differ at all.
  unresolved      anything else: within the bound, or inside the noise.

Exits 1 when any end-to-end metric of any workload is worse.
"""
import json
import os
import statistics
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_set(path):
    """{workload: {metric: [values...]}} from a result-set directory."""
    out = {}
    for name in sorted(os.listdir(path)):
        if not name.endswith(".jsonl"):
            continue
        with open(os.path.join(path, name)) as f:
            for line in f:
                if not line.strip():
                    continue
                rec = json.loads(line)
                metrics = out.setdefault(rec["workload"], {})
                for metric, m in rec["result"]["metrics"].items():
                    metrics.setdefault(metric, []).append(m["value"])
    return out


def summary(values):
    """(q1, median, q3, spread as a share of the median)."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(med) if med else 0.0
    return q1, med, q3, spread


def verdict(base, new, spec):
    """better / worse / unresolved for one metric, BASE -> NEW."""
    b1, bmed, b3, _ = summary(base)
    n1, nmed, n3, _ = summary(new)
    lower_better = spec.get("better", "lower") == "lower"
    sign = -1.0 if lower_better else 1.0  # > 0 means NEW improved.
    if "bound" in spec:
        if bmed == 0:
            return "unresolved"
        change = sign * (nmed - bmed) / abs(bmed)
        if change < -spec["bound"]:
            return "worse"
        return "better" if change > spec["bound"] else "unresolved"
    if len(set(base)) == 1 and len(set(new)) == 1:  # Exact counts.
        if base[0] == new[0]:
            return "unresolved"
        return "better" if sign * (new[0] - base[0]) > 0 else "worse"
    if n3 < b1 or n1 > b3:  # Interquartile ranges disjoint.
        return "better" if sign * (nmed - bmed) > 0 else "worse"
    return "unresolved"


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        bench = json.load(f)
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base = load_set(argv[1])
    new = load_set(argv[2]) if len(argv) == 3 else None
    regressions = 0
    for workload in sorted(base):
        print(f"== {workload}")
        header = f"{'metric':28} {'base q1/median/q3':>36} {'spread':>7}"
        if new is not None:
            header += f" {'new q1/median/q3':>36} {'spread':>7} {'change':>8}  verdict"
        print(header)
        for metric in sorted(base[workload], key=lambda m: (m not in specs or
                                                             "bound" not in specs[m], m)):
            spec = specs.get(metric, {})
            q1, med, q3, spread = summary(base[workload][metric])
            row = f"{metric:28} {q1:11.5g} {med:11.5g} {q3:11.5g}  {spread:6.1%}"
            other = (new or {}).get(workload, {}).get(metric)
            if other:
                nq1, nmed, nq3, nspread = summary(other)
                change = (nmed - med) / abs(med) if med else 0.0
                v = verdict(base[workload][metric], other, spec)
                if v == "worse" and "bound" in spec:
                    regressions += 1
                row += (f" {nq1:11.5g} {nmed:11.5g} {nq3:11.5g}  {nspread:6.1%}"
                        f" {change:+8.1%}  {v}")
            if "bound" in spec:
                row += f"   (bound {spec['bound']:.0%})"
            print(row)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
