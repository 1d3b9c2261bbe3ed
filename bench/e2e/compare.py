#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark runs (stdlib only).

    compare.py BASE.json CHANGE.json     compare parent (BASE) and change
    compare.py --merge OUT.json RUN...   merge ppm_e2e --out files into a set

A set is {"runs": [...]}, each run one `ppm_e2e --out` object. For every
workload and every end-to-end metric of BENCHMARK.json, the untraced runs
of each side give a median and quartiles (statistics.quantiles, n=4).
Runs pair up by seed. A metric is

  improved    when the change wins >= 9/10 of the pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range;
  regressed   when the change's median is worse than the parent's by more
              than the metric's bound;
  unresolved  when either side's spread (IQR / median) is wider than the
              bound, unless every change run beats every parent run;
  unchanged   otherwise.

Exits 1 on any regression or when a workload's failed fraction (failed /
attempted ops) is higher on the change side.
"""

import json
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "..", "..", "BENCHMARK.json")


def load_runs(path):
    with open(path) as f:
        return json.load(f)["runs"]


def merge(out, paths):
    runs = []
    for path in paths:
        with open(path) as f:
            runs.append(json.load(f))
    with open(out, "w") as f:
        json.dump({"runs": runs}, f, indent=1)
        f.write("\n")
    print(f"merged {len(runs)} runs into {out}")


def by_seed(runs, workload, metric):
    """{seed: value} of the untraced runs of one workload."""
    return {r["seed"]: r["metrics"][metric]["value"]
            for r in runs
            if r["workload"] == workload and r["trace"] == 0
            and metric in r["metrics"]}


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def failed_frac(runs, workload):
    attempted = sum(r["attempted"] for r in runs if r["workload"] == workload)
    failed = sum(r["failed"] for r in runs if r["workload"] == workload)
    return failed / attempted if attempted else 1.0


def verdict(spec, base, change):
    """Classify one metric on one workload; returns (label, detail)."""
    lower = spec["better"] == "lower"
    bound = spec["bound"]
    b_q1, b_med, b_q3 = quartiles(list(base.values()))
    c_q1, c_med, c_q3 = quartiles(list(change.values()))

    def better(c, b):
        return c < b if lower else c > b

    worse_by = (c_med - b_med) / b_med if lower else (b_med - c_med) / b_med
    seeds = sorted(set(base) & set(change))
    wins = sum(better(change[s], base[s]) for s in seeds)
    spread = max((b_q3 - b_q1) / b_med, (c_q3 - c_q1) / c_med)
    dominates = all(better(c, b) for c in change.values()
                    for b in base.values())
    detail = (f"base {b_med:.6g} [{b_q1:.6g}, {b_q3:.6g}]  "
              f"change {c_med:.6g} [{c_q1:.6g}, {c_q3:.6g}]  "
              f"{worse_by:+.1%} worse, wins {wins}/{len(seeds)}, "
              f"spread {spread:.1%} (bound {bound:.0%})")
    if worse_by > bound:
        return "regressed", detail
    if spread > bound and not dominates:
        return "unresolved", detail
    if (seeds and wins >= 0.9 * len(seeds) and better(c_med, b_med)
            and abs(c_med - b_med) > b_q3 - b_q1):
        return "improved", detail
    return "unchanged", detail


def compare(base_path, change_path):
    with open(BENCHMARK) as f:
        bench = json.load(f)
    base, change = load_runs(base_path), load_runs(change_path)
    bad = False
    for workload in [w["name"] for w in bench["workloads"]]:
        print(f"{workload}")
        for spec in bench["end_to_end"]:
            b = by_seed(base, workload, spec["name"])
            c = by_seed(change, workload, spec["name"])
            if not b or not c:
                print(f"  {spec['name']:<16} missing runs")
                bad = True
                continue
            label, detail = verdict(spec, b, c)
            bad = bad or label == "regressed"
            print(f"  {spec['name']:<16} {label:<10} {detail}")
        fb, fc = failed_frac(base, workload), failed_frac(change, workload)
        if fc > fb:
            bad = True
        print(f"  {'failed_frac':<16} {'higher' if fc > fb else 'ok':<10} "
              f"base {fb:.3g}  change {fc:.3g}")
    return 1 if bad else 0


def main(argv):
    if len(argv) >= 3 and argv[0] == "--merge":
        merge(argv[1], argv[2:])
        return 0
    if len(argv) == 2:
        return compare(argv[0], argv[1])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
