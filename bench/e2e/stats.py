#!/usr/bin/env python3
"""Summaries of result files as ab.sh writes them: one JSON object per
run and line, {"workload": ..., "seed": ..., "result": <run.sh's last line>}.

  stats.py spread RUNS.jsonl --benchmark BENCHMARK.json
      Per (metric, workload): median, quartiles, and the quartile spread as
      a share of the median, against a third of the metric's bound.

  stats.py ab BASE.jsonl CAND.jsonl --benchmark BENCHMARK.json
      Paired A/B (a workload's i-th run in each file is pair i): each
      side's median and quartiles, the candidate's win fraction, and a
      verdict -- improved, no-worse, unresolved or regressed -- by the
      choosing-metrics rules:
      a gain needs >= 9/10 pair wins and a median shift beyond the base's
      quartile spread; a loss beyond the bound is a regression unless the
      base's own spread is wider than the bound (unresolved), and a spread
      wider than the bound is unresolved unless every candidate run beats
      every base run.
"""
import argparse
import json
import statistics
import sys


def load(path):
    runs = []
    with open(path) as f:
        for line in f:
            if line.strip():
                runs.append(json.loads(line))
    return runs


def metrics_by_key(runs):
    """{(workload, metric): [value per run, in file order]}"""
    table = {}
    for run in runs:
        for name, m in run["result"]["metrics"].items():
            table.setdefault((run["workload"], name), []).append(m["value"])
    return table


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def bounds(path):
    with open(path) as f:
        bench = json.load(f)
    return {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}


def spread(args):
    runs = load(args.runs)
    meta = bounds(args.benchmark)
    failures = sum(1 for r in runs if not r["result"]["correct"])
    print(f"{len(runs)} runs, {failures} incorrect")
    print(f"{'workload':14} {'metric':26} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound/3':>8}")
    worst = 0
    for (workload, name), values in sorted(metrics_by_key(runs).items()):
        q1, q2, q3 = quartiles(values)
        share = (q3 - q1) / abs(q2) if q2 else float("inf")
        bound = meta.get(name, {}).get("bound")
        third = bound / 3 if bound is not None else None
        flag = ""
        if third is not None and name != "setup_s" and share > third:
            flag = "  <-- above a third of the bound"
            worst += 1
        print(f"{workload:14} {name:26} {len(values):3d} {q2:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{share:8.2%} {'' if third is None else format(third, '.2%'):>8}{flag}")
    return 1 if failures or worst else 0


def verdict(base, cand, better, bound):
    b1, bm, b3 = quartiles(base)
    _, cm, _ = quartiles(cand)
    sign = 1 if better == "higher" else -1
    pairs = list(zip(base, cand))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    win_frac = wins / len(pairs)
    shift = sign * (cm - bm) / abs(bm) if bm else 0.0
    base_spread = (b3 - b1) / abs(bm) if bm else float("inf")
    all_better = all(sign * (c - b) > 0 for c in cand for b in base)
    beyond_noise = abs(cm - bm) > (b3 - b1)
    if win_frac >= 0.9 and beyond_noise and shift > 0:
        result = "improved"
    elif base_spread > bound and not all_better:
        result = "unresolved"
    elif shift < -bound:
        result = "regressed"
    else:
        result = "no-worse"
    return win_frac, shift, base_spread, result


def ab(args):
    base_runs = load(args.base)
    cand_runs = load(args.cand)
    meta = bounds(args.benchmark)
    base = metrics_by_key(base_runs)
    cand = metrics_by_key(cand_runs)
    print(f"{'workload':14} {'metric':14} {'base median [q1, q3]':>34} "
          f"{'cand median [q1, q3]':>34} {'win':>5} {'shift':>8} {'verdict':>10}")
    regressed = 0
    for key in sorted(base):
        workload, name = key
        if name not in meta or "bound" not in meta[name] or key not in cand:
            continue
        b, c = base[key], cand[key]
        n = min(len(b), len(c))
        b, c = b[:n], c[:n]
        win, shift, _, result = verdict(b, c, meta[name]["better"], meta[name]["bound"])
        regressed += result == "regressed"
        bq, cq = quartiles(b), quartiles(c)
        print(f"{workload:14} {name:14} {bq[1]:12.5g} [{bq[0]:9.4g}, {bq[2]:9.4g}] "
              f"{cq[1]:12.5g} [{cq[0]:9.4g}, {cq[2]:9.4g}] {win:5.0%} {shift:+8.2%} {result:>10}")
    incorrect = sum(1 for r in base_runs + cand_runs if not r["result"]["correct"])
    print(f"{len(base_runs)} base and {len(cand_runs)} candidate runs, {incorrect} incorrect")
    return 1 if regressed or incorrect else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("spread")
    p.add_argument("runs")
    p.add_argument("--benchmark", required=True)
    p.set_defaults(func=spread)
    p = sub.add_parser("ab")
    p.add_argument("base")
    p.add_argument("cand")
    p.add_argument("--benchmark", required=True)
    p.set_defaults(func=ab)
    args = parser.parse_args()
    sys.exit(args.func(args))


if __name__ == "__main__":
    main()
