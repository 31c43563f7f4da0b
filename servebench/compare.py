#!/usr/bin/env python3
"""Compare servebench runs of a parent and a change (stdlib only).

    # ten alternating pairs per workload, same seed within a pair
    python3 servebench/compare.py run --parent ../parent --change . \\
        --workloads serve_warm,cold_large --pairs 10 --out pairs.jsonl
    # medians, quartiles, pair win fraction and a verdict per metric
    python3 servebench/compare.py report pairs.jsonl
    # run-to-run spread of one checkout, as a share of the median
    python3 servebench/compare.py spread --checkout . --workload serve_warm

Verdicts (per workload and metric; bounds come from BENCHMARK.json):
  improved    the change wins at least 9 of 10 pairs (ties count for
              neither side) and the medians differ by more than the
              parent's interquartile range
  no worse    the change's median is not worse than the parent's by more
              than the metric's bound
  unresolved  the parent's own spread (IQR / median) is wider than the
              bound, so "no worse" cannot be told from noise
  worse       none of the above: a regression beyond the bound
Per-layer metrics have no bound; they are reported as improved or "-".
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_bench(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("servebench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    if seconds:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit("run failed in %s (exit %d)" % (checkout,
                                                         proc.returncode))
    return json.loads(lines[-1])


def run_seconds(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)["run_seconds"]


def cmd_run(args):
    workloads = args.workloads.split(",")
    seconds = args.seconds or run_seconds(args.parent)
    with open(args.out, "a", encoding="utf-8") as out:
        for pair in range(args.pairs):
            seed = args.seed_base + pair
            for workload in workloads:
                # Alternate which side runs first, so drift hits both.
                sides = [("parent", args.parent), ("change", args.change)]
                if pair % 2:
                    sides.reverse()
                for side, checkout in sides:
                    result = run_bench(checkout, workload, seed, seconds,
                                       args.trace)
                    out.write(json.dumps({"pair": pair, "side": side,
                                          "workload": workload, "seed": seed,
                                          "trace": args.trace,
                                          "result": result}) + "\n")
                    out.flush()
                    print("pair %d %-16s %-6s correct=%s" % (
                        pair, workload, side, result["correct"]))


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """parent/change: per-pair values in pair order."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    pairs = min(len(parent), len(change))
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    win_frac = wins / pairs if pairs else 0.0
    if win_frac >= 0.9 and sign * (cm - pm) > (p3 - p1):
        return "improved", win_frac
    if bound is None:
        return "-", win_frac
    if pm and (p3 - p1) / abs(pm) > bound:
        every_better = all(sign * (c - p) > 0 for c in change for p in parent)
        return ("no worse" if every_better else "unresolved"), win_frac
    worse_by = -sign * (cm - pm) / abs(pm) if pm else 0.0
    return ("no worse" if worse_by <= bound else "worse"), win_frac


def load_metric_specs(path):
    with open(path, encoding="utf-8") as f:
        bench = json.load(f)
    specs = {}
    for m in bench["end_to_end"]:
        specs[m["name"]] = (m["better"], m["bound"])
    for m in bench["per_layer"]:
        specs[m["name"]] = (m["better"], None)
    return specs


def cmd_report(args):
    specs = load_metric_specs(args.bench)
    rows = {}
    with open(args.results, encoding="utf-8") as f:
        for line in f:
            r = json.loads(line)
            for name, m in r["result"]["metrics"].items():
                key = (r["workload"], name)
                rows.setdefault(key, {}).setdefault(r["pair"], {})[
                    r["side"]] = m["value"]
    print("%-16s %-30s %12s %23s %12s %23s %5s  %s" % (
        "workload", "metric", "parent med", "parent q1..q3", "change med",
        "change q1..q3", "wins", "verdict"))
    for (workload, name), by_pair in sorted(rows.items()):
        pairs = [p for p in sorted(by_pair) if len(by_pair[p]) == 2]
        parent = [by_pair[p]["parent"] for p in pairs]
        change = [by_pair[p]["change"] for p in pairs]
        if not pairs:
            continue
        better, bound = specs.get(name, ("lower", None))
        v, win_frac = verdict(parent, change, better, bound)
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        print("%-16s %-30s %12.5g %11.5g..%-11.5g %12.5g %11.5g..%-11.5g "
              "%4.0f%%  %s" % (workload, name, pm, p1, p3, cm, c1, c3,
                               100 * win_frac, v))


def cmd_spread(args):
    specs = load_metric_specs(os.path.join(args.checkout, "BENCHMARK.json"))
    seconds = args.seconds or run_seconds(args.checkout)
    values = {}
    for i in range(args.runs):
        result = run_bench(args.checkout, args.workload, args.seed_base + i,
                           seconds, args.trace)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("run %d seed %d correct=%s" % (i, args.seed_base + i,
                                             result["correct"]),
              file=sys.stderr)
    print("%-30s %12s %10s %8s  %s" % ("metric", "median", "IQR/med",
                                      "bound", "within bound/3"))
    for name, vals in values.items():
        q1, med, q3 = quartiles(vals)
        share = (q3 - q1) / abs(med) if med else 0.0
        bound = specs.get(name, (None, None))[1]
        ok = "-" if bound is None else ("yes" if share < bound / 3 else "NO")
        print("%-30s %12.5g %10.4f %8s  %s" % (
            name, med, share, "-" if bound is None else bound, ok))


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("run", help="run alternating parent/change pairs")
    p.add_argument("--parent", required=True, help="parent checkout root")
    p.add_argument("--change", required=True, help="change checkout root")
    p.add_argument("--workloads", required=True, help="comma separated")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed-base", type=int, default=1000)
    p.add_argument("--seconds", type=float, default=0,
                   help="default: run_seconds of the parent's BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True, help="JSONL file (appended)")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("report", help="verdicts from a pairs file")
    p.add_argument("results")
    p.add_argument("--bench", default=os.path.join(os.path.dirname(HERE),
                                                   "BENCHMARK.json"))
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("spread", help="run-to-run spread of one checkout")
    p.add_argument("--checkout", default=os.path.dirname(HERE))
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed-base", type=int, default=1)
    p.add_argument("--seconds", type=float, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.set_defaults(fn=cmd_spread)

    args = parser.parse_args()
    args.fn(args)


if __name__ == "__main__":
    main()
