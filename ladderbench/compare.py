#!/usr/bin/env python3
"""Repeat the benchmark over seeds and summarise each end-to-end metric.

With one checkout, prints each metric's median, quartiles and quartile
spread (q3 - q1 as a share of the median) over the runs: the figure a
benchmark bound must exceed. With two checkouts (parent first, change
second), runs them in alternating pairs, and prints both sides' medians
and spreads, the change in the median, and how many pairs the change
won.

    python3 ladderbench/compare.py --workload suite --seeds 1-10 .
    python3 ladderbench/compare.py --workload suite --seeds 1-10 ../parent .

Each checkout is built and run from its own root with its own
CARGO_TARGET_DIR (<checkout>/.bench_build), exactly as BENCHMARK.json's
command runs there.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(checkout, workload, seed, seconds, trace):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        command = json.load(f)["command"]
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(checkout, ".bench_build"))
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(args, cwd=checkout, env=env, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{checkout} seed {seed}: exit {out.returncode}\n{out.stdout[-2000:]}{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{checkout} seed {seed}: correctness gate failed\n{out.stdout[-2000:]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("checkouts", nargs="+")
    a = ap.parse_args()
    if len(a.checkouts) > 2:
        sys.exit("give one checkout, or a parent and a change")
    with open(os.path.join(a.checkouts[-1], "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = a.seconds or bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    bound = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = {c: [] for c in a.checkouts}
    for i, seed in enumerate(seeds_of(a.seeds)):
        order = a.checkouts if i % 2 == 0 else a.checkouts[::-1]
        for c in order:
            runs[c].append(run_once(c, a.workload, seed, seconds, a.trace))
            print(f"seed {seed} {c}: " + ", ".join(f"{k}={v:.6g}" for k, v in runs[c][-1].items()), flush=True)
    names = list(runs[a.checkouts[0]][0])
    if len(a.checkouts) == 1:
        print(f"\n{'metric':<28} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for n in names:
            med, q1, q3, spread = summary([r[n] for r in runs[a.checkouts[0]]])
            b = bound.get(n)
            flag = "" if b is None or n == "setup_s" or spread <= b / 3 else "  <- above bound/3"
            print(f"{n:<28} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.3f} {b if b is not None else '-':>6}{flag}")
        return
    parent, change = (runs[c] for c in a.checkouts)
    print(f"\n{'metric':<28} {'parent':>12} {'spread':>7} {'change':>12} {'spread':>7} {'delta':>8} {'wins':>6}")
    for n in names:
        p = [r[n] for r in parent]
        c = [r[n] for r in change]
        pm, _, _, ps = summary(p)
        cm, _, _, cs = summary(c)
        sign = -1 if better.get(n, "lower") == "lower" else 1
        wins = sum(1 for x, y in zip(p, c) if sign * (y - x) > 0)
        print(f"{n:<28} {pm:>12.6g} {ps:>7.3f} {cm:>12.6g} {cs:>7.3f} {(cm - pm) / pm:>+8.3f} {wins:>3}/{len(p)}")


if __name__ == "__main__":
    main()
