#!/usr/bin/env python3
"""Paired benchmark runs of two source trees, summarized as BENCH_<workload>.json.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload routes-tables \\
        --pairs 10 --seed 901

Each tree is a checkout of the repository, named in the output by its
directory name.  Every run is the tree's own `perfbench/run.py`, started
from that tree's root with `--trace 0`, so each side is measured by the
benchmark code it ships.  Pair k runs both sides with seed S+k for the
`run_seconds` of CHANGE_DIR's BENCHMARK.json; the side that runs first
alternates from pair to pair (the parent first in pair 0).  With
`--traced`, one more run per side with `--trace 1` and seed S records
the per-layer metrics.

The JSON holds every run's metrics and, for each end-to-end metric of
CHANGE_DIR's BENCHMARK.json, each side's median and quartiles, the
number of pairs the change won (a tie counts for neither side), whether
the change's median is within the metric's bound of the parent's, and
whether the change clears the gain rule: it wins at least nine tenths of
the pairs and its median is better than the parent's by more than the
distance between the parent's quartiles.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def run_benchmark(tree: str, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One `perfbench/run.py` run in `tree`; returns its final JSON line."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    argv = [
        sys.executable,
        os.path.join("perfbench", "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "1" if trace else "0",
    ]
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            "bench_pairs: run in %s exited %d: %s" % (tree, proc.returncode, proc.stderr[-2000:])
        )
    return json.loads(lines[-1])


def quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0], values[0]] if values else [None, None]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(metric: dict, parent: list, change: list) -> dict:
    """Medians, quartiles, wins, the bound check and the gain rule of one
    end-to-end metric over paired values."""
    lower = metric["better"] == "lower"
    sign = 1.0 if lower else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q = quartiles(parent)
    gain = sign * (p_med - c_med)
    # a relative bound: how much worse than the parent the change may read
    worse = -gain / abs(p_med) if p_med else (0.0 if gain >= 0 else float("inf"))
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "parent": {"median": p_med, "quartiles": p_q, "values": parent},
        "change": {"median": c_med, "quartiles": quartiles(change), "values": change},
        "change_wins": wins,
        "change_losses": losses,
        "pairs": len(parent),
        "relative_change": (c_med - p_med) / p_med if p_med else None,
        "within_bound": worse <= metric["bound"],
        "gain_rule_met": wins * 10 >= 9 * len(parent) and gain > p_q[1] - p_q[0],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument(
        "--seed", type=int, required=True, help="seed of pair 0; pair k uses seed+k"
    )
    parser.add_argument("--traced", action="store_true", help="add one traced run per side")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = {"parent": args.parent_dir, "change": args.change_dir}
    for tree in trees.values():
        if not os.path.isfile(os.path.join(tree, "perfbench", "run.py")):
            parser.error("%s has no perfbench/run.py" % tree)
    with open(os.path.join(args.change_dir, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]

    runs = []
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        pair = {"pair": k, "seed": args.seed + k, "first": order[0]}
        for side in order:
            pair[side] = run_benchmark(trees[side], args.workload, args.seed + k, seconds, False)
            print(
                "pair %d seed %d %-6s wall_s %s failed %s"
                % (k, args.seed + k, side, pair[side]["metrics"].get("wall_s", {}).get("value"),
                   pair[side]["failed"]),
                file=sys.stderr,
            )
        runs.append(pair)

    metrics = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = {
            side: [r[side]["metrics"][name]["value"] for r in runs]
            for side in ("parent", "change")
        }
        metrics[name] = summarize(metric, values["parent"], values["change"])
    out = {
        "workload": args.workload,
        "pairs": args.pairs,
        "seeds": [args.seed, args.seed + args.pairs - 1],
        "seconds": seconds,
        "trees": {
            side: os.path.basename(os.path.abspath(tree)) for side, tree in trees.items()
        },
        "machine": {
            "platform": platform.platform(),
            "processor": platform.processor() or platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
        "failed_ops": {
            side: sum(r[side]["failed"] for r in runs) for side in ("parent", "change")
        },
        "end_to_end": metrics,
        "runs": runs,
    }
    if args.traced:
        out["per_layer"] = {
            side: run_benchmark(trees[side], args.workload, args.seed, seconds, True)["metrics"]
            for side in ("parent", "change")
        }
    path = "BENCH_%s.json" % args.workload
    with open(path, "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, m in metrics.items():
        print(
            "%-12s parent %.4g [%s]  change %.4g [%s]  wins %d/%d  %s"
            % (
                name,
                m["parent"]["median"],
                ", ".join("%.4g" % q for q in m["parent"]["quartiles"]),
                m["change"]["median"],
                ", ".join("%.4g" % q for q in m["change"]["quartiles"]),
                m["change_wins"],
                m["pairs"],
                "gain" if m["gain_rule_met"] else ("ok" if m["within_bound"] else "WORSE"),
            )
        )
    print("wrote %s" % path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
