#!/usr/bin/env python3
"""Run the end-to-end benchmark in alternating parent/change pairs.

    python3 tools/e2e_pairs.py PARENT_DIR CHANGE_DIR --workload sweep-long \\
        --pairs 10 --seconds 15 [--first-seed 1]

PARENT_DIR and CHANGE_DIR are two checkouts of this repository. Pair i runs
`python3 e2ebench/run.py --workload W --seed s --seconds S --trace 0` once
in each, for i = 1..N and s = FIRST_SEED + i - 1. Odd pairs run the parent
first and even pairs the change, so a host phase that follows a run's
position lands on both sides alike. Before pair 1, each side makes one
warm-up run (seed 0), printed but not counted: the first process of a set
has read several times faster than the rest, whichever side it was.
Every line names the pair's order. For
every end-to-end metric of BENCHMARK.json it prints the parent's median
and quartiles, the change's median and quartiles, the pairs in which the
change was better, the move of the change's median from the parent's and
the change's quartile spread, each as a share of the parent's median, and
the metric's bound. The move is signed so that positive means worse. It
reports and gives no verdict: it exits non-zero only when a run, the warm-ups included, fails
or reads `correct: false`. It reads BENCHMARK.json from the parent
checkout and writes nothing.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout, workload, seed, seconds):
    """The metrics of one run, or an error string."""
    command = [sys.executable, os.path.join("e2ebench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    run = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        return None, "exit code %d" % run.returncode
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None, "last line is not JSON"
    if result.get("correct") is not True:
        return None, "correct: %s" % result.get("correct")
    return {name: m["value"] for name, m in result["metrics"].items()}, None


def describe(values, error, metrics):
    """One run's end-to-end metrics, or its failure."""
    if error is not None:
        return "FAILED (%s)" % error
    return " ".join("%s=%.4g" % (m["name"], values[m["name"]])
                    for m in metrics if m["name"] in values)


def quartiles(values):
    """(q1, median, q3) of `values`."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(args.parent, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]

    sides = (("parent", args.parent), ("change", args.change))
    failures = []
    for side, checkout in sides:
        values, error = run_once(checkout, args.workload, 0, args.seconds)
        if error is not None:
            failures.append("%s warm-up: %s" % (side, error))
        print("%s warm-up, seed 0 (not recorded): %s"
              % (side, describe(values, error, metrics)), flush=True)

    runs = {"parent": [], "change": []}
    for pair in range(1, args.pairs + 1):
        seed = args.first_seed + pair - 1
        order = sides if pair % 2 == 1 else sides[::-1]
        first = order[0][0] + " first"
        for side, checkout in order:
            values, error = run_once(checkout, args.workload, seed,
                                     args.seconds)
            if error is not None:
                failures.append("%s seed %d: %s" % (side, seed, error))
            else:
                runs[side].append((seed, values))
            print("%s seed %d (%s): %s" % (
                side, seed, first, describe(values, error, metrics)),
                flush=True)

    parent_by_seed = dict(runs["parent"])
    change_by_seed = dict(runs["change"])
    paired = sorted(set(parent_by_seed) & set(change_by_seed))
    print()
    print("%s, %d pairs of %g s" % (args.workload, len(paired), args.seconds))
    print("move = (change median - parent median) / parent median, + = worse;"
          " IQR = (change q3 - change q1) / parent median")
    print("%-22s %-32s %-32s %-6s %-8s %-7s %s" % (
        "metric", "parent median [q1, q3]", "change median [q1, q3]",
        "wins", "move", "IQR", "bound"))
    for metric in metrics:
        name = metric["name"]
        parent = [parent_by_seed[s][name] for s in paired
                  if name in parent_by_seed[s]]
        change = [change_by_seed[s][name] for s in paired
                  if name in change_by_seed[s]]
        if not parent or len(parent) != len(change):
            continue
        higher = metric["better"] == "higher"
        wins = sum(1 for p, c in zip(parent, change)
                   if (c > p if higher else c < p))
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        worse = (pm - cm) if higher else (cm - pm)
        move = worse / pm if pm else float("nan")
        spread = (c3 - c1) / pm if pm else float("nan")
        print("%-22s %-32s %-32s %-6s %-+8.3f %-7.3f %g" % (
            name, "%.4g [%.4g, %.4g]" % (pm, p1, p3),
            "%.4g [%.4g, %.4g]" % (cm, c1, c3),
            "%d/%d" % (wins, len(parent)), move, spread, metric["bound"]))
    for failure in failures:
        print("failed: " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
