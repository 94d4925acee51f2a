#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (README.md beside this file).

Run from the repository root:

    python3 e2ebench/run.py --workload sweep-short --seed 1 --seconds 10 --trace 0

The first call configures and builds an optimized copy of the library and
the benchmark binary under .bench_build/e2ebench, with build output on
stderr; later calls rebuild only what changed. The binary's report goes to
stdout and its last line is one JSON object. Before running, this script checks every
workload and metric name (and unit) the binary knows against
BENCHMARK.json in both directions; after running, it checks the metrics the
binary printed. On any difference it exits non-zero and prints no result.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for step in (
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ):
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(BUILD, "e2ebench")


def flag(args, name):
    """The value of a flag given as '--name value' or '--name=value'."""
    for i, arg in enumerate(args):
        if arg == name and i + 1 < len(args):
            return args[i + 1]
        if arg.startswith(name + "="):
            return arg[len(name) + 1:]
    return None


def check_names(kind, printed, declared):
    """`printed` and `declared` map names to units (None for workloads)."""
    extra = sorted(set(printed) - set(declared))
    missing = sorted(set(declared) - set(printed))
    if extra or missing:
        fail("%s names differ from BENCHMARK.json: printed but not declared %s,"
             " declared but not printed %s" % (kind, extra, missing))
    for name, unit in printed.items():
        if unit != declared[name]:
            fail("%s %s has unit %r, declared %r"
                 % (kind, name, unit, declared[name]))


def main():
    args = sys.argv[1:]
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            declared = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    binary = build()

    listed = subprocess.run([binary, "--list"], stdout=subprocess.PIPE,
                            text=True)
    if listed.returncode != 0:
        fail("e2ebench --list exited with code %d" % listed.returncode)
    known = {"workload": {}, "end_to_end": {}, "per_layer": {}}
    for line in listed.stdout.splitlines():
        kind, name, *unit = line.split()
        known[kind][name] = unit[0] if unit else None
    check_names("workload", known["workload"],
                {w["name"]: None for w in declared["workloads"]})
    for kind in ("end_to_end", "per_layer"):
        check_names(kind, known[kind],
                    {m["name"]: m["unit"] for m in declared[kind]})
    if flag(args, "--workload") not in known["workload"]:
        fail("workload %r is not declared in BENCHMARK.json"
             % flag(args, "--workload"))

    run = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        fail("e2ebench exited with code %d" % run.returncode)
    report, last = lines[:-1], lines[-1]
    try:
        result = json.loads(last)
    except ValueError:
        fail("the binary's last line is not JSON: " + last[:200])
    kind = "per_layer" if flag(args, "--trace") == "1" else "end_to_end"
    check_names(kind, {k: m["unit"] for k, m in result["metrics"].items()},
                known[kind])
    for line in report:
        print(line)
    print(last)
    return 0


if __name__ == "__main__":
    sys.exit(main())
