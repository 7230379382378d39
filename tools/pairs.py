#!/usr/bin/env python3
"""Alternating pairs of perfbench runs on two source trees.

    python3 tools/pairs.py PARENT_TREE CHANGE_TREE --workload paper-apps \\
        --seed 1 --pairs 10 --seconds 10

Each tree is a checkout of this repository. Its perfbench/ is built
into that tree's own .bench_build/ (as perfbench/run.py does), then
the pairs run: `perfbench/run.py --workload W --seed S --seconds T`
once per side per pair, one run at a time, with the side that runs
first alternating from pair to pair. Nothing under either perfbench/
is edited.

Every run must report `correct` with `failed` 0; one that does not is
printed and makes the exit status 1. Per end-to-end metric the report
gives each side's median and quartiles, the change's median relative
to the parent's, and the pairs the change won (ties count for
neither). It also gives CPU seconds per pass: the user plus system
time of the whole run (its build check, setup and every process it
waited for, from getrusage) over the number of timed passes.

The verdict applies the claim rule: for a metric where lower is
better, the change must win at least nine tenths of the pairs and its
median must beat the parent's by more than the parent's interquartile
range. The rule is printed per metric; the exit status reflects only
the runs' correctness.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys

BUILD_TIMEOUT_S = 900
RUN_TIMEOUT_S = 300


def fail(message):
    print("pairs.py: " + message, file=sys.stderr)
    sys.exit(2)


def build(tree):
    """Configure and build the tree's driver into tree/.bench_build."""
    out = os.path.join(tree, ".bench_build")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(tree, "perfbench"), "-B",
                      out, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                  "perfbench_driver"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.DEVNULL,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            fail("build failed in %s: %s" % (tree, " ".join(step)))


def children_cpu_s():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_once(tree, args):
    """One run.py run in @p tree: its metrics, passes and CPU seconds."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    before = children_cpu_s()
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    cpu = children_cpu_s() - before
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(done.stdout + done.stderr, file=sys.stderr)
        fail("no result from %s" % " ".join(cmd))
    passes = 1
    for line in lines:
        fields = line.split()
        if fields and fields[0] == "pass_s" and fields[-1] == "passes":
            passes = int(fields[-2].removeprefix("n="))
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    metrics["cpu_s_per_pass"] = cpu / passes
    ok = result["correct"] and result["failed"] == 0
    return metrics, ok


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="the parent's source tree")
    ap.add_argument("change", help="the change's source tree")
    ap.add_argument("--workload", required=True,
                    choices=("paper-apps", "wireless-sync", "daemon-mixed"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=10)
    args = ap.parse_args()
    trees = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    for tree in trees.values():
        if not os.path.isfile(os.path.join(tree, "perfbench", "run.py")):
            fail("%s has no perfbench/run.py" % tree)
        build(tree)

    runs = {"parent": [], "change": []}
    bad = 0
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            metrics, ok = run_once(trees[side], args)
            runs[side].append(metrics)
            if not ok:
                bad += 1
                print("pair %d %s: run not correct" % (i + 1, side))
        print("pair %2d: pass_s parent %.3f change %.3f (%s first)" % (
            i + 1, runs["parent"][-1]["pass_s"],
            runs["change"][-1]["pass_s"], order[0]), flush=True)

    print("\n%s seed %d, %d pairs of %d s runs" % (
        args.workload, args.seed, args.pairs, args.seconds))
    print("%-15s %-30s %-30s %7s %5s  %s" % (
        "metric", "parent median [q1, q3]", "change median [q1, q3]",
        "change", "wins", "claim (lower is better)"))
    for name in runs["parent"][0]:
        p = [r[name] for r in runs["parent"]]
        c = [r[name] for r in runs["change"]]
        pm, cm = statistics.median(p), statistics.median(c)
        pq1, pq3 = quartiles(p)
        cq1, cq3 = quartiles(c)
        wins = sum(1 for a, b in zip(p, c) if b < a)
        iqr = pq3 - pq1
        holds = wins * 10 >= 9 * len(p) and pm - cm > iqr
        rel = "%+.1f%%" % (100.0 * (cm - pm) / pm) if pm else "n/a"
        print("%-15s %-30s %-30s %7s %2d/%-2d  %s" % (
            name, "%.4g [%.4g, %.4g]" % (pm, pq1, pq3),
            "%.4g [%.4g, %.4g]" % (cm, cq1, cq3), rel, wins, len(p),
            "holds" if holds else "no"))
    if bad:
        print("%d run(s) not correct" % bad)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
