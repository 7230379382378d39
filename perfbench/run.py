#!/usr/bin/env python3
"""Build and run the WiSync benchmark (see perfbench/NOTES.md).

    python3 perfbench/run.py --workload paper-apps --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. Builds perfbench/ -- which compiles the
simulator from the repository's own sources -- into .bench_build/, runs
the driver, and adds the two checks one process cannot make alone:

  * the result digest must equal the one committed in digests.json for
    this (workload, seed), when one is committed;
  * the count digest (every deterministic per-layer count) must equal
    the one earlier runs of the same seed and the same driver binary
    left in .bench_build/ledger.json.

A mismatch marks the run incorrect and exits 1. The last line of
standard output is the driver's JSON result.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(os.getcwd(), ".bench_build")
DRIVER = os.path.join(BUILD, "perfbench_driver")
SELFTEST = os.path.join(BUILD, "perfbench_selftest")
DIGESTS = os.path.join(HERE, "digests.json")
LEDGER = os.path.join(BUILD, "ledger.json")
WORKLOADS = ("paper-apps", "wireless-sync", "daemon-mixed")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail("no simulator sources next to perfbench/")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets]
    if os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps = steps[1:]
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build failed: %s" % e)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))


def file_hash(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def write_json(path, data):
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")
    os.replace(tmp, path)


def tidy(out):
    """Keep only the trace file from a run's scratch directory."""
    if not os.path.isdir(out):
        return
    for name in os.listdir(out):
        if not name.startswith("trace-"):
            os.remove(os.path.join(out, name))
    if not os.listdir(out):
        os.rmdir(out)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    if args.self_test:
        build(["perfbench_selftest"])
        done = subprocess.run([SELFTEST, os.path.join(ROOT, "BENCHMARK.json")])
        sys.exit(done.returncode)
    if args.workload is None or args.seed < 0 or args.seconds < 1:
        ap.error("--workload, a seed >= 0 and --seconds >= 1 are required")

    build(["perfbench_driver"])
    out = os.path.join(BUILD, "out", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        tidy(out)
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines:
        sys.stdout.write(done.stdout)
        fail("driver exited %d without a result" % done.returncode)
    result = json.loads(lines[-1])
    fields = dict(line.split(" ", 1) for line in lines
                  if line.startswith(("result_digest ", "count_digest ")))

    problems = []
    key = "%s/%d" % (args.workload, args.seed)
    digests = load_json(DIGESTS)
    if key in digests and digests[key] != fields["result_digest"]:
        problems.append("result digest %s != committed %s"
                        % (fields["result_digest"], digests[key]))
    # The counts come from in-process runs: the driver binary keys them.
    ledger = load_json(LEDGER)
    ledger_key = "%s:%s" % (key, file_hash(DRIVER))
    recorded = ledger.setdefault(ledger_key, fields["count_digest"])
    if recorded != fields["count_digest"]:
        problems.append("count digest %s != %s from an earlier run"
                        % (fields["count_digest"], recorded))
    write_json(LEDGER, ledger)

    for problem in problems:
        print("# MISMATCH: " + problem)
    if problems:
        result["correct"] = False
        result["failed"] = result["attempted"]
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
