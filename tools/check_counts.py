#!/usr/bin/env python3
"""Gate the simulator's deterministic counts exactly.

Runs `perfbench/run.py --seconds 1 --trace 1` for seeds 1 and 7 on
every benchmark workload and compares, value for value, the counts a
run produces from the model alone against tools/counts.json, which
holds them keyed by seed:

  - sim.events, the three scheduler tier counts and sim.cascades;
  - coro.frames_pooled and coro.frames_fallback;
  - every noc.*, mem.*, bm.* and wireless.* value except
    mem.dir_rehashes (it follows worker timing through the pooled
    directory's recycling).

Host times and ratios of host times are not compared. A change that
adds or removes an event, a frame or a message fails here unless it
updates counts.json, which puts the new counts in its diff.

Usage (from anywhere; the repository is this file's parent):

  python3 tools/check_counts.py            # exit 1 on any difference
  python3 tools/check_counts.py --update   # rewrite tools/counts.json
"""

import argparse
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
COUNTS = ROOT / "tools" / "counts.json"
WORKLOADS = ("paper-apps", "wireless-sync", "daemon-mixed")
SEEDS = (1, 7)

EXACT = {
    "sim.events",
    "sim.tier_ready",
    "sim.tier_calendar",
    "sim.tier_heap",
    "sim.cascades",
    "coro.frames_pooled",
    "coro.frames_fallback",
}
LAYERS = ("noc.", "mem.", "bm.", "wireless.")
EXCLUDED = {"mem.dir_rehashes"}


def gated(name):
    if name in EXCLUDED:
        return False
    return name in EXACT or name.startswith(LAYERS)


def run_counts(workload, seed):
    """One traced run; the gated metrics of its JSON result line."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}")
    result = json.loads(lines[-1])
    return {name: m["value"]
            for name, m in sorted(result["metrics"].items())
            if gated(name)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--update", action="store_true",
                    help="record the current counts in tools/counts.json")
    args = ap.parse_args()

    got = {str(seed): {w: run_counts(w, seed) for w in WORKLOADS}
           for seed in SEEDS}
    if args.update:
        COUNTS.write_text(json.dumps({"seeds": got}, indent=2) + "\n")
        print(f"wrote {COUNTS.relative_to(ROOT)}")
        return 0

    want = json.loads(COUNTS.read_text()).get("seeds", {})
    if sorted(want) != sorted(got):
        raise SystemExit(f"counts.json holds seeds {sorted(want)}, "
                         f"the gate runs {sorted(got)}")
    bad = 0
    for seed, runs in got.items():
        for w in WORKLOADS:
            expected = want[seed].get(w, {})
            for name in sorted(set(expected) | set(runs[w])):
                e, g = expected.get(name), runs[w].get(name)
                if e != g:
                    print(f"seed {seed}: {w}: {name}: "
                          f"expected {e}, got {g}")
                    bad += 1
    if bad:
        print(f"{bad} count(s) differ from {COUNTS.relative_to(ROOT)}; "
              "if the change is meant, rerun with --update")
        return 1
    print(f"counts match {COUNTS.relative_to(ROOT)} ({len(WORKLOADS)} "
          f"workloads, seeds {', '.join(map(str, SEEDS))})")
    return 0

if __name__ == "__main__":
    sys.exit(main())
