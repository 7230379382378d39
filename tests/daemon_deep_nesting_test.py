#!/usr/bin/env python3
"""Deeply nested request lines must not kill wisync_sweepd --serve.

The JSON parser bounds container nesting, so each of these lines
answers {"error": ...} instead of overflowing the stack:

  1. one million unclosed '[' (under the 4 MB request limit given);
  2. a balanced array nested 100,000 levels deep.

A valid request after them must still answer its result, and closing
stdin must end the loop with exit code 0.

Usage: daemon_deep_nesting_test.py /path/to/wisync_sweepd
"""

import json
import subprocess
import sys


def fail(message):
    print("FAIL: " + message, file=sys.stderr)
    sys.exit(1)


def main():
    if len(sys.argv) != 2:
        fail("usage: daemon_deep_nesting_test.py /path/to/wisync_sweepd")
    valid = json.dumps({"points": [{
        "config": {"kind": "WiSync", "cores": 4, "seed": 1},
        "workload": {"kind": "tightloop", "iterations": 2}}]},
        separators=(",", ":"))
    lines = ["[" * 1_000_000, "[" * 100_000 + "]" * 100_000, valid]
    proc = subprocess.run(
        [sys.argv[1], "--serve", "--threads", "1",
         "--max-request-bytes", "4000000"],
        input="".join(line + "\n" for line in lines).encode(),
        capture_output=True, timeout=120)
    if proc.returncode != 0:
        fail("daemon exit code %d (stderr: %s)" %
             (proc.returncode, proc.stderr.decode()[-500:]))
    answers = [json.loads(raw) for raw in proc.stdout.splitlines()]
    if len(answers) != 3:
        fail("expected 3 answers, got %d" % len(answers))
    for deep in answers[:2]:
        if "error" not in deep or "results" in deep:
            fail("no error answer for a deep line: %r" % deep)
        if "deeper than 256" not in json.dumps(deep["error"]):
            fail("the error does not name the nesting limit: %r" %
                 deep["error"])
    results = answers[2].get("results")
    if results is None or len(results) != 1 or not results[0]["ok"]:
        fail("the valid request after the deep lines failed: %r" %
             answers[2])
    print("DAEMON DEEP NESTING TEST PASS")


if __name__ == "__main__":
    main()
