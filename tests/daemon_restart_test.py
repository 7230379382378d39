#!/usr/bin/env python3
"""Kill/restart durability test for wisync_sweepd --serve --cache-file.

Scenario:
  1. Run the request once in one-shot mode: the cold reference.
  2. Start a daemon with a cache file, send the request, and SIGKILL
     the process as soon as the first result record hits the disk --
     usually mid-batch, always mid-lifetime.
  3. Restart the daemon on the same cache file. The salvage load must
     recover at least one record (kill -9 loses at most the record
     being written), the rerun must report those records as cache
     hits, and every per-point result must be bit-identical to the
     cold reference (the JSON response carries exact fingerprints and
     canonically formatted result fields, so dict equality is bit
     equality).
  4. Requests whose values would crash a Machine (zero-width bridge,
     out-of-range burst probability, backoff exponents past 63) or
     wrap simulated time (bridge delays past 32 bits) must each
     answer {"error": ...} and leave the loop serving.
  5. Closing stdin must end the serve loop with exit code 0.

Usage: daemon_restart_test.py /path/to/wisync_sweepd
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time


def fail(message):
    print("FAIL: " + message, file=sys.stderr)
    sys.exit(1)


def request_line(num_points):
    points = []
    for seed in range(1, num_points + 1):
        points.append({
            "config": {"kind": "WiSync", "cores": 4, "seed": seed},
            "workload": {"kind": "tightloop", "iterations": 2},
        })
    return json.dumps({"points": points}, separators=(",", ":"))


# Well-formed requests that used to kill the daemon inside Machine, or
# (the 2^32 bridge delays) wrap simulated time and answer wrong results.
CRASHING_CONFIGS = [
    {"chips": 2, "bridge": {"widthBits": 0}},
    {"wireless": {"burst": {"pGoodToBad": 2.0}}},
    {"wireless": {"retryBackoffMaxExp": 64}},
    {"chips": 2, "bridge": {"retryBackoffMaxExp": 64}},
    {"chips": 2, "bridge": {"latencyCycles": 2 ** 32}},
    {"chips": 2, "bridge": {"ackTimeoutCycles": 2 ** 32}},
]


def crashing_lines():
    lines = []
    for extra in CRASHING_CONFIGS:
        config = {"kind": "WiSync", "cores": 4}
        config.update(extra)
        lines.append(json.dumps({"points": [{
            "config": config, "workload": {"kind": "tightloop"}}]},
            separators=(",", ":")))
    return lines


def results_by_index(response):
    results = {}
    for entry in response["results"]:
        if not entry["ok"]:
            fail("point %d errored: %s" % (entry["index"],
                                           entry.get("error")))
        results[entry["index"]] = (entry["fingerprint"], entry["result"])
    return results


def main():
    if len(sys.argv) != 2:
        fail("usage: daemon_restart_test.py /path/to/wisync_sweepd")
    sweepd = sys.argv[1]
    num_points = 6
    line = request_line(num_points)

    with tempfile.TemporaryDirectory(prefix="wisync_restart_") as tmp:
        cache = os.path.join(tmp, "cache.bin")
        req = os.path.join(tmp, "request.json")
        ref = os.path.join(tmp, "reference.json")
        with open(req, "w") as f:
            f.write(line + "\n")

        # 1. Cold one-shot reference.
        proc = subprocess.run(
            [sweepd, "--threads", "1", "--input", req, "--output", ref],
            capture_output=True, timeout=120)
        if proc.returncode != 0:
            fail("reference run failed: " + proc.stderr.decode())
        with open(ref) as f:
            reference = results_by_index(json.load(f))
        if len(reference) != num_points:
            fail("reference answered %d/%d points" %
                 (len(reference), num_points))

        # 2. Daemon, killed as soon as a record lands on disk.
        serve_cmd = [sweepd, "--serve", "--cache-file", cache,
                     "--threads", "1"]
        daemon = subprocess.Popen(
            serve_cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL)
        daemon.stdin.write((line + "\n").encode())
        daemon.stdin.flush()
        header_bytes = 16
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            try:
                if os.path.getsize(cache) > header_bytes:
                    break
            except OSError:
                pass
            time.sleep(0.01)
        else:
            daemon.kill()
            fail("no record reached the cache file within 60s")
        daemon.send_signal(signal.SIGKILL)
        daemon.wait(timeout=60)

        # 3. Restart on the same cache file, rerun, compare.
        daemon = subprocess.Popen(
            serve_cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL)
        try:
            daemon.stdin.write((line + "\n").encode())
            daemon.stdin.flush()
            raw = daemon.stdout.readline()
            if not raw:
                fail("restarted daemon closed stdout without answering")
            response = json.loads(raw)
            if "error" in response and "results" not in response:
                fail("restarted daemon errored: %s" % response["error"])
            hits = response["stats"]["cacheHits"]
            if hits < 1:
                fail("restart answered 0 cache hits; the salvaged "
                     "records were lost")
            warm = results_by_index(response)
            if warm != reference:
                fail("warm restart results diverged from the cold "
                     "reference")

            # 4. Out-of-range values answer typed errors.
            for bad in crashing_lines():
                daemon.stdin.write((bad + "\n").encode())
                daemon.stdin.flush()
                raw = daemon.stdout.readline()
                if not raw:
                    fail("daemon died on " + bad)
                if "error" not in json.loads(raw):
                    fail("no error answer for " + bad)
        finally:
            # 5. EOF on stdin ends the loop gracefully.
            daemon.stdin.close()
            if daemon.wait(timeout=60) != 0:
                fail("daemon exit code %d after stdin EOF" %
                     daemon.returncode)

        print("DAEMON RESTART TEST PASS (%d points, %d warm hits)" %
              (num_points, hits))


if __name__ == "__main__":
    main()
