#!/usr/bin/env bash
# Sampling profile of one perfbench workload, by function, at full speed.
#
#   tools/pc_sample.sh WORKLOAD SEED [FUNCTION]
#
# WORKLOAD is paper-apps, wireless-sync or daemon-mixed. Unlike
# tools/gprof_coro.sh this needs no instrumented build: it profiles the
# Release perfbench_driver that perfbench/run.py builds (into
# .bench_build/, configured the same way if it is missing). A small
# sampler is compiled on the fly into .pcsample/ and loaded with
# LD_PRELOAD: its SIGPROF handler records the interrupted program
# counter on every expiry of a 1 ms ITIMER_PROF (process CPU time; the
# kernel fires it at most once per scheduler tick, so expect a few
# hundred samples per second of wall time, whatever the thread count),
# and at exit each process writes its samples and its memory map. The
# run is 10 s of passes with --trace 0, as under run.py. -pg, by
# contrast, serializes the sweep workers on mcount (a paper-apps pass
# took 35.7 s instead of 3.2 s), so its profile describes a different
# program.
#
# The report maps each sample to the function holding it (ELF symbol
# table; a coroutine body shows as `<ramp> [clone .actor]`) and prints
# the top functions by share of samples, then the samples rolled up
# per simulator layer (the first wisync namespace in the name; an
# event trampoline or a sim::Step counts for the layer of the member
# or callable it runs). daemon-mixed
# samples the daemon processes, where its host time goes; the other
# workloads sample perfbench_driver.
#
# With FUNCTION, the report then goes down to instructions: every
# sampled function whose demangled name contains FUNCTION (say
# 'Mesh::Send::step') is disassembled with objdump -d, and each
# instruction carries its sample count and share of the function's
# samples. The interrupted PC is usually the instruction after the one
# that stalled (a load's consumer, for a cache miss), so read a hot
# line together with the one above it.
set -euo pipefail

if [[ $# -ne 2 && $# -ne 3 ]]; then
    echo "usage: $0 WORKLOAD SEED [FUNCTION]" >&2
    exit 2
fi
workload=$1
seed=$2
function=${3:-}
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
work="$root/.pcsample"
out="$work/out-$workload-$seed"

if [[ ! -f $build/CMakeCache.txt ]]; then
    cmake -S "$root/perfbench" -B "$build" -DCMAKE_BUILD_TYPE=Release \
        >/dev/null
fi
cmake --build "$build" -j "$(nproc)" --target perfbench_driver >/dev/null

mkdir -p "$work"
cat >"$work/pcsample.c" <<'EOF'
/* SIGPROF program-counter sampler, loaded with LD_PRELOAD. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define CAPACITY (1u << 21)

static unsigned long pcs[CAPACITY];
static volatile unsigned int taken;
static pid_t owner;

static void
onProf(int sig, siginfo_t *info, void *uctx)
{
    (void)sig;
    (void)info;
    const ucontext_t *uc = uctx;
#if defined(__x86_64__)
    const unsigned long pc = uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
    const unsigned long pc = uc->uc_mcontext.pc;
#else
    const unsigned long pc = 0;
#endif
    const unsigned int i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i < CAPACITY)
        pcs[i] = pc;
}

__attribute__((constructor)) static void
start(void)
{
    owner = getpid();
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = onProf;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    const struct itimerval every = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void
finish(void)
{
    const struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *prefix = getenv("PCSAMPLE_OUT");
    if (prefix == NULL || getpid() != owner) /* a fork's copy */
        return;
    char path[4096];
    snprintf(path, sizeof path, "%s.%d.pcs", prefix, (int)owner);
    FILE *f = fopen(path, "w");
    if (f == NULL)
        return;
    const unsigned int n = taken < CAPACITY ? taken : CAPACITY;
    for (unsigned int i = 0; i < n; ++i)
        fprintf(f, "%lx\n", pcs[i]);
    fclose(f);
    snprintf(path, sizeof path, "%s.%d.maps", prefix, (int)owner);
    FILE *maps = fopen("/proc/self/maps", "r");
    FILE *copy = fopen(path, "w");
    if (maps != NULL && copy != NULL) {
        char buf[8192];
        size_t got;
        while ((got = fread(buf, 1, sizeof buf, maps)) > 0)
            fwrite(buf, 1, got, copy);
    }
    if (maps != NULL)
        fclose(maps);
    if (copy != NULL)
        fclose(copy);
}
EOF
cc -O2 -shared -fPIC -o "$work/pcsample.so" "$work/pcsample.c"

rm -rf "$out"
mkdir -p "$out"
(cd "$out" && exec env LD_PRELOAD="$work/pcsample.so" \
    PCSAMPLE_OUT="$out/prof" \
    "$build/perfbench_driver" --workload "$workload" --seed "$seed" \
    --seconds 10 --trace 0 --out-dir "$out/run" >"$out/driver.txt") &
driver_pid=$!
wait "$driver_pid" || true
tail -n 1 "$out/driver.txt" | grep -q '"correct": true' || {
    echo "$0: the sampled run failed; see $out/driver.txt" >&2
    exit 1
}

if [[ $workload == daemon-mixed ]]; then
    want=wisync_sweepd
else
    want=perfbench_driver
fi

python3 - "$out" "$want" "$function" <<'EOF'
import bisect
import collections
import glob
import os
import re
import subprocess
import sys

out, want, function = sys.argv[1], sys.argv[2], sys.argv[3]


def segments(path):
    """PT_LOAD (file offset, vaddr, file size) of an ELF file."""
    text = subprocess.run(["readelf", "-lW", path], capture_output=True,
                          text=True).stdout
    segs = []
    for line in text.splitlines():
        f = line.split()
        if f and f[0] == "LOAD":
            segs.append((int(f[1], 16), int(f[2], 16), int(f[4], 16)))
    return segs


def symbols(path):
    """Sorted (address, size, mangled name) of the defined functions."""
    text = subprocess.run(["nm", "-S", "--defined-only", path],
                          capture_output=True, text=True).stdout
    syms = []
    for line in text.splitlines():
        f = line.split()
        if len(f) == 4 and f[2] in "tTwWiI":
            syms.append((int(f[0], 16), int(f[1], 16), f[3]))
    syms.sort()
    return syms


elf = {}


def resolve(path, file_off):
    """(symbol as (address, size, name), address) holding an offset."""
    if path not in elf:
        try:
            elf[path] = (segments(path), symbols(path))
        except OSError:
            elf[path] = ([], [])
    segs, syms = elf[path]
    for off, vaddr, size in segs:
        if off <= file_off < off + size:
            addr = file_off - off + vaddr
            i = bisect.bisect_right(syms, (addr, float("inf"), "")) - 1
            if i >= 0 and addr < syms[i][0] + max(syms[i][1], 1):
                return syms[i], addr
            break
    return None, None


counts = collections.Counter()
# (ELF path, symbol) -> samples per instruction address.
by_insn = collections.defaultdict(collections.Counter)
total = 0
for pcs in glob.glob(os.path.join(out, "prof.*.pcs")):
    maps = []
    for line in open(pcs[:-4] + ".maps"):
        f = line.split()
        if len(f) >= 6 and "x" in f[1]:
            lo, hi = (int(x, 16) for x in f[0].split("-"))
            maps.append((lo, hi, int(f[2], 16), f[5]))
    exe = [m for m in maps if os.path.basename(m[3]) == want]
    if not exe:
        continue
    maps.sort()
    starts = [m[0] for m in maps]
    for line in open(pcs):
        pc = int(line, 16)
        total += 1
        i = bisect.bisect_right(starts, pc) - 1
        if i < 0 or pc >= maps[i][1]:
            counts["?unmapped"] += 1
            continue
        lo, _, off, path = maps[i]
        sym, addr = resolve(path, pc - lo + off)
        if sym is None:
            counts["?" + os.path.basename(path)] += 1
        else:
            counts[sym[2]] += 1
            if function:
                by_insn[(path, sym)][addr] += 1

if total == 0:
    sys.exit("no samples from %s" % want)
names = list(counts)
plain = subprocess.run(["c++filt"], input="\n".join(names),
                       capture_output=True, text=True).stdout.splitlines()
pretty = dict(zip(names, plain))

print("%d samples in %s" % (total, want))
print("\n  share  samples  function")
for sym, n in counts.most_common(60):
    print("%6.2f%% %8d  %s" % (100.0 * n / total, n, pretty[sym]))

layers = collections.Counter()
WRAPPERS = re.compile(r"wisync::sim::(Engine::runInline|Step)<&?")
for sym, n in counts.items():
    name = pretty[sym]
    # An event trampoline or a record step counts for the layer of
    # what it runs: look past the wrappers first.
    found = (re.findall(r"wisync::(\w+)::", WRAPPERS.sub("", name)) or
             re.findall(r"wisync::(\w+)::", name))
    if found:
        layers[found[0]] += n
    else:
        layers["other (std, libc)"] += n
print("\nsamples by layer (first wisync namespace in the function)")
for layer, n in layers.most_common():
    print("%6.2f%% %8d  %s" % (100.0 * n / total, n, layer))

if function:
    hot = [(sum(c.values()), path, sym) for (path, sym), c in by_insn.items()
           if function in pretty[sym[2]]]
    if not hot:
        sys.exit("no samples in a function whose name contains %r" %
                 function)
    line_re = re.compile(r"^\s*([0-9a-f]+):\s*(.*)$")
    for n, path, (start, size, name) in sorted(hot, reverse=True):
        print("\n%d samples (%.2f%% of all) in %s" %
              (n, 100.0 * n / total, pretty[name]))
        text = subprocess.run(
            ["objdump", "-d", "-C", "--no-show-raw-insn",
             "--start-address=0x%x" % start,
             "--stop-address=0x%x" % (start + max(size, 1)), path],
            capture_output=True, text=True).stdout
        insns = by_insn[(path, (start, size, name))]
        for line in text.splitlines():
            m = line_re.match(line)
            if m is None:
                continue
            k = insns.get(int(m.group(1), 16), 0)
            share = "%5.1f%%" % (100.0 * k / n) if k else ""
            print("%7s %6s  %s:  %s" % (k or "", share, m.group(1),
                                        m.group(2)))
EOF
