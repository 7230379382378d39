#!/usr/bin/env bash
# Flat gprof profile of one perfbench workload, with coroutine bodies
# charged to themselves.
#
#   tools/gprof_coro.sh WORKLOAD SEED
#
# WORKLOAD is paper-apps, wireless-sync or daemon-mixed. The script
# configures perfbench/ as it is into .gprof_build/ with
# -pg -fno-ipa-icf (identical-code folding would merge trampolines
# into one symbol), runs perfbench_driver for 10 s of passes, and prints
# `gprof -b -p` followed by self time rolled up per simulator layer.
# daemon-mixed profiles the daemon processes (where its host time
# goes); the other workloads profile perfbench_driver.
#
# Why the renaming: gprof ignores every symbol whose name contains a
# '.', and GCC names a coroutine's body `<ramp>.actor` (and its
# teardown `.destroy`, split-off cold code `.cold`, clones `.isra.0`,
# ...). Unrenamed, that time lands on whatever symbol precedes the
# body in the binary. Each dotted local symbol is renamed with
# `objcopy --redefine-syms` ('.' -> '_'), and the report shows a
# coroutine body as its demangled ramp plus an `[actor]` or
# `[destroy]` suffix.
set -euo pipefail

if [[ $# -ne 2 ]]; then
    echo "usage: $0 WORKLOAD SEED" >&2
    exit 2
fi
workload=$1
seed=$2
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.gprof_build"
out="$build/out-$workload-$seed"

cmake -S "$root/perfbench" -B "$build" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS="-pg -fno-ipa-icf" -DCMAKE_EXE_LINKER_FLAGS="-pg" \
    >/dev/null
cmake --build "$build" -j "$(nproc)" --target perfbench_driver >/dev/null

rm -rf "$out"
mkdir -p "$out"
# GMON_OUT_PREFIX gives every profiled process (perfbench_driver and each
# daemon it starts) its own gmon.<pid>.
(cd "$out" && exec env GMON_OUT_PREFIX="$out/gmon" \
    "$build/perfbench_driver" --workload "$workload" --seed "$seed" \
    --seconds 10 --trace 0 --out-dir "$out/run" >"$out/driver.txt") &
driver_pid=$!
wait "$driver_pid" || true
tail -n 1 "$out/driver.txt" | grep -q '"correct": true' || {
    echo "$0: the profiled run failed; see $out/driver.txt" >&2
    exit 1
}

if [[ $workload == daemon-mixed ]]; then
    binary=$(find "$build" -type f -name wisync_sweepd -perm -u+x | head -n 1)
    profiles=$(find "$out" -name 'gmon.*' ! -name "gmon.$driver_pid")
else
    binary="$build/perfbench_driver"
    profiles="$out/gmon.$driver_pid"
fi

# Rename the dotted symbols in a copy of the binary; keep the map.
nm "$binary" | awk '$3 ~ /\./ { print $3 }' | sort -u >"$out/dotted.txt"
awk '{ new = $1; gsub(/\./, "_", new); print $1, new }' \
    "$out/dotted.txt" >"$out/rename.txt"
objcopy --redefine-syms="$out/rename.txt" "$binary" "$out/profiled.bin"

# shellcheck disable=SC2086 # several gmon files are summed
gprof -b -p --no-demangle "$out/profiled.bin" $profiles >"$out/flat.txt"

python3 - "$out/flat.txt" "$out/rename.txt" <<'EOF'
import re
import subprocess
import sys

flat, rename = sys.argv[1], sys.argv[2]
original = dict(reversed(line.split()) for line in open(rename))


def demangle(names):
    proc = subprocess.run(["c++filt"], input="\n".join(names),
                          capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()


def ramp(sym):
    """(name to demangle, suffix) of a profiled symbol. A coroutine
    body is named after its ramp: `<ramp>(<len><ramp>.Frame*).actor`."""
    old = original.get(sym, sym)
    head, sep, tail = old.partition(".Frame.")
    embedded = re.fullmatch(r".*\d(_Z\w*)", head) if sep else None
    if embedded:
        return embedded.group(1), tail.replace(".", " ")
    return old, ""


rows, header = [], []
for line in open(flat):
    parts = line.split()
    if len(parts) >= 4 and re.fullmatch(r"[\d.]+", parts[0]):
        rows.append((line.rstrip("\n"), parts[-1], float(parts[2])))
    elif not rows:
        header.append(line.rstrip("\n"))

bases = [ramp(sym) for _, sym, _ in rows]
names = demangle([b for b, _ in bases]) if bases else []
layer_time = {}
total = 0.0
print("\n".join(header))
for (line, sym, self_s), name, (_, suffix) in zip(rows, names, bases):
    print(line[: len(line) - len(sym)] + name +
          (" [%s]" % suffix if suffix else ""))
    # A trampoline's layer is its callable's: Engine::runInline<F>.
    layers = re.findall(r"wisync::(\w+)::", name)
    if name.startswith("void wisync::sim::Engine::runInline<") and \
            len(layers) > 1:
        layer = layers[1]
    else:
        layer = layers[0] if layers else "other (std, libc)"
    layer_time[layer] = layer_time.get(layer, 0.0) + self_s
    total += self_s

print("\nself time by layer (first wisync namespace in the symbol)")
for layer, t in sorted(layer_time.items(), key=lambda kv: -kv[1]):
    print("%8.2f s  %5.1f%%  %s" % (t, 100 * t / total if total else 0,
                                     layer))
EOF
