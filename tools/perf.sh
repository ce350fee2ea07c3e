#!/bin/sh
# Record and gate the committed speed records (BENCH_*.json), all
# measured by bench/perf_driver; docs/performance.md ("The perf
# driver") describes both.
#
#   tools/perf.sh record throughput|sampling|store [out.json]
#   tools/perf.sh gate regression|sampling|store <perf_driver> <build-type>
#
# record builds perf_driver with the bench-release preset and
# measures single-threaded at the committed scale (LVPSIM_INSTRS and
# LVPSIM_SUITE rescale it). gate backs the perf_regression,
# sampled_vs_full and store_speedup ctests; it exits 77 (ctest SKIP)
# on non-Release trees, without python3, or when a committed baseline
# it reads is missing. Tolerances and floors may only be tightened.
set -eu

root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
SAMPLING_INSTRS=2000000  # scale of BENCH_sampling.json
STORE_INSTRS=20000       # scale of BENCH_store.json (16x warmup)
REPEAT=3                 # throughput passes per workload, median kept

usage() {
    echo "usage: tools/perf.sh record throughput|sampling|store" \
         "[out.json]" >&2
    echo "       tools/perf.sh gate regression|sampling|store" \
         "<perf_driver> <build-type>" >&2
    exit 2
}

export LVPSIM_SUITE=${LVPSIM_SUITE:-full}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# floor <what> <fresh.json> <baseline.json> <tol> <min>: each measured
# ratio must reach max(<min>, committed / <tol>): the "speedup" of a
# sampling or store record, else every shared workload's kIPS.
floor() {
    python3 - "$@" <<'EOF'
import json
import sys

what, now, ref = sys.argv[1], *(json.load(open(p)) for p in sys.argv[2:4])
tol, least = float(sys.argv[4]), float(sys.argv[5])
if "speedup" in ref:
    pairs = [(what, now["speedup"], ref["speedup"])]
else:
    kips = [{r["workload"]: r["kips"]
             for r in d["workloads"] if r.get("kips")} for d in (now, ref)]
    # A smoke slice always intersects the full-suite baseline, so an
    # empty intersection means the baseline is from another world.
    pairs = [(w, kips[0][w], kips[1][w])
             for w in sorted(set(kips[0]) & set(kips[1]))]
failed = [w for w, got, base in pairs if got < max(least, base / tol)]
for w, got, base in pairs:
    print(f"  {w:24s} {got:10.2f} (committed {base:10.2f}, floor "
          f"{max(least, base / tol):10.2f}) "
          + ("REGRESSED" if w in failed else "ok"))
if failed or not pairs:
    print(f"FAIL: {what}: {len(failed)}/{len(pairs)} below the floor")
    sys.exit(1)
print(f"OK: {what} reaches its floor")
EOF
}

# store_two_process <perf_driver> <out.json> [<in-process.json>]: the
# cold and the warm store phase as two processes sharing one fresh
# store, with equal checksums. Writes <in-process.json> (or {}) plus
# cross_process and the fresh-process speedup to <out.json>.
store_two_process() {
    "$1" --phase store-cold --store "$work/store" --json "$work/cold.json"
    "$1" --phase store-warm --store "$work/store" --json "$work/warm.json"
    python3 - "$work/cold.json" "$work/warm.json" "$2" "${3:-}" <<'EOF'
import json
import sys

cold, warm = (json.load(open(p)) for p in sys.argv[1:3])
if cold["results_checksum"] != warm["results_checksum"]:
    print("FAIL: warm-process results diverged from the cold process")
    sys.exit(1)
doc = json.load(open(sys.argv[4])) if sys.argv[4] else {}
doc["cross_process"] = {"cold": cold["cold"], "warm": warm["warm"],
                        "results_checksum": warm["results_checksum"]}
cold_s = cold["cold"]["wall_seconds"]
warm_s = warm["warm"]["wall_seconds"]
doc["speedup"] = cold_s / warm_s if warm_s > 0 else 0.0
print(f"  cold process {cold_s:.3f} s, warm process {warm_s:.3f} s, "
      f"{doc['speedup']:.2f}x, counter-exact")
with open(sys.argv[3], "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
EOF
}

# slice <phase> <tol> <instrs> [flags]: a smoke-suite run of <phase>
# against the committed BENCH_<phase>.json.
slice() {
    phase=$1 tol=$2 instrs=$3
    shift 3
    echo "== $phase (smoke slice at $instrs instructions, tol ${tol}x) =="
    LVPSIM_SUITE=smoke LVPSIM_INSTRS=$instrs "$bin" --phase "$phase" \
        "$@" --json "$work/$phase.json" >/dev/null || return 1
    floor "$phase" "$work/$phase.json" "$root/BENCH_$phase.json" \
        "$tol" 0
}

record() {
    what=$1
    out=${2:-$root/BENCH_$what.json}
    case $what in throughput | sampling | store) ;; *) usage ;; esac
    cmake -S "$root" --preset bench-release >/dev/null
    cmake --build "$root/build-release" -j "$(nproc)" \
        --target perf_driver
    bin=$root/build-release/bench/perf_driver
    case $what in
    throughput)
        "$bin" --phase throughput --repeat "$REPEAT" --json "$out" ;;
    sampling)
        LVPSIM_INSTRS=${LVPSIM_INSTRS:-$SAMPLING_INSTRS} \
            "$bin" --phase sampling --json "$out" ;;
    store)
        export LVPSIM_INSTRS=${LVPSIM_INSTRS:-$STORE_INSTRS}
        "$bin" --phase store --store "$work/in_process" \
            --json "$work/in_process.json"
        store_two_process "$bin" "$out" "$work/in_process.json" ;;
    esac
}

gate() {
    what=$1 bin=$2
    case $what in
    regression) baselines="throughput sampling store" ;;
    sampling | store) baselines=$what ;;
    *) usage ;;
    esac
    if [ "$3" != "Release" ]; then
        echo "SKIP: build type '$3' is not Release; performance" \
             "numbers are only meaningful at -O3 without assertions"
        exit 77
    fi
    if ! command -v python3 >/dev/null 2>&1; then
        echo "SKIP: python3 not available"
        exit 77
    fi
    for b in $baselines; do
        if [ ! -f "$root/BENCH_$b.json" ]; then
            echo "SKIP: committed baseline BENCH_$b.json is missing;" \
                 "nothing was gated"
            exit 77
        fi
    done

    case $what in
    regression)
        # Generous: only a collapse fails. The slices run smaller than
        # the records, which shrinks the speedups too.
        failures=0
        slice throughput 5 40000 --repeat "$REPEAT" ||
            failures=$((failures + 1))
        slice sampling 4 500000 || failures=$((failures + 1))
        slice store 3 10000 --store "$work/store" ||
            failures=$((failures + 1))
        if [ "$failures" -ne 0 ]; then
            echo "FAIL: $failures of 3 committed baselines regressed"
            exit 1
        fi
        echo "OK: all 3 committed baselines within tolerance"
        ;;
    sampling)
        LVPSIM_INSTRS=$SAMPLING_INSTRS \
            "$bin" --phase sampling --json "$work/sampling.json"
        floor sampling "$work/sampling.json" \
            "$root/BENCH_sampling.json" inf 5
        ;;
    store)
        export LVPSIM_INSTRS=$STORE_INSTRS
        store_two_process "$bin" "$work/store.json"
        floor store "$work/store.json" "$root/BENCH_store.json" inf 2
        ;;
    esac
}

[ $# -ge 2 ] || usage
case $1 in
record) [ $# -le 3 ] || usage ;;
gate) [ $# -eq 4 ] || usage ;;
*) usage ;;
esac
cmd=$1
shift
"$cmd" "$@"
