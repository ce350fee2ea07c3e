#!/bin/sh
# The pre-PR gate, in one command (documented in README.md):
#
#   configure -> build -> ctest (smoke + lint labels) -> ctest (fuzz
#   label) -> ctest (store label) -> ctest (hostile label) -> ctest
#   (core exactness: differential label, suite determinism, zero
#   allocation) -> ctest (shape label) -> perf gates -> thread-safety
#   tree -> lvplint -> doc links -> strict doxygen
#
#   tools/ci.sh [build-dir]            default build dir: ./build
#
# Each gate is timed; the run ends with a wall-clock table so slow
# gates are visible at a glance.  The smoke label covers the fast
# correctness suites; the lint label covers lvplint (repo +
# fixtures), the formatting check and the thread-safety tree.  The
# final explicit lvplint run is belt-and-braces so the gate still
# bites when ctest filtering is misconfigured, and prints findings in
# the terminal where they are easiest to read.
#
# Extended gates (run before large or concurrency-touching PRs):
#   tools/run_sanitizers.sh       ASan+UBSan and TSan trees
#   ctest --test-dir build        the full 700+ test suite
set -eu

cd "$(dirname "$0")/.."
build="${1:-build}"

timings=""

# gate NAME CMD...: run CMD under a banner and record its wall-clock.
gate() {
    _name="$1"
    shift
    echo "== $_name =="
    _t0=$(date +%s)
    "$@"
    _dt=$(( $(date +%s) - _t0 ))
    timings="${timings}${_name}\t${_dt}\n"
}

configure() {
    # compile_commands.json is exported by default (CMakeLists.txt);
    # clang-tidy and lvplint's project model read it from $build.
    cmake -B "$build" -S .
}

build_tree() { cmake --build "$build" -j"$(nproc)"; }

smoke_lint() {
    ctest --test-dir "$build" -L 'smoke|lint' --output-on-failure \
          -j"$(nproc)"
}

fuzz() {
    # Every seeded property test: spec truth, checkpoint restore and
    # reuse, trace round trips, predictor bounds, containers.
    ctest --test-dir "$build" -L fuzz --output-on-failure -j"$(nproc)"
}

store_gate() {
    # Checkpoint-store contract (docs/performance.md): the store unit
    # and robustness tests plus store_concurrency, where two racing
    # cold CLI processes must agree byte for byte, leave no stale
    # claims, and fill the store so a third run has zero misses.
    ctest --test-dir "$build" -L store --output-on-failure -j"$(nproc)"
}

hostile() {
    # The external-input contract: every malformed flag, environment
    # variable or workload spec exits with status exactly 2 and names
    # what it rejected (the lvpsim_rejects tests, tools/CMakeLists.txt).
    ctest --test-dir "$build" -L hostile --output-on-failure -j"$(nproc)"
}

core_exactness() {
    # The core's results must not move: the three-pipeline
    # differential gate and the golden counter / work-count pins
    # (label differential), --jobs 1 vs --jobs 4 byte identity
    # (suite_determinism), and the allocation-free steady state
    # (AllocFree, unlabelled because it replaces operator new).
    ctest --test-dir "$build" -L differential --output-on-failure \
          -j"$(nproc)"
    ctest --test-dir "$build" -R 'suite_determinism|AllocFree' \
          --output-on-failure -j"$(nproc)"
}

shape() {
    # The paper-shape claims (tests/test_shape.cc): every claim of the
    # figure table holds on the full suite at the calibrated scale,
    # for seed 1 and held-out seed 1009. Each seed is one test that
    # already uses every core, so the two run one after the other.
    ctest --test-dir "$build" -L shape --output-on-failure
}

perf_gates() {
    # The perf label runs the bench bit-rot smokes at toy scale plus
    # the three Release-only gates: perf_regression (floors vs every
    # committed BENCH_*.json), sampled_vs_full (sampling speedup +
    # error bounds vs full simulation, docs/sampling.md), and
    # store_speedup (fresh-process warm-store speedup,
    # docs/performance.md).
    cmake -S . --preset bench-release >/dev/null
    cmake --build build-release -j"$(nproc)"
    ctest --test-dir build-release -L perf --output-on-failure
}

thread_safety() {
    # Clang-only -Werror=thread-safety tree; skips (not fails) on
    # containers without clang++, same policy as the ctest gate.
    if sh tools/check_thread_safety.sh "$build-tsa"; then
        :
    else
        _st=$?
        if [ "$_st" -eq 77 ]; then
            echo "thread-safety: clang++ not found; skipped"
        else
            return "$_st"
        fi
    fi
}

lvplint() { python3 tools/lint/lvplint.py --root .; }

doc_links() { python3 tools/check_doc_links.py --root .; }

docs_strict() { cmake --build "$build" --target docs; }

gate "configure" configure
gate "build" build_tree
gate "ctest: smoke + lint" smoke_lint
gate "ctest: fuzz" fuzz
gate "ctest: store" store_gate
gate "ctest: hostile" hostile
gate "ctest: core exactness" core_exactness
gate "ctest: shape" shape
gate "ctest: perf gates" perf_gates
gate "thread-safety tree" thread_safety
gate "lvplint" lvplint
gate "docs links" doc_links
gate "docs (strict doxygen)" docs_strict

echo "== gate timings =="
printf "%b" "$timings" | while IFS="$(printf '\t')" read -r name dt; do
    printf '  %-28s %4ss\n' "$name" "$dt"
done

echo "ci.sh: all gates green"
