#!/bin/sh
# Regenerate every paper table/figure and capture the outputs the
# repository documents (test_output.txt / bench_output.txt).
#
#   ./run_all.sh             normal run (includes `hydride-verify`)
#   ./run_all.sh --trace     additionally capture observability traces:
#                            every test and bench runs with
#                            HYDRIDE_TRACE=1 HYDRIDE_METRICS=1, the JSON
#                            artifacts land in build/traces/, and
#                            tools/check_trace.py validates each one
#                            (malformed trace JSON fails the run).
#   ./run_all.sh --sanitize  configure + build the `asan-ubsan` preset
#                            (Debug, -fsanitize=address,undefined, with
#                            load-time spec verification on) and run
#                            the tier-1 test suite under it.
#   ./run_all.sh --assertions
#                            configure + build the `glibcxx-assertions`
#                            preset (RelWithDebInfo with
#                            -D_GLIBCXX_ASSERTIONS: bounds-checked
#                            std::vector / std::string indexing) and
#                            run the bench smoke and the symbolic
#                            engine tests under it: an out-of-range
#                            container index aborts at the faulting
#                            access instead of corrupting memory.
#   ./run_all.sh --chaos     run the fault-injection sweep
#                            (`hydride-chaos`: every registered fault
#                            site in a fresh process) plus the
#                            broken-ladder detection check. Composes
#                            with --sanitize: `--sanitize --chaos`
#                            runs the sweep under the sanitizers.
#   ./run_all.sh --chaos-store
#                            run the multi-process store crash-safety
#                            suite (docs/cache_store.md): SIGKILL a
#                            writer mid-append and salvage, N
#                            concurrent forked writers on one shard,
#                            durable quarantine of a poisoned entry,
#                            and the poison-reaches-codegen detection
#                            check (expected failure). Composes with
#                            --sanitize: `--sanitize --chaos-store`
#                            runs the suite under the sanitizers.
#   ./run_all.sh --bench     run the continuous-benchmarking smoke
#                            suite (`hydride-bench --smoke`), validate
#                            the merged artifact with
#                            tools/check_bench.py, and gate it against
#                            itself (docs/benchmarking.md).
#   ./run_all.sh --lint      run the curated clang-tidy check set
#                            (.clang-tidy, warnings-as-errors) over
#                            src/ and tools/. When clang-tidy is not
#                            installed, falls back to a strict
#                            warnings-as-errors syntax-only sweep with
#                            the host compiler (docs/static_analysis.md).
#   ./run_all.sh --journal   compile a real pipeline with
#                            HYDRIDE_JOURNAL set, validate the
#                            provenance stream with
#                            tools/check_journal.py, prove
#                            `hydride-inspect explain --all`
#                            reconstructs every window's ledger, then
#                            re-run with an injected lowering fault
#                            and require `hydride-inspect diff` to
#                            flag the drift (docs/observability.md).

TRACE_MODE=0
CHAOS_MODE=0
CHAOS_STORE_MODE=0
CHAOS_BUILD=build
for arg in "$@"; do
    [ "$arg" = "--chaos" ] && CHAOS_MODE=1
    [ "$arg" = "--chaos-store" ] && CHAOS_STORE_MODE=1
done

run_chaos() {
    # The sweep: invariant is "verified degraded compilation or
    # structured diagnostic, never a crash" for every fault site.
    echo "===== hydride-chaos sweep ($CHAOS_BUILD) ====="
    "$CHAOS_BUILD"/tools/hydride-chaos || exit 1
    # The harness must also *detect* a broken degradation path
    # (nonzero exit expected — mirrors the WILL_FAIL ctest entry).
    if "$CHAOS_BUILD"/tools/hydride-chaos --break-ladder \
            > /dev/null 2>&1; then
        echo "run_all: chaos harness missed a broken ladder" >&2
        exit 1
    fi
    echo "run_all: chaos sweep passed"
}

run_chaos_store() {
    # Multi-process crash safety: a SIGKILL'd writer costs exactly its
    # torn record, concurrent writers lose nothing, poisoned entries
    # are quarantined — and the harness must *detect* poison reaching
    # codegen when verification is off (nonzero exit expected, the
    # shell mirror of the WILL_FAIL ctest entry).
    echo "===== hydride-chaos store suite ($CHAOS_BUILD) ====="
    "$CHAOS_BUILD"/tools/hydride-chaos --store-crash || exit 1
    "$CHAOS_BUILD"/tools/hydride-chaos --store-concurrent || exit 1
    "$CHAOS_BUILD"/tools/hydride-chaos --store-poison || exit 1
    if "$CHAOS_BUILD"/tools/hydride-chaos --store-poison-unverified \
            > /dev/null 2>&1; then
        echo "run_all: chaos harness missed poison reaching codegen" >&2
        exit 1
    fi
    echo "run_all: chaos store suite passed"
}

if [ "$1" = "--sanitize" ]; then
    cmake --preset asan-ubsan || exit 1
    cmake --build --preset asan-ubsan -j "$(nproc)" || exit 1
    ctest --preset asan-ubsan -j "$(nproc)" || exit 1
    echo "run_all: sanitizer suite passed"
    if [ "$CHAOS_MODE" = 1 ]; then
        CHAOS_BUILD=build/sanitize
        run_chaos
    fi
    if [ "$CHAOS_STORE_MODE" = 1 ]; then
        CHAOS_BUILD=build/sanitize
        run_chaos_store
    fi
    exit 0
fi
if [ "$1" = "--assertions" ]; then
    cmake --preset glibcxx-assertions || exit 1
    cmake --build --preset glibcxx-assertions -j "$(nproc)" || exit 1
    build/assertions/tests/test_symbolic || exit 1
    ctest --preset glibcxx-assertions -R '^hydride_bench_smoke$' || exit 1
    echo "run_all: _GLIBCXX_ASSERTIONS suite passed"
    exit 0
fi
if [ "$1" = "--chaos" ]; then
    run_chaos
    [ "$CHAOS_STORE_MODE" = 1 ] && run_chaos_store
    exit 0
fi
if [ "$1" = "--chaos-store" ]; then
    run_chaos_store
    exit 0
fi
if [ "$1" = "--lint" ]; then
    echo "===== lint (src/ + tools/) ====="
    if command -v clang-tidy > /dev/null 2>&1; then
        # Full static analysis when the tool is available: the curated
        # check set lives in .clang-tidy (warnings-as-errors, so any
        # finding fails the tier).
        cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
            > /dev/null || exit 1
        find src tools -name '*.cpp' -print0 | \
            xargs -0 clang-tidy -p build --quiet || exit 1
        echo "run_all: clang-tidy lint passed"
    else
        # Fallback for containers without clang-tidy: a strict
        # warnings-as-errors syntax-only sweep. -Wpedantic is
        # deliberately absent (BitVector's word arithmetic uses
        # __int128 on purpose); -Wmissing-declarations is dropped for
        # tools/ where each main() defines file-local helpers.
        echo "run_all: clang-tidy not found; strict-warnings fallback"
        find src -name '*.cpp' -print0 | xargs -0 -P "$(nproc)" -n 4 \
            g++ -std=c++20 -fsyntax-only -I src \
            -Wall -Wextra -Wshadow -Wnon-virtual-dtor \
            -Woverloaded-virtual -Wcast-qual -Wmissing-declarations \
            -Werror || exit 1
        find tools -name '*.cpp' -print0 | xargs -0 -P "$(nproc)" -n 4 \
            g++ -std=c++20 -fsyntax-only -I src \
            -Wall -Wextra -Wshadow -Wnon-virtual-dtor \
            -Woverloaded-virtual -Wcast-qual -Werror || exit 1
        echo "run_all: strict-warnings lint passed"
    fi
    exit 0
fi
if [ "$1" = "--journal" ]; then
    echo "===== provenance journal ====="
    JDIR=build/journal
    rm -rf "$JDIR"
    mkdir -p "$JDIR"
    # Base run: every compiled window must land in the journal with a
    # complete decision ledger.
    HYDRIDE_JOURNAL="$JDIR/base.jsonl" \
        build/examples/matmul_codegen > /dev/null || exit 1
    python3 tools/check_journal.py "$JDIR/base.jsonl" || exit 1
    build/tools/hydride-inspect explain --all \
        --journal "$JDIR/base.jsonl" || exit 1
    build/tools/hydride-inspect top --by=time \
        --journal "$JDIR/base.jsonl" || exit 1
    # Perturbed run: force the lowering rung down and require the
    # diff to notice. `diff` exits 1 on drift, so a clean exit here
    # means the journal failed to capture the perturbation.
    HYDRIDE_JOURNAL="$JDIR/perturbed.jsonl" HYDRIDE_FAULTS=lowering.fail \
        build/examples/matmul_codegen > /dev/null || exit 1
    python3 tools/check_journal.py "$JDIR/perturbed.jsonl" || exit 1
    if build/tools/hydride-inspect diff "$JDIR/base.jsonl" \
            "$JDIR/perturbed.jsonl"; then
        echo "run_all: hydride-inspect diff missed the injected" \
             "perturbation" >&2
        exit 1
    fi
    # Identity diff must stay clean — drift detection, not noise.
    build/tools/hydride-inspect diff "$JDIR/base.jsonl" \
        "$JDIR/base.jsonl" || exit 1
    echo "run_all: journal pipeline passed"
    exit 0
fi
if [ "$1" = "--bench" ]; then
    echo "===== hydride-bench --smoke ====="
    build/tools/hydride-bench --smoke --bench-dir build/bench \
        --json-out build/bench_smoke.json || exit 1
    python3 tools/check_bench.py build/bench_smoke.json || exit 1
    build/tools/hydride-bench --input build/bench_smoke.json \
        --compare build/bench_smoke.json || exit 1
    echo "run_all: bench smoke suite passed"
    exit 0
fi
if [ "$1" = "--trace" ]; then
    TRACE_MODE=1
    export HYDRIDE_TRACE=1 HYDRIDE_METRICS=1
    export HYDRIDE_TRACE_DIR=/root/repo/build/traces
    rm -rf "$HYDRIDE_TRACE_DIR"
    mkdir -p "$HYDRIDE_TRACE_DIR"
fi

echo "===== hydride-verify ====="
build/tools/hydride-verify --max-print 50 || exit 1

# Symbolic translation validation: EQ01..EQ04 over the whole
# dictionary. The tool prints per-rule proved/refuted/unknown tallies;
# unknown-verdict queries are surfaced, never counted as passes.
echo "===== hydride-verify --passes equiv ====="
build/tools/hydride-verify --passes equiv --max-print 50 || exit 1

ctest --test-dir build 2>&1 | tee /root/repo/test_output.txt | tail -3
# POSIX sh has no `pipefail`, so query the pipeline's real status via
# the ctest LastTestsFailed log rather than trusting `tee`'s exit code.
if [ -s build/Testing/Temporary/LastTestsFailed.log ]; then
    echo "run_all: ctest reported failures (see test_output.txt)" >&2
    exit 1
fi

# Run each bench binary directly (no pipeline around the loop: a
# pipeline reports only the *last* command's status, which used to
# swallow bench crashes). Fail fast, naming the binary that broke.
: > /root/repo/bench_output.txt
for b in build/bench/*; do
    [ -f "$b" ] && [ -x "$b" ] || continue
    echo "===== $b ====="
    echo "===== $b =====" >> /root/repo/bench_output.txt
    if ! "$b" > /tmp/hydride_bench_one.txt 2>&1; then
        cat /tmp/hydride_bench_one.txt >> /root/repo/bench_output.txt
        echo "run_all: bench binary failed: $b (see bench_output.txt)" >&2
        exit 1
    fi
    cat /tmp/hydride_bench_one.txt >> /root/repo/bench_output.txt
    grep -E 'GEOMEAN|Validation' /tmp/hydride_bench_one.txt
done
rm -f /tmp/hydride_bench_one.txt

if [ "$TRACE_MODE" = 1 ]; then
    echo "===== validating traces in $HYDRIDE_TRACE_DIR ====="
    set -- "$HYDRIDE_TRACE_DIR"/*.json
    if [ ! -e "$1" ]; then
        echo "run_all: no trace artifacts were produced" >&2
        exit 1
    fi
    python3 /root/repo/tools/check_trace.py "$@" || exit 1
    echo "run_all: $# observability artifacts validated"
fi
