#!/usr/bin/env bash
# The benchmark's one entry script.
#
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload, one mode; the last stdout line is the result object.
#       This is the form BENCHMARK.json's `command` is run in.
#   bench/run.sh [--seed N] [--seconds S] [--repeat R] [--file F]
#       the whole suite: every workload, tracing off then on, R times with
#       consecutive seeds, collected into F (default bench/out/suite.json).
#   bench/run.sh --compare a.json b.json
#       the parent-vs-change table (`ledger compare`).
#
# Builds the servers (root workspace) and the ledger (bench/, its own
# workspace) `--release --offline` first; both builds are no-ops when
# nothing changed. Exits non-zero when the build fails, when a run cannot be
# made, or when any result fails the reference check.
set -euo pipefail

BENCH_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(dirname "$BENCH_DIR")"
OUT="$BENCH_DIR/out"

# One target directory for both builds, so the path-dependency crates are
# compiled once. A relative CARGO_TARGET_DIR is relative to the directory
# the benchmark is started from, not to whichever manifest cargo is given.
TARGET="${CARGO_TARGET_DIR:-$ROOT/target}"
case "$TARGET" in
    /*) ;;
    *) TARGET="$PWD/$TARGET" ;;
esac
export CARGO_TARGET_DIR="$TARGET"

# A stripped checkout (BENCHMARK.json and bench/ only) has nothing to
# measure: fail before printing anything that looks like a result.
if [[ ! -f "$ROOT/Cargo.toml" || ! -d "$ROOT/crates/serve" || ! -d "$ROOT/crates/router" ]]; then
    echo "bench/run.sh: the repository's crates are not here ($ROOT); nothing to benchmark" >&2
    exit 3
fi

{
    cargo build --release --offline --manifest-path "$ROOT/Cargo.toml" -p ihtl-serve -p ihtl-router
    cargo build --release --offline --manifest-path "$BENCH_DIR/Cargo.toml"
} >&2

BIN="$TARGET/release"
mkdir -p "$OUT"

# glibc reads these once at process start (see MALLOC_ENV in src/util.rs);
# the ledger refuses to measure without them and its children inherit them.
export MALLOC_MMAP_MAX_=0
export MALLOC_TRIM_THRESHOLD_=17179869184

# A signal does not unwind the ledger, so its Drop guards cannot run: kill
# this invocation's ledger and everything it started (a `ledger run` of the
# suite, servers, the router) — and nothing else: another shell's run is not
# ours. bash runs a trap only between commands, so the ledger runs in the
# background under an (interruptible) `wait`.
LEDGER_PID=
kill_tree() {
    local parent=$1 p key value
    # Stopped first, so it starts nothing new and its children stay its own.
    kill -STOP "$parent" 2>/dev/null || return 0
    for p in /proc/[0-9]*; do
        while read -r key value; do
            if [[ "$key" == PPid: ]]; then
                [[ "$value" == "$parent" ]] && kill_tree "${p#/proc/}"
                break
            fi
        done 2>/dev/null <"$p/status" || true
    done
    kill -9 "$parent" 2>/dev/null || true
}
on_signal() {
    [[ -n "$LEDGER_PID" ]] && kill_tree "$LEDGER_PID"
    exit "$1"
}
trap 'on_signal 130' INT
trap 'on_signal 143' TERM
ledger() {
    "$BIN/ledger" "$@" &
    LEDGER_PID=$!
    local rc=0
    wait "$LEDGER_PID" || rc=$?
    LEDGER_PID=
    return "$rc"
}

mode=suite
for arg in "$@"; do
    case "$arg" in
        --workload) mode=run ;;
        --compare) mode=compare ;;
    esac
done

case "$mode" in
    run)
        ledger run "$@" --out "$OUT" --bin-dir "$BIN"
        ;;
    compare)
        args=()
        for arg in "$@"; do [[ "$arg" == --compare ]] || args+=("$arg"); done
        "$BIN/ledger" compare "${args[@]}"
        ;;
    suite)
        file="$OUT/suite.json"
        args=()
        while [[ $# -gt 0 ]]; do
            case "$1" in
                --file) file="$2"; shift 2 ;;
                *) args+=("$1"); shift ;;
            esac
        done
        ledger suite "${args[@]}" --file "$file" --out "$OUT" --bin-dir "$BIN"
        ;;
esac
