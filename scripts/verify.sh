#!/usr/bin/env bash
# Hermetic verification: everything here must pass with the network
# unplugged. The workspace has zero external dependencies by policy (see
# DESIGN.md §"Hermetic build"), so --offline is exact, not best-effort.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --release --offline

# --workspace: the root package's tests/ are only the cross-crate suites;
# the crates' own unit and integration tests (the drivers' bitwise pins
# under crates/apps among them) gate nothing without it.
echo "==> cargo test -q --offline --workspace"
cargo test -q --offline --workspace

echo "==> IHTL_THREADS=1 cargo test -q --offline --workspace (sequential fallback)"
IHTL_THREADS=1 cargo test -q --offline --workspace

echo "==> IHTL_THREADS=4 cargo test -q --offline --workspace (fixed pool width)"
IHTL_THREADS=4 cargo test -q --offline --workspace

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --offline -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> scripts/lint.sh (ihtl-lint R1-R7 workspace invariants + baseline + lint.json)"
bash scripts/lint.sh --json results/lint.json

echo "==> IHTL_SHUFFLE_SEEDS=64 cargo test -q --offline --test shuffle_races"
IHTL_SHUFFLE_SEEDS=64 cargo test -q --offline --test shuffle_races

# With the worker pool engaged the shuffle sweep doubles as the regression
# gate for engine bitwise determinism: worker-keyed push buffers once made
# the f64 merge grouping schedule-dependent, and this exact sweep is what
# caught it (single-CPU boxes never engage the pool without the override).
echo "==> IHTL_THREADS=4 IHTL_SHUFFLE_SEEDS=64 cargo test -q --offline --test shuffle_races (pooled determinism gate)"
IHTL_THREADS=4 IHTL_SHUFFLE_SEEDS=64 cargo test -q --offline --test shuffle_races

echo "==> cargo run --offline --release --example quickstart"
cargo run --offline --release --example quickstart

echo "==> scripts/serve_smoke.sh (serving-layer cold-start smoke test)"
bash scripts/serve_smoke.sh

echo "==> scripts/store_smoke.sh (durable-store two-boot amortization smoke test)"
bash scripts/store_smoke.sh

echo "==> scripts/shard_smoke.sh (sharded router + workers bitwise-merge smoke test)"
bash scripts/shard_smoke.sh

# The ledger's in-run oracle (every timed result against the pull
# reference) is the gate: exit 0 means "correct":true,"failed":0. Speed is
# compared parent-against-change by `bench/run.sh --compare`, not against
# an absolute baseline recorded on some other host.
echo "==> bench/run.sh --workload sweep_resident --seed 1 --seconds 3 --trace 0 (ledger smoke)"
bash bench/run.sh --workload sweep_resident --seed 1 --seconds 3 --trace 0

# sweep_resident's `auto` picks pull; sweep_thrash runs the iHTL engine, so
# this run puts the flipped-block sweep at K = 1 and K = 8 under the oracle.
echo "==> bench/run.sh --workload sweep_thrash --seed 1 --seconds 3 --trace 0 (ledger smoke, iHTL sweeps)"
bash bench/run.sh --workload sweep_thrash --seed 1 --seconds 3 --trace 0

echo "OK: hermetic build, workspace tests (1/default/4 threads), fmt, lint (R1-R7 + baseline), 64-seed shuffle sweep, quickstart, serve smoke, store smoke, shard smoke, ledger smokes (sweep_resident, sweep_thrash)"
