#!/usr/bin/env bash
# Local CI gate — the same three checks .github/workflows/ci.yml runs.
# Everything is --offline: the workspace has no registry dependencies
# (rand/proptest/criterion are vendored in vendor/), so a network-less
# container must build and test cleanly.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo clippy --features faultsim (deny warnings)"
cargo clippy --workspace --all-targets --offline --features faultsim -- -D warnings

echo "==> cargo clippy --features alloc-profile (deny warnings)"
cargo clippy --workspace --all-targets --offline --features alloc-profile -- -D warnings

echo "==> benchmark package compiles against the workspace crates"
CARGO_TARGET_DIR=.bench_build cargo check --offline --manifest-path perfbench/Cargo.toml

echo "==> warm-store smoke (STP_JOBS=1): warm an NPN4 slice, save, reload, zero misses"
STP_JOBS=1 cargo test -q -p stp-bench --offline --test warm_store smoke_warm_slice

echo "==> warm-store smoke (STP_JOBS=$(nproc))"
STP_JOBS="$(nproc)" cargo test -q -p stp-bench --offline --test warm_store smoke_warm_slice

echo "==> factor counter baseline (NPN4 slice, jobs=1, vs committed BENCH_factor.json)"
cargo test -q -p stp-bench --offline --test factor_baseline

echo "==> suite scheduler baseline (NPN4 slice at jobs=1 and 4, vs committed BENCH_suite.json)"
cargo test -q -p stp-bench --offline --test suite_baseline

echo "==> wide-spec baseline (WIDE[9..12], STP_JOBS=1, vs committed BENCH_factor.json)"
STP_JOBS=1 cargo test -q -p stp-bench --offline --test wide_baseline

echo "==> wide-spec baseline (STP_JOBS=$(nproc))"
STP_JOBS="$(nproc)" cargo test -q -p stp-bench --offline --test wide_baseline

echo "==> warm farm baseline (sharded NPN5/6 sample, STP_JOBS=1, vs committed BENCH_warm.json)"
STP_JOBS=1 cargo test -q -p stp-bench --offline --test warm_farm

echo "==> warm farm baseline (STP_JOBS=$(nproc))"
STP_JOBS="$(nproc)" cargo test -q -p stp-bench --offline --test warm_farm

echo "==> multi-output baseline + differential (STP_JOBS=1, vs committed BENCH_mo.json)"
STP_JOBS=1 cargo test -q -p stp-bench --offline --test mo_baseline --test mo_differential

echo "==> multi-output baseline + differential (STP_JOBS=$(nproc))"
STP_JOBS="$(nproc)" cargo test -q -p stp-bench --offline --test mo_baseline --test mo_differential

echo "==> suite determinism (two-level scheduler, STP_JOBS=1)"
STP_JOBS=1 cargo test -q -p stp-bench --offline --test determinism

echo "==> suite determinism (two-level scheduler, STP_JOBS=$(nproc))"
STP_JOBS="$(nproc)" cargo test -q -p stp-bench --offline --test determinism

echo "==> profiler smoke + stpprof drift gate (STP_JOBS=1)"
STP_JOBS=1 cargo test -q -p stp-bench --offline --test profile_smoke --test profile_determinism

echo "==> profiler smoke + stpprof drift gate (STP_JOBS=$(nproc))"
STP_JOBS="$(nproc)" cargo test -q -p stp-bench --offline --test profile_smoke --test profile_determinism

echo "==> profiler smoke with the counting allocator (--features alloc-profile, STP_JOBS=1)"
STP_JOBS=1 cargo test -q -p stp-bench --offline --features alloc-profile --test profile_smoke

echo "==> profiler smoke with the counting allocator (--features alloc-profile, STP_JOBS=$(nproc))"
STP_JOBS="$(nproc)" cargo test -q -p stp-bench --offline --features alloc-profile --test profile_smoke

echo "==> serve smoke + load baseline (stpd wire protocol, STP_JOBS=1, vs committed BENCH_serve.json)"
STP_JOBS=1 cargo test -q -p stp-serve --offline --test serve_smoke --test serve_baseline

echo "==> serve smoke + load baseline (STP_JOBS=$(nproc))"
STP_JOBS="$(nproc)" cargo test -q -p stp-serve --offline --test serve_smoke --test serve_baseline

echo "==> cargo test (STP_JOBS=1, sequential default)"
STP_JOBS=1 cargo test -q --workspace --offline

echo "==> cargo test (STP_JOBS=$(nproc), parallel default)"
STP_JOBS="$(nproc)" cargo test -q --workspace --offline

echo "==> fault-injection suite (--features faultsim, STP_JOBS=1)"
STP_JOBS=1 cargo test -q -p stp-store -p stp-synth -p stp-bench -p stp-serve --offline --features faultsim

echo "==> fault-injection suite (--features faultsim, STP_JOBS=$(nproc))"
STP_JOBS="$(nproc)" cargo test -q -p stp-store -p stp-synth -p stp-bench -p stp-serve --offline --features faultsim

echo "CI OK"
