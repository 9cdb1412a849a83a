#!/usr/bin/env bash
# Canonical offline check for this repository: builds the whole workspace
# in release mode and runs every test, all without touching a crate
# registry. CI and pre-merge runs should invoke exactly this script.
#
# Tests run in both profiles: debug catches overflow/debug-assert issues,
# release catches optimizer-dependent ones and reuses the artifacts the
# build step already produced. The fused-codegen differential harness
# (tests/fused_parity.rs, DESIGN.md §10) additionally runs by name so the
# bit-identity gate is explicit in the log, not buried in the workspace
# sweep, and likewise the planning-cache equivalence harness
# (tests/planning_cache.rs, DESIGN.md §11: warm-cache runs bit-identical
# to cold across thread counts), and the sharded multi-device determinism
# suite (tests/sharded_parity.rs, DESIGN.md §13: cluster runs at 1/2/4/8
# devices match the single engine bit-for-bit for every compatible
# placement schedule, and the executor's placement selection equals the
# shared cost model's prediction), and the causal-trace determinism suite
# (tests/causal_determinism.rs, DESIGN.md §14: merged causal edge lists
# and Work-class critical-path reports bit-identical across runs, thread
# counts, and 2/4/8 devices). After the tests, four gates run: clippy
# with warnings denied, the benchmark's smoke pass (examples/perfbench
# --smoke: every workload's calls into the library compile, run and pass
# their output checks, so a library change cannot silently break
# BENCHMARK.json),
# wisegraph-lint (the pre-execution plan/DFG/kernel/instrumentation/
# fusion verifier, DESIGN.md §8, including the O002 cluster-phase
# coverage pass) over every built-in model × partition
# strategy — once human-readable and once as --json, whose stable machine
# output is asserted to report zero errors (DESIGN.md §12) — and
# wisegraph-prof --critical-path --check (the counter-regression gate,
# DESIGN.md §9: run-to-run and cross-thread determinism plus tolerance
# bands against results/prof_baseline.json, now covering the Work-class
# critical-path attribution, with the deterministic report regenerated
# into results/prof_critical.json).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --workspace
cargo test -q --offline --workspace
cargo test --release -q --offline --workspace
cargo test --release -q --offline --test fused_parity
cargo test --release -q --offline --test planning_cache
cargo test --release -q --offline --test sharded_parity
cargo test --release -q --offline --test causal_determinism
cargo clippy --all-targets --offline --workspace -- -D warnings
cargo run --release --offline --example perfbench -- --smoke
cargo run --release --offline --bin wisegraph-lint
lint_json="$(cargo run --release --offline --bin wisegraph-lint -- --json)"
grep -q '"tool": "wisegraph-lint"' <<<"$lint_json"
grep -q '"errors": 0,' <<<"$lint_json"
cargo run --release --offline --bin wisegraph-prof -- --critical-path --check
