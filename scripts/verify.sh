#!/usr/bin/env bash
# Canonical offline check for this repository: builds the whole workspace
# in release mode and runs every test, all without touching a crate
# registry. CI and pre-merge runs should invoke exactly this script.
#
# Tests run in both profiles: debug catches overflow/debug-assert issues,
# release catches optimizer-dependent ones and reuses the artifacts the
# build step already produced. The workspace sweep is the only test run:
# the bit-identity harnesses (tests/fused_parity.rs, DESIGN.md §10;
# tests/planning_cache.rs, §11; tests/sharded_parity.rs, §13;
# tests/causal_determinism.rs, §14) and the planner/verifier equivalence
# suites (tests/partitioner_equivalence.rs, tests/verifier_equivalence.rs)
# are part of it and are not re-run by name. After the tests, four gates
# run: clippy with warnings denied, the benchmark's smoke pass (examples/perfbench
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
cargo clippy --all-targets --offline --workspace -- -D warnings
cargo run --release --offline --example perfbench -- --smoke
cargo run --release --offline --bin wisegraph-lint
lint_json="$(cargo run --release --offline --bin wisegraph-lint -- --json)"
grep -q '"tool": "wisegraph-lint"' <<<"$lint_json"
grep -q '"errors": 0,' <<<"$lint_json"
cargo run --release --offline --bin wisegraph-prof -- --critical-path --check
