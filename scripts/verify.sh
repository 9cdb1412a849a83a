#!/usr/bin/env bash
# Canonical offline check for this repository: builds the whole workspace
# in release mode and runs every test, all without touching a crate
# registry. CI and pre-merge runs should invoke exactly this script.
#
# Right after the release build, the two multi-device figure harnesses
# (table2_multi_gpu, fig20_hidden_dim; a few seconds together) rerun and
# their stdout is compared byte for byte with the committed
# results/*.txt, so an edit to the closed-form multi-device pricing
# cannot drift those artifacts unnoticed.
#
# Tests run in both profiles: debug catches overflow/debug-assert issues,
# release catches optimizer-dependent ones and reuses the artifacts the
# build step already produced. The workspace sweep is the only test run:
# the bit-identity harnesses (tests/fused_parity.rs,
# tests/workspace_parity.rs, tests/planning_cache.rs, tests/sharded_parity.rs,
# tests/attribution_determinism.rs: the cluster's exchange log and the
# critical-path report replayed from it) and the planner/verifier equivalence
# suites (tests/partitioner_equivalence.rs, tests/verifier_equivalence.rs,
# tests/sampled_step_equivalence.rs)
# are part of it and are not re-run by name, and so are the checks of
# the repository's own code: the verifier's clean sweep over every model
# × table plan and repair, with every rewrite built through the checked
# DFG builder (tests/analysis_diagnostics.rs), the rewrite interpreter
# check (tests/properties.rs) and the span captures
# (tests/analysis_diagnostics.rs). After the tests, four gates run: clippy
# with warnings denied, rustdoc with warnings denied (so a deleted item
# leaves no dangling intra-doc link), the benchmark's smoke pass
# (examples/perfbench --smoke: every workload's calls into the library
# compile, run and pass their output checks, so a library change cannot
# silently break BENCHMARK.json), and
# wisegraph-prof --critical-path --check (the counter-regression gate:
# run-to-run and cross-thread determinism plus tolerance
# bands against results/prof_baseline.json, covering the Work-class
# critical-path attribution, with the deterministic report regenerated
# into results/prof_critical.json). Every tracked file under results/ that
# a step regenerates is byte-stable, so the script checksums them first and
# last: running it must not dirty the tree.
set -euo pipefail
cd "$(dirname "$0")/.."

# A checksum of file contents rather than `git diff`, so the guard also
# holds on a working tree with uncommitted changes.
results_checksum() { git ls-files -z results | xargs -0 sha256sum | sha256sum; }
results_before="$(results_checksum)"

cargo build --release --offline --workspace
for fig in table2_multi_gpu fig20_hidden_dim; do
    cargo run --release --offline --quiet -p wisegraph-bench --bin "$fig" |
        cmp - "results/$fig.txt"
done
cargo test -q --offline --workspace
cargo test --release -q --offline --workspace
cargo clippy --all-targets --offline --workspace -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace
cargo run --release --offline --example perfbench -- --smoke
cargo run --release --offline --bin wisegraph-prof -- --critical-path --check
if [ "$(results_checksum)" != "$results_before" ]; then
    echo "verify.sh: a tracked file under results/ changed during the run" >&2
    git status --porcelain results >&2
    exit 1
fi
