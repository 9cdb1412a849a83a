#!/usr/bin/env bash
# Canonical offline check for this repository: builds the whole workspace
# in release mode and runs every test, all without touching a crate
# registry. CI and pre-merge runs should invoke exactly this script.
#
# Right after the release build, every paper harness in
# crates/bench/src/bin/ regenerates its artifact in place: its stdout
# becomes results/<harness>.txt, and fig15_partitions also writes its six
# results/fig15_*.csv itself. The two harnesses that print wall-clock
# columns are skipped (timed_harnesses below). Each harness's wall-clock
# seconds go to stderr, so a harness that turns slow shows in the log. The regenerated files, like
# the ones wisegraph-prof writes, are compared by the checksum guard at the
# end.
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
# wisegraph-prof --check (the determinism gate: run-to-run and
# cross-thread identity of the counters; every run rewrites
# results/prof_*.json, including prof_baseline.json with every counter
# family and prof_critical.json with the critical-path report). Every
# file under results/ that a step regenerates is byte-stable, so the
# script checksums results/ first and last: a file that is not what its
# producer prints, or an artifact that appears during the run, fails it,
# and `git diff results` shows the new bytes. That checksum is the one
# check on counter values, exact for every class.
set -euo pipefail
cd "$(dirname "$0")/.."

# Checksums of file contents rather than `git diff`, so the guard also
# holds on a working tree with uncommitted changes and names exactly the
# files the run changed. Untracked, unignored files count too, so a
# harness whose output was never committed fails.
results_checksums() {
    git ls-files -z --cached --others --exclude-standard results | xargs -0 sha256sum
}
results_before="$(results_checksums)"

cargo build --release --offline --workspace
# These print wall-clock columns, so their output differs from run to run:
# the committed files are one run's record and are not regenerated here.
timed_harnesses="fig21_sampling table3_overhead"
for src in crates/bench/src/bin/*.rs; do
    bin="$(basename "$src" .rs)"
    case " $timed_harnesses " in *" $bin "*) continue ;; esac
    start_ns="$(date +%s%N)"
    cargo run --release --offline --quiet -p wisegraph-bench --bin "$bin" \
        > "results/$bin.txt"
    ms=$(( ($(date +%s%N) - start_ns) / 1000000 ))
    printf 'verify.sh: %s took %d.%d s\n' "$bin" $((ms / 1000)) $((ms % 1000 / 100)) >&2
done
cargo test -q --offline --workspace
cargo test --release -q --offline --workspace
cargo clippy --all-targets --offline --workspace -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace
cargo run --release --offline --example perfbench -- --smoke
cargo run --release --offline --bin wisegraph-prof -- --check
if ! diff <(echo "$results_before") <(results_checksums) >&2; then
    echo "verify.sh: files under results/ differ from what their producers print" >&2
    exit 1
fi
