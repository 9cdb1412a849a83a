//! Span-instrumentation coverage (`O001`) and cluster phase coverage
//! (`O002`).
//!
//! The observability layer only describes what it is told about: a hot
//! execution path that never opens a `wisegraph_obs::span!` is invisible
//! to `wisegraph-prof`'s timeline and workload-skew tables. This
//! pass keeps the instrumented surface from silently eroding. For each
//! entry point in [`REQUIRED`] it proves, by static source inspection,
//! that the function is *covered*: its body opens a span directly, or it
//! calls (possibly through a chain of same-set functions) a function that
//! does. An uncovered entry point — or a missing one, which usually means
//! a rename this table did not follow — is a [`Code::ObsUncovered`] error.
//!
//! The analysis is deliberately textual, like `testkit::hermetic`'s
//! scanner: comments and literals are stripped, `#[cfg(test)]` modules are
//! skipped, function bodies are extracted by brace matching, and the call
//! graph is resolved by bare name across the whole scanned file set (the
//! engine's entry points delegate to `micro.rs` workers, so coverage must
//! propagate across files). Bare-name resolution over-approximates real
//! dispatch, but only toward *accepting* instrumentation — a false
//! "covered" requires a same-named covered function, and the entry points
//! here have distinctive names.

use crate::{Code, Diagnostic, Report, Span};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// The execution entry points that must be span-covered, per file
/// (paths relative to the workspace root).
pub const REQUIRED: &[(&str, &[&str])] = &[
    (
        "crates/kernels/src/engine.rs",
        &[
            "execute",
            "execute_program",
            "accumulate_program",
            "execute_parallel_alloc",
            // The three phases of a call, each on the worker lanes.
            "prologue_phase",
            "task_phase",
            "epilogue_phase",
        ],
    ),
    (
        "crates/kernels/src/cluster.rs",
        &["execute", "execute_program", "run_devices"],
    ),
    (
        "crates/core/src/sharded.rs",
        &["select_placement", "execute_sharded_layer"],
    ),
    (
        "crates/kernels/src/micro.rs",
        &["run_task", "run_edge_pass", "run_epilogue"],
    ),
    // The training aggregation's two passes.
    ("crates/kernels/src/train.rs", &["forward", "backward"]),
    (
        "crates/gtask/src/partition.rs",
        &["partition", "partition_edges"],
    ),
    ("crates/gtask/src/incremental.rs", &["apply"]),
    (
        "crates/cache/src/store.rs",
        &["partition_edges_cached", "transform_cached", "compile_cached"],
    ),
    ("crates/dfg/src/passes.rs", &["cse", "prune_dead"]),
];

/// Replaces comment and string/char-literal contents with spaces,
/// preserving line structure so brace matching and line numbers stay
/// honest.
fn strip_noise(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = Vec::with_capacity(b.len());
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                while i < b.len() && b[i] != b'\n' {
                    out.push(b' ');
                    i += 1;
                }
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let mut depth = 1;
                out.extend_from_slice(b"  ");
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else {
                        out.push(if b[i] == b'\n' { b'\n' } else { b' ' });
                        i += 1;
                    }
                }
            }
            b'"' => {
                out.push(b' ');
                i += 1;
                while i < b.len() && b[i] != b'"' {
                    if b[i] == b'\\' && i + 1 < b.len() {
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else {
                        out.push(if b[i] == b'\n' { b'\n' } else { b' ' });
                        i += 1;
                    }
                }
                if i < b.len() {
                    out.push(b' ');
                    i += 1;
                }
            }
            // Char literal — only when it cannot be a lifetime (`'a`).
            b'\'' if i + 2 < b.len()
                && (b[i + 1] == b'\\' || b[i + 2] == b'\'') =>
            {
                out.push(b' ');
                i += 1;
                while i < b.len() && b[i] != b'\'' {
                    if b[i] == b'\\' && i + 1 < b.len() {
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else {
                        out.push(b' ');
                        i += 1;
                    }
                }
                if i < b.len() {
                    out.push(b' ');
                    i += 1;
                }
            }
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    String::from_utf8(out).expect("stripping preserves UTF-8: only ASCII is replaced")
}

/// Blanks out the bodies of `#[cfg(test)]` modules (test instrumentation
/// must not count as coverage of shipped paths).
fn blank_test_mods(clean: &str) -> String {
    let mut out = String::with_capacity(clean.len());
    let mut rest = clean;
    while let Some(pos) = rest.find("#[cfg(test)]") {
        let (head, tail) = rest.split_at(pos);
        out.push_str(head);
        match tail.find('{') {
            None => {
                out.push_str(tail);
                return out;
            }
            Some(open) => {
                let mut depth = 0usize;
                let mut end = tail.len();
                for (j, ch) in tail.char_indices().skip(open) {
                    match ch {
                        '{' => depth += 1,
                        '}' => {
                            depth -= 1;
                            if depth == 0 {
                                end = j + 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                }
                for ch in tail[..end].chars() {
                    out.push(if ch == '\n' { '\n' } else { ' ' });
                }
                rest = &tail[end..];
            }
        }
    }
    out.push_str(rest);
    out
}

/// One extracted function: bare name, 1-indexed declaration line, body
/// text (braces included).
struct FnItem {
    name: String,
    line: usize,
    body: String,
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Extracts every `fn name(...) ... { body }` from cleaned source by
/// token scanning and brace matching. Bodyless declarations (trait
/// methods) are skipped.
fn extract_fns(clean: &str) -> Vec<FnItem> {
    let mut out = Vec::new();
    let bytes = clean.as_bytes();
    let mut i = 0;
    while let Some(rel) = clean[i..].find("fn ") {
        let at = i + rel;
        i = at + 3;
        // Word boundary on the left ("fn" must be a standalone keyword).
        if at > 0 && is_ident(clean[..at].chars().next_back().unwrap()) {
            continue;
        }
        let name: String = clean[i..].chars().take_while(|&c| is_ident(c)).collect();
        if name.is_empty() {
            continue;
        }
        let line = clean[..at].matches('\n').count() + 1;
        // Find the body's opening brace; a `;` first means no body.
        let mut j = i + name.len();
        let mut depth = 0usize;
        let open = loop {
            if j >= bytes.len() {
                break None;
            }
            match bytes[j] {
                b'(' | b'[' => depth += 1,
                b')' | b']' => depth = depth.saturating_sub(1),
                b';' if depth == 0 => break None,
                b'{' if depth == 0 => break Some(j),
                _ => {}
            }
            j += 1;
        };
        let Some(open) = open else { continue };
        let mut braces = 0usize;
        let mut end = bytes.len();
        for (k, &c) in bytes.iter().enumerate().skip(open) {
            match c {
                b'{' => braces += 1,
                b'}' => {
                    braces -= 1;
                    if braces == 0 {
                        end = k + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        out.push(FnItem {
            name,
            line,
            body: clean[open..end].to_string(),
        });
        i = open;
    }
    out
}

/// Whether the body opens a span directly (`span!(...)` — bare or
/// crate-qualified).
fn opens_span(body: &str) -> bool {
    body.match_indices("span!").any(|(p, _)| {
        let left_ok = p == 0
            || !is_ident(body[..p].chars().next_back().unwrap());
        left_ok && body[p + 5..].trim_start().starts_with('(')
    })
}

/// The bare names this body calls: identifiers immediately followed by
/// `(` (with optional whitespace), excluding macro invocations.
fn called_names(body: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let chars: Vec<char> = body.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        if is_ident(chars[i]) && !chars[i].is_ascii_digit() {
            let start = i;
            while i < chars.len() && is_ident(chars[i]) {
                i += 1;
            }
            let mut j = i;
            if j < chars.len() && chars[j] == '!' {
                i += 1;
                continue; // macro, handled by opens_span
            }
            while j < chars.len() && chars[j].is_whitespace() {
                j += 1;
            }
            if j < chars.len() && chars[j] == '(' {
                out.insert(chars[start..i].iter().collect());
            }
        } else {
            i += 1;
        }
    }
    out
}

/// Checks instrumentation coverage over an in-memory file set:
/// `(label, source, required entry points)` triples. Exposed separately
/// from [`verify_instrumentation`] so tests can feed fixtures.
pub fn check_sources(files: &[(&str, &str, &[&str])]) -> Vec<Diagnostic> {
    // Extract every function in the whole set; resolve calls by bare name.
    let mut fns: Vec<(usize, FnItem)> = Vec::new();
    for (fi, (_, src, _)) in files.iter().enumerate() {
        let clean = blank_test_mods(&strip_noise(src));
        for f in extract_fns(&clean) {
            fns.push((fi, f));
        }
    }
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (idx, (_, f)) in fns.iter().enumerate() {
        by_name.entry(&f.name).or_default().push(idx);
    }
    // Fixpoint: covered = opens a span, or calls a covered function.
    let mut covered: Vec<bool> = fns.iter().map(|(_, f)| opens_span(&f.body)).collect();
    let calls: Vec<BTreeSet<String>> =
        fns.iter().map(|(_, f)| called_names(&f.body)).collect();
    loop {
        let mut changed = false;
        for i in 0..fns.len() {
            if covered[i] {
                continue;
            }
            let reaches = calls[i].iter().any(|name| {
                by_name
                    .get(name.as_str())
                    .is_some_and(|ids| ids.iter().any(|&j| covered[j]))
            });
            if reaches {
                covered[i] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // Report each required entry point that is missing or uncovered.
    let mut out = Vec::new();
    for (fi, (label, _, required)) in files.iter().enumerate() {
        for name in *required {
            let hits: Vec<usize> = by_name
                .get(name)
                .map(|ids| {
                    ids.iter().copied().filter(|&j| fns[j].0 == fi).collect()
                })
                .unwrap_or_default();
            if hits.is_empty() {
                out.push(Diagnostic::error(
                    Code::ObsUncovered,
                    Span::Global,
                    format!("{label}: required entry point `{name}` not found"),
                )
                .with_suggestion(
                    "if the function was renamed, update analysis::obscheck::REQUIRED",
                ));
                continue;
            }
            for j in hits {
                if !covered[j] {
                    let (_, f) = &fns[j];
                    out.push(Diagnostic::error(
                        Code::ObsUncovered,
                        Span::Global,
                        format!(
                            "{label}:{}: `{name}` executes without an enclosing \
                             span (none opened, none reachable through its calls)",
                            f.line
                        ),
                    )
                    .with_suggestion(
                        "open one with wisegraph_obs::span!(\"component.op\", ...)",
                    ));
                }
            }
        }
    }
    out
}

/// Runs the `O001` pass over the shipped sources under `root` (the
/// workspace directory), per [`REQUIRED`]. An unreadable file is itself
/// an error — silently skipping would pass exactly when coverage is
/// least known.
pub fn verify_instrumentation(root: &Path) -> Report {
    let mut report = Report::new();
    let mut loaded: Vec<(usize, String)> = Vec::new();
    for (i, (rel, _)) in REQUIRED.iter().enumerate() {
        match std::fs::read_to_string(root.join(rel)) {
            Ok(src) => loaded.push((i, src)),
            Err(e) => report.push(Diagnostic::error(
                Code::ObsUncovered,
                Span::Global,
                format!("{rel}: cannot read source to check instrumentation: {e}"),
            )),
        }
    }
    let files: Vec<(&str, &str, &[&str])> = loaded
        .iter()
        .map(|(i, src)| (REQUIRED[*i].0, src.as_str(), REQUIRED[*i].1))
        .collect();
    report.extend(check_sources(&files));
    report
}

/// Cluster schedule phases and mailbox operations that must stay
/// phase-instrumented (`O002`), per file: `(function, required tokens
/// in its raw body)`. The critical-path analyzer reconstructs device
/// timelines purely from `cluster.phase.*` spans and the causal edges
/// the mailbox emits — a schedule that computes outside
/// `record_compute`, or an exchange that drops its phase span, would
/// not fail any test; it would just vanish from the attribution report.
/// This table pins the tokens that keep each phase visible.
pub const REQUIRED_PHASES: &[PhaseFileSpec] = &[(
    "crates/kernels/src/cluster.rs",
    &[
        // The mailbox operations: every exchange opens the exchange
        // phase span; every compute runs under the compute phase span.
        ("exchange", &["cluster.phase.exchange", "span!"]),
        ("record_compute", &["cluster.phase.compute", "span!"]),
        // The device driver lane tags itself so traces and lane naming
        // can attribute spans to a device.
        ("run_devices", &["cluster.device"]),
        // Every schedule routes compute through `record_compute` and
        // communication through `exchange` — no untimed side channels.
        ("run_halo_schedule", &["record_compute", ".exchange("]),
        ("run_compute_then_reduce", &["record_compute", ".exchange("]),
        ("run_tensor_parallel", &["record_compute", ".exchange("]),
    ],
)];

/// Finds each definition of `name` in noise-stripped source and returns
/// its 1-indexed declaration line and body byte range (braces included).
/// Because [`strip_noise`] is byte-length-preserving, the ranges index
/// the *raw* source too — which is what `O002` needs, since its phase
/// tokens (`"cluster.phase.exchange"`) live inside string literals that
/// stripping blanks out.
fn fn_body_ranges(clean: &str, name: &str) -> Vec<(usize, std::ops::Range<usize>)> {
    let bytes = clean.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while let Some(rel) = clean[i..].find("fn ") {
        let at = i + rel;
        i = at + 3;
        if at > 0 && is_ident(clean[..at].chars().next_back().unwrap()) {
            continue;
        }
        let found: String = clean[i..].chars().take_while(|&c| is_ident(c)).collect();
        if found != name {
            continue;
        }
        let line = clean[..at].matches('\n').count() + 1;
        // Skip the signature (tracking nesting so `;` inside generics'
        // arrays doesn't end it); a top-level `;` means no body.
        let mut j = i + name.len();
        let mut depth = 0usize;
        let open = loop {
            if j >= bytes.len() {
                break None;
            }
            match bytes[j] {
                b'(' | b'[' => depth += 1,
                b')' | b']' => depth = depth.saturating_sub(1),
                b';' if depth == 0 => break None,
                b'{' if depth == 0 => break Some(j),
                _ => {}
            }
            j += 1;
        };
        let Some(open) = open else { continue };
        let mut braces = 0usize;
        let mut end = bytes.len();
        for (k, &c) in bytes.iter().enumerate().skip(open) {
            match c {
                b'{' => braces += 1,
                b'}' => {
                    braces -= 1;
                    if braces == 0 {
                        end = k + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        out.push((line, open..end));
        i = open;
    }
    out
}

/// One phase-check input: `(label, source, [(function, tokens)])`.
pub type PhaseFile<'a> = (&'a str, &'a str, &'a [(&'a str, &'a [&'a str])]);

/// One [`REQUIRED_PHASES`] row: `(path, [(function, tokens)])`.
pub type PhaseFileSpec = (&'static str, &'static [(&'static str, &'static [&'static str])]);

/// Checks cluster phase coverage over an in-memory file set:
/// `(label, source, [(function, required tokens)])` triples. Exposed
/// separately from [`verify_phase_instrumentation`] so tests can feed
/// fixtures. A function passes if *some* definition of it contains
/// every required token in its raw body (comments and literals count —
/// the tokens are span names inside literals); otherwise the first
/// definition is reported with its missing tokens.
pub fn check_phase_sources(files: &[PhaseFile<'_>]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (label, src, required) in files {
        let clean = strip_noise(src);
        for (name, tokens) in *required {
            let defs = fn_body_ranges(&clean, name);
            if defs.is_empty() {
                out.push(Diagnostic::error(
                    Code::ObsPhaseUncovered,
                    Span::Global,
                    format!("{label}: required phase-instrumented function `{name}` not found"),
                )
                .with_suggestion(
                    "if the function was renamed, update analysis::obscheck::REQUIRED_PHASES",
                ));
                continue;
            }
            let ok = defs
                .iter()
                .any(|(_, r)| tokens.iter().all(|t| src[r.clone()].contains(t)));
            if !ok {
                let (line, r) = &defs[0];
                let missing: Vec<&str> = tokens
                    .iter()
                    .copied()
                    .filter(|t| !src[r.clone()].contains(t))
                    .collect();
                out.push(Diagnostic::error(
                    Code::ObsPhaseUncovered,
                    Span::Global,
                    format!(
                        "{label}:{line}: `{name}` is missing phase instrumentation: {}",
                        missing.join(", ")
                    ),
                )
                .with_suggestion(
                    "route the phase through its span (cluster.phase.*) or phase-recording call",
                ));
            }
        }
    }
    out
}

/// Runs the `O002` pass over the shipped sources under `root` (the
/// workspace directory), per [`REQUIRED_PHASES`]. As with `O001`, an
/// unreadable file is itself an error.
pub fn verify_phase_instrumentation(root: &Path) -> Report {
    let mut report = Report::new();
    let mut loaded: Vec<(usize, String)> = Vec::new();
    for (i, (rel, _)) in REQUIRED_PHASES.iter().enumerate() {
        match std::fs::read_to_string(root.join(rel)) {
            Ok(src) => loaded.push((i, src)),
            Err(e) => report.push(Diagnostic::error(
                Code::ObsPhaseUncovered,
                Span::Global,
                format!("{rel}: cannot read source to check phase instrumentation: {e}"),
            )),
        }
    }
    let files: Vec<PhaseFile<'_>> = loaded
        .iter()
        .map(|(i, src)| (REQUIRED_PHASES[*i].0, src.as_str(), REQUIRED_PHASES[*i].1))
        .collect();
    report.extend(check_phase_sources(&files));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_span_covers() {
        let src = "pub fn partition(x: u32) -> u32 {\n    let _s = wisegraph_obs::span!(\"p\");\n    x\n}\n";
        let ds = check_sources(&[("f.rs", src, &["partition"])]);
        assert!(ds.is_empty(), "{ds:?}");
    }

    #[test]
    fn coverage_propagates_through_calls_across_files() {
        let a = "pub fn execute(x: u32) -> u32 { inner(run_task(x)) }\nfn inner(x: u32) -> u32 { x }\n";
        let b = "pub fn run_task(x: u32) -> u32 {\n    let _s = span!(\"kernel.task\");\n    x\n}\n";
        let ds = check_sources(&[
            ("engine.rs", a, &["execute"]),
            ("micro.rs", b, &["run_task"]),
        ]);
        assert!(ds.is_empty(), "{ds:?}");
    }

    #[test]
    fn uncovered_entry_point_is_o001() {
        let src = "pub fn execute(x: u32) -> u32 {\n    // span!(\"not.real\") — comments don't count\n    helper(x)\n}\nfn helper(x: u32) -> u32 { x + 1 }\n";
        let ds = check_sources(&[("engine.rs", src, &["execute"])]);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code, Code::ObsUncovered);
        assert_eq!(ds[0].code.as_str(), "O001");
        assert!(ds[0].message.contains("engine.rs:1"), "{}", ds[0].message);
    }

    #[test]
    fn missing_entry_point_is_reported_not_skipped() {
        let src = "pub fn other() {}\n";
        let ds = check_sources(&[("engine.rs", src, &["execute"])]);
        assert_eq!(ds.len(), 1);
        assert!(ds[0].message.contains("not found"), "{}", ds[0].message);
    }

    #[test]
    fn test_module_spans_do_not_count() {
        let src = "pub fn execute(x: u32) -> u32 { x }\n#[cfg(test)]\nmod tests {\n    fn execute_helper() { let _s = span!(\"t\"); }\n}\n";
        let ds = check_sources(&[("engine.rs", src, &["execute"])]);
        assert_eq!(ds.len(), 1, "{ds:?}");
    }

    #[test]
    fn string_literal_span_does_not_count() {
        let src = "pub fn execute() -> &'static str { \"span!(fake)\" }\n";
        let ds = check_sources(&[("engine.rs", src, &["execute"])]);
        assert_eq!(ds.len(), 1, "{ds:?}");
    }

    #[test]
    fn real_sources_are_fully_covered() {
        // The shipped workspace must satisfy its own gate. The manifest
        // dir is `crates/analysis`, two levels below the root.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root")
            .to_path_buf();
        let report = verify_instrumentation(&root);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn phase_tokens_inside_literals_satisfy_o002() {
        let src = "pub fn exchange(&mut self) {\n    let _s = span!(\"cluster.phase.exchange\", round = 0);\n}\n";
        let req: &[(&str, &[&str])] = &[("exchange", &["cluster.phase.exchange", "span!"])];
        let ds = check_phase_sources(&[("cluster.rs", src, req)]);
        assert!(ds.is_empty(), "{ds:?}");
    }

    #[test]
    fn missing_phase_token_is_o002_with_the_token_named() {
        let src = "fn run_halo_schedule(&self) {\n    self.engines.iter().for_each(|e| e.touch());\n}\n";
        let req: &[(&str, &[&str])] = &[("run_halo_schedule", &["record_compute", ".exchange("])];
        let ds = check_phase_sources(&[("cluster.rs", src, req)]);
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].code, Code::ObsPhaseUncovered);
        assert_eq!(ds[0].code.as_str(), "O002");
        assert!(ds[0].message.contains("record_compute"), "{}", ds[0].message);
        assert!(ds[0].message.contains("cluster.rs:1"), "{}", ds[0].message);
    }

    #[test]
    fn missing_phase_function_is_reported_not_skipped() {
        let req: &[(&str, &[&str])] = &[("exchange", &["cluster.phase.exchange"])];
        let ds = check_phase_sources(&[("cluster.rs", "fn other() {}\n", req)]);
        assert_eq!(ds.len(), 1);
        assert!(ds[0].message.contains("not found"), "{}", ds[0].message);
    }

    #[test]
    fn real_sources_are_fully_phase_covered() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root")
            .to_path_buf();
        let report = verify_phase_instrumentation(&root);
        assert!(report.is_clean(), "{report}");
    }
}
