//! The `wisegraph` command line, driven as a process: a generated graph
//! optimizes and reports its search, and bad input (a truncated graph
//! file, a zero or unparsable numeric flag, a flag without its value, more
//! vertices than 32-bit ids address) exits 1 with an error message instead
//! of a panic. `wisegraph-prof` does the same for an unknown flag and an
//! unwritable `results/`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn wisegraph(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wisegraph"))
        .args(args)
        .output()
        .expect("the wisegraph binary runs")
}

/// A scratch file path under the test target directory, unique per test.
fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("cli-{}-{name}", std::process::id()))
}

/// Writes a small typed RMAT graph to `path` through `generate`.
fn generate(path: &str) {
    let out = wisegraph(&[
        "generate",
        "--vertices",
        "300",
        "--edges",
        "2400",
        "--types",
        "3",
        "--seed",
        "7",
        "--out",
        path,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Asserts `out` is a clean failure: exit code 1, an `error:` line whose
/// text contains `want`, and no panic.
fn assert_error(out: &Output, want: &str, ctx: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{ctx}: {stderr}");
    assert!(!stderr.contains("panicked"), "{ctx}: {stderr}");
    assert!(
        stderr.contains("error:") && stderr.contains(want),
        "{ctx}: {stderr}"
    );
}

#[test]
fn generate_then_optimize_reports_the_search() {
    let path = scratch("g.bin");
    let path = path.to_str().unwrap();
    generate(path);
    let out = wisegraph(&[
        "optimize",
        path,
        "--model",
        "rgcn",
        "--features",
        "16",
        "--hidden",
        "16",
        "--classes",
        "4",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let search = stdout
        .lines()
        .find_map(|l| l.strip_prefix("search:"))
        .unwrap_or_else(|| panic!("no search line in:\n{stdout}"));
    let words: Vec<&str> = search.split_whitespace().collect();
    let [evaluated, "evaluated,", pruned, "pruned"] = words[..] else {
        panic!("unexpected search line: {search}");
    };
    assert!(evaluated.parse::<usize>().unwrap() > 0, "{search}");
    pruned.parse::<usize>().unwrap();
    std::fs::remove_file(path).unwrap();
}

#[test]
fn a_truncated_graph_file_is_an_error() {
    let full = scratch("full.bin");
    let cut = scratch("cut.bin");
    generate(full.to_str().unwrap());
    let bytes = std::fs::read(&full).unwrap();
    std::fs::write(&cut, &bytes[..bytes.len() / 2]).unwrap();
    for command in ["optimize", "partition"] {
        let out = wisegraph(&[command, cut.to_str().unwrap()]);
        assert_error(&out, "cannot load graph", command);
    }
    std::fs::remove_file(&full).unwrap();
    std::fs::remove_file(&cut).unwrap();
}

#[test]
fn zero_missing_and_unparsable_flags_are_errors() {
    let path = scratch("flags.bin");
    let path = path.to_str().unwrap();
    generate(path);
    let out_path = scratch("never-written.bin");
    let never = out_path.to_str().unwrap();
    let cases: [&[&str]; 12] = [
        &["generate", "--vertices", "0", "--out", never],
        &["generate", "--edges", "0", "--out", never],
        &["generate", "--types", "0", "--out", never],
        &["generate", "--vertices", "ten", "--out", never],
        &["generate", "--out", never, "--seed"],
        &["partition", path, "--table", "2d", "--k", "0"],
        &["partition", path, "--k", "-4"],
        &["optimize", path, "--hidden", "0"],
        &["optimize", path, "--features", "0"],
        &["optimize", path, "--classes", "0"],
        &["optimize", path, "--layers", "0"],
        &["optimize", path, "--hidden", "1.5"],
    ];
    for args in cases {
        let flag = args
            .iter()
            .find(|a| a.starts_with("--") && **a != "--out" && **a != "--table");
        assert_error(&wisegraph(args), flag.unwrap(), &args.join(" "));
    }
    assert!(!out_path.exists(), "a rejected generate wrote its output");
    std::fs::remove_file(path).unwrap();
}

/// A flag given last, with no value, is an error rather than its default,
/// and so is one followed by another flag.
#[test]
fn a_flag_without_its_value_is_an_error() {
    let path = scratch("valueless.bin");
    let path = path.to_str().unwrap();
    generate(path);
    let cases: [(&[&str], &str); 5] = [
        (&["optimize", path, "--model"], "--model"),
        (&["partition", path, "--table"], "--table"),
        (
            &["generate", "--vertices", "30", "--edges", "90", "--out"],
            "--out",
        ),
        (
            &["generate", "--out", "--vertices", "30", "--edges", "90"],
            "--out",
        ),
        (
            &["optimize", path, "--features", "16", "--model"],
            "--model",
        ),
    ];
    for (args, flag) in cases {
        assert_error(
            &wisegraph(args),
            &format!("{flag} needs a value"),
            &args.join(" "),
        );
    }
    std::fs::remove_file(path).unwrap();
}

/// Vertex ids are 32-bit: `generate` rejects more than 2^32 vertices
/// before it allocates anything (the edge count asked for is one).
#[test]
fn more_vertices_than_32_bit_ids_is_an_error() {
    let out_path = scratch("too-many-vertices.bin");
    let never = out_path.to_str().unwrap();
    let args = [
        "generate",
        "--vertices",
        "4294967297",
        "--edges",
        "1",
        "--out",
        never,
    ];
    assert_error(
        &wisegraph(&args),
        "--vertices must be at most 4294967296",
        "2^32 + 1",
    );
    assert!(!out_path.exists(), "a rejected generate wrote its output");
}

/// Runs `wisegraph-prof` in `dir`, where it writes its `results/`.
fn wisegraph_prof(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wisegraph-prof"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("the wisegraph-prof binary runs")
}

/// A fresh, empty directory under the test target directory.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = scratch(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Asserts `out` is a clean `wisegraph-prof` failure: exit code 1, no
/// panic, and stderr containing each of `want`.
fn assert_prof_error(out: &Output, want: &[&str], ctx: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{ctx}: {stderr}");
    assert!(!stderr.contains("panicked"), "{ctx}: {stderr}");
    for w in want {
        assert!(stderr.contains(w), "{ctx}: no `{w}` in {stderr}");
    }
}

/// The retired `--write-baseline` is an unknown flag like any other: it
/// exits 1 with the usage line before anything runs or is written.
#[test]
fn wisegraph_prof_rejects_unknown_flags_before_writing() {
    for flag in ["--write-baseline", "--verbose"] {
        let dir = fresh_dir(&format!("prof{flag}"));
        let out = wisegraph_prof(&dir, &[flag]);
        let unknown = format!("unknown argument {flag}");
        assert_prof_error(&out, &[&unknown, "usage: wisegraph-prof [--check]"], flag);
        assert!(!dir.join("results").exists(), "{flag} created results/");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A `results` that is a regular file fails the directory's creation, and
/// a directory where an artifact goes fails its write: each is an exit-1
/// error naming the path.
#[test]
fn wisegraph_prof_reports_an_unwritable_results_dir() {
    let dir = fresh_dir("prof-results-file");
    std::fs::write(dir.join("results"), "not a directory").unwrap();
    let out = wisegraph_prof(&dir, &[]);
    assert_prof_error(
        &out,
        &["wisegraph-prof: cannot write results: "],
        "results file",
    );
    std::fs::remove_dir_all(&dir).unwrap();

    let dir = fresh_dir("prof-artifact-dir");
    std::fs::create_dir_all(dir.join("results/prof_critical.json")).unwrap();
    let out = wisegraph_prof(&dir, &[]);
    assert_prof_error(
        &out,
        &["wisegraph-prof: cannot write results/prof_critical.json: "],
        "artifact directory",
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
