//! Shared harness utilities for the per-figure/table benchmark binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper's evaluation (§7): it builds the workload, runs the real
//! partition / transformation / kernel-generation pipeline, prices it on
//! the shared device model, and prints the same rows or series the paper
//! reports. `EXPERIMENTS.md` records the paper-vs-measured comparison.

use wisegraph_graph::{DatasetKind, DatasetSpec, Graph};

/// Prints a Markdown-style table given headers and rows.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    println!("| {} |", headers.join(" | "));
    println!("|{}|", headers.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
}

/// Formats seconds as milliseconds with three significant digits, or "OOM".
pub fn fmt_ms(seconds: f64, oom: bool) -> String {
    if oom {
        return "OOM".to_string();
    }
    let ms = seconds * 1e3;
    if ms >= 100.0 {
        format!("{ms:.0}")
    } else if ms >= 10.0 {
        format!("{ms:.1}")
    } else {
        format!("{ms:.2}")
    }
}

/// Formats seconds with two decimals.
pub fn fmt_s(seconds: f64) -> String {
    format!("{seconds:.2}")
}

/// Builds a dataset's analogue graph and returns it with its spec,
/// printing the substitution note once.
pub fn build_dataset(kind: DatasetKind) -> (Graph, DatasetSpec) {
    let spec = kind.spec();
    eprintln!(
        "[dataset {}] paper {}V/{}E -> generated {}V/{}E (scale x{:.0})",
        kind.short_name(),
        spec.paper_vertices,
        spec.paper_edges,
        spec.gen_vertices,
        spec.gen_edges,
        spec.scale()
    );
    (spec.build(), spec)
}

/// Geometric mean of `v` (NaN when `v` is empty).
pub fn geomean(v: &[f64]) -> f64 {
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ms_formatting() {
        assert_eq!(fmt_ms(0.168, false), "168");
        assert_eq!(fmt_ms(0.0331, false), "33.1");
        assert_eq!(fmt_ms(0.00893, false), "8.93");
        assert_eq!(fmt_ms(1.0, true), "OOM");
    }
}
