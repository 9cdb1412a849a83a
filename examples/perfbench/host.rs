//! Host probes and `/proc` readings taken inside the measured process.
//!
//! The probes give each phase the ceiling it is read against: aggregation
//! is bandwidth-bound (copy probe), update compute-bound (FMA probe). The
//! last-level cache of the box the baseline was taken on is 260 MiB, larger
//! than any buffer the workloads stream, so the usual "4× LLC" rule cannot
//! be met: both ceilings are cache-resident ceilings, and the fractions
//! derived from them are against those. Bytes and FLOPs are computed from
//! the input sizes, never counted by hardware.

use crate::harness::{time_median, Config, Metrics, Tracer, ENGINE_THREADS};
use crate::inputs::F;

/// Copy bandwidth (GB/s, read + written bytes) over a buffer the size of
/// the gathered edge stream (`edges × F` floats), split over the engine's
/// thread count.
fn copy_gbytes_per_s(tr: &Tracer, cfg: &Config) -> f64 {
    let len = cfg.scale.edges * F;
    let src = vec![1.0f32; len];
    let mut dst = vec![0.0f32; len];
    let chunk = len.div_ceil(ENGINE_THREADS);
    let ms = time_median(tr, "host.copy", cfg.scale.extra_reps.max(3), || {
        std::thread::scope(|s| {
            for (d, c) in dst.chunks_mut(chunk).zip(src.chunks(chunk)) {
                s.spawn(move || d.copy_from_slice(c));
            }
        });
    });
    std::hint::black_box(&dst);
    (2 * len * 4) as f64 / 1e9 / (ms / 1e3)
}

/// Multiply-add rate (GFLOP/s) of `y += x · W` on an `F × F` tile that
/// stays in L1, one tile per engine thread.
fn fma_gflops(tr: &Tracer, cfg: &Config) -> f64 {
    const ROWS: usize = 16_384;
    let w: Vec<f32> = (0..F * F).map(|i| (i % 7) as f32 * 1e-3).collect();
    let x: Vec<f32> = (0..F).map(|i| (i % 5) as f32 * 1e-3).collect();
    let ms = time_median(tr, "host.fma", cfg.scale.extra_reps.max(3), || {
        std::thread::scope(|s| {
            for _ in 0..ENGINE_THREADS {
                s.spawn(|| {
                    let mut y = [0.0f32; F];
                    for _ in 0..ROWS {
                        for (xv, row) in std::hint::black_box(&x).iter().zip(w.chunks_exact(F)) {
                            for (o, wv) in y.iter_mut().zip(row) {
                                *o += xv * wv;
                            }
                        }
                    }
                    std::hint::black_box(y);
                });
            }
        });
    });
    (ENGINE_THREADS * ROWS * F * F * 2) as f64 / 1e9 / (ms / 1e3)
}

pub fn probes(tr: &Tracer, cfg: &Config, m: &mut Metrics) {
    m.insert("host.copy_gbytes_per_s".into(), copy_gbytes_per_s(tr, cfg));
    m.insert("host.fma_gflops".into(), fma_gflops(tr, cfg));
    m.insert("host.loadavg_1m".into(), loadavg_1m());
}

/// One-minute load average; 0 where `/proc` is absent.
pub fn loadavg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

/// Resets `VmHWM` to the current resident set, so that what the harness
/// itself allocated before (the oracle) does not decide the peak. Where the
/// kernel refuses, the peak simply includes it.
pub fn reset_vm_hwm() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn vm_hwm_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
