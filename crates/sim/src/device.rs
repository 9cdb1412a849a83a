//! Single-device roofline model.
//!
//! Kernel time = launch latency + max(compute time, memory time), where the
//! effective compute throughput and memory bandwidth depend on how the
//! kernel was generated:
//!
//! - *edge-wise* kernels (one edge per thread group, no batching) reach only
//!   a few percent of peak — the paper measures graph-centric MLP at 1% of
//!   peak GPU performance (§2.2, footnote 1);
//! - *batched* kernels improve with the batch size `k` and switch to tensor
//!   cores once tiles are large enough (Figure 10c, Figure 18);
//! - *dense* kernels (tensor-centric GEMMs) run near library efficiency but
//!   pay full memory traffic for materialized per-edge tensors (§2.2).

/// How a kernel's inner computation is organized.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ComputeClass {
    /// Pure data movement (gather/scatter, no arithmetic to speak of).
    Memory {
        /// `true` when accesses follow sorted/contiguous indices.
        coalesced: bool,
    },
    /// Element-wise arithmetic (additions, activations).
    Elementwise,
    /// Edge-by-edge vector–matrix work, no data batching (Figure 10b).
    EdgeWise,
    /// Matrix–matrix work on a batch of `k` rows sharing operands
    /// (Figure 10c).
    Batched {
        /// Rows batched per task.
        k: usize,
    },
    /// A large dense GEMM (tensor-centric neural op).
    DenseMatmul,
    /// Sequential recurrence (LSTM): limited parallelism in the time
    /// dimension but dense math per step.
    Recurrent {
        /// Sequences batched together per task: the gate computations of a
        /// batch run as one `[batch, 4H]` matmul, so efficiency grows with
        /// the batch (Figure 18b).
        batch: usize,
    },
}

/// The cost signature of one generated kernel.
#[derive(Clone, Copy, Debug)]
pub struct KernelCost {
    /// Floating-point operations.
    pub flops: f64,
    /// Bytes moved through global memory.
    pub bytes: f64,
    /// Independent work units available to fill SMs (gTasks, rows, tiles).
    pub parallel_tasks: f64,
    /// Computation organization.
    pub class: ComputeClass,
}

/// An A100-like device specification.
#[derive(Clone, Copy, Debug)]
pub struct DeviceSpec {
    /// Peak FP32 throughput on CUDA cores (FLOP/s).
    pub cuda_flops: f64,
    /// Peak TF32 throughput on tensor cores (FLOP/s).
    pub tensor_flops: f64,
    /// Peak HBM bandwidth (B/s).
    pub mem_bw: f64,
    /// Kernel launch latency (s).
    pub launch_latency: f64,
    /// Number of streaming multiprocessors.
    pub num_sms: usize,
    /// Concurrent thread blocks each SM can host (occupancy target).
    pub blocks_per_sm: usize,
    /// Device memory capacity (bytes).
    pub mem_capacity: f64,
}

impl DeviceSpec {
    /// NVIDIA A100-PCIe (40 GB) — the paper's evaluation GPU.
    pub fn a100_pcie() -> Self {
        Self {
            cuda_flops: 19.5e12,
            tensor_flops: 156.0e12,
            mem_bw: 1.555e12,
            launch_latency: 5.0e-6,
            num_sms: 108,
            blocks_per_sm: 8,
            mem_capacity: 40.0e9,
        }
    }

    /// NVIDIA V100 (16 GB): no TF32 tensor cores (FP16 TCs modeled at
    /// their effective mixed-precision training rate), less bandwidth and
    /// memory — the generation before the paper's testbed.
    pub fn v100() -> Self {
        Self {
            cuda_flops: 15.7e12,
            tensor_flops: 62.0e12,
            mem_bw: 0.9e12,
            launch_latency: 6.0e-6,
            num_sms: 80,
            blocks_per_sm: 8,
            mem_capacity: 16.0e9,
        }
    }

    /// NVIDIA H100-SXM (80 GB): the generation after — much higher
    /// tensor-core throughput relative to bandwidth, which shifts optimal
    /// plans toward heavier batching.
    pub fn h100() -> Self {
        Self {
            cuda_flops: 67.0e12,
            tensor_flops: 495.0e12,
            mem_bw: 3.35e12,
            launch_latency: 4.0e-6,
            num_sms: 132,
            blocks_per_sm: 8,
            mem_capacity: 80.0e9,
        }
    }

    /// Effective compute throughput for a kernel (FLOP/s).
    pub fn effective_flops(&self, class: ComputeClass) -> f64 {
        match class {
            ComputeClass::Memory { .. } => self.cuda_flops * 0.5,
            ComputeClass::Elementwise => self.cuda_flops * 0.9,
            // Scalar loads, no reuse, divergent threads: ~1% of dense peak.
            ComputeClass::EdgeWise => self.tensor_flops * 0.01,
            ComputeClass::Batched { k } => {
                let k = k.max(1) as f64;
                if k >= 8.0 {
                    // Tensor-core path: saturates around tile sizes of ~64.
                    self.tensor_flops * (k / (k + 64.0))
                } else {
                    // Small batches stay on CUDA cores with partial reuse.
                    self.cuda_flops * (k / (k + 8.0))
                }
            }
            ComputeClass::DenseMatmul => self.tensor_flops * 0.70,
            ComputeClass::Recurrent { batch } => {
                // Gate matmuls over a batch of sequences: efficiency grows
                // with the batch like small GEMMs, saturating early (the
                // recurrence itself stays serial).
                let b = batch.max(1) as f64;
                self.cuda_flops * 0.8 * (b / (b + 16.0))
            }
        }
    }

    /// Effective memory bandwidth for a kernel (B/s).
    ///
    /// Kernel byte counts are *demand-based* (per-edge gathers count their
    /// full demand), so these factors model coalescing quality only.
    pub fn effective_bw(&self, class: ComputeClass) -> f64 {
        let eff = match class {
            ComputeClass::Memory { coalesced: true } => 0.65,
            ComputeClass::Memory { coalesced: false } => 0.45,
            ComputeClass::Elementwise => 0.85,
            ComputeClass::EdgeWise => 0.35,
            ComputeClass::Batched { k } => {
                // Batched gathers coalesce better as k grows.
                0.35 + 0.30 * (k.max(1) as f64 / (k.max(1) as f64 + 32.0))
            }
            ComputeClass::DenseMatmul => 0.85,
            ComputeClass::Recurrent { .. } => 0.45,
        };
        self.mem_bw * eff
    }

    /// Occupancy factor: fraction of the device the kernel can fill.
    pub fn occupancy(&self, parallel_tasks: f64) -> f64 {
        let slots = (self.num_sms * self.blocks_per_sm) as f64;
        (parallel_tasks / slots).min(1.0).max(1.0 / slots)
    }

    /// Estimated execution time of one kernel (seconds).
    pub fn kernel_time(&self, k: &KernelCost) -> f64 {
        let occ = self.occupancy(k.parallel_tasks);
        let compute = k.flops / (self.effective_flops(k.class) * occ);
        let memory = k.bytes / (self.effective_bw(k.class) * occ);
        self.launch_latency + compute.max(memory)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> DeviceSpec {
        DeviceSpec::a100_pcie()
    }

    #[test]
    fn edgewise_mlp_is_about_one_percent_of_peak() {
        // Paper §2.2: graph-centric MLP reaches ~1% of peak GPU performance.
        let d = dev();
        let ratio = d.effective_flops(ComputeClass::EdgeWise) / d.tensor_flops;
        assert!((0.005..0.02).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn batching_monotonically_improves_compute() {
        let d = dev();
        let mut last = 0.0;
        for k in [1usize, 2, 4, 8, 16, 32, 64, 128, 256, 1024] {
            let eff = d.effective_flops(ComputeClass::Batched { k });
            assert!(eff > last, "k={k}: {eff} <= {last}");
            last = eff;
        }
        // Large-batch efficiency approaches dense-library levels.
        let big = d.effective_flops(ComputeClass::Batched { k: 1024 });
        assert!(big > 0.8 * d.effective_flops(ComputeClass::DenseMatmul));
    }

    #[test]
    fn batched_k1_is_comparable_to_edgewise() {
        let d = dev();
        let b1 = d.effective_flops(ComputeClass::Batched { k: 1 });
        let ew = d.effective_flops(ComputeClass::EdgeWise);
        // Unbatched "batched" code is no better than 2x edge-wise.
        assert!(b1 < 2.0 * ew, "b1 {b1} vs edgewise {ew}");
    }

    #[test]
    fn memory_bound_kernels_are_bw_limited() {
        let d = dev();
        // A pure gather: negligible flops, a lot of bytes.
        let k = KernelCost {
            flops: 1e6,
            bytes: 1e9,
            parallel_tasks: 1e6,
            class: ComputeClass::Memory { coalesced: false },
        };
        let t = d.kernel_time(&k);
        let expect = 1e9 / (d.mem_bw * 0.45);
        assert!((t - d.launch_latency - expect).abs() / expect < 0.05);
    }

    #[test]
    fn occupancy_penalizes_few_tasks() {
        let d = dev();
        let mk = |tasks: f64| KernelCost {
            flops: 1e9,
            bytes: 1e6,
            parallel_tasks: tasks,
            class: ComputeClass::DenseMatmul,
        };
        let few = d.kernel_time(&mk(4.0));
        let many = d.kernel_time(&mk(100_000.0));
        assert!(few > 10.0 * many, "few {few} many {many}");
    }

    #[test]
    fn launch_latency_dominates_tiny_kernels() {
        let d = dev();
        let k = KernelCost {
            flops: 100.0,
            bytes: 100.0,
            parallel_tasks: 1.0,
            class: ComputeClass::Elementwise,
        };
        let t = d.kernel_time(&k);
        assert!(t >= d.launch_latency);
        assert!(t < 2.0 * d.launch_latency);
    }
}
