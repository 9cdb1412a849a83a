//! Multi-device interconnect and collective-communication cost model.
//!
//! The paper's multi-GPU testbed is 4× A100 over PCIe 4.0 with NCCL (§7.2).
//! Operation placement (§5.4) reasons about whether to communicate an
//! operation's input or its output, so all it needs from the fabric is the
//! relative cost of collectives as a function of payload size — standard
//! ring/pairwise formulas over link bandwidth and latency.

/// A homogeneous all-to-all-connected device fabric.
#[derive(Clone, Copy, Debug)]
pub struct Fabric {
    /// Number of devices.
    pub num_devices: usize,
    /// Effective per-device link bandwidth (B/s, one direction).
    pub link_bw: f64,
    /// Per-collective base latency (s).
    pub latency: f64,
}

impl Fabric {
    /// 4× A100 over PCIe 4.0 x16 (≈ 24 GB/s effective per direction, NCCL
    /// launch overhead ≈ 20 µs).
    pub fn pcie4_quad() -> Self {
        Self {
            num_devices: 4,
            link_bw: 24.0e9,
            latency: 20.0e-6,
        }
    }

    /// All-to-all: every device exchanges `bytes_per_device` with the
    /// others; each link carries `(d-1)/d` of the payload.
    pub fn all_to_all(&self, bytes_per_device: f64) -> f64 {
        let d = self.num_devices as f64;
        if self.num_devices <= 1 {
            return 0.0;
        }
        self.latency + bytes_per_device * (d - 1.0) / d / self.link_bw
    }

    /// Reduce-scatter: each device ends with `bytes / d` of the reduced
    /// buffer; one `(d-1)/d` traversal.
    pub fn reduce_scatter(&self, bytes: f64) -> f64 {
        let d = self.num_devices as f64;
        if self.num_devices <= 1 {
            return 0.0;
        }
        self.latency + bytes * (d - 1.0) / d / self.link_bw
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fab() -> Fabric {
        Fabric::pcie4_quad()
    }

    #[test]
    fn collectives_scale_linearly_in_payload() {
        let f = fab();
        let small = f.all_to_all(1e6);
        let big = f.all_to_all(1e9);
        let ratio = (big - f.latency) / (small - f.latency);
        assert!((ratio - 1000.0).abs() < 1.0);
    }

    #[test]
    fn single_device_is_free() {
        let f = Fabric {
            num_devices: 1,
            ..fab()
        };
        assert_eq!(f.all_to_all(1e9), 0.0);
        assert_eq!(f.reduce_scatter(1e9), 0.0);
    }

    #[test]
    fn communication_is_much_slower_than_hbm() {
        // The premise of operation placement: link bandwidth << memory
        // bandwidth, so communication volume dominates placement choices.
        let f = fab();
        let hbm = 1.555e12;
        assert!(f.link_bw < hbm / 50.0);
    }

    #[test]
    fn latency_floors_small_messages() {
        let f = fab();
        assert!(f.all_to_all(8.0) >= f.latency);
    }
}
