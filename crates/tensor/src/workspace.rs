//! Reusable scratch-buffer pool for the execution hot path.
//!
//! gTask execution runs thousands of small kernels per layer per epoch;
//! allocating a fresh buffer for every intermediate makes the allocator the
//! bottleneck. A [`Workspace`] is a per-thread (never shared — it is
//! deliberately `!Sync`-by-convention, owned by exactly one worker) pool of
//! `f32` and `u32` buffers keyed by power-of-two size class. Buffers are
//! checked out with [`Workspace::take`], used as kernel outputs, and
//! returned with [`Workspace::give`] (or, wrapped in a [`Tensor`], with
//! [`Workspace::recycle`]) so the next kernel of the same shape pays a
//! `memset` instead of a `malloc`.
//!
//! Two invariants keep the workspace path bit-identical to plain
//! allocation:
//!
//! 1. every checked-out buffer is zero-filled, exactly like `vec![0.0; n]`;
//! 2. the pool only changes *where* memory comes from, never what is
//!    computed — the allocating `ops` wrappers and the `_into` variants
//!    they delegate to run the same floating-point operations in the same
//!    order.
//!
//! A size class parks at most as many buffers as it ever had leases open
//! at once; a returned buffer beyond that is freed. A loop that repeats the
//! same checkouts therefore finds every buffer it needs parked, while
//! buffers the pool never leased — on a tape, the tensors passed to
//! `Tape::input` and `Tape::param`, handed in by [`Workspace::recycle`]
//! when the tape finishes — cannot pile up round after round. The bound is
//! a pure function of the checkout sequence: no clock, no cap to tune.
//!
//! [`Workspace::stats`] reports into the shared [`Counters`] registry
//! under the `pool.*` keys ([`wisegraph_obs::keys`]), including a peak
//! per size class — a pool can look healthy globally while one class
//! hoards memory, and the per-class peaks make that visible. All pool
//! metrics are [`Class::Resource`]: deterministic for a fixed
//! configuration, but legitimately dependent on worker count.

use crate::tensor::Tensor;
use wisegraph_obs::{keys, Class, Counters};

/// Number of power-of-two size classes (buffers up to 2^63 elements).
const NUM_CLASSES: usize = 64;

/// The buffers of one element type, per size class: those parked, and
/// the leases open now and at most at once.
struct Pool<T> {
    parked: Vec<Vec<Vec<T>>>,
    open: Vec<u64>,
    peak_open: Vec<u64>,
}

impl<T> Default for Pool<T> {
    fn default() -> Self {
        Self {
            parked: (0..NUM_CLASSES).map(|_| Vec::new()).collect(),
            open: vec![0; NUM_CLASSES],
            peak_open: vec![0; NUM_CLASSES],
        }
    }
}

impl<T> Pool<T> {
    /// Opens a lease in `class`, handing out a parked buffer if there is
    /// one.
    fn lease(&mut self, class: usize) -> Option<Vec<T>> {
        self.open[class] += 1;
        self.peak_open[class] = self.peak_open[class].max(self.open[class]);
        self.parked[class].pop()
    }

    /// Closes a lease in `class` and parks `v` while the class holds fewer
    /// buffers than its peak of open leases; returns whether it did (the
    /// buffer is freed otherwise). The open count saturates at zero when
    /// more buffers come back than were leased.
    fn park(&mut self, class: usize, v: Vec<T>) -> bool {
        self.open[class] = self.open[class].saturating_sub(1);
        let room = (self.parked[class].len() as u64) < self.peak_open[class];
        if room {
            self.parked[class].push(v);
        }
        room
    }
}

/// A per-thread scratch-buffer pool keyed by power-of-two size class.
pub struct Workspace {
    f32_pool: Pool<f32>,
    u32_pool: Pool<u32>,
    created: u64,
    reused: u64,
    resident_bytes: u64,
    peak_resident_bytes: u64,
    class_resident: Vec<u64>,
    class_peak: Vec<u64>,
    leases_opened: u64,
    leases_closed: u64,
    peak_open_leases: u64,
}

impl Default for Workspace {
    fn default() -> Self {
        Self {
            f32_pool: Pool::default(),
            u32_pool: Pool::default(),
            created: 0,
            reused: 0,
            resident_bytes: 0,
            peak_resident_bytes: 0,
            class_resident: vec![0; NUM_CLASSES],
            class_peak: vec![0; NUM_CLASSES],
            leases_opened: 0,
            leases_closed: 0,
            peak_open_leases: 0,
        }
    }
}

/// Size class of a buffer length: index of the smallest power of two that
/// holds `len` elements.
fn size_class(len: usize) -> usize {
    len.max(1).next_power_of_two().trailing_zeros() as usize
}

/// Bytes of a buffer's allocation.
fn bytes_of<T>(v: &Vec<T>) -> u64 {
    (v.capacity() * std::mem::size_of::<T>()) as u64
}

impl Workspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Buffers currently checked out: every `take*` opens a lease, every
    /// `give*`/`recycle` closes one. A value that keeps growing across
    /// steady-state epochs means buffers leak out of the pool instead of
    /// being returned. Saturates at zero when externally
    /// allocated buffers are given to a pool that never leased them.
    pub fn open_leases(&self) -> u64 {
        self.leases_opened.saturating_sub(self.leases_closed)
    }

    /// Zero-fills `reused` (a buffer just unparked from `class`) or a fresh
    /// allocation to exactly `len` elements, and does the accounting of an
    /// opened lease.
    fn check_out<T: Copy + Default>(
        &mut self,
        class: usize,
        len: usize,
        reused: Option<Vec<T>>,
    ) -> Vec<T> {
        self.leases_opened += 1;
        self.peak_open_leases = self.peak_open_leases.max(self.open_leases());
        let mut v = match reused {
            Some(mut v) => {
                self.reused += 1;
                self.resident_bytes = self.resident_bytes.saturating_sub(bytes_of(&v));
                self.class_resident[class] =
                    self.class_resident[class].saturating_sub(bytes_of(&v));
                v.clear();
                v
            }
            None => {
                self.created += 1;
                Vec::with_capacity(len.max(1).next_power_of_two())
            }
        };
        v.resize(len, T::default());
        v
    }

    /// Accounts for a closed lease and, when `parked`, for `bytes` more
    /// resident in `class`.
    fn check_in(&mut self, class: usize, bytes: u64, parked: bool) {
        self.leases_closed += 1;
        if parked {
            self.resident_bytes += bytes;
            self.peak_resident_bytes = self.peak_resident_bytes.max(self.resident_bytes);
            self.class_resident[class] += bytes;
            self.class_peak[class] = self.class_peak[class].max(self.class_resident[class]);
        }
    }

    /// Checks out a zero-filled `f32` buffer of exactly `len` elements.
    ///
    /// The buffer's contents are indistinguishable from `vec![0.0; len]`;
    /// only its provenance differs.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        let class = size_class(len);
        let reused = self.f32_pool.lease(class);
        self.check_out(class, len, reused)
    }

    /// Checks out a zero-filled `u32` buffer of exactly `len` elements
    /// (index streams).
    pub fn take_u32(&mut self, len: usize) -> Vec<u32> {
        let class = size_class(len);
        let reused = self.u32_pool.lease(class);
        self.check_out(class, len, reused)
    }

    /// Returns an `f32` buffer to the pool, which parks or frees it.
    pub fn give(&mut self, v: Vec<f32>) {
        let (class, bytes) = (size_class(v.capacity()), bytes_of(&v));
        let parked = v.capacity() > 0 && self.f32_pool.park(class, v);
        self.check_in(class, bytes, parked);
    }

    /// Returns a `u32` buffer to the pool, which parks or frees it.
    pub fn give_u32(&mut self, v: Vec<u32>) {
        let (class, bytes) = (size_class(v.capacity()), bytes_of(&v));
        let parked = v.capacity() > 0 && self.u32_pool.park(class, v);
        self.check_in(class, bytes, parked);
    }

    /// Checks out a zero tensor of the given shape, backed by a pooled
    /// buffer.
    pub fn take_tensor(&mut self, dims: &[usize]) -> Tensor {
        let n: usize = dims.iter().product();
        Tensor::from_vec(self.take(n), dims)
    }

    /// Returns a tensor's backing buffer to the pool.
    pub fn recycle(&mut self, t: Tensor) {
        self.give(t.into_vec());
    }

    /// Current counter snapshot under the shared `pool.*` keys.
    ///
    /// Per-worker snapshots combine with [`Counters::merge`]: creates,
    /// reuses, and resident bytes sum across disjoint pools, while peaks
    /// take the max (summing peaks would overstate a single worker's
    /// footprint; the merged peak is a lower bound on the true
    /// simultaneous peak). Size classes that never parked a buffer are
    /// omitted.
    pub fn stats(&self) -> Counters {
        let mut c = Counters::new();
        c.add_class(keys::POOL_CREATED, self.created, Class::Resource);
        c.add_class(keys::POOL_REUSED, self.reused, Class::Resource);
        c.add_class(keys::POOL_RESIDENT, self.resident_bytes, Class::Resource);
        c.record_max(keys::POOL_PEAK, self.peak_resident_bytes, Class::Resource);
        c.add_class(keys::POOL_OPEN_LEASES, self.open_leases(), Class::Resource);
        c.record_max(
            keys::POOL_PEAK_OPEN_LEASES,
            self.peak_open_leases,
            Class::Resource,
        );
        for (class, &peak) in self.class_peak.iter().enumerate() {
            if peak > 0 {
                c.record_max(keys::pool_class_peak(class), peak, Class::Resource);
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wisegraph_obs::pool_reuse_ratio;

    #[test]
    fn take_is_zeroed_like_fresh_allocation() {
        let mut ws = Workspace::new();
        let mut v = ws.take(10);
        assert_eq!(v, vec![0.0; 10]);
        v.iter_mut().for_each(|x| *x = 7.0);
        ws.give(v);
        // Same size class: must come back zeroed despite the dirty write.
        let v2 = ws.take(10);
        assert_eq!(v2, vec![0.0; 10]);
    }

    #[test]
    fn counters_track_create_and_reuse() {
        let mut ws = Workspace::new();
        let a = ws.take(100);
        let b = ws.take(100);
        assert_eq!(ws.stats().count(keys::POOL_CREATED), 2);
        assert_eq!(ws.stats().count(keys::POOL_REUSED), 0);
        ws.give(a);
        ws.give(b);
        assert!(ws.stats().count(keys::POOL_RESIDENT) >= 2 * 100 * 4);
        let _c = ws.take(100);
        let _d = ws.take(128); // same power-of-two class as 100
        let s = ws.stats();
        assert_eq!(s.count(keys::POOL_CREATED), 2);
        assert_eq!(s.count(keys::POOL_REUSED), 2);
        assert!(s.count(keys::POOL_PEAK) >= s.count(keys::POOL_RESIDENT));
        assert!((pool_reuse_ratio(&s) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn size_classes_separate_small_and_large() {
        let mut ws = Workspace::new();
        let small = ws.take(4);
        ws.give(small);
        // A much larger request must not receive the small buffer.
        let large = ws.take(1000);
        assert_eq!(large.len(), 1000);
        assert_eq!(ws.stats().count(keys::POOL_CREATED), 2);
    }

    #[test]
    fn per_class_peaks_attribute_memory_to_their_class() {
        let mut ws = Workspace::new();
        let small = ws.take(4); // class of 4 elements
        let large = ws.take(1000); // class of 1024 elements
        ws.give(small);
        ws.give(large);
        let s = ws.stats();
        let small_key = keys::pool_class_peak(size_class(4));
        let large_key = keys::pool_class_peak(size_class(1000));
        assert_eq!(s.count(&small_key), 4 * 4);
        assert_eq!(s.count(&large_key), 1024 * 4);
        // Both parked simultaneously: the global peak sees the sum, and
        // each class peak accounts only its own buffers.
        assert_eq!(s.count(keys::POOL_PEAK), 4 * 4 + 1024 * 4);
        // Classes that never parked anything are absent, not zero.
        assert!(s.get(&keys::pool_class_peak(63)).is_none());
    }

    #[test]
    fn a_class_parks_no_more_buffers_than_it_ever_leased_at_once() {
        let mut ws = Workspace::new();
        let (a, b) = (ws.take(100), ws.take(100));
        ws.give(a);
        ws.give(b);
        // Buffers the pool never leased, into a class already holding its
        // peak of two open leases: freed, not parked.
        ws.give(vec![1.0; 100]);
        ws.recycle(Tensor::zeros(&[128]));
        let parked = 2 * 128 * 4;
        assert_eq!(ws.stats().count(keys::POOL_RESIDENT), parked);
        // A class that never leased anything parks nothing.
        ws.give(vec![0.0; 5000]);
        assert_eq!(ws.stats().count(keys::POOL_RESIDENT), parked);
        assert_eq!(ws.stats().count(keys::POOL_PEAK), parked);
        // The same checkouts again are served from the pool.
        let (_c, _d) = (ws.take(100), ws.take(90));
        let s = ws.stats();
        assert_eq!(
            (s.count(keys::POOL_CREATED), s.count(keys::POOL_REUSED)),
            (2, 2)
        );
        assert_eq!(s.count(keys::POOL_RESIDENT), 0);
    }

    #[test]
    fn tensor_roundtrip_recycles_storage() {
        let mut ws = Workspace::new();
        let t = ws.take_tensor(&[3, 4]);
        assert_eq!(t.dims(), &[3, 4]);
        ws.recycle(t);
        let t2 = ws.take_tensor(&[4, 3]);
        assert_eq!(ws.stats().count(keys::POOL_REUSED), 1);
        assert!(t2.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn u32_streams_pool_independently() {
        let mut ws = Workspace::new();
        let s = ws.take_u32(16);
        ws.give_u32(s);
        let s2 = ws.take_u32(9);
        assert_eq!(s2, vec![0u32; 9]);
        let st = ws.stats();
        assert_eq!(
            (st.count(keys::POOL_CREATED), st.count(keys::POOL_REUSED)),
            (1, 1)
        );
    }

    #[test]
    fn open_leases_track_checkouts_and_returns() {
        let mut ws = Workspace::new();
        assert_eq!(ws.open_leases(), 0);
        let a = ws.take(8);
        let b = ws.take_u32(8);
        assert_eq!(ws.open_leases(), 2);
        let s = ws.stats();
        assert_eq!(s.count(keys::POOL_OPEN_LEASES), 2);
        assert_eq!(s.count(keys::POOL_PEAK_OPEN_LEASES), 2);
        ws.give(a);
        ws.give_u32(b);
        assert_eq!(ws.open_leases(), 0);
        // The peak remembers the widest simultaneous checkout.
        assert_eq!(ws.stats().count(keys::POOL_PEAK_OPEN_LEASES), 2);
        assert_eq!(ws.stats().count(keys::POOL_OPEN_LEASES), 0);
    }

    #[test]
    fn merged_snapshots_sum_counts_and_max_peaks() {
        let mut a = Workspace::new();
        let buf = a.take(64);
        a.give(buf);
        let mut b = Workspace::new();
        let b1 = b.take(64);
        let b2 = b.take(64);
        b.give(b1);
        b.give(b2);
        let mut merged = a.stats();
        merged.merge(&b.stats());
        assert_eq!(merged.count(keys::POOL_CREATED), 3);
        assert_eq!(merged.count(keys::POOL_PEAK), b.stats().count(keys::POOL_PEAK));
        assert_eq!(
            merged.count(keys::POOL_RESIDENT),
            a.stats().count(keys::POOL_RESIDENT) + b.stats().count(keys::POOL_RESIDENT)
        );
    }
}
