//! Deterministic, seedable PRNG: xoshiro256++ seeded through splitmix64.
//!
//! The whole workspace routes its randomness through this one generator so
//! that every graph, sample, and weight tensor is a pure function of its
//! `u64` seed — the determinism tests in `tests/determinism.rs` rely on it.
//! xoshiro256++ passes BigCrush and is a few instructions per draw;
//! splitmix64 turns any seed (including 0) into a full 256-bit state.

use std::ops::Range;

const F64_SCALE: f64 = 1.0 / (1u64 << 53) as f64;
const F32_SCALE: f32 = 1.0 / (1u64 << 24) as f32;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seedable xoshiro256++ generator.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator whose entire stream is determined by `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut st = seed;
        Self {
            s: [
                splitmix64(&mut st),
                splitmix64(&mut st),
                splitmix64(&mut st),
                splitmix64(&mut st),
            ],
        }
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * F64_SCALE
    }

    /// Uniform in `[0, 1)` with 24 bits of precision.
    pub fn f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * F32_SCALE
    }

    /// Uniform integer in `[0, n)`, unbiased (Lemire's multiply-shift with
    /// rejection).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut low = m as u64;
        if low < n {
            let threshold = n.wrapping_neg() % n;
            while low < threshold {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform in the half-open range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn range_u64(&mut self, r: Range<u64>) -> u64 {
        assert!(r.start < r.end, "empty range");
        r.start + self.below(r.end - r.start)
    }

    /// Uniform `usize` in the half-open range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn range_usize(&mut self, r: Range<usize>) -> usize {
        self.range_u64(r.start as u64..r.end as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_f32(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.f32()
    }

    /// `true` with probability `p`.
    pub fn bool_with(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_seed_identical_stream() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = Rng::seed_from_u64(0);
        let draws: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        assert!(draws.iter().any(|&x| x != 0));
        assert!(draws.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn unit_floats_in_range_and_centered() {
        let mut r = Rng::seed_from_u64(7);
        let n = 10_000;
        let mean: f64 = (0..n)
            .map(|_| {
                let v = r.f64();
                assert!((0.0..1.0).contains(&v));
                v
            })
            .sum::<f64>()
            / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
        let v32 = r.f32();
        assert!((0.0..1.0).contains(&v32));
    }

    #[test]
    fn below_covers_range_without_bias() {
        let mut r = Rng::seed_from_u64(11);
        let mut counts = [0usize; 7];
        for _ in 0..70_000 {
            counts[r.below(7) as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "{counts:?}");
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = Rng::seed_from_u64(13);
        for _ in 0..1000 {
            let v = r.range_usize(10..20);
            assert!((10..20).contains(&v));
            let f = r.range_f32(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&f));
        }
        let hits = (0..1000).filter(|_| r.bool_with(0.25)).count();
        assert!((150..350).contains(&hits), "{hits}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng::seed_from_u64(17);
        let mut xs: Vec<u32> = (0..100).collect();
        r.shuffle(&mut xs);
        assert_ne!(xs, (0..100).collect::<Vec<u32>>());
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
    }
}
