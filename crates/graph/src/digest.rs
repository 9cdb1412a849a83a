//! FNV-1a 64-bit hashing: the workspace's content-digest primitive.
//!
//! FNV is not cryptographic — it does not need to be: digests key an
//! in-process correctness cache, not a trust boundary, and what matters is
//! that a digest is a pure, platform-independent function of the content,
//! so identical inputs hit and changed inputs miss. It lives in this crate
//! because [`Graph::content_key`](crate::Graph::content_key) memoises one;
//! `wisegraph-cache` re-exports it for the other key components.

/// Incremental FNV-1a 64-bit hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// The offset-basis state.
    pub fn new() -> Self {
        Self(FNV_OFFSET)
    }

    /// Folds bytes into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    /// Folds a `u64` (little-endian) into the digest.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Folds a `u32` (little-endian) into the digest.
    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// The current digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Lets `#[derive(Hash)]` values fold straight into the digest (the cache
/// keys of tables and DFGs). Integers arrive in native byte order, which
/// is fine for a key that never leaves the process.
impl std::hash::Hasher for Fnv64 {
    fn write(&mut self, bytes: &[u8]) {
        Fnv64::write(self, bytes);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        let digest = |bytes: &[u8]| {
            let mut h = Fnv64::new();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
