//! An epoch-stamped dense set of attribute values.
//!
//! Edge-attribute values are small non-negative integers — vertex and edge
//! ids, degrees, type codes — so "which values has this gTask seen" is a
//! table lookup, not a hash probe: `stamp[v] == epoch` means `v` is in the
//! set, and [`StampSet::clear`] bumps the epoch instead of touching the
//! table. One set serves every gTask of a partition scan (and every task of
//! a verifier recount) with O(1) insert, lookup and clear.

/// A set of `u64` values backed by one `u32` stamp per value.
///
/// The table grows to the largest value ever inserted — never to the value
/// type's range — so memory is `4 · (max + 1)` bytes. Growth takes a fresh
/// zeroed allocation rather than `resize`, which the allocator serves from
/// untouched zero pages: a few large values cost the pages they touch, not
/// the whole range.
#[derive(Debug)]
pub struct StampSet {
    stamp: Vec<u32>,
    epoch: u32,
    len: usize,
}

impl Default for StampSet {
    fn default() -> Self {
        Self::new()
    }
}

impl StampSet {
    /// An empty set.
    pub fn new() -> Self {
        Self {
            stamp: Vec::new(),
            epoch: 1,
            len: 0,
        }
    }

    /// Number of distinct values inserted since the last [`clear`](Self::clear).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing was inserted since the last [`clear`](Self::clear).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when `v` was inserted since the last [`clear`](Self::clear).
    pub fn contains(&self, v: u64) -> bool {
        usize::try_from(v)
            .ok()
            .and_then(|i| self.stamp.get(i))
            .is_some_and(|&s| s == self.epoch)
    }

    /// Adds `v`; returns whether it was new.
    ///
    /// # Panics
    ///
    /// Panics if `v + 1` table entries are not addressable.
    pub fn insert(&mut self, v: u64) -> bool {
        let i = usize::try_from(v).expect("attribute value fits the address space");
        if i >= self.stamp.len() {
            let mut grown = vec![0u32; (i + 1).max(self.stamp.len() * 2)];
            grown[..self.stamp.len()].copy_from_slice(&self.stamp);
            self.stamp = grown;
        }
        if self.stamp[i] == self.epoch {
            return false;
        }
        self.stamp[i] = self.epoch;
        self.len += 1;
        true
    }

    /// Empties the set in O(1) (O(table) once every `u32::MAX` clears, when
    /// the epoch wraps).
    pub fn clear(&mut self) {
        self.len = 0;
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_and_clear() {
        let mut s = StampSet::new();
        assert!(s.is_empty() && !s.contains(0) && !s.contains(u64::MAX));
        assert!(s.insert(7));
        assert!(!s.insert(7));
        assert!(s.insert(0));
        assert!(s.insert(70_000), "grows past the first allocation");
        assert!(s.contains(7) && s.contains(0) && s.contains(70_000));
        assert_eq!(s.len(), 3);
        s.clear();
        assert!(s.is_empty() && !s.contains(7) && !s.contains(70_000));
        assert!(s.insert(7));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn epoch_wrap_resets_the_table() {
        let mut s = StampSet::new();
        s.insert(3);
        s.epoch = u32::MAX;
        s.insert(5);
        s.clear();
        assert_eq!(s.epoch, 1);
        // Value 3 was stamped with epoch 1 long ago; it must not reappear.
        assert!(!s.contains(3) && !s.contains(5));
        assert!(s.insert(3));
    }
}
