//! A small fixed-capacity bit set.
//!
//! Used for transitive-closure rows, visited markers and component masks.
//! Implemented locally (64-bit blocks) to keep the substrate dependency-free.

/// A fixed-capacity set of `usize` indices backed by `u64` blocks.
///
/// All operations are `O(capacity / 64)` or better. Indices at or above the
/// capacity must not be inserted (debug-asserted).
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct FixedBitSet {
    blocks: Vec<u64>,
    capacity: usize,
}

impl FixedBitSet {
    /// Creates an empty set able to hold indices `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        FixedBitSet {
            blocks: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// The capacity the set was created with.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts `i`, returning `true` if it was not already present.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        debug_assert!(
            i < self.capacity,
            "bit index {i} >= capacity {}",
            self.capacity
        );
        let (b, m) = (i / 64, 1u64 << (i % 64));
        let was = self.blocks[b] & m != 0;
        self.blocks[b] |= m;
        !was
    }

    /// Removes `i`, returning `true` if it was present.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        debug_assert!(i < self.capacity);
        let (b, m) = (i / 64, 1u64 << (i % 64));
        let was = self.blocks[b] & m != 0;
        self.blocks[b] &= !m;
        was
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        if i >= self.capacity {
            return false;
        }
        self.blocks[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of elements in the set.
    pub fn len(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }

    /// Removes every element.
    pub fn clear(&mut self) {
        self.blocks.iter_mut().for_each(|b| *b = 0);
    }

    /// Grows the capacity to at least `capacity` (existing bits keep their
    /// values; a no-op when already large enough).
    pub fn grow(&mut self, capacity: usize) {
        if capacity > self.capacity {
            self.blocks.resize(capacity.div_ceil(64), 0);
            self.capacity = capacity;
        }
    }

    /// In-place union: `self |= other`. Panics if capacities differ.
    pub fn union_with(&mut self, other: &FixedBitSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch in union");
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a |= b;
        }
    }

    /// Iterates over the contained indices in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.blocks.iter().enumerate().flat_map(|(bi, &block)| {
            let mut block = block;
            std::iter::from_fn(move || {
                if block == 0 {
                    None
                } else {
                    let tz = block.trailing_zeros() as usize;
                    block &= block - 1;
                    Some(bi * 64 + tz)
                }
            })
        })
    }
}

impl std::fmt::Debug for FixedBitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for FixedBitSet {
    /// Builds a set with capacity `max + 1` from an iterator of indices.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let cap = items.iter().copied().max().map_or(0, |m| m + 1);
        let mut s = FixedBitSet::new(cap);
        for i in items {
            s.insert(i);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = FixedBitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(0));
        assert!(s.contains(0) && s.contains(129) && !s.contains(64));
        assert_eq!(s.len(), 2);
        assert!(s.remove(0));
        assert!(!s.remove(0));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn iteration_is_sorted() {
        let mut s = FixedBitSet::new(200);
        for i in [5usize, 64, 63, 199, 0] {
            s.insert(i);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 5, 63, 64, 199]);
    }

    #[test]
    fn union_merges_both_sets() {
        let mut a = FixedBitSet::new(100);
        let mut b = FixedBitSet::new(100);
        a.insert(1);
        a.insert(50);
        b.insert(50);
        b.insert(99);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 50, 99]);
    }

    #[test]
    fn contains_out_of_range_is_false() {
        let s = FixedBitSet::new(10);
        assert!(!s.contains(1000));
    }

    #[test]
    fn from_iterator() {
        let s: FixedBitSet = [3usize, 7, 3].into_iter().collect();
        assert_eq!(s.capacity(), 8);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn clear_empties() {
        let mut s: FixedBitSet = [1usize, 2].into_iter().collect();
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
    }
}
