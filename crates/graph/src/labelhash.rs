//! The job-name hash and the one name → id index of the workspace.
//!
//! They live in the graph layer, next to the name table every [`crate::Dag`]
//! keeps, because every crate that handles job names already depends on
//! `prio-graph`: the DAGMan line index and the JSON and edge-list
//! builders all look names up through [`NameIndex`].

use std::hash::{BuildHasher, Hasher};

/// Multiplicative hash over 8-byte chunks, chosen over the default SipHash
/// because name tokens are short and workflow files are trusted local input
/// (no hash-flooding concern) — the keyed SipHash setup cost alone outweighs
/// hashing a ~15-byte name, and byte-serial hashes (FNV) pay a dependent
/// multiply per byte.
pub struct NameHasher {
    h: u64,
    /// Total bytes hashed, folded into [`NameHasher::finish`]. Without it
    /// the ≤7-byte tail word is length-ambiguous: the tail packs bytes
    /// big-endian into a `u64` with no length marker, so `"a"` and
    /// `"\0a"` packed to the same word and collided for *every* seed — a
    /// degenerate family surfaced by the 10⁷-name keyspace audit. Mixing
    /// the length restores injectivity of the final round for all inputs
    /// up to 8 bytes.
    len: u64,
}

const CHUNK_SEED: u64 = 0x517c_c1b7_2722_0a95;

impl Hasher for NameHasher {
    fn finish(&self) -> u64 {
        // The multiply pushes entropy toward the high bits but the table
        // indexes buckets by the low bits — sequential names like `job17`,
        // `job18` would cluster into long probe chains without a final
        // avalanche (splitmix64-style).
        let mut h = self.h ^ self.len;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.h;
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let v = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
            h = (h.rotate_left(5) ^ v).wrapping_mul(CHUNK_SEED);
        }
        let mut tail = 0u64;
        for &b in chunks.remainder() {
            tail = (tail << 8) | u64::from(b);
        }
        h = (h.rotate_left(5) ^ tail).wrapping_mul(CHUNK_SEED);
        self.h = h;
        self.len = self.len.wrapping_add(bytes.len() as u64);
    }
}

/// [`BuildHasher`] for [`NameHasher`]; usable as the hasher of any map or
/// set keyed by job names or labels.
#[derive(Debug, Default, Clone)]
pub struct NameHashBuild;

impl BuildHasher for NameHashBuild {
    type Hasher = NameHasher;

    fn build_hasher(&self) -> NameHasher {
        NameHasher {
            h: 0xcbf2_9ce4_8422_2325,
            len: 0,
        }
    }
}

/// The hash of a name, as [`NameIndex`] uses it.
fn hash(name: &str) -> usize {
    let mut h = NameHashBuild.build_hasher();
    h.write(name.as_bytes());
    h.finish() as usize
}

/// A name → id table that stores ids only: open addressing over
/// [`NameHashBuild`] hashes with linear probing, kept under half full. A
/// slot holds `id + 1`; `0` is empty. The names live with the caller,
/// which hands every lookup a `name_of: id → &str` to compare through.
#[derive(Debug, Clone)]
pub struct NameIndex {
    slots: Vec<u32>,
    /// Number of names indexed.
    len: usize,
}

/// The empty slot where a name [`NameIndex::find`] missed belongs; pass
/// it to [`NameIndex::insert`] before the index changes again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vacant(usize);

impl NameIndex {
    /// An index sized for about `names` names.
    pub fn with_capacity(names: usize) -> NameIndex {
        NameIndex {
            slots: vec![0; (names * 2).next_power_of_two().max(16)],
            len: 0,
        }
    }

    /// The id of `name`, or the slot where it belongs.
    pub fn find<'a>(&self, name: &str, name_of: impl Fn(u32) -> &'a str) -> Result<u32, Vacant> {
        let mask = self.slots.len() - 1;
        let mut i = hash(name) & mask;
        loop {
            match self.slots[i] {
                0 => return Err(Vacant(i)),
                id if name_of(id - 1) == name => return Ok(id - 1),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// The id of `name`, if it is indexed.
    pub fn get<'a>(&self, name: &str, name_of: impl Fn(u32) -> &'a str) -> Option<u32> {
        self.find(name, name_of).ok()
    }

    /// Records `id` for the name whose [`NameIndex::find`] returned
    /// `slot`. `name_of` must already resolve `id` and every id indexed
    /// before it: the table rehashes through it when it grows.
    pub fn insert<'a>(&mut self, slot: Vacant, id: u32, name_of: impl Fn(u32) -> &'a str) {
        debug_assert_eq!(self.slots[slot.0], 0, "slot is taken");
        self.slots[slot.0] = id + 1;
        self.len += 1;
        if self.len * 2 > self.slots.len() {
            let mut grown = vec![0; self.slots.len() * 2];
            let mask = grown.len() - 1;
            for &id in self.slots.iter().filter(|&&id| id != 0) {
                let mut i = hash(name_of(id - 1)) & mask;
                while grown[i] != 0 {
                    i = (i + 1) & mask;
                }
                grown[i] = id;
            }
            self.slots = grown;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_index_finds_inserts_and_grows() {
        let names: Vec<String> = (0..100).map(|i| format!("job{i}")).collect();
        let mut index = NameIndex::with_capacity(4);
        let name_of = |id: u32| names[id as usize].as_str();
        for (id, name) in names.iter().enumerate() {
            let slot = index.find(name, name_of).expect_err("a new name");
            index.insert(slot, id as u32, name_of);
            assert_eq!(index.find(name, name_of), Ok(id as u32));
        }
        for (id, name) in names.iter().enumerate() {
            assert_eq!(index.get(name, name_of), Some(id as u32));
        }
        assert_eq!(index.get("job100", name_of), None);
        assert_eq!(index.get("", name_of), None);
    }

    fn h(s: &str) -> u64 {
        let mut hasher = NameHashBuild.build_hasher();
        hasher.write(s.as_bytes());
        hasher.finish()
    }

    #[test]
    fn low_bits_spread_for_sequential_names() {
        let mut low = std::collections::HashSet::new();
        for i in 0..64 {
            low.insert(h(&format!("job{i}")) & 0xfff);
        }
        assert!(low.len() > 48, "low-bit clustering: {}", low.len());
    }

    #[test]
    fn nul_padded_tails_no_longer_collide() {
        // Regression for the tail length ambiguity: these packed to the
        // same tail word before the length was folded into `finish`.
        assert_ne!(h("a"), h("\0a"));
        assert_ne!(h("\0\0j"), h("\0j"));
        assert_ne!(h(""), h("\0"));
    }

    /// The 10⁷-scale keyspace audit that surfaced the tail length-
    /// ambiguity bug: hash a large sequential-name keyspace (`j0`, `j1`,
    /// …) and assert the 64-bit collision count stays near the birthday
    /// bound. Debug builds audit 10⁶ names to keep the test fast; release
    /// test runs (`cargo test --release`) audit the full 10⁷.
    #[test]
    fn sequential_keyspace_collision_rate_is_birthday_bounded() {
        let n: usize = if cfg!(debug_assertions) {
            1_000_000
        } else {
            10_000_000
        };
        let build = NameHashBuild;
        let mut hashes: Vec<u64> = Vec::with_capacity(n);
        // Manual byte formatting: `format!` per name would dominate the
        // audit's runtime at 10⁷ names.
        let mut buf = [0u8; 12];
        buf[0] = b'j';
        for i in 0..n {
            let mut len = 1;
            let digits = &mut buf[1..];
            let mut x = i;
            let mut k = 0;
            loop {
                digits[k] = b'0' + (x % 10) as u8;
                x /= 10;
                k += 1;
                if x == 0 {
                    break;
                }
            }
            digits[..k].reverse();
            len += k;
            let mut hasher = build.build_hasher();
            hasher.write(&buf[..len]);
            hashes.push(hasher.finish());
        }
        hashes.sort_unstable();
        let collisions = hashes.windows(2).filter(|w| w[0] == w[1]).count();
        // Birthday expectation for 64-bit hashes: n²/2⁶⁵ ≈ 0.003 at 10⁶,
        // ≈ 0.3 at 10⁷. Allow a small margin; the pre-fix hasher produced
        // *systematic* families (thousands of collisions), not onesies.
        assert!(
            collisions <= 3,
            "{collisions} collisions across {n} sequential names — degenerate hash family"
        );
    }
}
