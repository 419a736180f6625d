//! The label/job-name hash shared across the workspace.
//!
//! It lives in the graph layer so the graph's own label maps —
//! [`crate::DagBuilder`]'s label → id index — and the frontends' name
//! tables share one function: every crate that handles job names already
//! depends on `prio-graph`.

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

#[cfg(test)]
mod tests {
    use super::*;

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
