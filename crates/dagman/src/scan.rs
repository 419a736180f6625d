//! SWAR byte scanning for the DAGMan parser's front end.
//!
//! The parser's hot inner loops are "find the next newline" and "how many
//! lines are there". `std` gives no `memchr`,
//! and this workspace bakes in no external crates, so the primitives here
//! hand-roll the classic SWAR (SIMD-within-a-register) zero-byte test over
//! `u64` words — 8 bytes per iteration, no `unsafe`, no dependencies:
//!
//! * [`find_byte`] — `memchr` over a byte slice;
//! * [`count_byte`] / [`count_lines`] — population counts, used to pre-size
//!   the parser's line tables in one pass instead of letting them regrow;
//! * [`lines`] — a [`str::lines`]-equivalent iterator built on
//!   [`find_byte`] (property-tested against the std implementation).

const LO: u64 = 0x0101_0101_0101_0101;
const HI: u64 = 0x8080_8080_8080_8080;

/// A word whose every lane holds `b`.
#[inline]
fn splat(b: u8) -> u64 {
    u64::from(b) * LO
}

/// The classic SWAR zero-lane test: the high bit of each lane of the
/// result is set iff that lane of `w` is zero (lanes with their own high
/// bit set cannot false-positive because `!w` clears theirs).
#[inline]
fn zero_lane_mask(w: u64) -> u64 {
    w.wrapping_sub(LO) & !w & HI
}

/// Index of the first occurrence of `needle` in `hay` (a dependency-free
/// `memchr`).
#[inline]
pub fn find_byte(hay: &[u8], needle: u8) -> Option<usize> {
    let pat = splat(needle);
    let mut chunks = hay.chunks_exact(8);
    let mut base = 0usize;
    for c in chunks.by_ref() {
        let w = u64::from_le_bytes(c.try_into().expect("8-byte chunk")) ^ pat;
        let m = zero_lane_mask(w);
        if m != 0 {
            return Some(base + (m.trailing_zeros() / 8) as usize);
        }
        base += 8;
    }
    chunks
        .remainder()
        .iter()
        .position(|&b| b == needle)
        .map(|i| base + i)
}

/// Number of occurrences of `needle` in `hay`.
pub fn count_byte(hay: &[u8], needle: u8) -> usize {
    let pat = splat(needle);
    let mut chunks = hay.chunks_exact(8);
    let mut count = 0usize;
    for c in chunks.by_ref() {
        let w = u64::from_le_bytes(c.try_into().expect("8-byte chunk")) ^ pat;
        count += zero_lane_mask(w).count_ones() as usize;
    }
    count + chunks.remainder().iter().filter(|&&b| b == needle).count()
}

/// Number of lines in `text`, as [`str::lines`] would count them (a final
/// unterminated line counts; a trailing newline does not add one).
pub fn count_lines(text: &str) -> usize {
    let b = text.as_bytes();
    match b.last() {
        None => 0,
        Some(b'\n') => count_byte(b, b'\n'),
        Some(_) => count_byte(b, b'\n') + 1,
    }
}

/// A [`str::lines`]-equivalent iterator driven by [`find_byte`]:
/// lines split at `\n`, a `\r` immediately before a `\n` is stripped, and
/// the final line needs no terminator. Property-tested identical to
/// `str::lines` on arbitrary input.
pub fn lines(text: &str) -> LineIter<'_> {
    LineIter { text, pos: 0 }
}

/// Iterator returned by [`lines`].
#[derive(Debug, Clone)]
pub struct LineIter<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Iterator for LineIter<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        if self.pos >= self.text.len() {
            return None;
        }
        let bytes = self.text.as_bytes();
        let (end, next) = match find_byte(&bytes[self.pos..], b'\n') {
            Some(i) => {
                // `\r` is part of the terminator only when a `\n` follows.
                let line_end = self.pos + i;
                let stripped = if line_end > self.pos && bytes[line_end - 1] == b'\r' {
                    line_end - 1
                } else {
                    line_end
                };
                (stripped, line_end + 1)
            }
            None => (self.text.len(), self.text.len()),
        };
        let line = &self.text[self.pos..end];
        self.pos = next;
        Some(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn find_byte_matches_position() {
        let hay = b"JOB a a.submit\nPARENT a CHILD b\n";
        for needle in [b'\n', b' ', b'J', b'z'] {
            assert_eq!(
                find_byte(hay, needle),
                hay.iter().position(|&b| b == needle),
                "needle {needle:?}"
            );
        }
        // Straddles the 8-byte word boundary.
        for i in 0..24 {
            let mut v = vec![b'x'; 24];
            v[i] = b'\n';
            assert_eq!(find_byte(&v, b'\n'), Some(i));
        }
        assert_eq!(find_byte(&[], b'\n'), None);
    }

    #[test]
    fn count_matches_filter() {
        let hay = b"a\nbb\n\nccc";
        assert_eq!(count_byte(hay, b'\n'), 3);
        assert_eq!(count_byte(&[b'\n'; 17], b'\n'), 17);
        assert_eq!(count_byte(b"", b'\n'), 0);
    }

    #[test]
    fn count_lines_matches_std() {
        for t in ["", "a", "a\n", "a\nb", "a\nb\n", "\n", "\r\n", "a\r\nb"] {
            assert_eq!(count_lines(t), t.lines().count(), "{t:?}");
        }
    }

    /// Strings over a small alphabet rich in `\r`/`\n` edge cases.
    fn arb_text(max: usize) -> impl Strategy<Value = String> {
        const ALPHABET: [char; 6] = ['a', 'b', 'c', ' ', '\r', '\n'];
        proptest::collection::vec(0usize..ALPHABET.len(), 0..max)
            .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
    }

    proptest! {
        #[test]
        fn lines_matches_std_lines(s in arb_text(64)) {
            prop_assert_eq!(lines(&s).collect::<Vec<_>>(), s.lines().collect::<Vec<_>>());
            prop_assert_eq!(count_lines(&s), s.lines().count());
        }
    }
}
