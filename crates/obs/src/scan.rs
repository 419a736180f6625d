//! SWAR byte scanning: the one hot loop under every text path.
//!
//! The DAGMan parser looks for newlines and counts lines, the edge-list
//! importer splits records, `serve` splits request lines out of its read
//! buffer, and [`crate::json`] looks for the bytes that end a string's
//! unescaped run, both reading and writing. `std` gives no `memchr`, and
//! this workspace bakes in no external crates, so the primitives here
//! hand-roll SWAR (SIMD-within-a-register) lane tests over `u64` words —
//! 8 bytes per step, no `unsafe`, no dependencies:
//!
//! * [`find_byte`] — `memchr` over a byte slice;
//! * [`find_json_stop`] — the first `"`, `\` or control byte (below
//!   `0x20`): where a JSON string's run of plain bytes ends;
//! * [`count_byte`] / [`count_lines`] — population counts, used to pre-size
//!   line tables in one pass instead of letting them regrow;
//! * [`lines`] — a [`str::lines`]-equivalent iterator built on
//!   [`find_byte`] (property-tested against the std implementation).
//!
//! A slice's last partial word is padded and masked to its real lanes, so
//! no byte is ever tested on its own.

const LO: u64 = 0x0101_0101_0101_0101;
const HI: u64 = 0x8080_8080_8080_8080;
const LOW7: u64 = 0x7F7F_7F7F_7F7F_7F7F;

/// A word whose every lane holds `b`.
#[inline]
fn splat(b: u8) -> u64 {
    u64::from(b) * LO
}

/// Flags, in their high bits, the lanes of `w` below `n` (`n <= 0x80`).
/// Only the lowest flagged lane is sure to be a true one — all a search
/// reads. The subtraction borrows out of a true lane into the next, so a
/// lane above it may be flagged falsely (`0x00` then `0x01`, for `n = 1`).
#[inline]
fn first_below(w: u64, n: u8) -> u64 {
    w.wrapping_sub(splat(n)) & !w & HI
}

/// Flags the lanes of `w` equal to `b`, the lowest one surely
/// ([`first_below`]).
#[inline]
fn first_equal(w: u64, b: u8) -> u64 {
    first_below(w ^ splat(b), 1)
}

/// Flags exactly the lanes of `w` equal to `b`, for counting: a lane's low
/// seven bits plus `0x7F` stay below `0x100`, so no carry crosses lanes.
#[inline]
fn exact_equal(w: u64, b: u8) -> u64 {
    let x = w ^ splat(b);
    !(((x & LOW7) + LOW7) | x) & HI
}

/// Flags the lanes that end a JSON string's unescaped run, the lowest one
/// surely: each term's lowest flag is a true lane, so the lowest flag of
/// their union is too.
#[inline]
fn json_stop_lanes(w: u64) -> u64 {
    first_equal(w, b'"') | first_equal(w, b'\\') | first_below(w, 0x20)
}

/// The high-bit mask of the first `len` lanes (`len < 8`).
#[inline]
fn first_lanes(len: usize) -> u64 {
    HI & ((1u64 << (8 * len)) - 1)
}

/// The lanes of a slice's last partial word (`tail.len() < 8`), flagged
/// by `lanes` and masked to the bytes that exist. The zero padding sits
/// above the real bytes, so no borrow out of it reaches them.
#[inline]
fn tail_lanes(tail: &[u8], lanes: impl Fn(u64) -> u64) -> u64 {
    let mut word = [0u8; 8];
    word[..tail.len()].copy_from_slice(tail);
    lanes(u64::from_le_bytes(word)) & first_lanes(tail.len())
}

/// Index of the first byte whose lane `lanes` flags lowest.
#[inline]
fn find_lane(hay: &[u8], lanes: impl Fn(u64) -> u64) -> Option<usize> {
    let mut chunks = hay.chunks_exact(8);
    let mut base = 0usize;
    for c in chunks.by_ref() {
        let m = lanes(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        if m != 0 {
            return Some(base + (m.trailing_zeros() / 8) as usize);
        }
        base += 8;
    }
    let m = tail_lanes(chunks.remainder(), lanes);
    (m != 0).then(|| base + (m.trailing_zeros() / 8) as usize)
}

/// Index of the first occurrence of `needle` in `hay` (a dependency-free
/// `memchr`).
#[inline]
pub fn find_byte(hay: &[u8], needle: u8) -> Option<usize> {
    find_lane(hay, |w| first_equal(w, needle))
}

/// Index of the first byte of `hay` that is `"`, `\` or below `0x20` —
/// the bytes a JSON string cannot hold unescaped. A UTF-8 continuation
/// byte is never one of them, so the prefix before the index is whole
/// scalars.
#[inline]
pub fn find_json_stop(hay: &[u8]) -> Option<usize> {
    find_lane(hay, json_stop_lanes)
}

/// Number of occurrences of `needle` in `hay`.
pub fn count_byte(hay: &[u8], needle: u8) -> usize {
    let lanes = |w| exact_equal(w, needle);
    let mut chunks = hay.chunks_exact(8);
    let mut count = 0usize;
    for c in chunks.by_ref() {
        count +=
            lanes(u64::from_le_bytes(c.try_into().expect("8-byte chunk"))).count_ones() as usize;
    }
    count + tail_lanes(chunks.remainder(), lanes).count_ones() as usize
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

/// The byte-at-a-time stop-set scan [`find_json_stop`] replaced, kept as
/// the oracle of the scanner's and the JSON reader's tests.
#[cfg(test)]
pub(crate) fn json_stop_oracle(hay: &[u8]) -> Option<usize> {
    hay.iter()
        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn find_byte_oracle(hay: &[u8], needle: u8) -> Option<usize> {
        hay.iter().position(|&b| b == needle)
    }

    /// Every scanner against its oracle, on `hay` and each of its suffixes
    /// that starts at one of the first 8 offsets (so each byte lands in
    /// every lane of a word).
    fn check_all_alignments(hay: &[u8], needles: &[u8]) {
        for off in 0..8.min(hay.len() + 1) {
            let h = &hay[off..];
            assert_eq!(find_json_stop(h), json_stop_oracle(h), "stop set, {h:02x?}");
            for &n in needles {
                assert_eq!(
                    find_byte(h, n),
                    find_byte_oracle(h, n),
                    "find {n:#04x}, {h:02x?}"
                );
                assert_eq!(
                    count_byte(h, n),
                    h.iter().filter(|&&b| b == n).count(),
                    "count {n:#04x}, {h:02x?}"
                );
            }
        }
    }

    #[test]
    fn find_byte_matches_position() {
        let hay = b"JOB a a.submit\nPARENT a CHILD b\n";
        for needle in [b'\n', b' ', b'J', b'z'] {
            assert_eq!(
                find_byte(hay, needle),
                find_byte_oracle(hay, needle),
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
        assert_eq!(find_json_stop(&[]), None);
    }

    #[test]
    fn borrow_case_is_neither_found_nor_counted() {
        // `w - 0x01…` borrows out of a zero lane and flags a following
        // `0x01` lane too: a search must report the true lane, a count
        // must not count the false one.
        let mut hay = [b'x'; 16];
        hay[3] = 0x00;
        hay[4] = 0x01;
        check_all_alignments(&hay, &[0x00, 0x01]);
        // The same borrow for a needle: `\n` followed by `\n ^ 0x01`.
        assert_eq!(count_byte(b"\n\x0b\n\x0b\n\x0b\n\x0b", b'\n'), 4);
        assert_eq!(count_byte(b"\"#\"#\"#\"#\"#", b'"'), 5);
    }

    #[test]
    fn high_bytes_in_every_lane_never_match() {
        for fill in [0x80u8, 0x9F, 0xA0, 0xA2, 0xDC, 0xFF] {
            let hay = [fill; 19];
            assert_eq!(find_json_stop(&hay), None, "{fill:#04x}");
            for needle in [b'\n', b'"', b'\\', 0x00, 0x7F] {
                assert_eq!(find_byte(&hay, needle), None, "{fill:#04x} / {needle:#04x}");
                assert_eq!(count_byte(&hay, needle), 0);
            }
            check_all_alignments(&hay, &[fill, fill ^ 0x80, 0x00]);
        }
        // UTF-8 text: the stop never lands inside a scalar.
        let text = "jöb-ñame-日本語-🧪\"";
        assert_eq!(find_json_stop(text.as_bytes()), Some(text.len() - 1));
    }

    #[test]
    fn stop_bytes_in_first_and_last_lane() {
        for stop in [b'"', b'\\', 0x00, 0x1F, b'\n'] {
            for lane in [0, 7, 8, 15] {
                let mut hay = vec![b'a'; 16];
                hay[lane] = stop;
                assert_eq!(
                    find_json_stop(&hay),
                    Some(lane),
                    "{stop:#04x} in lane {lane}"
                );
                check_all_alignments(&hay, &[stop]);
            }
        }
        // Bytes next to the stop set are plain.
        assert_eq!(find_json_stop(b"\x20!#[]\x7f\x80abc"), None);
    }

    #[test]
    fn inputs_shorter_than_a_word() {
        for len in 0..8 {
            let plain = vec![b'z'; len];
            assert_eq!(find_json_stop(&plain), None);
            assert_eq!(find_byte(&plain, b'\n'), None);
            for at in 0..len {
                let mut hay = plain.clone();
                hay[at] = b'\\';
                assert_eq!(find_json_stop(&hay), Some(at));
                assert_eq!(find_byte(&hay, b'\\'), Some(at));
                assert_eq!(count_byte(&hay, b'\\'), 1);
            }
        }
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

    /// Arbitrary bytes, weighted toward the lane tests' edge values: the
    /// stop set, its neighbours, the borrow pair `0x00`/`0x01` and high
    /// bytes.
    fn arb_bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
        const EDGES: [u8; 14] = [
            0x00, 0x01, b'\n', 0x0B, 0x1F, 0x20, b'"', b'#', b'\\', b']', 0x7F, 0x80, 0xA2, 0xFF,
        ];
        let byte = prop_oneof![
            any::<u8>(),
            (0..EDGES.len()).prop_map(|i| EDGES[i]),
            0x20u8..=0x7E,
        ];
        proptest::collection::vec(byte, 0..max)
    }

    proptest! {
        #[test]
        fn lines_matches_std_lines(s in arb_text(64)) {
            prop_assert_eq!(lines(&s).collect::<Vec<_>>(), s.lines().collect::<Vec<_>>());
            prop_assert_eq!(count_lines(&s), s.lines().count());
        }

        #[test]
        fn scanners_match_bytewise_oracles_at_every_alignment(
            hay in arb_bytes(48),
            needle in any::<u8>(),
        ) {
            check_all_alignments(&hay, &[needle, b'\n', 0x00, 0x01]);
        }
    }
}
