//! The one buffer every exporter formats into.
//!
//! An exporter appends its output piece by piece to a [`ChunkWriter`],
//! which copies the pieces into one fixed [`EXPORT_CHUNK`]-byte buffer
//! and hands each full chunk to the destination in one `write_all`. An
//! export therefore holds one chunk of memory whatever the workflow's
//! size, and writing to a file or into a `Vec` is the same code.

use std::io;

/// The size of an exporter's buffer: the bytes it formats before each
/// `write_all`.
pub const EXPORT_CHUNK: usize = 64 * 1024;

/// A fixed [`EXPORT_CHUNK`]-byte buffer in front of an [`io::Write`].
///
/// Every full chunk goes out in one `write_all`, also in the middle of a
/// piece (a long name, a long child list). The first write error is kept
/// and later output dropped, so formatting code appends without checking
/// each piece; [`ChunkWriter::finish`] writes the last partial chunk and
/// reports the error.
pub struct ChunkWriter<'w> {
    buf: Vec<u8>,
    out: &'w mut dyn io::Write,
    error: Option<io::Error>,
}

impl<'w> ChunkWriter<'w> {
    /// A writer in front of `out`, with its chunk allocated.
    pub fn new(out: &'w mut dyn io::Write) -> ChunkWriter<'w> {
        ChunkWriter {
            buf: Vec::with_capacity(EXPORT_CHUNK),
            out,
            error: None,
        }
    }

    /// Appends `s`.
    #[inline]
    pub fn str(&mut self, s: &str) {
        let bytes = s.as_bytes();
        if bytes.len() < EXPORT_CHUNK - self.buf.len() {
            self.buf.extend_from_slice(bytes);
        } else {
            self.spill(bytes);
        }
    }

    /// Appends every part in order.
    #[inline]
    pub fn strs(&mut self, parts: &[&str]) {
        for part in parts {
            self.str(part);
        }
    }

    /// Appends `v` in decimal.
    pub fn int(&mut self, v: i64) {
        let mut digits = [0u8; 20];
        let mut i = digits.len();
        let mut n = v.unsigned_abs();
        loop {
            i -= 1;
            digits[i] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        if v < 0 {
            self.str("-");
        }
        self.str(std::str::from_utf8(&digits[i..]).expect("ASCII digits"));
    }

    /// Appends `s` as a JSON string literal, quotes included.
    pub fn json_str(&mut self, s: &str) {
        prio_obs::json::escaped_pieces(s, |piece| self.str(piece));
    }

    /// Fills the chunk with the head of `bytes`, writes it, and repeats
    /// until the rest fits.
    #[cold]
    fn spill(&mut self, mut bytes: &[u8]) {
        loop {
            let room = EXPORT_CHUNK - self.buf.len();
            if bytes.len() < room {
                self.buf.extend_from_slice(bytes);
                return;
            }
            let (head, rest) = bytes.split_at(room);
            self.buf.extend_from_slice(head);
            self.write_chunk();
            bytes = rest;
        }
    }

    fn write_chunk(&mut self) {
        if self.error.is_none() {
            if let Err(e) = self.out.write_all(&self.buf) {
                self.error = Some(e);
            }
        }
        self.buf.clear();
    }

    /// Writes what the chunk still holds; the first error any write met.
    pub fn finish(mut self) -> io::Result<()> {
        if !self.buf.is_empty() {
            self.write_chunk();
        }
        self.error.map_or(Ok(()), Err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records the length of every `write_all` call.
    #[derive(Default)]
    struct Calls {
        bytes: Vec<u8>,
        writes: Vec<usize>,
    }

    impl io::Write for Calls {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.bytes.extend_from_slice(buf);
            self.writes.push(buf.len());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn writes_one_full_chunk_at_a_time() {
        let mut calls = Calls::default();
        let long = "x".repeat(EXPORT_CHUNK * 2 + 10);
        let mut w = ChunkWriter::new(&mut calls);
        w.str("ab");
        w.str(&long);
        w.int(-42);
        w.json_str("q\"\n\u{1}");
        w.finish().unwrap();
        let want = format!("ab{long}-42\"q\\\"\\n\\u0001\"");
        assert_eq!(calls.bytes, want.as_bytes());
        assert_eq!(
            calls.writes,
            [EXPORT_CHUNK, EXPORT_CHUNK, want.len() - 2 * EXPORT_CHUNK]
        );
    }

    #[test]
    fn the_first_write_error_is_reported() {
        struct Full;
        impl io::Write for Full {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut full = Full;
        let mut w = ChunkWriter::new(&mut full);
        w.str(&"y".repeat(EXPORT_CHUNK + 1));
        w.str("more");
        assert_eq!(w.finish().unwrap_err().to_string(), "disk full");
        // An empty export never writes, so it cannot fail.
        assert!(ChunkWriter::new(&mut Full).finish().is_ok());
    }
}
