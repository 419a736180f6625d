//! Input loading for DAGMan files.
//!
//! At 10⁷–10⁸ jobs the input text itself is gigabytes; letting
//! `read_to_string` grow its buffer by doubling both copies the text
//! O(log n) times and transiently holds ~2× the file size. [`read_input`]
//! pre-sizes the buffer from file metadata so the text is read exactly
//! once into exactly one allocation.

use std::fs::File;
use std::io::{self, Read};
use std::path::Path;

/// Reads a DAGMan input file into a single pre-sized allocation.
pub fn read_input(path: &Path) -> io::Result<String> {
    let mut file = File::open(path)?;
    let size = file.metadata().map(|m| m.len() as usize).unwrap_or(0);
    prio_obs::counter("dagman.parse.bytes_read").add(size as u64);
    let mut text = String::with_capacity(size.saturating_add(1));
    file.read_to_string(&mut text)?;
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_whole_file() {
        let dir = std::env::temp_dir().join("prio_dagman_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("t.dag");
        std::fs::write(&p, "JOB a a.sub\n").unwrap();
        assert_eq!(read_input(&p).unwrap(), "JOB a a.sub\n");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn missing_file_errors() {
        assert!(read_input(Path::new("/nonexistent/x.dag")).is_err());
    }
}
