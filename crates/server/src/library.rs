//! Where a daemon's testcase library comes from: `--library FILE` or
//! `--generate-library SEED` — the one reading of those two flags that
//! `uucs-server` and `uucs-clusterd` share.

use std::fmt;
use std::io;
use std::path::PathBuf;
use uucs_testcase::{format as tcformat, Testcase};

/// The source of the library a fresh data directory is seeded with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LibrarySource {
    /// A testcase text file.
    File(PathBuf),
    /// The Internet-sweep library generated from a seed.
    Generated(u64),
}

impl LibrarySource {
    /// The source the flags name: the file if `--library` gave one,
    /// otherwise the generator at `--generate-library`'s seed, 42 when
    /// none is given. A seed that is not an unsigned integer is refused:
    /// a mistyped seed must not quietly become the default.
    pub fn from_flags(file: Option<PathBuf>, seed: Option<&str>) -> Result<Self, String> {
        let seed = seed.map_or(Ok(42), |text| {
            text.parse()
                .map_err(|_| format!("bad --generate-library seed {text:?} (want an unsigned integer)"))
        })?;
        Ok(file.map_or(LibrarySource::Generated(seed), LibrarySource::File))
    }

    /// Reads or generates the testcases; a file that does not parse is
    /// an `InvalidData` error naming it.
    pub fn testcases(&self) -> io::Result<Vec<Testcase>> {
        match self {
            LibrarySource::File(path) => tcformat::parse_many(&std::fs::read_to_string(path)?)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{}: {e}", path.display()))),
            LibrarySource::Generated(seed) => {
                Ok(uucs_testcase::generate::Library::internet_sweep(*seed).into_testcases())
            }
        }
    }
}

impl fmt::Display for LibrarySource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LibrarySource::File(path) => write!(f, "library {}", path.display()),
            LibrarySource::Generated(seed) => write!(f, "internet-sweep library (seed {seed})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_flags_name_a_file_a_seed_or_the_default_and_refuse_a_bad_seed() {
        let file = || Some(PathBuf::from("lib.txt"));
        let from = LibrarySource::from_flags;
        assert_eq!(from(file(), None), Ok(LibrarySource::File(PathBuf::from("lib.txt"))));
        assert_eq!(from(None, Some("7")), Ok(LibrarySource::Generated(7)));
        assert_eq!(from(None, None), Ok(LibrarySource::Generated(42)));
        for bad in ["3-7", "abc", "", "-1"] {
            let want = format!("bad --generate-library seed {bad:?} (want an unsigned integer)");
            assert_eq!(from(None, Some(bad)), Err(want.clone()));
            assert_eq!(from(file(), Some(bad)), Err(want), "refused beside a file too");
        }
    }

    #[test]
    fn a_library_file_that_is_missing_or_does_not_parse_is_refused() {
        let dir = uucs_harness::TempDir::new("uucs-library");
        std::fs::write(dir.join("bad.txt"), "TESTCASE x\nBOGUS\n").unwrap();
        let err = LibrarySource::File(dir.join("bad.txt")).testcases().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("bad.txt"), "{err}");
        assert!(LibrarySource::File(dir.join("missing.txt")).testcases().is_err());
    }
}
