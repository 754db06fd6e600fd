//! Where a daemon's testcase library comes from: `--library FILE` or
//! `--generate-library SEED` — the one reading of those two flags, and
//! the one seeding of a fresh data directory, that `uucs-server` and
//! `uucs-clusterd` share.
//!
//! Seeding streams: the generator yields, or the file's next block
//! parses into, one testcase at a time, which is journaled and dropped,
//! so a server never holds the library twice — once as testcases and
//! once in its store.

use crate::UucsServer;
use std::collections::HashSet;
use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use uucs_testcase::{format as tcformat, generate};

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

    /// Journals the library into `server`, one testcase at a time,
    /// waiting once per shard at the end (see
    /// [`UucsServer::add_testcases`]). A file is checked whole before
    /// its first testcase is journaled — every block parses and no id
    /// repeats — so a bad file leaves the library empty, and the next
    /// start refuses it again rather than serving what came before the
    /// fault. A bad file is an `InvalidData` error naming it. The
    /// generator's ids are unique by construction.
    pub fn seed(&self, server: &UucsServer) -> io::Result<()> {
        let path = match self {
            LibrarySource::Generated(seed) => {
                return server.add_testcases(generate::sweep(*seed)).map_err(io::Error::other);
            }
            LibrarySource::File(path) => path,
        };
        let bad = |line: usize, why: &dyn fmt::Display| {
            let at = path.display();
            io::Error::new(io::ErrorKind::InvalidData, format!("{at}: testcase at line {line}: {why}"))
        };
        let mut ids = HashSet::new();
        for block in Blocks::open(path)? {
            let (line, text) = block?;
            let id = tcformat::check(&text).map_err(|e| bad(line, &e))?;
            if !ids.insert(id.to_string()) {
                return Err(bad(line, &format_args!("duplicate testcase id {id}")));
            }
        }
        drop(ids);
        // Only a file changed since the check can fail here.
        let mut fault = None;
        let testcases = Blocks::open(path)?.map_while(|block| {
            let parsed = block.and_then(|(line, text)| tcformat::parse(&text).map_err(|e| bad(line, &e)));
            parsed.map_err(|e| fault = Some(e)).ok()
        });
        server.add_testcases(testcases).map_err(io::Error::other)?;
        fault.map_or(Ok(()), Err)
    }
}

/// A library file's testcases as text, one block at a time: each ends
/// with a line that reads `END` (a comment after it aside), and comments
/// and blank lines between blocks are dropped. Each block comes with
/// the number of its first line.
struct Blocks {
    lines: std::iter::Enumerate<io::Lines<BufReader<File>>>,
}

impl Blocks {
    fn open(path: &Path) -> io::Result<Blocks> {
        Ok(Blocks {
            lines: BufReader::new(File::open(path)?).lines().enumerate(),
        })
    }
}

impl Iterator for Blocks {
    type Item = io::Result<(usize, String)>;

    fn next(&mut self) -> Option<Self::Item> {
        let (mut first, mut text) = (None, String::new());
        for (n, line) in self.lines.by_ref() {
            let line = match line {
                Ok(line) => line,
                Err(e) => return Some(Err(e)),
            };
            let content = line.split('#').next().unwrap_or("").trim();
            if first.is_none() && content.is_empty() {
                continue;
            }
            first.get_or_insert(n + 1);
            text.push_str(&line);
            text.push('\n');
            if content == "END" {
                break;
            }
        }
        first.map(|line| Ok((line, text)))
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

    /// A fresh in-memory server with an empty library.
    fn empty_server() -> UucsServer {
        UucsServer::with_store_set(crate::StoreSet::in_memory(2), 1)
    }

    #[test]
    fn a_library_file_that_is_missing_or_does_not_parse_is_refused() {
        let dir = uucs_harness::TempDir::new("uucs-library");
        std::fs::write(dir.join("bad.txt"), "TESTCASE x\nBOGUS\n").unwrap();
        let server = empty_server();
        let err = LibrarySource::File(dir.join("bad.txt")).seed(&server).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("bad.txt"), "{err}");
        assert!(LibrarySource::File(dir.join("missing.txt")).seed(&server).is_err());
        assert_eq!(server.testcase_count(), 0);
    }

    /// A file is checked whole before anything is journaled: a repeated
    /// id or a bad last block leaves the library empty, not holding the
    /// testcases before the fault.
    #[test]
    fn a_bad_file_seeds_nothing() {
        let dir = uucs_harness::TempDir::new("uucs-library-partial");
        let tc = |id: &str| {
            let ramp = uucs_testcase::ExerciseSpec::Ramp {
                level: 1.0,
                duration: 5.0,
            };
            uucs_testcase::Testcase::single(id, 1.0, uucs_testcase::Resource::Cpu, ramp)
        };
        let good = tcformat::emit_many(&[tc("a"), tc("b")]);
        for (name, text, why) in [
            ("dup.txt", tcformat::emit_many(&[tc("a"), tc("b"), tc("a")]), "duplicate testcase id a"),
            ("torn.txt", format!("{good}TESTCASE c\nRATE 1\n"), "testcase at line 11"),
        ] {
            std::fs::write(dir.join(name), text).unwrap();
            let server = empty_server();
            let err = LibrarySource::File(dir.join(name)).seed(&server).unwrap_err();
            assert!(err.to_string().contains(why), "{name}: {err}");
            assert_eq!(server.testcase_count(), 0, "{name}");
        }
        // Comments and blank lines around blocks are not testcases.
        let commented = format!("# a library\n\n{good}\n# the end\n");
        std::fs::write(dir.join("ok.txt"), commented).unwrap();
        let server = empty_server();
        LibrarySource::File(dir.join("ok.txt")).seed(&server).unwrap();
        assert_eq!(server.testcase_count(), 2);
    }

    /// The generated stream is the sweep the parent build's `Library`
    /// held: its text for seeds 1..=5 has the CRC that build gave.
    #[test]
    fn the_generated_stream_is_pinned() {
        let pinned = [0x58f6_343b, 0x631c_9a76, 0x54ca_b837, 0xed8c_08e5, 0xb381_f715];
        for (seed, want) in (1..=5).zip(pinned) {
            let mut text = String::new();
            generate::sweep(seed).for_each(|tc| tcformat::emit_into(&tc, &mut text));
            assert_eq!(uucs_wal::crc::crc32(text.as_bytes()), want, "seed {seed}");
        }
    }

    /// A fresh eight-shard data directory seeded from the generator holds
    /// the testcase journals `uucs-server --shards 8 --generate-library 42`
    /// wrote before seeding streamed: (884 908 bytes, CRC 0x957d9a92)
    /// over each file's path under `testcases/`, a newline, and its bytes,
    /// in path order.
    #[test]
    fn a_seeded_journal_is_pinned() {
        fn files(dir: &Path, out: &mut Vec<PathBuf>) {
            for entry in std::fs::read_dir(dir).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    files(&path, out);
                } else {
                    out.push(path);
                }
            }
        }
        let dir = uucs_harness::TempDir::new("uucs-library-journal");
        let config = uucs_wal::WalConfig {
            sync: uucs_wal::SyncPolicy::Never,
            ..uucs_wal::WalConfig::default()
        };
        let (stores, _) = crate::StoreSet::open(dir.path(), config, 8).unwrap();
        let server = UucsServer::with_store_set(stores, 0x5e17);
        LibrarySource::Generated(42).seed(&server).unwrap();
        drop(server);
        let root = dir.join("testcases");
        let mut paths = Vec::new();
        files(&root, &mut paths);
        paths.sort();
        let (mut crc, mut bytes) = (uucs_wal::crc::Crc32::new(), 0);
        for path in paths {
            let name = path.strip_prefix(&root).unwrap().to_str().unwrap();
            let data = std::fs::read(&path).unwrap();
            crc.update(format!("{name}\n").as_bytes());
            crc.update(&data);
            bytes += data.len();
        }
        assert_eq!((bytes, crc.finish()), (884_908, 0x957d_9a92));
    }
}
