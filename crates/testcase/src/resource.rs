//! The resources a testcase can borrow.

use std::fmt;
use std::str::FromStr;

/// A borrowable host resource (paper §2.2).
///
/// `Network` is reserved: the paper built network exercisers but declined
/// to study them because their impact extends beyond the client machine
/// (§2.2). We keep the variant so testcase files mentioning it parse, but
/// the study drivers never schedule it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Resource {
    /// CPU time (contention = number of competing busy-thread equivalents).
    Cpu,
    /// Physical memory (contention = fraction of physical memory, ≤ 1.0).
    Memory,
    /// Disk bandwidth (contention = competing disk-busy thread equivalents).
    Disk,
    /// Network bandwidth (reserved, unstudied — see §2.2).
    Network,
}

impl Resource {
    /// The three resources the paper studies, in its presentation order.
    pub const STUDIED: [Resource; 3] = [Resource::Cpu, Resource::Memory, Resource::Disk];

    /// Canonical lower-case name used in the text file format.
    pub fn name(self) -> &'static str {
        match self {
            Resource::Cpu => "cpu",
            Resource::Memory => "memory",
            Resource::Disk => "disk",
            Resource::Network => "network",
        }
    }

    /// Maximum meaningful contention for this resource. CPU is verified to
    /// level 10 and disk to level 7 in the paper; memory is capped at 1.0
    /// (fraction of physical memory) to avoid uncontrollable thrashing.
    pub fn max_contention(self) -> f64 {
        match self {
            Resource::Cpu => 10.0,
            Resource::Memory => 1.0,
            Resource::Disk => 7.0,
            Resource::Network => 10.0,
        }
    }

    /// Clamps a contention level into this resource's valid range.
    pub fn clamp(self, level: f64) -> f64 {
        level.clamp(0.0, self.max_contention())
    }
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an unknown resource name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseResourceError(pub String);

impl fmt::Display for ParseResourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown resource name: {:?}", self.0)
    }
}

impl std::error::Error for ParseResourceError {}

impl FromStr for Resource {
    type Err = ParseResourceError;

    /// Case-insensitive, and allocation-free for every name it knows:
    /// this runs once per `LEVELS` line and `OBS` line of a journal
    /// replay.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        const NAMES: [(&str, Resource); 6] = [
            ("cpu", Resource::Cpu),
            ("memory", Resource::Memory),
            ("mem", Resource::Memory),
            ("disk", Resource::Disk),
            ("network", Resource::Network),
            ("net", Resource::Network),
        ];
        NAMES
            .iter()
            .find(|(name, _)| s.eq_ignore_ascii_case(name))
            .map(|&(_, resource)| resource)
            .ok_or_else(|| ParseResourceError(s.to_ascii_lowercase()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_names() {
        for r in [Resource::Cpu, Resource::Memory, Resource::Disk, Resource::Network] {
            assert_eq!(r.name().parse::<Resource>().unwrap(), r);
        }
    }

    #[test]
    fn aliases_parse() {
        assert_eq!("mem".parse::<Resource>().unwrap(), Resource::Memory);
        assert_eq!("CPU".parse::<Resource>().unwrap(), Resource::Cpu);
    }

    #[test]
    fn unknown_name_errors() {
        let e = "gpu".parse::<Resource>().unwrap_err();
        assert!(e.to_string().contains("gpu"));
    }

    /// The allocating parser this one replaced, kept as the reference:
    /// same names, same aliases, same case folding, same error text.
    fn reference_from_str(s: &str) -> Result<Resource, ParseResourceError> {
        match s.to_ascii_lowercase().as_str() {
            "cpu" => Ok(Resource::Cpu),
            "memory" | "mem" => Ok(Resource::Memory),
            "disk" => Ok(Resource::Disk),
            "network" | "net" => Ok(Resource::Network),
            other => Err(ParseResourceError(other.to_string())),
        }
    }

    #[test]
    fn parsing_matches_the_lowercasing_reference() {
        let words = [
            "cpu", "memory", "mem", "disk", "network", "net", "gpu", "", " cpu", "cpu ", "cp",
            "cpus", "memo", "d\u{131}sk", "\u{212a}", "DISK\n", "ne\u{74}", "NETWORK",
        ];
        for word in words {
            // Every casing of every word: the fold is ASCII-only, so
            // `\u{131}` (dotless i) and `\u{212a}` (Kelvin) stay foreign.
            for mask in 0u32..(1 << word.chars().count().min(7)) {
                let cased: String = word
                    .chars()
                    .enumerate()
                    .map(|(i, c)| if mask >> i & 1 == 1 { c.to_ascii_uppercase() } else { c })
                    .collect();
                assert_eq!(cased.parse::<Resource>(), reference_from_str(&cased), "{cased:?}");
            }
        }
    }

    #[test]
    fn clamp_respects_limits() {
        assert_eq!(Resource::Memory.clamp(1.7), 1.0);
        assert_eq!(Resource::Cpu.clamp(-3.0), 0.0);
        assert_eq!(Resource::Cpu.clamp(25.0), 10.0);
        assert_eq!(Resource::Disk.clamp(6.5), 6.5);
    }

    #[test]
    fn studied_excludes_network() {
        assert!(!Resource::STUDIED.contains(&Resource::Network));
        assert_eq!(Resource::STUDIED.len(), 3);
    }
}
