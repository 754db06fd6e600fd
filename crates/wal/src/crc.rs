//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`), the checksum
//! framing every WAL record and snapshot payload.
//!
//! Slicing-by-16: sixteen lookup tables built at compile time, consuming
//! the input sixteen bytes per step (with a byte-at-a-time tail), which
//! checksums several times faster than the classic one-table loop —
//! recovery replay and segment scans are CRC-bound once the page cache
//! serves the reads from memory. The workspace is std-only, so the
//! implementation lives here rather than pulling in a registry crate
//! for a page of arithmetic.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// How many input bytes one step of [`update`] folds in.
const SLICES: usize = 16;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is
/// the CRC of byte `b` followed by `k` zero bytes, which is what lets
/// sixteen adjacent input bytes fold into one state update.
static TABLES: [[u32; 256]; SLICES] = build_tables();

const fn build_tables() -> [[u32; 256]; SLICES] {
    let mut tables = [[0u32; 256]; SLICES];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut crc = tables[0][i];
        let mut t = 1;
        while t < SLICES {
            crc = (crc >> 8) ^ tables[0][(crc & 0xFF) as usize];
            tables[t][i] = crc;
            t += 1;
        }
        i += 1;
    }
    tables
}

/// Extends a running (pre-inverted) CRC state with more bytes.
///
/// Start from [`crc32`] for one-shot use; use `Crc32` for incremental
/// hashing across multiple slices.
fn update(mut state: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut chunks = data.chunks_exact(SLICES);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ state;
        state = t[15][(lo & 0xFF) as usize]
            ^ t[14][((lo >> 8) & 0xFF) as usize]
            ^ t[13][((lo >> 16) & 0xFF) as usize]
            ^ t[12][(lo >> 24) as usize]
            ^ t[11][c[4] as usize]
            ^ t[10][c[5] as usize]
            ^ t[9][c[6] as usize]
            ^ t[8][c[7] as usize]
            ^ t[7][c[8] as usize]
            ^ t[6][c[9] as usize]
            ^ t[5][c[10] as usize]
            ^ t[4][c[11] as usize]
            ^ t[3][c[12] as usize]
            ^ t[2][c[13] as usize]
            ^ t[1][c[14] as usize]
            ^ t[0][c[15] as usize];
    }
    for &b in chunks.remainder() {
        state = (state >> 8) ^ t[0][((state ^ b as u32) & 0xFF) as usize];
    }
    state
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Incremental CRC-32 over several slices.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// A fresh hasher.
    pub fn new() -> Crc32 {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds more bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.state = update(self.state, data);
    }

    /// The digest of everything fed so far.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one-table reference loop the sliced version must match.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut state = 0xFFFF_FFFFu32;
        for &b in data {
            state = (state >> 8) ^ TABLES[0][((state ^ b as u32) & 0xFF) as usize];
        }
        state ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // The classic check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn sliced_matches_bytewise_at_every_length() {
        // Cover the remainder loop at every phase (0..16 leftover
        // bytes) and multi-block inputs.
        let data: Vec<u8> = (0..257u32).map(|i| (i.wrapping_mul(31) >> 3) as u8).collect();
        for len in 0..data.len() {
            assert_eq!(
                crc32(&data[..len]),
                crc32_bytewise(&data[..len]),
                "mismatch at length {len}"
            );
        }
    }

    /// Every length 0..=64 at every alignment, and random slices of
    /// random bytes, incremental and one-shot alike.
    #[test]
    fn sliced_matches_bytewise_on_random_slices() {
        let mut rng = uucs_harness::prop::TestRng::new(16);
        let data: Vec<u8> = (0..4096).map(|_| rng.below(256) as u8).collect();
        for start in 0..SLICES {
            for len in 0..=64 {
                let slice = &data[start..start + len];
                assert_eq!(crc32(slice), crc32_bytewise(slice), "{start}+{len}");
            }
        }
        for _ in 0..2000 {
            let start = rng.below(data.len() as u64) as usize;
            let end = start + rng.below((data.len() - start) as u64 + 1) as usize;
            let split = start + rng.below((end - start) as u64 + 1) as usize;
            let slice = &data[start..end];
            assert_eq!(crc32(slice), crc32_bytewise(slice), "{start}..{end}");
            let mut h = Crc32::new();
            h.update(&data[start..split]);
            h.update(&data[split..end]);
            assert_eq!(h.finish(), crc32(slice), "{start}..{split}..{end}");
        }
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        for split in [0, 1, 7, 8, 9, 16, data.len()] {
            let mut h = Crc32::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), crc32(data));
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = b"hello wal, nine bytes and then some".to_vec();
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32(&data), clean, "flip at {byte}.{bit} undetected");
                data[byte] ^= 1 << bit;
            }
        }
    }
}
