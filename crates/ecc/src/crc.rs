//! CRC-32 line checksum: the cheapest possible "is anything wrong here?"
//! probe.
//!
//! A scrub probe that only needs *detection* can check a 32-bit CRC
//! instead of running the full BCH syndrome/locator pipeline; the full
//! decoder is invoked only when the CRC trips. This is the "lightweight
//! error detection operation" lever of the paper's abstract, taken to its
//! cheapest point.
//!
//! The same CRC also seals everything the repository writes down: the
//! checkpoint envelope around every simulator snapshot (`scrub-checkpoint`)
//! and each record of scrubd's round journal. A fleet shard seals and
//! re-verifies a 50,655-byte snapshot every round, so the kernel consumes
//! sixteen bytes per step ("slicing-by-16"): sixteen 256-entry tables,
//! built at compile time, turn one 16-byte block into sixteen independent
//! lookups. A tail shorter than a block takes the classic byte loop.

use crate::bits::BitBuf;

/// The reflected IEEE 802.3 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Bytes consumed per slicing step.
const SLICE: usize = 16;

/// `TABLES[0]` is the classic byte-wise table; `TABLES[k][b]` is the CRC
/// register after byte `b` is followed by `k` zero bytes, i.e. the
/// contribution of a byte sitting `k` places before the end of a block.
static TABLES: [[u32; 256]; SLICE] = build_tables();

const fn build_tables() -> [[u32; 256]; SLICE] {
    let mut tables = [[0u32; 256]; SLICE];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < SLICE {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Reflected CRC-32 (IEEE 802.3, polynomial `0xEDB88320`). A zero-sized
/// handle: the tables are one `static` built at compile time.
///
/// # Examples
///
/// ```
/// use pcm_ecc::Crc32;
/// let crc = Crc32::new();
/// // The classical check value for "123456789".
/// assert_eq!(crc.checksum_bytes(b"123456789"), 0xCBF4_3926);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Crc32;

impl Crc32 {
    /// The checksum handle.
    pub const fn new() -> Self {
        Crc32
    }

    /// CRC-32 of a byte slice.
    pub fn checksum_bytes(&self, bytes: &[u8]) -> u32 {
        let t = &TABLES;
        let mut c = 0xFFFF_FFFFu32;
        let mut blocks = bytes.chunks_exact(SLICE);
        for b in &mut blocks {
            let x = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            c = t[15][(x & 0xFF) as usize]
                ^ t[14][((x >> 8) & 0xFF) as usize]
                ^ t[13][((x >> 16) & 0xFF) as usize]
                ^ t[12][(x >> 24) as usize]
                ^ t[11][b[4] as usize]
                ^ t[10][b[5] as usize]
                ^ t[9][b[6] as usize]
                ^ t[8][b[7] as usize]
                ^ t[7][b[8] as usize]
                ^ t[6][b[9] as usize]
                ^ t[5][b[10] as usize]
                ^ t[4][b[11] as usize]
                ^ t[3][b[12] as usize]
                ^ t[2][b[13] as usize]
                ^ t[1][b[14] as usize]
                ^ t[0][b[15] as usize];
        }
        for &b in blocks.remainder() {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    /// CRC-32 of a bit buffer (bits packed little-endian into bytes; a
    /// trailing partial byte is zero-padded).
    pub fn checksum(&self, bits: &BitBuf) -> u32 {
        let mut bytes = vec![0u8; bits.len().div_ceil(8)];
        for i in 0..bits.len() {
            if bits.get(i) {
                bytes[i / 8] |= 1 << (i % 8);
            }
        }
        self.checksum_bytes(&bytes)
    }

    /// Whether `received` still matches a stored checksum.
    pub fn verify(&self, received: &BitBuf, stored: u32) -> bool {
        self.checksum(received) == stored
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// One byte per step, one bit at a time, with no table: the
    /// definition the sliced kernel must reproduce.
    fn reference(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
        }
        !c
    }

    #[test]
    fn reference_vectors() {
        let crc = Crc32::new();
        assert_eq!(crc.checksum_bytes(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc.checksum_bytes(b""), 0x0000_0000);
        assert_eq!(crc.checksum_bytes(b"a"), 0xE8B7_BE43);
        assert_eq!(reference(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn sliced_matches_the_bytewise_reference_at_every_length_and_offset() {
        let mut rng = StdRng::seed_from_u64(3);
        let buf: Vec<u8> = (0..1 << 20).map(|_| rng.gen()).collect();
        let crc = Crc32::new();
        for start in 0..=15 {
            for len in 0..=64 {
                let s = &buf[start..start + len];
                assert_eq!(
                    crc.checksum_bytes(s),
                    reference(s),
                    "start {start}, len {len}"
                );
            }
        }
        assert_eq!(crc.checksum_bytes(&buf), reference(&buf), "1 MiB");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn sliced_matches_the_bytewise_reference(
            bytes in proptest::collection::vec(0u8..=255, 0..600),
        ) {
            prop_assert_eq!(Crc32::new().checksum_bytes(&bytes), reference(&bytes));
        }
    }

    #[test]
    fn detects_every_single_bit_flip() {
        let crc = Crc32::new();
        let mut rng = StdRng::seed_from_u64(1);
        let mut data = BitBuf::zeros(512);
        for i in 0..512 {
            if rng.gen::<bool>() {
                data.set(i, true);
            }
        }
        let stored = crc.checksum(&data);
        assert!(crc.verify(&data, stored));
        for pos in (0..512).step_by(17) {
            let mut dirty = data.clone();
            dirty.flip(pos);
            assert!(!crc.verify(&dirty, stored), "missed flip at {pos}");
        }
    }

    #[test]
    fn detects_random_multibit_patterns() {
        let crc = Crc32::new();
        let mut rng = StdRng::seed_from_u64(2);
        let data = BitBuf::zeros(576);
        let stored = crc.checksum(&data);
        for _ in 0..500 {
            let mut dirty = data.clone();
            let e = rng.gen_range(1..10);
            let mut seen = std::collections::HashSet::new();
            while seen.len() < e {
                let pos = rng.gen_range(0..576);
                if seen.insert(pos) {
                    dirty.flip(pos);
                }
            }
            assert!(!crc.verify(&dirty, stored));
        }
    }

    #[test]
    fn bitbuf_and_byte_paths_agree() {
        let crc = Crc32::new();
        let bytes = [0xDE, 0xAD, 0xBE, 0xEF];
        let bits = BitBuf::from_bytes(&bytes, 32);
        assert_eq!(crc.checksum(&bits), crc.checksum_bytes(&bytes));
    }
}
