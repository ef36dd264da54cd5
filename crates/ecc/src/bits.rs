//! Compact bit buffer used for codewords and error patterns.

/// A fixed-length bit vector backed by `u64` words.
///
/// # Examples
///
/// ```
/// use pcm_ecc::BitBuf;
/// let mut b = BitBuf::zeros(130);
/// b.set(129, true);
/// assert!(b.get(129));
/// assert_eq!(b.count_ones(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BitBuf {
    words: Vec<u64>,
    len: usize,
}

impl BitBuf {
    /// An all-zero buffer of `len` bits.
    pub fn zeros(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Builds a buffer from a boolean slice.
    pub fn from_bits(bits: &[bool]) -> Self {
        let mut b = Self::zeros(bits.len());
        for (i, &v) in bits.iter().enumerate() {
            if v {
                b.set(i, true);
            }
        }
        b
    }

    /// Builds a buffer of `len` bits from little-endian bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` holds fewer than `len` bits.
    pub fn from_bytes(bytes: &[u8], len: usize) -> Self {
        assert!(bytes.len() * 8 >= len, "byte slice shorter than len");
        let mut b = Self::zeros(len);
        for i in 0..len {
            if (bytes[i / 8] >> (i % 8)) & 1 == 1 {
                b.set(i, true);
            }
        }
        b
    }

    /// Length in bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer has zero length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize, v: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let mask = 1u64 << (i % 64);
        if v {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Flips bit `i`.
    pub fn flip(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i / 64] ^= 1u64 << (i % 64);
    }

    /// Population count.
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Indices of set bits, ascending.
    pub fn ones(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for (wi, &w) in self.words.iter().enumerate() {
            let mut bits = w;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                out.push(wi * 64 + b);
                bits &= bits - 1;
            }
        }
        out
    }

    /// Copies bits `[start, start+len)` into a new buffer.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the buffer.
    pub fn slice(&self, start: usize, len: usize) -> BitBuf {
        assert!(start + len <= self.len, "slice out of range");
        let mut out = BitBuf::zeros(len);
        for i in 0..len {
            if self.get(start + i) {
                out.set(i, true);
            }
        }
        out
    }

    /// Fills a boolean vector with the bit values.
    pub fn to_bools(&self) -> Vec<bool> {
        (0..self.len).map(|i| self.get(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut b = BitBuf::zeros(200);
        for i in (0..200).step_by(7) {
            b.set(i, true);
        }
        for i in 0..200 {
            assert_eq!(b.get(i), i % 7 == 0);
        }
    }

    #[test]
    fn ones_enumeration() {
        let mut b = BitBuf::zeros(129);
        b.set(0, true);
        b.set(63, true);
        b.set(64, true);
        b.set(128, true);
        assert_eq!(b.ones(), vec![0, 63, 64, 128]);
        assert_eq!(b.count_ones(), 4);
    }

    #[test]
    fn xor_and_flip() {
        let mut a = BitBuf::zeros(70);
        let mut b = BitBuf::zeros(70);
        a.set(5, true);
        b.set(5, true);
        b.set(69, true);
        for i in b.ones() {
            a.flip(i);
        }
        assert_eq!(a.ones(), vec![69]);
        a.flip(69);
        assert_eq!(a.count_ones(), 0);
    }

    #[test]
    fn slice_copies_range() {
        let mut b = BitBuf::zeros(100);
        b.set(10, true);
        b.set(20, true);
        let s = b.slice(10, 11);
        assert_eq!(s.ones(), vec![0, 10]);
    }

    #[test]
    fn bytes_roundtrip() {
        let bytes = [0b1010_0001u8, 0xFF];
        let b = BitBuf::from_bytes(&bytes, 12);
        assert!(b.get(0));
        assert!(!b.get(1));
        assert!(b.get(5));
        assert!(b.get(8) && b.get(11));
        assert_eq!(b.count_ones(), 3 + 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitBuf::zeros(10).get(10);
    }
}
