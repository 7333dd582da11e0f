//! MSB-first bit stream writer over a 64-bit accumulator.

/// Accumulates bits most-significant-bit first into a byte vector.
///
/// The MSB-first convention matches the embedded bit-plane coder in the
/// ZFP-like codec, where truncating a stream at any bit position must keep
/// the highest-value information. `write_bits` accepts up to 64 bits at a
/// time; values are masked to the requested width.
///
/// Internally the writer stages bits left-aligned in a 64-bit accumulator
/// (first-written bit at bit 63) and stores them a whole word at a time:
/// the write that completes 64 staged bits stores them with one 8-byte
/// big-endian store and keeps its leftover bits staged. Partial bytes
/// reach the vector only when the stream is aligned ([`align_byte`],
/// [`into_bytes`]). The invariants the hot paths rely on:
///
/// * outside a call, `nbits < 64`: fewer than 64 bits are staged, and
///   every full word has left with one 8-byte store,
/// * bits of `acc` below the top `nbits` are always zero, so a store or
///   the final alignment can write the top bytes directly.
///
/// Each write left-aligns its bits, ORs them in below the staged ones and
/// compares the new count with 64, plus the store once per 64 bits, so
/// [`write_bits`], [`write_bit`] and [`write_bits_lsb`] inline into the
/// encoders that call them per element.
///
/// [`align_byte`]: BitWriter::align_byte
/// [`into_bytes`]: BitWriter::into_bytes
/// [`write_bits`]: BitWriter::write_bits
/// [`write_bit`]: BitWriter::write_bit
/// [`write_bits_lsb`]: BitWriter::write_bits_lsb
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bit accumulator; staged bits are left-aligned (oldest at bit 63).
    acc: u64,
    /// Number of valid bits currently staged in `acc` (< 64 between calls).
    nbits: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer with a byte-capacity hint.
    pub fn with_capacity(bytes: usize) -> Self {
        Self {
            bytes: Vec::with_capacity(bytes),
            acc: 0,
            nbits: 0,
        }
    }

    /// Total number of bits written so far.
    pub fn bit_len(&self) -> u64 {
        self.bytes.len() as u64 * 8 + self.nbits as u64
    }

    /// Appends a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(u64::from(bit), 1);
    }

    /// Appends the low `n` bits of `value`, most significant first.
    ///
    /// `n` must be ≤ 64. Writing zero bits is a no-op.
    #[inline]
    pub fn write_bits(&mut self, value: u64, n: u32) {
        debug_assert!(n <= 64);
        // Left-aligning drops the bits above `n`; n == 0 is its own case
        // because a shift by 64 overflows.
        let top = if n == 0 { 0 } else { value << (64 - n) };
        self.stage(top, n);
    }

    /// Appends `n` bits taken LSB-first from `value` (bit 0 first).
    ///
    /// This matches ZFP's stream convention for bit-plane payloads where the
    /// coefficient-index order maps to ascending bit positions. A single
    /// bit-reversal turns this into one MSB-first bulk write — the seed
    /// engine's per-bit loop is gone.
    #[inline]
    pub fn write_bits_lsb(&mut self, value: u64, n: u32) {
        debug_assert!(n <= 64);
        // The reversal puts bit 0 at bit 63; the mask keeps the top `n`.
        let top = if n == 0 {
            0
        } else {
            value.reverse_bits() & (u64::MAX << (64 - n))
        };
        self.stage(top, n);
    }

    /// Appends the top `n` bits of `top`, whose other bits are zero. The
    /// write that completes 64 staged bits stores them as one word and
    /// keeps the bits that did not fit.
    #[inline]
    fn stage(&mut self, top: u64, n: u32) {
        let staged = self.nbits;
        self.acc |= top >> staged;
        let total = staged + n;
        if total < 64 {
            self.nbits = total;
        } else {
            self.bytes.extend_from_slice(&self.acc.to_be_bytes());
            // From an empty accumulator only n == 64 fills the word, and
            // then nothing is left over (a shift by 64 overflows).
            self.acc = if staged == 0 { 0 } else { top << (64 - staged) };
            self.nbits = total - 64;
        }
    }

    /// Pads with zero bits to the next byte boundary.
    pub fn align_byte(&mut self) {
        // The low accumulator bits are already zero, so the staged bytes,
        // the last one partial, are the top `ceil(nbits / 8)` bytes.
        let staged = self.nbits.div_ceil(8) as usize;
        self.bytes
            .extend(self.acc.to_be_bytes().into_iter().take(staged));
        self.acc = 0;
        self.nbits = 0;
    }

    /// Finishes the stream (zero-padding the final byte) and returns it.
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.align_byte();
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bits_pack_msb_first() {
        let mut w = BitWriter::new();
        for bit in [true, false, true, true, false, false, true, false] {
            w.write_bit(bit);
        }
        assert_eq!(w.into_bytes(), vec![0b1011_0010]);
    }

    #[test]
    fn bulk_bits_match_single_bits() {
        let mut a = BitWriter::new();
        let mut b = BitWriter::new();
        let v = 0b1_1010_1101u64; // 9 bits
        a.write_bits(v, 9);
        for i in (0..9).rev() {
            b.write_bit((v >> i) & 1 == 1);
        }
        assert_eq!(a.into_bytes(), b.into_bytes());
    }

    #[test]
    fn write_64_bits() {
        let mut w = BitWriter::new();
        w.write_bits(u64::MAX, 64);
        assert_eq!(w.into_bytes(), vec![0xFF; 8]);
    }

    #[test]
    fn split_write_across_accumulator_boundary() {
        // 7 staged bits + 64 more forces the split path.
        let mut w = BitWriter::new();
        w.write_bits(0b1010101, 7);
        w.write_bits(0xDEAD_BEEF_CAFE_F00D, 64);
        let mut v = BitWriter::new();
        for i in (0..7).rev() {
            v.write_bit((0b1010101 >> i) & 1 == 1);
        }
        for i in (0..64).rev() {
            v.write_bit((0xDEAD_BEEF_CAFE_F00Du64 >> i) & 1 == 1);
        }
        assert_eq!(w.into_bytes(), v.into_bytes());
    }

    #[test]
    fn exact_word_fill_leaves_nothing_staged() {
        // 40 + 24 bits complete the word with no remainder; the next write
        // must start a clean accumulator.
        let mut w = BitWriter::new();
        w.write_bits(0xAB_CDEF_0123, 40);
        w.write_bits(0x45_6789, 24);
        assert_eq!(w.bit_len(), 64);
        w.write_bits(0b1, 1);
        assert_eq!(
            w.into_bytes(),
            vec![0xAB, 0xCD, 0xEF, 0x01, 0x23, 0x45, 0x67, 0x89, 0x80]
        );
    }

    #[test]
    fn align_pads_with_zeros() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.align_byte();
        assert_eq!(w.into_bytes(), vec![0b1010_0000]);
    }

    #[test]
    fn bit_len_tracks_partial_bytes() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write_bits(0, 13);
        assert_eq!(w.bit_len(), 13);
    }

    #[test]
    fn lsb_order_reverses() {
        let mut w = BitWriter::new();
        w.write_bits_lsb(0b0000_0001, 8); // bit 0 first -> MSB of output byte
        assert_eq!(w.into_bytes(), vec![0b1000_0000]);
    }

    #[test]
    fn lsb_bulk_matches_per_bit() {
        for n in 0..=64u32 {
            let v = 0x9E37_79B9_7F4A_7C15u64.rotate_left(n);
            let mut a = BitWriter::new();
            a.write_bits_lsb(v, n);
            let mut b = BitWriter::new();
            for i in 0..n {
                b.write_bit((v >> i) & 1 == 1);
            }
            assert_eq!(a.into_bytes(), b.into_bytes(), "n={n}");
        }
    }
}
