//! MSB-first bit stream reader over a 64-bit accumulator.

use crate::{Error, Result};

/// Reads bits most-significant-bit first from a byte slice.
///
/// The reader is the exact inverse of [`crate::BitWriter`]: a stream produced
/// by the writer decodes to the same bit sequence. Reads past the end return
/// [`Error::UnexpectedEof`].
///
/// Internally the reader buffers unread bits left-aligned in a 64-bit
/// accumulator (next bit at bit 63) and refills it with a single unaligned
/// 8-byte load while at least eight input bytes remain, falling back to a
/// scalar per-byte tail only for the final seven-or-fewer bytes. The
/// invariants every path maintains:
///
/// * `bits_read() == pos * 8 - navail` — `pos` counts bytes *loaded*, some
///   of which are still buffered (the accumulator may read ahead of the
///   logical position, but never past the slice, and buffered bits are
///   never consumed twice),
/// * bits of `acc` below the top `navail` are zero, so consuming is a left
///   shift and peeking is a right shift,
/// * after [`BitReader::refill`], `navail ≥ 57` unless the slice is
///   exhausted — enough for any ≤ 57-bit read, one Huffman code
///   (`MAX_CODE_LEN = 48`), or a 32-bit peek without further checks.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Index of the next byte to load into the accumulator.
    pos: usize,
    /// Unread bits, left-aligned (next stream bit at bit 63).
    acc: u64,
    /// Number of valid bits in `acc` (0..=64).
    navail: u32,
}

impl<'a> BitReader<'a> {
    /// Wraps a byte slice for bit-level reading.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self {
            bytes,
            pos: 0,
            acc: 0,
            navail: 0,
        }
    }

    /// Number of bits consumed so far.
    pub fn bits_read(&self) -> u64 {
        self.pos as u64 * 8 - self.navail as u64
    }

    /// Number of bits still available.
    pub fn bits_remaining(&self) -> u64 {
        self.bytes.len() as u64 * 8 - self.bits_read()
    }

    /// Tops the accumulator up from the input. While ≥ 8 bytes remain this
    /// is one unaligned big-endian word load plus shifts (no per-byte
    /// loop); near the end it degrades to a scalar tail. Afterwards
    /// `buffered_bits() ≥ 57` unless the input is exhausted.
    ///
    /// Refilling never consumes bits — it only loads them — so callers may
    /// invoke it freely (the bulk entropy decoders call it once per batch
    /// and then run check-free on the buffered word).
    #[inline]
    pub fn refill(&mut self) {
        // `first_chunk` compiles to the same unaligned word load as the
        // slice-index form but is structurally panic-free (audit lint L1).
        if let Some(chunk) = self
            .bytes
            .get(self.pos..)
            .and_then(|tail| tail.first_chunk::<8>())
        {
            let w = u64::from_be_bytes(*chunk);
            let k = ((64 - self.navail) / 8) as usize;
            if k > 0 {
                // Insert the top 8k bits of `w` directly below the
                // buffered ones.
                self.acc |= (w >> (64 - 8 * k as u32)) << (64 - self.navail - 8 * k as u32);
                self.pos += k;
                self.navail += 8 * k as u32;
            }
        } else {
            while self.navail <= 56 {
                let Some(&b) = self.bytes.get(self.pos) else {
                    break;
                };
                self.acc |= (b as u64) << (56 - self.navail);
                self.pos += 1;
                self.navail += 8;
            }
        }
    }

    /// Number of bits currently buffered in the accumulator.
    #[inline]
    pub fn buffered_bits(&self) -> u32 {
        self.navail
    }

    /// The buffered bits, left-aligned: the next unread stream bit is at
    /// bit 63. Bits beyond [`BitReader::buffered_bits`] read as zero.
    /// Combined with [`BitReader::refill`] and [`BitReader::consume`] this
    /// is the check-free window bulk decoders run on.
    #[inline]
    pub fn peek_word(&self) -> u64 {
        self.acc
    }

    /// Drops `n` buffered bits. The caller must ensure
    /// `n <= buffered_bits()`; this is the consuming half of the
    /// [`BitReader::peek_word`] protocol and performs no checks in release
    /// builds.
    #[inline]
    pub fn consume(&mut self, n: u32) {
        debug_assert!(n <= self.navail);
        self.acc = if n == 64 { 0 } else { self.acc << n };
        self.navail -= n;
    }

    /// Reads one bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool> {
        if self.navail == 0 {
            self.refill();
            if self.navail == 0 {
                return Err(Error::UnexpectedEof);
            }
        }
        let bit = self.acc >> 63 == 1;
        self.acc <<= 1;
        self.navail -= 1;
        Ok(bit)
    }

    /// Reads `n` bits (≤ 64) into the low bits of the result, MSB first.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> Result<u64> {
        debug_assert!(n <= 64);
        if n == 0 {
            return Ok(0);
        }
        if self.navail < n {
            self.refill();
        }
        if self.navail >= n {
            let out = self.acc >> (64 - n);
            self.consume(n);
            return Ok(out);
        }
        self.read_bits_spill(n)
    }

    /// Cold path for reads the refilled accumulator cannot serve whole:
    /// 58–64-bit reads landing mid-word, and end-of-stream detection.
    #[cold]
    fn read_bits_spill(&mut self, n: u32) -> Result<u64> {
        if self.bits_remaining() < n as u64 {
            return Err(Error::UnexpectedEof);
        }
        let mut out = 0u64;
        let mut remaining = n;
        while remaining > 0 {
            if self.navail == 0 {
                self.refill();
            }
            let take = self.navail.min(remaining);
            let chunk = self.acc >> (64 - take);
            out = if take == 64 {
                chunk
            } else {
                (out << take) | chunk
            };
            self.consume(take);
            remaining -= take;
        }
        Ok(out)
    }

    /// Reads `n` bits (≤ 64) placing the first stream bit at bit 0 of the
    /// result — the inverse of [`crate::BitWriter::write_bits_lsb`]. One
    /// bulk MSB read plus a bit reversal; no per-bit loop.
    #[inline]
    pub fn read_bits_lsb(&mut self, n: u32) -> Result<u64> {
        debug_assert!(n <= 64);
        if n == 0 {
            return Ok(0);
        }
        let v = self.read_bits(n)?;
        Ok(v.reverse_bits() >> (64 - n))
    }

    /// Returns the next `n` bits (≤ 32) without consuming them, MSB first.
    ///
    /// Refills the accumulator, so the reader is `&mut`; one refill covers
    /// the subsequent [`BitReader::skip_bits`] and several follow-up peeks.
    #[inline]
    pub fn peek_bits(&mut self, n: u32) -> Result<u64> {
        debug_assert!(n <= 32);
        if n == 0 {
            return Ok(0);
        }
        if self.navail < n {
            self.refill();
            if self.navail < n {
                return Err(Error::UnexpectedEof);
            }
        }
        Ok(self.acc >> (64 - n))
    }

    /// Consumes `n` bits previously inspected with [`BitReader::peek_bits`].
    #[inline]
    pub fn skip_bits(&mut self, n: u32) -> Result<()> {
        if self.navail >= n {
            self.consume(n);
            return Ok(());
        }
        if self.bits_remaining() < n as u64 {
            return Err(Error::UnexpectedEof);
        }
        // Drop the buffered bits, then jump whole bytes and re-buffer.
        let past_acc = n - self.navail;
        self.acc = 0;
        self.navail = 0;
        self.pos += (past_acc / 8) as usize;
        let rest = past_acc % 8;
        if rest > 0 {
            self.refill();
            self.consume(rest);
        }
        Ok(())
    }

    /// Skips to the next byte boundary (no-op when already aligned).
    pub fn align_byte(&mut self) {
        // bits_read ≡ -navail (mod 8), so dropping navail % 8 bits aligns.
        self.consume(self.navail % 8);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BitWriter;

    #[test]
    fn round_trip_mixed_widths() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0xDEAD_BEEF, 32);
        w.write_bit(true);
        w.write_bits(0x3FFF, 14);
        let bytes = w.into_bytes();

        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(32).unwrap(), 0xDEAD_BEEF);
        assert!(r.read_bit().unwrap());
        assert_eq!(r.read_bits(14).unwrap(), 0x3FFF);
    }

    #[test]
    fn eof_detected() {
        let bytes = [0xFFu8];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(8).unwrap(), 0xFF);
        assert_eq!(r.read_bit(), Err(Error::UnexpectedEof));
        assert_eq!(r.read_bits(1), Err(Error::UnexpectedEof));
    }

    #[test]
    fn lsb_round_trip() {
        let mut w = BitWriter::new();
        w.write_bits_lsb(0b1011_0101_1010_0011, 16);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits_lsb(16).unwrap(), 0b1011_0101_1010_0011);
    }

    #[test]
    fn peek_matches_read_without_consuming() {
        let mut w = BitWriter::new();
        w.write_bits(0xDEAD_BEEF_CAFE_F00D, 64);
        w.write_bits(0x0123_4567_89AB_CDEF, 64);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        r.read_bits(5).unwrap(); // misalign
        for n in [1u32, 7, 8, 13, 24, 32] {
            let peeked = r.peek_bits(n).unwrap();
            let pos_before = r.bits_read();
            let read = r.read_bits(n).unwrap();
            assert_eq!(peeked, read, "n={n}");
            assert_eq!(r.bits_read(), pos_before + n as u64);
        }
    }

    #[test]
    fn skip_bits_advances_like_read() {
        let mut w = BitWriter::new();
        w.write_bits(0x1234_5678, 32);
        let bytes = w.into_bytes();
        let mut a = BitReader::new(&bytes);
        let mut b = BitReader::new(&bytes);
        a.read_bits(13).unwrap();
        b.skip_bits(13).unwrap();
        assert_eq!(a.bits_read(), b.bits_read());
        assert_eq!(a.read_bits(19).unwrap(), b.read_bits(19).unwrap());
        assert!(b.skip_bits(1).is_err());
    }

    #[test]
    fn skip_beyond_buffered_window() {
        let data: Vec<u8> = (0..64).collect();
        let mut a = BitReader::new(&data);
        let mut b = BitReader::new(&data);
        a.read_bits(3).unwrap(); // buffers ~8 bytes
        b.read_bits(3).unwrap();
        a.skip_bits(300).unwrap(); // far past the accumulator
        for _ in 0..300 {
            b.read_bit().unwrap();
        }
        assert_eq!(a.bits_read(), b.bits_read());
        assert_eq!(a.read_bits(32).unwrap(), b.read_bits(32).unwrap());
    }

    #[test]
    fn peek_past_end_errors() {
        let bytes = [0xAB];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.peek_bits(8).unwrap(), 0xAB);
        assert!(r.peek_bits(9).is_err());
    }

    #[test]
    fn read_64_bits() {
        let mut w = BitWriter::new();
        w.write_bits(u64::MAX, 64);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX);
    }

    #[test]
    fn wide_reads_straddling_the_accumulator() {
        // Misaligned 58..64-bit reads exercise the spill path.
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        for i in 0..6u64 {
            w.write_bits(0x0123_4567_89AB_CDEF ^ (i * 0x1111_1111_1111_1111), 64);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        for i in 0..6u64 {
            assert_eq!(
                r.read_bits(64).unwrap(),
                0x0123_4567_89AB_CDEF ^ (i * 0x1111_1111_1111_1111),
                "word {i}"
            );
        }
    }

    #[test]
    fn refill_peek_consume_protocol() {
        let mut w = BitWriter::new();
        w.write_bits(0xFACE, 16);
        w.write_bits(0xB00C, 16);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        r.refill();
        assert!(r.buffered_bits() >= 32);
        assert_eq!(r.peek_word() >> 48, 0xFACE);
        r.consume(16);
        assert_eq!(r.peek_word() >> 48, 0xB00C);
        r.consume(16);
        assert_eq!(r.bits_read(), 32);
    }
}
