//! Run-length coding for bitmaps.
//!
//! The log-transform scheme stores one sign bit per data point when a field
//! mixes positive and negative values. Scientific sign planes are usually
//! long runs (velocity components flip sign over large spatial regions), so
//! run lengths + varints beat plain bit packing; a bit-packed fallback keeps
//! the worst case bounded.

use pwrel_bitstream::{varint, BitReader, BitWriter, Error, Result};

const MODE_RLE: u8 = 0;
const MODE_PACKED: u8 = 1;

/// Compresses a boolean slice.
pub fn compress_bits(bits: &[bool]) -> Vec<u8> {
    // Bit i of word k is bit 64k + i of the map.
    let words: Vec<u64> = bits
        .chunks(64)
        .map(|chunk| {
            chunk
                .iter()
                .enumerate()
                .fold(0u64, |w, (i, &b)| w | (b as u64) << i)
        })
        .collect();

    // RLE attempt: leading value, then run lengths.
    let mut rle = Vec::new();
    varint::write_uvarint(&mut rle, bits.len() as u64);
    if let Some(&first) = bits.first() {
        rle.push(first as u8);
        write_runs(&mut rle, &words, bits.len(), first);
    }

    let packed_len = bits.len().div_ceil(8);
    if rle.len() <= packed_len + 9 {
        let mut out = vec![MODE_RLE];
        out.extend_from_slice(&rle);
        return out;
    }

    let mut out = vec![MODE_PACKED];
    varint::write_uvarint(&mut out, bits.len() as u64);
    let mut w = BitWriter::with_capacity(packed_len);
    // The LSB-first write emits bit 0 of each word first: map order.
    for (k, &word) in words.iter().enumerate() {
        w.write_bits_lsb(word, (bits.len() - 64 * k).min(64) as u32);
    }
    out.extend_from_slice(&w.into_bytes());
    out
}

/// Appends the run lengths of the `n`-bit map packed in `words`, whose
/// first bit is `first`. A run ends wherever a bit differs from the bit
/// before it, so the set bits of `word ^ (word << 1 | carry)` are the run
/// starts inside a word, found by `trailing_zeros` instead of a compare
/// per bit.
fn write_runs(out: &mut Vec<u8>, words: &[u64], n: usize, first: bool) {
    // The bit before bit 0 counts as equal to it: no run starts there.
    let mut carry = first as u64;
    let mut run_start = 0usize;
    for (k, &word) in words.iter().enumerate() {
        let len = (n - 64 * k).min(64);
        let mut starts = word ^ (word << 1 | carry);
        if len < 64 {
            starts &= (1 << len) - 1;
        }
        carry = word >> 63;
        while starts != 0 {
            let pos = 64 * k + starts.trailing_zeros() as usize;
            varint::write_uvarint(out, (pos - run_start) as u64);
            run_start = pos;
            starts &= starts - 1;
        }
    }
    varint::write_uvarint(out, (n - run_start) as u64);
}

/// Inverse of [`compress_bits`]; advances `pos` past the buffer.
///
/// `max_bits` bounds the stored bit count *before* any allocation. The
/// caller always knows how many bits it expects (sign planes are one bit
/// per element), so a forged header claiming 2^60 bits is rejected here
/// instead of sizing a `Vec` — the stream must never pick the allocation.
pub fn decompress_bits(data: &[u8], pos: &mut usize, max_bits: usize) -> Result<Vec<bool>> {
    let mode = *data.get(*pos).ok_or(Error::UnexpectedEof)?;
    *pos += 1;
    let n64 = varint::read_uvarint(data, pos)?;
    if n64 > max_bits as u64 {
        return Err(Error::InvalidValue("bitmap length exceeds expected size"));
    }
    let n = n64 as usize;
    match mode {
        MODE_RLE => {
            let mut out = Vec::with_capacity(n);
            if n == 0 {
                return Ok(out);
            }
            let mut value = match data.get(*pos) {
                Some(0) => false,
                Some(1) => true,
                Some(_) => return Err(Error::InvalidValue("rle leading bit")),
                None => return Err(Error::UnexpectedEof),
            };
            *pos += 1;
            while out.len() < n {
                let run = varint::read_uvarint(data, pos)? as usize;
                if run == 0 || out.len() + run > n {
                    return Err(Error::InvalidValue("rle run overflows bitmap"));
                }
                out.extend(std::iter::repeat_n(value, run));
                value = !value;
            }
            Ok(out)
        }
        MODE_PACKED => {
            let nbytes = n.div_ceil(8);
            let end = pos.checked_add(nbytes).ok_or(Error::UnexpectedEof)?;
            let packed = data.get(*pos..end).ok_or(Error::UnexpectedEof)?;
            let mut r = BitReader::new(packed);
            let mut out = Vec::with_capacity(n);
            let mut left = n;
            while left > 0 {
                let take = left.min(64) as u32;
                let word = r.read_bits_lsb(take)?;
                for i in 0..take {
                    out.push((word >> i) & 1 == 1);
                }
                left -= take as usize;
            }
            *pos = end;
            Ok(out)
        }
        _ => Err(Error::InvalidValue("unknown bitmap mode")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-bit encoder [`compress_bits`] replaced: the reference its
    /// output must match byte for byte.
    fn reference_compress_bits(bits: &[bool]) -> Vec<u8> {
        let mut rle = Vec::new();
        varint::write_uvarint(&mut rle, bits.len() as u64);
        if !bits.is_empty() {
            rle.push(bits[0] as u8);
            let mut run = 1u64;
            for w in bits.windows(2) {
                if w[1] == w[0] {
                    run += 1;
                } else {
                    varint::write_uvarint(&mut rle, run);
                    run = 1;
                }
            }
            varint::write_uvarint(&mut rle, run);
        }

        let packed_len = bits.len().div_ceil(8);
        if rle.len() <= packed_len + 9 {
            let mut out = vec![MODE_RLE];
            out.extend_from_slice(&rle);
            return out;
        }

        let mut out = vec![MODE_PACKED];
        varint::write_uvarint(&mut out, bits.len() as u64);
        let mut w = BitWriter::with_capacity(packed_len);
        for chunk in bits.chunks(64) {
            let mut word = 0u64;
            for (i, &b) in chunk.iter().enumerate() {
                word |= (b as u64) << i;
            }
            w.write_bits_lsb(word, chunk.len() as u32);
        }
        out.extend_from_slice(&w.into_bytes());
        out
    }

    #[test]
    fn word_encoder_matches_the_per_bit_reference() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut noise = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for n in [0usize, 1, 2, 63, 64, 65, 127, 128, 129, 1000] {
            // Random bits (packed mode for larger n), then runs of random
            // length (RLE mode), both ending mid-word and on word edges.
            let random: Vec<bool> = (0..n).map(|_| noise() & 1 == 1).collect();
            let mut runs = Vec::with_capacity(n);
            let mut value = noise() & 1 == 1;
            while runs.len() < n {
                let len = (1 + noise() % 150) as usize;
                runs.extend(std::iter::repeat_n(value, len.min(n - runs.len())));
                value = !value;
            }
            for bits in [random, runs, vec![true; n], vec![false; n]] {
                assert_eq!(
                    compress_bits(&bits),
                    reference_compress_bits(&bits),
                    "n = {n}"
                );
            }
        }
        // A velocity sign plane: the input the sign sections carry.
        let field = pwrel_data::nyx::velocity_x(pwrel_data::Scale::Small);
        let signs: Vec<bool> = field.data.iter().map(|v| v.is_sign_negative()).collect();
        assert_eq!(compress_bits(&signs), reference_compress_bits(&signs));
    }

    fn round_trip(bits: &[bool]) {
        let c = compress_bits(bits);
        let mut pos = 0;
        assert_eq!(decompress_bits(&c, &mut pos, bits.len()).unwrap(), bits);
        assert_eq!(pos, c.len());
    }

    #[test]
    fn empty_bitmap() {
        round_trip(&[]);
    }

    #[test]
    fn uniform_bitmaps_compress_to_bytes() {
        let bits = vec![true; 100_000];
        let c = compress_bits(&bits);
        assert!(c.len() < 16, "c.len() = {}", c.len());
        round_trip(&bits);
        round_trip(&vec![false; 100_000]);
    }

    #[test]
    fn long_runs() {
        let mut bits = vec![false; 5000];
        bits.extend(vec![true; 7000]);
        bits.extend(vec![false; 1]);
        round_trip(&bits);
    }

    #[test]
    fn alternating_falls_back_to_packing() {
        let bits: Vec<bool> = (0..10_000).map(|i| i % 2 == 0).collect();
        let c = compress_bits(&bits);
        // RLE would need ~1 byte/bit; packed mode caps at n/8 + header.
        assert!(c.len() <= 10_000 / 8 + 16, "c.len() = {}", c.len());
        round_trip(&bits);
    }

    #[test]
    fn pseudo_random_bits() {
        let mut x = 0xACE1u32;
        let bits: Vec<bool> = (0..4321)
            .map(|_| {
                x = x.wrapping_mul(75).wrapping_add(74) % 65537;
                x & 1 == 1
            })
            .collect();
        round_trip(&bits);
    }

    #[test]
    fn sequential_buffers_decode_in_order() {
        let a = vec![true; 17];
        let b: Vec<bool> = (0..33).map(|i| i % 3 == 0).collect();
        let mut buf = compress_bits(&a);
        buf.extend(compress_bits(&b));
        let mut pos = 0;
        assert_eq!(decompress_bits(&buf, &mut pos, a.len()).unwrap(), a);
        assert_eq!(decompress_bits(&buf, &mut pos, b.len()).unwrap(), b);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn corrupt_run_rejected() {
        let bits = vec![true; 100];
        let mut c = compress_bits(&bits);
        let last = c.len() - 1;
        c[last] = 0xFF; // break final varint
        let mut pos = 0;
        assert!(decompress_bits(&c, &mut pos, 100).is_err());
    }

    #[test]
    fn oversized_bit_count_rejected_before_allocating() {
        // A forged RLE header claiming u64::MAX bits must fail the
        // `max_bits` gate, not size a Vec from the stream.
        let mut forged = vec![MODE_RLE];
        varint::write_uvarint(&mut forged, u64::MAX);
        forged.push(1);
        let mut pos = 0;
        assert!(decompress_bits(&forged, &mut pos, 4096).is_err());

        let mut forged = vec![MODE_PACKED];
        varint::write_uvarint(&mut forged, 1 << 60);
        let mut pos = 0;
        assert!(decompress_bits(&forged, &mut pos, 4096).is_err());
    }
}
