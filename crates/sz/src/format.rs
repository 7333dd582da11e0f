//! SZ container format.
//!
//! Layout (before the optional LZ wrapper):
//!
//! ```text
//! magic "SZR1" | float_bits u8 | mode u8 | rank u8 | nx ny nz uvarint
//! capacity uvarint
//! mode=0 Abs: eb f64
//! mode=1 Pwr: rel_bound f64 | block_len uvarint | n_blocks uvarint
//!             | per-block exponent ivarint...
//! mode=3 PwrSpatial: rel_bound f64 | n_blocks uvarint
//!                    | per-block exponent ivarint...
//! huffman-coded quantization codes (self-contained block)
//! n_unpred uvarint | raw unpredictable values (BITS/8 bytes each)
//! ```
//!
//! Mode byte 2 is retired and decodes as an unknown mode.
//!
//! The serialized container is wrapped as `[0u8] ++ payload` (raw) or
//! `[1u8] ++ lz(payload)`, whichever is smaller when the LZ pass is enabled
//! (SZ's optional gzip stage).

use pwrel_bitstream::{bytesio, varint};
use pwrel_data::{CodecError, Dims};
use pwrel_lossless::lz;
use pwrel_trace::{stage, Recorder, Span};

const MAGIC: &[u8; 4] = b"SZR1";

/// Decides whether the full LZ pass is likely to pay off by compressing
/// three 21 KiB samples spread across the payload (head, middle, tail):
/// small payloads are always tried (cheap), large ones only when the
/// combined samples shrink by more than ~3%. Sampling all three regions
/// matters for heterogeneous payloads — the Huffman block at the front
/// and the raw unpredictable store at the back compress very differently,
/// and a prefix-only sample mispredicts whichever section it missed.
fn worth_lz_pass(payload: &[u8]) -> bool {
    const SAMPLE: usize = 64 * 1024;
    if payload.len() <= 2 * SAMPLE {
        return true;
    }
    let part = SAMPLE / 3;
    let mid = payload.len() / 2 - part / 2;
    let regions = [
        &payload[..part],
        &payload[mid..mid + part],
        &payload[payload.len() - part..],
    ];
    let mut sampled = 0usize;
    let mut packed = 0usize;
    for region in regions {
        sampled += region.len();
        packed += lz::compress(region).len();
    }
    packed * 100 < sampled * 97
}

/// Error-bound mode recorded in the stream.
#[derive(Debug, Clone, PartialEq)]
pub enum SzMode {
    /// Absolute bound.
    Abs {
        /// The bound every point respects.
        eb: f64,
    },
    /// Blockwise point-wise-relative bound (SZ_PWR).
    Pwr {
        /// The requested relative bound (kept for reporting).
        rel_bound: f64,
        /// Points per block, raster order.
        block_len: u64,
        /// Power-of-two exponent of each block's absolute bound.
        block_exps: Vec<i32>,
    },
    /// Blockwise point-wise-relative bound over 6^d *spatial* blocks
    /// (rank ≥ 2; the DRBSD-2 design for multidimensional data).
    PwrSpatial {
        /// The requested relative bound (kept for reporting).
        rel_bound: f64,
        /// Power-of-two exponent of each spatial block's absolute bound.
        block_exps: Vec<i32>,
    },
}

/// Parsed SZ container.
#[derive(Debug, Clone)]
pub struct SzStream {
    /// 32 or 64.
    pub float_bits: u8,
    /// Grid shape.
    pub dims: Dims,
    /// Quantization interval count.
    pub capacity: u32,
    /// Error-bound mode.
    pub mode: SzMode,
    /// Self-contained Huffman block of quantization codes.
    pub codes_buf: Vec<u8>,
    /// Number of unpredictable (escaped) values.
    pub n_unpred: u64,
    /// Bit-packed unpredictable values (see `unpred`).
    pub unpred_bytes: Vec<u8>,
}

impl SzStream {
    /// Serializes, optionally trying the LZ wrapper. The wrapper decision
    /// and LZ pass are attributed to the [`stage::LZ`] span on `rec`,
    /// emitted even when the pass is disabled or declined, so stage
    /// coverage does not depend on the data.
    pub fn serialize(&self, lossless_pass: bool, rec: &dyn Recorder) -> Vec<u8> {
        let mut p = Vec::with_capacity(self.codes_buf.len() + self.unpred_bytes.len() + 64);
        p.extend_from_slice(MAGIC);
        p.push(self.float_bits);
        let (rank, nx, ny, nz) = self.dims.to_header();
        match &self.mode {
            SzMode::Abs { eb } => {
                p.push(0);
                p.push(rank);
                varint::write_uvarint(&mut p, nx);
                varint::write_uvarint(&mut p, ny);
                varint::write_uvarint(&mut p, nz);
                varint::write_uvarint(&mut p, self.capacity as u64);
                bytesio::put_f64(&mut p, *eb);
            }
            SzMode::Pwr {
                rel_bound,
                block_len,
                block_exps,
            } => {
                p.push(1);
                p.push(rank);
                varint::write_uvarint(&mut p, nx);
                varint::write_uvarint(&mut p, ny);
                varint::write_uvarint(&mut p, nz);
                varint::write_uvarint(&mut p, self.capacity as u64);
                bytesio::put_f64(&mut p, *rel_bound);
                varint::write_uvarint(&mut p, *block_len);
                varint::write_uvarint(&mut p, block_exps.len() as u64);
                let mut prev = 0i64;
                for &e in block_exps {
                    varint::write_ivarint(&mut p, e as i64 - prev);
                    prev = e as i64;
                }
            }
            SzMode::PwrSpatial {
                rel_bound,
                block_exps,
            } => {
                p.push(3);
                p.push(rank);
                varint::write_uvarint(&mut p, nx);
                varint::write_uvarint(&mut p, ny);
                varint::write_uvarint(&mut p, nz);
                varint::write_uvarint(&mut p, self.capacity as u64);
                bytesio::put_f64(&mut p, *rel_bound);
                varint::write_uvarint(&mut p, block_exps.len() as u64);
                let mut prev = 0i64;
                for &e in block_exps {
                    varint::write_ivarint(&mut p, e as i64 - prev);
                    prev = e as i64;
                }
            }
        }
        varint::write_uvarint(&mut p, self.codes_buf.len() as u64);
        p.extend_from_slice(&self.codes_buf);
        varint::write_uvarint(&mut p, self.n_unpred);
        varint::write_uvarint(&mut p, self.unpred_bytes.len() as u64);
        p.extend_from_slice(&self.unpred_bytes);

        // The LZ pass mirrors SZ's optional gzip stage: worthwhile on
        // redundant streams, wasted time on already-dense Huffman output.
        // Payloads over 128 KiB are sampled at head, middle and tail (see
        // `worth_lz_pass`) before paying for the full pass.
        let _lz = Span::enter(rec, stage::LZ);
        if lossless_pass && worth_lz_pass(&p) {
            let packed = lz::compress(&p);
            if packed.len() + 1 < p.len() + 1 {
                let mut out = Vec::with_capacity(packed.len() + 1);
                out.push(1u8);
                out.extend_from_slice(&packed);
                return out;
            }
        }
        let mut out = Vec::with_capacity(p.len() + 1);
        out.push(0u8);
        out.extend_from_slice(&p);
        out
    }

    /// Parses a stream produced by [`SzStream::serialize`], attributing
    /// the LZ unwrap to the [`stage::LZ`] span on `rec` (emitted for both
    /// wrapper kinds).
    pub fn deserialize(bytes: &[u8], rec: &dyn Recorder) -> Result<Self, CodecError> {
        let (&wrapper, rest) = bytes
            .split_first()
            .ok_or(CodecError::Corrupt("empty stream"))?;
        let unpacked;
        let p: &[u8] = {
            let _lz = Span::enter(rec, stage::LZ);
            match wrapper {
                0 => rest,
                1 => {
                    unpacked = lz::decompress(rest)?;
                    &unpacked
                }
                _ => return Err(CodecError::Corrupt("unknown wrapper byte")),
            }
        };

        if !p.starts_with(MAGIC) {
            return Err(CodecError::Mismatch("bad SZ magic"));
        }
        let mut pos = 4usize;
        let float_bits = *p.get(pos).ok_or(CodecError::Corrupt("eof"))?;
        pos += 1;
        if float_bits != 32 && float_bits != 64 {
            return Err(CodecError::Corrupt("bad float width"));
        }
        let mode_byte = *p.get(pos).ok_or(CodecError::Corrupt("eof"))?;
        pos += 1;
        let rank = *p.get(pos).ok_or(CodecError::Corrupt("eof"))?;
        pos += 1;
        let nx = varint::read_uvarint(p, &mut pos)?;
        let ny = varint::read_uvarint(p, &mut pos)?;
        let nz = varint::read_uvarint(p, &mut pos)?;
        let dims =
            Dims::from_header(rank, nx, ny, nz).ok_or(CodecError::Corrupt("bad dims header"))?;
        let capacity = u32::try_from(varint::read_uvarint(p, &mut pos)?)
            .map_err(|_| CodecError::Corrupt("bad capacity"))?;
        if capacity < 4 || !capacity.is_multiple_of(2) {
            return Err(CodecError::Corrupt("bad capacity"));
        }

        let mode = match mode_byte {
            0 => SzMode::Abs {
                eb: bytesio::get_f64(p, &mut pos)?,
            },
            1 => {
                let rel_bound = bytesio::get_f64(p, &mut pos)?;
                let block_len = varint::read_uvarint(p, &mut pos)?;
                if block_len == 0 {
                    return Err(CodecError::Corrupt("zero block_len"));
                }
                let n_blocks = varint::read_uvarint(p, &mut pos)? as usize;
                let expected = dims.len().div_ceil(block_len as usize);
                if n_blocks != expected {
                    return Err(CodecError::Corrupt("block count mismatch"));
                }
                // n_blocks is untrusted; each exponent costs ≥1 byte, so
                // cap the reservation and let varint EOF stop bad claims.
                let mut block_exps = Vec::with_capacity(n_blocks.min(1 << 20));
                let mut prev = 0i64;
                for _ in 0..n_blocks {
                    prev += varint::read_ivarint(p, &mut pos)?;
                    if !(-2000..=2000).contains(&prev) {
                        return Err(CodecError::Corrupt("block exponent out of range"));
                    }
                    block_exps.push(prev as i32);
                }
                SzMode::Pwr {
                    rel_bound,
                    block_len,
                    block_exps,
                }
            }
            3 => {
                let rel_bound = bytesio::get_f64(p, &mut pos)?;
                let n_blocks = varint::read_uvarint(p, &mut pos)? as usize;
                // Count without allocating: dims are untrusted.
                if n_blocks as u64 != crate::pwr_spatial::block_count(dims) {
                    return Err(CodecError::Corrupt("spatial block count mismatch"));
                }
                // Each exponent costs ≥ 1 byte in the stream.
                if n_blocks > p.len() {
                    return Err(CodecError::Corrupt("spatial block count exceeds payload"));
                }
                let mut block_exps = Vec::with_capacity(n_blocks.min(1 << 20));
                let mut prev = 0i64;
                for _ in 0..n_blocks {
                    prev += varint::read_ivarint(p, &mut pos)?;
                    if !(-2000..=2000).contains(&prev) {
                        return Err(CodecError::Corrupt("block exponent out of range"));
                    }
                    block_exps.push(prev as i32);
                }
                SzMode::PwrSpatial {
                    rel_bound,
                    block_exps,
                }
            }
            _ => return Err(CodecError::Corrupt("unknown mode")),
        };

        let codes_len = varint::read_uvarint(p, &mut pos)? as usize;
        let codes_buf = bytesio::get_bytes(p, &mut pos, codes_len)?.to_vec();
        let n_unpred = varint::read_uvarint(p, &mut pos)?;
        let unpred_len = varint::read_uvarint(p, &mut pos)? as usize;
        let unpred_bytes = bytesio::get_bytes(p, &mut pos, unpred_len)?.to_vec();
        // Each packed value costs at least 2 bits; cross-check the count.
        if n_unpred > unpred_bytes.len() as u64 * 8 {
            return Err(CodecError::Corrupt("unpredictable count exceeds payload"));
        }

        Ok(Self {
            float_bits,
            dims,
            capacity,
            mode,
            codes_buf,
            n_unpred,
            unpred_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwrel_trace::noop;

    fn sample(mode: SzMode) -> SzStream {
        SzStream {
            float_bits: 32,
            dims: Dims::d2(3, 5),
            capacity: 1024,
            mode,
            codes_buf: vec![1, 2, 3, 4, 5],
            n_unpred: 2,
            unpred_bytes: vec![0u8; 8],
        }
    }

    #[test]
    fn abs_round_trip_both_wrappers() {
        let s = sample(SzMode::Abs { eb: 0.125 });
        for lossless in [false, true] {
            let bytes = s.serialize(lossless, noop());
            let back = SzStream::deserialize(&bytes, noop()).unwrap();
            assert_eq!(back.float_bits, 32);
            assert_eq!(back.dims, Dims::d2(3, 5));
            assert_eq!(back.capacity, 1024);
            assert_eq!(back.mode, SzMode::Abs { eb: 0.125 });
            assert_eq!(back.codes_buf, s.codes_buf);
            assert_eq!(back.unpred_bytes, s.unpred_bytes);
        }
    }

    #[test]
    fn pwr_round_trip_with_exponents() {
        let s = SzStream {
            float_bits: 64,
            dims: Dims::d1(1000),
            capacity: 65536,
            mode: SzMode::Pwr {
                rel_bound: 1e-3,
                block_len: 256,
                block_exps: vec![-10, -12, -8, -40],
            },
            codes_buf: vec![9; 100],
            n_unpred: 2,
            unpred_bytes: vec![1u8; 16],
        };
        let bytes = s.serialize(true, noop());
        let back = SzStream::deserialize(&bytes, noop()).unwrap();
        assert_eq!(back.mode, s.mode);
        assert_eq!(back.float_bits, 64);
    }

    #[test]
    fn corrupt_magic_rejected() {
        let s = sample(SzMode::Abs { eb: 1.0 });
        let mut bytes = s.serialize(false, noop());
        bytes[1] = b'X';
        assert!(SzStream::deserialize(&bytes, noop()).is_err());
    }

    #[test]
    fn truncation_rejected() {
        let s = sample(SzMode::Abs { eb: 1.0 });
        let bytes = s.serialize(false, noop());
        for cut in [0, 3, 8, bytes.len() - 2] {
            assert!(
                SzStream::deserialize(&bytes[..cut], noop()).is_err(),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn block_count_must_match_dims() {
        let s = SzStream {
            float_bits: 32,
            dims: Dims::d1(100),
            capacity: 64,
            mode: SzMode::Pwr {
                rel_bound: 0.1,
                block_len: 50,
                block_exps: vec![0, 0, 0], // should be 2 blocks
            },
            codes_buf: vec![],
            n_unpred: 0,
            unpred_bytes: vec![],
        };
        let bytes = s.serialize(false, noop());
        assert!(SzStream::deserialize(&bytes, noop()).is_err());
    }
}
