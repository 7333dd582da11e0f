#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! FPZIP-like predictive floating-point compressor.
//!
//! Reproduces the design and, crucially, the *parameterization* of FPZIP as
//! used in the paper's evaluation: the codec accepts only a **precision**
//! `p` (bits of each float retained), not an error bound. Compression is
//! lossless with respect to the precision-truncated values, so the
//! point-wise relative error is exactly the mantissa truncation error:
//!
//! * f32: `max rel err = 2^-(p-9)`  (1 sign + 8 exponent bits overhead)
//! * f64: `max rel err = 2^-(p-12)` (1 sign + 11 exponent bits overhead)
//!
//! which matches Table IV (`-p 19 → 9.8e-4`, `-p 16 → 7.8e-3`). Because `p`
//! is integral, the compression ratio is a *step function* of the error
//! bound — the "piecewise" behaviour the paper criticizes.
//!
//! Pipeline: truncate mantissas to `p` → map to order-preserving unsigned
//! integers → Lorenzo-predict in the integer domain from already-coded
//! neighbours → entropy-code residuals (Huffman over bit-length classes +
//! raw remainder bits), losslessly.

mod residual;

use pwrel_bitstream::{varint, BitReader, BitWriter};
use pwrel_data::{CodecError, Dims, Float};
use pwrel_lossless::huffman;

const MAGIC: &[u8; 4] = b"FPZ1";

/// Sign + exponent bit overhead included in the precision parameter.
fn precision_offset<F: Float>() -> u32 {
    1 + F::EXP_BITS
}

/// Smallest precision that respects a point-wise relative bound.
pub fn precision_for_rel_bound<F: Float>(rel_bound: f64) -> u32 {
    assert!(rel_bound > 0.0 && rel_bound.is_finite());
    let m = (-rel_bound.log2()).ceil().max(1.0) as u32;
    (precision_offset::<F>() + m).min(F::BITS)
}

/// The guaranteed point-wise relative bound of a given precision.
pub fn rel_bound_for_precision<F: Float>(p: u32) -> f64 {
    let m = p.saturating_sub(precision_offset::<F>()).min(F::MANT_BITS);
    if m >= F::MANT_BITS {
        // Full mantissa kept: lossless.
        0.0
    } else {
        (-(m as f64)).exp2()
    }
}

/// FPZIP-like codec configured by a precision parameter.
///
/// ```
/// use pwrel_fpzip::{FpzipCompressor, rel_bound_for_precision};
/// use pwrel_data::Dims;
///
/// let data: Vec<f32> = (1..=512).map(|i| i as f32 * 1.5).collect();
/// let codec = FpzipCompressor::for_rel_bound::<f32>(1e-2);
/// let stream = codec.compress(&data, Dims::d1(512)).unwrap();
/// let (back, _) = pwrel_fpzip::decompress::<f32>(&stream).unwrap();
/// let bound = rel_bound_for_precision::<f32>(codec.precision);
/// for (a, b) in data.iter().zip(&back) {
///     assert!(((a - b) / a).abs() as f64 <= bound);
/// }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FpzipCompressor {
    /// Bits of precision retained per value (`-p` in fpzip).
    pub precision: u32,
}

impl FpzipCompressor {
    /// Creates a codec with an explicit precision.
    pub fn new(precision: u32) -> Self {
        Self { precision }
    }

    /// Creates a codec whose precision is the loosest one still respecting
    /// `rel_bound` — how the paper's evaluation drives FPZIP.
    pub fn for_rel_bound<F: Float>(rel_bound: f64) -> Self {
        Self::new(precision_for_rel_bound::<F>(rel_bound))
    }

    /// Mantissa bits discarded at the configured precision.
    fn drop_bits<F: Float>(&self) -> u32 {
        let m = self
            .precision
            .saturating_sub(precision_offset::<F>())
            .min(F::MANT_BITS);
        F::MANT_BITS - m
    }

    /// Truncates `x` to the configured precision (the only lossy step).
    ///
    /// Denormal and non-finite values are kept exact: truncating a denormal
    /// mantissa could produce unbounded relative error.
    fn truncate<F: Float>(&self, x: F) -> F {
        let drop = self.drop_bits::<F>();
        if drop == 0 {
            return x;
        }
        let bits = x.to_bits_u64();
        let exp_mask = ((1u64 << F::EXP_BITS) - 1) << F::MANT_BITS;
        let exp = bits & exp_mask;
        if exp == 0 || exp == exp_mask {
            return x; // denormal / zero / inf / NaN: exact
        }
        F::from_bits_u64(bits & !((1u64 << drop) - 1))
    }

    /// Compresses `data`. Every decompressed value satisfies
    /// `|x - x'| <= rel_bound_for_precision(p) * |x|`.
    pub fn compress<F: Float>(&self, data: &[F], dims: Dims) -> Result<Vec<u8>, CodecError> {
        if self.precision <= precision_offset::<F>() || self.precision > F::BITS {
            return Err(CodecError::InvalidArgument("precision out of range"));
        }
        if data.len() != dims.len() {
            return Err(CodecError::InvalidArgument("data length != dims"));
        }
        let drop = self.drop_bits::<F>();

        // Stage 1+2: truncate and map to order-preserving integers. The
        // truncated bits are constant per sign (0s for positives, 1s for
        // negatives in the ordered domain), so prediction and coding run in
        // the `drop`-shifted *compact* domain; values whose low bits do not
        // match the canonical fill (denormals, NaNs kept exact) go through
        // the raw-escape class.
        let ordered: Vec<u64> = data
            .iter()
            .map(|&x| ordered_from_bits::<F>(self.truncate(x).to_bits_u64()))
            .collect();
        let compact: Vec<u64> = ordered.iter().map(|&o| o >> drop).collect();

        // Stage 3: integer Lorenzo prediction, residuals to length classes.
        let mut classes: Vec<u32> = Vec::with_capacity(compact.len());
        let mut raw = BitWriter::with_capacity(compact.len());
        for k in 0..dims.nz {
            for j in 0..dims.ny {
                for i in 0..dims.nx {
                    let idx = dims.index(i, j, k);
                    if ordered[idx] != canonical_ordered::<F>(compact[idx], drop) {
                        classes.push(residual::RAW_CLASS);
                        raw.write_bits(ordered[idx], F::BITS);
                        continue;
                    }
                    let pred = predict_int(&compact, dims, i, j, k);
                    let r = compact[idx] as i64 as i128 - pred as i64 as i128;
                    let (class, payload, nbits) = residual::encode(r as i64);
                    classes.push(class);
                    raw.write_bits(payload, nbits);
                }
            }
        }

        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.push(F::BITS as u8);
        out.push(self.precision as u8);
        let (rank, nx, ny, nz) = dims.to_header();
        out.push(rank);
        varint::write_uvarint(&mut out, nx);
        varint::write_uvarint(&mut out, ny);
        varint::write_uvarint(&mut out, nz);
        let classes_buf = huffman::encode_symbols(&classes, residual::N_CLASSES);
        varint::write_uvarint(&mut out, classes_buf.len() as u64);
        out.extend_from_slice(&classes_buf);
        let raw_bytes = raw.into_bytes();
        varint::write_uvarint(&mut out, raw_bytes.len() as u64);
        out.extend_from_slice(&raw_bytes);
        Ok(out)
    }

    /// Decompresses a stream produced by [`FpzipCompressor::compress`].
    pub fn decompress<F: Float>(&self, bytes: &[u8]) -> Result<(Vec<F>, Dims), CodecError> {
        decompress::<F>(bytes)
    }
}

/// Decompresses without needing the original configuration.
pub fn decompress<F: Float>(bytes: &[u8]) -> Result<(Vec<F>, Dims), CodecError> {
    if bytes.len() < 7 || &bytes[..4] != MAGIC {
        return Err(CodecError::Mismatch("bad FPZIP magic"));
    }
    let mut pos = 4usize;
    let float_bits = bytes[pos];
    pos += 1;
    if float_bits as u32 != F::BITS {
        return Err(CodecError::Mismatch("element type differs from stream"));
    }
    let precision = bytes[pos] as u32;
    pos += 1;
    let rank = bytes[pos];
    pos += 1;
    let nx = varint::read_uvarint(bytes, &mut pos)?;
    let ny = varint::read_uvarint(bytes, &mut pos)?;
    let nz = varint::read_uvarint(bytes, &mut pos)?;
    let dims = Dims::from_header(rank, nx, ny, nz).ok_or(CodecError::Corrupt("bad dims"))?;

    let classes_len = varint::read_uvarint(bytes, &mut pos)? as usize;
    let classes_end = pos
        .checked_add(classes_len)
        .ok_or(CodecError::Corrupt("eof"))?;
    if classes_end > bytes.len() {
        return Err(CodecError::Corrupt("truncated classes"));
    }
    let mut cpos = pos;
    let classes = huffman::decode_symbols(bytes, &mut cpos)?;
    pos = classes_end;
    if classes.len() != dims.len() {
        return Err(CodecError::Corrupt("class count != point count"));
    }
    // The class table's alphabet is whatever the stream declares;
    // `residual::decode` handles bit lengths 0..=64 and the raw escape.
    if classes.iter().any(|&c| c > residual::RAW_CLASS) {
        return Err(CodecError::Corrupt("class out of range"));
    }
    let raw_len = varint::read_uvarint(bytes, &mut pos)? as usize;
    let raw_end = pos.checked_add(raw_len).ok_or(CodecError::Corrupt("eof"))?;
    if raw_end > bytes.len() {
        return Err(CodecError::Corrupt("truncated payload"));
    }
    let mut raw = BitReader::new(&bytes[pos..raw_end]);

    let drop = FpzipCompressor::new(precision).drop_bits::<F>();
    let mut compact = vec![0u64; dims.len()];
    let mut ordered = vec![0u64; dims.len()];
    for k in 0..dims.nz {
        for j in 0..dims.ny {
            for i in 0..dims.nx {
                let idx = dims.index(i, j, k);
                if classes[idx] == residual::RAW_CLASS {
                    let o = raw.read_bits(F::BITS)?;
                    ordered[idx] = o;
                    compact[idx] = o >> drop;
                    continue;
                }
                let pred = predict_int(&compact, dims, i, j, k);
                let r = residual::decode(classes[idx], &mut raw)?;
                let c = (pred as i64).wrapping_add(r) as u64 & (width_mask::<F>() >> drop);
                compact[idx] = c;
                ordered[idx] = canonical_ordered::<F>(c, drop);
            }
        }
    }
    let out: Vec<F> = ordered
        .into_iter()
        .map(|o| F::from_bits_u64(bits_from_ordered::<F>(o)))
        .collect();
    Ok((out, dims))
}

/// Expands a compact (shifted) ordered integer back to full width, filling
/// the dropped bits with the canonical per-sign pattern: zeros for
/// non-negative values (sign-indicator bit set), ones for negative ones.
#[inline]
fn canonical_ordered<F: Float>(compact: u64, drop: u32) -> u64 {
    let o = (compact << drop) & width_mask::<F>();
    if drop == 0 {
        return o;
    }
    let sign_bit = 1u64 << (F::BITS - 1);
    if o & sign_bit == 0 {
        // Negative value: truncation set the discarded mantissa bits,
        // which complement to ones in the ordered domain.
        o | ((1u64 << drop) - 1)
    } else {
        o
    }
}

#[inline]
fn width_mask<F: Float>() -> u64 {
    if F::BITS == 64 {
        u64::MAX
    } else {
        (1u64 << F::BITS) - 1
    }
}

/// IEEE bits → order-preserving unsigned integer (monotone in value).
#[inline]
fn ordered_from_bits<F: Float>(bits: u64) -> u64 {
    let sign_bit = 1u64 << (F::BITS - 1);
    if bits & sign_bit != 0 {
        (!bits) & width_mask::<F>()
    } else {
        bits | sign_bit
    }
}

/// Inverse of [`ordered_from_bits`].
#[inline]
fn bits_from_ordered<F: Float>(o: u64) -> u64 {
    let sign_bit = 1u64 << (F::BITS - 1);
    if o & sign_bit != 0 {
        o & !sign_bit
    } else {
        (!o) & width_mask::<F>()
    }
}

/// Integer-domain Lorenzo prediction over already-coded neighbours.
///
/// The ordered-integer map is a piecewise-linear embedding of the floats
/// (exponent + mantissa), so Lorenzo in this domain behaves like fpzip's
/// float-domain predictor while keeping the pipeline exactly invertible.
#[inline]
fn predict_int(ints: &[u64], dims: Dims, i: usize, j: usize, k: usize) -> u64 {
    let at = |ii: isize, jj: isize, kk: isize| -> i128 {
        if ii < 0 || jj < 0 || kk < 0 {
            return 0;
        }
        ints[dims.index(ii as usize, jj as usize, kk as usize)] as i128
    };
    let (i, j, k) = (i as isize, j as isize, k as isize);
    let p: i128 = match dims.rank() {
        1 => at(i - 1, 0, 0),
        2 => at(i - 1, j, 0) + at(i, j - 1, 0) - at(i - 1, j - 1, 0),
        _ => {
            at(i - 1, j, k) + at(i, j - 1, k) + at(i, j, k - 1)
                - at(i - 1, j - 1, k)
                - at(i - 1, j, k - 1)
                - at(i, j - 1, k - 1)
                + at(i - 1, j - 1, k - 1)
        }
    };
    p.clamp(0, u64::MAX as i128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwrel_data::grf;

    fn check_rel<F: Float>(data: &[F], dims: Dims, p: u32) -> Vec<u8> {
        let codec = FpzipCompressor::new(p);
        let bytes = codec.compress(data, dims).unwrap();
        let (dec, d2) = decompress::<F>(&bytes).unwrap();
        assert_eq!(d2, dims);
        let bound = rel_bound_for_precision::<F>(p);
        for (idx, (&a, &b)) in data.iter().zip(&dec).enumerate() {
            let (a, b) = (a.to_f64(), b.to_f64());
            if a == 0.0 {
                assert_eq!(b, 0.0, "idx {idx}: zero must stay exact");
            } else {
                let rel = (a - b).abs() / a.abs();
                assert!(rel <= bound, "idx {idx}: rel {rel} > {bound} (p={p})");
            }
        }
        bytes
    }

    #[test]
    fn precision_mapping_matches_paper() {
        assert_eq!(precision_for_rel_bound::<f32>(1e-3), 19);
        assert_eq!(precision_for_rel_bound::<f32>(1e-2), 16);
        assert_eq!(precision_for_rel_bound::<f32>(1e-1), 13);
        assert!((rel_bound_for_precision::<f32>(19) - 2f64.powi(-10)).abs() < 1e-15);
        assert!((rel_bound_for_precision::<f32>(16) - 2f64.powi(-7)).abs() < 1e-15);
    }

    #[test]
    fn rel_bound_holds_1d_signed() {
        let dims = Dims::d1(5000);
        let data: Vec<f32> = (0..5000)
            .map(|i| (i as f32 * 0.37).sin() * 10f32.powi((i % 9) - 4))
            .collect();
        for p in [13u32, 16, 19, 26] {
            check_rel(&data, dims, p);
        }
    }

    #[test]
    fn rel_bound_holds_2d_3d() {
        let d2 = Dims::d2(48, 48);
        let f2 = grf::gaussian_field(d2, 31, 2, 2);
        check_rel(&f2, d2, 19);
        let d3 = Dims::d3(12, 12, 12);
        let f3 = grf::gaussian_field(d3, 32, 1, 2);
        check_rel(&f3, d3, 16);
    }

    #[test]
    fn f64_path() {
        let dims = Dims::d1(2000);
        let data: Vec<f64> = (0..2000)
            .map(|i| (i as f64 * 0.11).cos() * 1e8 + 1e5)
            .collect();
        for p in [22u32, 32, 44] {
            check_rel(&data, dims, p);
        }
    }

    #[test]
    fn zeros_and_nonfinite_exact() {
        let dims = Dims::d1(8);
        let data = vec![0.0f32, -0.0, 1.5, f32::NAN, f32::INFINITY, -2.5, 0.0, 1e-40];
        let codec = FpzipCompressor::new(16);
        let bytes = codec.compress(&data, dims).unwrap();
        let (dec, _) = decompress::<f32>(&bytes).unwrap();
        assert_eq!(dec[0].to_bits(), 0.0f32.to_bits());
        assert!(dec[3].is_nan());
        assert_eq!(dec[4], f32::INFINITY);
        // Denormals stored exactly.
        assert_eq!(dec[7], 1e-40);
    }

    #[test]
    fn full_precision_is_lossless() {
        let dims = Dims::d1(1000);
        let data = grf::white_noise(1000, 77);
        let codec = FpzipCompressor::new(32);
        let bytes = codec.compress(&data, dims).unwrap();
        let (dec, _) = decompress::<f32>(&bytes).unwrap();
        for (a, b) in data.iter().zip(&dec) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn cr_is_a_step_function_of_precision() {
        // Lower p -> smaller stream, strictly monotone over coarse steps.
        let dims = Dims::d2(64, 64);
        let data = grf::gaussian_field(dims, 41, 3, 3);
        let mut last = usize::MAX;
        for p in [28u32, 22, 16, 12] {
            let bytes = FpzipCompressor::new(p).compress(&data, dims).unwrap();
            assert!(bytes.len() < last, "p={p}");
            last = bytes.len();
        }
    }

    #[test]
    fn smooth_field_compresses_well() {
        let dims = Dims::d2(128, 128);
        let data: Vec<f32> = grf::gaussian_field(dims, 42, 4, 3)
            .into_iter()
            .map(|v| v + 10.0) // keep positive, large exponent runs
            .collect();
        let bytes = check_rel(&data, dims, 16);
        let cr = (data.len() * 4) as f64 / bytes.len() as f64;
        assert!(cr > 3.0, "cr = {cr}");
    }

    #[test]
    fn invalid_args_rejected() {
        let data = [1.0f32; 4];
        assert!(FpzipCompressor::new(5)
            .compress(&data, Dims::d1(4))
            .is_err());
        assert!(FpzipCompressor::new(40)
            .compress(&data, Dims::d1(4))
            .is_err());
        assert!(FpzipCompressor::new(16)
            .compress(&data, Dims::d1(3))
            .is_err());
    }

    #[test]
    fn corrupt_stream_rejected() {
        let data = [1.0f32; 64];
        let bytes = FpzipCompressor::new(16)
            .compress(&data, Dims::d1(64))
            .unwrap();
        assert!(decompress::<f32>(&bytes[..bytes.len() / 2]).is_err());
        assert!(decompress::<f64>(&bytes).is_err());
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(decompress::<f32>(&bad).is_err());
    }

    #[test]
    fn ordered_map_is_monotone() {
        let vals = [-1e30f32, -2.5, -1e-10, -0.0, 0.0, 1e-10, 2.5, 1e30];
        let mapped: Vec<u64> = vals
            .iter()
            .map(|v| ordered_from_bits::<f32>(v.to_bits_u64()))
            .collect();
        for w in mapped.windows(2) {
            assert!(w[0] <= w[1]);
        }
        for &v in &vals {
            let o = ordered_from_bits::<f32>(v.to_bits_u64());
            assert_eq!(bits_from_ordered::<f32>(o), v.to_bits_u64());
        }
    }
}
