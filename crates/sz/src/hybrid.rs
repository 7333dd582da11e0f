//! Hybrid Lorenzo/regression compression pass (SZ 2-style extension).
//!
//! Traversal is block-by-block (6^d blocks in raster order, points in
//! raster order within each block) on both sides. Regression blocks
//! predict from their stored `LinearModel`; Lorenzo blocks predict from
//! the global decompressed buffer, so cross-block stencils see already
//! reconstructed neighbours.

use crate::format::{SzMode, SzStream};
use crate::regression::{self, LinearModel};
use crate::{unpred, SzCompressor};
use pwrel_bitstream::{BitReader, BitWriter};
use pwrel_data::{CodecError, Dims, Float};
use pwrel_kernels::predict::predict_point;
use pwrel_lossless::huffman;
use pwrel_trace::noop;

/// Reads selector bit `i` (LSB-first within bytes).
// audit:allow-fn(L1): `deserialize` rejects streams whose selector bitmap
// is shorter than div_ceil(n_blocks, 8) and whose n_blocks differs from
// `block_count(dims)`; both callers pass i < n_blocks.
#[inline]
fn selector(selectors: &[u8], i: usize) -> bool {
    (selectors[i / 8] >> (i % 8)) & 1 == 1
}

/// Compresses with the hybrid predictor under an absolute bound.
pub(crate) fn compress<F: Float>(
    data: &[F],
    dims: Dims,
    eb: f64,
    cfg: &SzCompressor,
) -> Result<Vec<u8>, CodecError> {
    let capacity = cfg.capacity;
    let radius = (capacity / 2) as i64;
    let blist = regression::blocks(dims);

    // Stage 0: fit models and select the better predictor per block.
    // The comparison is in estimated *bits*, not raw residuals: a
    // regression block pays 128 bits for its model, and a residual of
    // mean magnitude m costs roughly `log2(1 + m/2eb) + 1` bits per point
    // after quantization + entropy coding.
    let est_bits = |sae: f64, n_pts: usize| -> f64 {
        let mean = sae / n_pts.max(1) as f64;
        n_pts as f64 * ((1.0 + mean / (2.0 * eb)).log2() + 1.0)
    };
    let mut selectors = vec![0u8; blist.len().div_ceil(8)];
    let mut models: Vec<LinearModel> = Vec::new();
    let mut model_bytes: Vec<u8> = Vec::new();
    for (bi, b) in blist.iter().enumerate() {
        let n_pts = b.extent.0 * b.extent.1 * b.extent.2;
        let model = regression::fit(data, dims, b);
        let reg_sae = regression::regression_sae(data, dims, b, &model);
        let lor_sae = regression::lorenzo_sae(data, dims, b);
        let reg_cost = est_bits(reg_sae, n_pts) + (LinearModel::NBYTES * 8) as f64;
        let lor_cost = est_bits(lor_sae, n_pts);
        if reg_cost < lor_cost {
            selectors[bi / 8] |= 1 << (bi % 8);
            model.write(&mut model_bytes);
            models.push(model);
        }
    }

    // Stage 1: predict + quantize in block order.
    let n = data.len();
    let mut codes: Vec<u32> = Vec::with_capacity(n);
    let mut unpred_w = BitWriter::new();
    let mut n_unpred = 0u64;
    let mut dec: Vec<F> = vec![F::zero(); n];
    let mut model_iter = models.iter();

    for (bi, b) in blist.iter().enumerate() {
        let is_reg = selector(&selectors, bi);
        let model = if is_reg { model_iter.next() } else { None };
        let (ox, oy, oz) = b.origin;
        let (ex, ey, ez) = b.extent;
        for dk in 0..ez {
            for dj in 0..ey {
                for di in 0..ex {
                    let (i, j, k) = (ox + di, oy + dj, oz + dk);
                    let idx = dims.index(i, j, k);
                    let x = data[idx];
                    let mut done = false;
                    if x.is_finite() {
                        let pred = match model {
                            Some(m) => m.predict(di, dj, dk),
                            None => predict_point(&dec, dims, i, j, k),
                        };
                        let qf = ((x.to_f64() - pred) / (2.0 * eb)).round();
                        if qf.is_finite() && qf.abs() < radius as f64 {
                            let q = qf as i64;
                            let val = F::from_f64(pred + 2.0 * eb * q as f64);
                            if val.is_finite() && (val.to_f64() - x.to_f64()).abs() <= eb {
                                codes.push((radius + q) as u32);
                                dec[idx] = val;
                                done = true;
                            }
                        }
                    }
                    if !done {
                        codes.push(0);
                        dec[idx] = unpred::write(&mut unpred_w, x, eb);
                        n_unpred += 1;
                    }
                }
            }
        }
    }

    let stream = SzStream {
        float_bits: F::BITS as u8,
        dims,
        capacity,
        mode: SzMode::AbsHybrid {
            eb,
            selectors,
            n_blocks: blist.len() as u64,
            model_bytes,
        },
        codes_buf: huffman::encode_symbols(&codes, capacity as usize),
        n_unpred,
        unpred_bytes: unpred_w.into_bytes(),
    };
    Ok(stream.serialize(cfg.lossless_pass, noop()))
}

/// Decompresses an `AbsHybrid` stream (called from the main decoder after
/// the container is parsed).
// audit:allow-fn(L1,L5): in-range by construction — `codes.len() == n` is
// checked, `dec` holds n elements and `dims.index` stays below n, and
// `model_pos` only advances by NBYTES after `LinearModel::read` proved the
// slice held that many bytes (so the range slice never starts past the end).
// The taint lint sees `idx` derive from header `dims`; the L1 invariant
// above is exactly the missing bound (`dec` is sized from the same dims).
pub(crate) fn decompress<F: Float>(stream: &SzStream) -> Result<(Vec<F>, Dims), CodecError> {
    let (eb, selectors, model_bytes) = match &stream.mode {
        SzMode::AbsHybrid {
            eb,
            selectors,
            model_bytes,
            ..
        } => (*eb, selectors, model_bytes),
        _ => return Err(CodecError::Corrupt("not a hybrid stream")),
    };
    let dims = stream.dims;
    let n = dims.len();
    let radius = (stream.capacity / 2) as i64;
    let blist = regression::blocks(dims);

    let mut pos = 0usize;
    let codes = huffman::decode_symbols(&stream.codes_buf, &mut pos)?;
    if codes.len() != n {
        return Err(CodecError::Corrupt("code count != point count"));
    }

    let mut unpred_r = BitReader::new(&stream.unpred_bytes);
    let mut dec: Vec<F> = vec![F::zero(); n];
    let mut model_pos = 0usize;
    let mut code_idx = 0usize;

    for (bi, b) in blist.iter().enumerate() {
        let model = if selector(selectors, bi) {
            let m = LinearModel::read(&model_bytes[model_pos..])
                .ok_or(CodecError::Corrupt("truncated regression model"))?;
            model_pos += LinearModel::NBYTES;
            Some(m)
        } else {
            None
        };
        let (ox, oy, oz) = b.origin;
        let (ex, ey, ez) = b.extent;
        for dk in 0..ez {
            for dj in 0..ey {
                for di in 0..ex {
                    let (i, j, k) = (ox + di, oy + dj, oz + dk);
                    let idx = dims.index(i, j, k);
                    let code = codes[code_idx];
                    code_idx += 1;
                    let val = if code == 0 {
                        unpred::read::<F>(&mut unpred_r, eb)?
                    } else {
                        if code as i64 >= stream.capacity as i64 {
                            return Err(CodecError::Corrupt("code out of range"));
                        }
                        let q = code as i64 - radius;
                        let pred = match &model {
                            Some(m) => m.predict(di, dj, dk),
                            None => predict_point(&dec, dims, i, j, k),
                        };
                        F::from_f64(pred + 2.0 * eb * q as f64)
                    };
                    dec[idx] = val;
                }
            }
        }
    }
    Ok((dec, dims))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwrel_data::{grf, AbsErrorCodec};

    fn cfg() -> SzCompressor {
        SzCompressor::default()
    }

    fn check<F: Float>(data: &[F], dims: Dims, eb: f64) -> Vec<u8> {
        let bytes = cfg().compress_abs_hybrid(data, dims, eb).unwrap();
        let (dec, d2) = cfg().decompress::<F>(&bytes, noop()).unwrap();
        assert_eq!(d2, dims);
        for (idx, (&a, &b)) in data.iter().zip(&dec).enumerate() {
            let err = (a.to_f64() - b.to_f64()).abs();
            assert!(err <= eb, "idx {idx}: {a} vs {b} ({err} > {eb})");
        }
        bytes
    }

    #[test]
    fn hybrid_bound_holds_1d_2d_3d() {
        check(
            &(0..5000)
                .map(|i| (i as f32 * 0.02).sin() * 9.0)
                .collect::<Vec<_>>(),
            Dims::d1(5000),
            1e-3,
        );
        let d2 = Dims::d2(50, 70);
        check(&grf::gaussian_field(d2, 8, 3, 2), d2, 1e-3);
        let d3 = Dims::d3(13, 14, 15);
        check(&grf::gaussian_field(d3, 9, 1, 2), d3, 1e-4);
    }

    #[test]
    fn regression_wins_on_noisy_gradients_at_loose_bounds() {
        // 3D Lorenzo sums 7 noisy neighbours, amplifying per-point noise by
        // ~sqrt(8); the regression plane sees only the point's own noise.
        // At a bound comparable to the noise scale this costs Lorenzo ~1.5
        // extra bits/point — far more than the 128-bit model per 216-point
        // block.
        let dims = Dims::d3(24, 24, 24);
        let noise = grf::white_noise(dims.len(), 10);
        let data: Vec<f32> = (0..dims.len())
            .map(|i| {
                let (x, y) = (i % 24, (i / 24) % 24);
                let z = i / (24 * 24);
                3.0 * x as f32 - 2.0 * y as f32 + 1.0 * z as f32 + noise[i]
            })
            .collect();
        let eb = 0.5;
        let hybrid = cfg().compress_abs_hybrid(&data, dims, eb).unwrap();
        let plain = cfg().compress_abs(&data, dims, eb, noop()).unwrap();
        let (dec, _) = cfg().decompress::<f32>(&hybrid, noop()).unwrap();
        for (&a, &b) in data.iter().zip(&dec) {
            assert!((a as f64 - b as f64).abs() <= eb);
        }
        assert!(
            (hybrid.len() as f64) < plain.len() as f64 * 0.9,
            "hybrid {} vs lorenzo {}",
            hybrid.len(),
            plain.len()
        );
    }

    #[test]
    fn lorenzo_still_used_on_textured_fields() {
        // Smooth-but-curvy data favours Lorenzo; hybrid must not regress
        // badly (selection keeps the better predictor).
        let dims = Dims::d2(96, 96);
        let data = grf::gaussian_field(dims, 11, 2, 3);
        let eb = 1e-3;
        let hybrid = cfg().compress_abs_hybrid(&data, dims, eb).unwrap();
        let plain = cfg().compress_abs(&data, dims, eb, noop()).unwrap();
        assert!(
            (hybrid.len() as f64) < plain.len() as f64 * 1.15,
            "hybrid {} vs lorenzo {}",
            hybrid.len(),
            plain.len()
        );
    }

    #[test]
    fn nonfinite_and_empty() {
        let dims = Dims::d1(8);
        let data = vec![1.0f32, f32::NAN, 2.0, -3.0, f32::INFINITY, 0.0, 7.0, 8.0];
        let bytes = cfg().compress_abs_hybrid(&data, dims, 0.1).unwrap();
        let (dec, _) = cfg().decompress::<f32>(&bytes, noop()).unwrap();
        assert!(dec[1].is_nan());
        assert_eq!(dec[4], f32::INFINITY);
        let empty = cfg()
            .compress_abs_hybrid::<f32>(&[], Dims::d1(0), 0.1)
            .unwrap();
        let (dec, _) = cfg().decompress::<f32>(&empty, noop()).unwrap();
        assert!(dec.is_empty());
    }

    #[test]
    fn f64_hybrid_path() {
        let dims = Dims::d3(7, 9, 11);
        let data: Vec<f64> = (0..dims.len())
            .map(|i| i as f64 * 0.5 - 100.0 + ((i % 13) as f64).sin())
            .collect();
        check(&data, dims, 1e-2);
    }

    #[test]
    fn compress_abs_honours_the_hybrid_predictor() {
        // Production selects the hybrid coder through the config flag, so
        // a hybrid config's `compress_abs` must emit the hybrid stream.
        let dims = Dims::d2(48, 40);
        let data = grf::gaussian_field(dims, 12, 3, 2);
        let sz = SzCompressor {
            hybrid_predictor: true,
            ..cfg()
        };
        let via_flag = sz.compress_abs(&data, dims, 1e-3, noop()).unwrap();
        let hybrid = cfg().compress_abs_hybrid(&data, dims, 1e-3).unwrap();
        assert_eq!(via_flag, hybrid);
        assert_ne!(
            via_flag,
            cfg().compress_abs(&data, dims, 1e-3, noop()).unwrap()
        );
    }
}
