//! The SZ pipeline expressed as composable stages.
//!
//! SZ's monolithic loop is really four stages — Lorenzo prediction,
//! linear-scaling quantization, Huffman coding, and the optional LZ
//! pass — and this module names each one as a concrete type implementing
//! the `pwrel-data` stage traits. The engine dispatches them statically,
//! so the stage boundary costs nothing at runtime; what it buys is that
//! hybrid pipelines (regression predictor, alternative entropy coders)
//! swap one stage instead of forking the loop.

use crate::lorenzo;
use pwrel_core::cast;
use pwrel_data::{CodecError, Dims, Encoder, Float, LosslessStage, Predictor, Quantizer};
use pwrel_lossless::{huffman, lz};

/// The 1/3/7-neighbour Lorenzo predictor (paper Sec. IV-A).
#[derive(Debug, Clone, Copy, Default)]
pub struct LorenzoPredictor;

impl<F: Float> Predictor<F> for LorenzoPredictor {
    fn name(&self) -> &'static str {
        "lorenzo"
    }

    #[inline]
    fn predict(&self, dec: &[F], dims: Dims, i: usize, j: usize, k: usize) -> f64 {
        lorenzo::predict(dec, dims, i, j, k)
    }
}

/// SZ 1.4's linear-scaling quantizer: residuals bin into `capacity`
/// intervals of width `2·eb` centred on the radius, code 0 escapes to the
/// unpredictable store.
#[derive(Debug, Clone, Copy)]
pub struct LinearQuantizer {
    /// Quantization interval count (even, ≥ 4).
    pub capacity: u32,
}

impl LinearQuantizer {
    #[inline]
    fn radius(&self) -> i64 {
        i64::from(self.capacity / 2)
    }
}

impl<F: Float> Quantizer<F> for LinearQuantizer {
    fn name(&self) -> &'static str {
        "linear"
    }

    fn alphabet(&self) -> usize {
        cast::usize_from_u32(self.capacity)
    }

    #[inline]
    fn quantize(&self, x: F, pred: f64, eb: f64) -> Option<(u32, F)> {
        // The arithmetic lives in `pwrel-kernels` so the sweep sinks and
        // this trait impl share one implementation and cannot drift.
        pwrel_kernels::predict::QuantKernel::new(self.capacity).quantize(x, pred, eb)
    }

    #[inline]
    fn reconstruct(&self, code: u32, pred: f64, eb: f64) -> Result<F, CodecError> {
        if code >= self.capacity {
            return Err(CodecError::Corrupt("quantization code out of range"));
        }
        let q = i64::from(code) - self.radius();
        Ok(F::from_f64(pred + 2.0 * eb * cast::f64_from_quant(q)))
    }
}

/// Canonical Huffman coding of the quantization codes.
#[derive(Debug, Clone, Copy, Default)]
pub struct HuffmanStage;

impl Encoder for HuffmanStage {
    fn name(&self) -> &'static str {
        "huffman"
    }

    fn encode(&self, codes: &[u32], alphabet: usize) -> Vec<u8> {
        huffman::encode_symbols(codes, alphabet)
    }

    fn decode(&self, bytes: &[u8], pos: &mut usize) -> Result<Vec<u32>, CodecError> {
        Ok(huffman::decode_symbols(bytes, pos)?)
    }
}

/// The optional byte-level LZ pass (SZ's gzip stage stand-in).
#[derive(Debug, Clone, Copy, Default)]
pub struct LzStage;

impl LosslessStage for LzStage {
    fn name(&self) -> &'static str {
        "lz"
    }

    fn compress(&self, bytes: &[u8]) -> Vec<u8> {
        lz::compress(bytes)
    }

    fn decompress(&self, bytes: &[u8]) -> Result<Vec<u8>, CodecError> {
        Ok(lz::decompress(bytes)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantizer_round_trips_through_reconstruct() {
        let q = LinearQuantizer { capacity: 1024 };
        let (code, val) = Quantizer::<f32>::quantize(&q, 3.07f32, 3.0, 0.05).unwrap();
        let back: f32 = q.reconstruct(code, 3.0, 0.05).unwrap();
        assert_eq!(val, back);
        assert!((back - 3.07).abs() <= 0.05);
    }

    #[test]
    fn quantizer_escapes_nonfinite_and_out_of_radius() {
        let q = LinearQuantizer { capacity: 8 };
        assert!(Quantizer::<f32>::quantize(&q, f32::NAN, 0.0, 0.1).is_none());
        assert!(Quantizer::<f32>::quantize(&q, 1e9f32, 0.0, 0.1).is_none());
    }

    #[test]
    fn reconstruct_rejects_out_of_alphabet_codes() {
        let q = LinearQuantizer { capacity: 8 };
        assert!(Quantizer::<f32>::reconstruct(&q, 8, 0.0, 0.1).is_err());
        assert!(Quantizer::<f32>::reconstruct(&q, 7, 0.0, 0.1).is_ok());
    }

    #[test]
    fn encoder_and_lossless_stages_round_trip() {
        let codes: Vec<u32> = (0..500).map(|i| i % 7).collect();
        let buf = HuffmanStage.encode(&codes, 16);
        let mut pos = 0;
        assert_eq!(HuffmanStage.decode(&buf, &mut pos).unwrap(), codes);

        let bytes: Vec<u8> = (0..400).map(|i| (i % 9) as u8).collect();
        let packed = LzStage.compress(&bytes);
        assert_eq!(LzStage.decompress(&packed).unwrap(), bytes);
    }
}
