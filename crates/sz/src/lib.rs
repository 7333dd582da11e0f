#![forbid(unsafe_code)]
#![warn(missing_docs)]
// `!(x > 0.0)` deliberately treats NaN as invalid; clippy prefers
// partial_cmp, which would hide that intent.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

//! SZ-like prediction-based error-bounded lossy compressor.
//!
//! Re-implements the SZ 1.4 pipeline the paper builds on (Sec. IV-A):
//!
//! 1. **Prediction** — the Lorenzo predictor over 1/3/7 previously
//!    *decompressed* neighbours for 1D/2D/3D data (using decompressed values
//!    prevents error propagation at decompression time),
//! 2. **Linear-scaling quantization** — the prediction error is mapped to an
//!    integer code `q = round(err / 2eb)`; points whose reconstruction would
//!    exceed the bound are stored verbatim ("unpredictable"),
//! 3. **Entropy coding** — a custom canonical Huffman coder over the
//!    quantization codes, followed by an optional LZ (gzip-like) pass.
//!
//! Two modes:
//!
//! * [`SzCompressor::compress_abs`] — absolute error bound (the mode the
//!   log-transform scheme targets, "SZ_T" when wrapped),
//! * [`SzCompressor::compress_pwr`] — the *blockwise* point-wise-relative
//!   mode of SZ 1.4 ("SZ_PWR"): the data is split into blocks and each block
//!   is compressed with an absolute bound derived from the smallest
//!   magnitude in the block. This is the baseline whose compression-ratio
//!   collapse on spiky data motivates the paper.

pub mod adaptive;
mod engine;
mod format;
mod hybrid;
mod lorenzo;
mod pwr_spatial;
pub mod regression;
pub mod stages;
mod unpred;

pub use adaptive::estimate_capacity;
pub use engine::{quantization_codes, EbSpec, DEFAULT_CAPACITY};
pub use format::{SzMode, SzStream};
pub use stages::{HuffmanStage, LinearQuantizer, LorenzoPredictor, LzStage};

use pwrel_data::{AbsErrorCodec, CodecError, Dims, Float};
use pwrel_kernels::{FusedOutput, LogFusedCodec, LogPlan};
use pwrel_trace::{noop, stage, Recorder, Span, StageTimer};

/// Configuration + entry points for the SZ-like codec.
///
/// ```
/// use pwrel_sz::SzCompressor;
/// use pwrel_data::Dims;
///
/// let data: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.01).sin()).collect();
/// let sz = SzCompressor::default();
/// let stream = sz.compress_abs(&data, Dims::d1(4096), 1e-3).unwrap();
/// let (back, _) = sz.decompress::<f32>(&stream).unwrap();
/// for (a, b) in data.iter().zip(&back) {
///     assert!((a - b).abs() <= 1e-3);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct SzCompressor {
    /// Number of quantization intervals (SZ's `quantization_intervals`).
    /// Must be an even number ≥ 4. Default 65536.
    pub capacity: u32,
    /// Apply the LZ lossless pass over the entropy-coded stream (SZ's
    /// optional gzip stage III). Default true.
    pub lossless_pass: bool,
    /// Block length (in points, raster order) for the PWR mode. Default 256.
    pub pwr_block_len: usize,
    /// Use the hybrid Lorenzo/regression predictor for absolute-bound
    /// compression (SZ 2-style extension). Default false (the paper's
    /// SZ 1.4 pipeline).
    pub hybrid_predictor: bool,
}

impl Default for SzCompressor {
    fn default() -> Self {
        Self {
            capacity: DEFAULT_CAPACITY,
            lossless_pass: true,
            pwr_block_len: 256,
            hybrid_predictor: false,
        }
    }
}

impl SzCompressor {
    /// Builds a compressor whose quantization capacity is estimated from a
    /// sample of the data's prediction errors (SZ 1.4's adaptive interval
    /// selection). The bound must be the one later passed to
    /// [`SzCompressor::compress_abs`].
    pub fn adaptive<F: Float>(data: &[F], dims: Dims, bound: f64) -> Self {
        Self {
            capacity: adaptive::estimate_capacity(data, dims, bound, 256, DEFAULT_CAPACITY),
            ..Self::default()
        }
    }

    /// Validates configuration invariants.
    fn check_config(&self) -> Result<(), CodecError> {
        if self.capacity < 4 || !self.capacity.is_multiple_of(2) {
            return Err(CodecError::InvalidArgument(
                "capacity must be even and >= 4",
            ));
        }
        if self.pwr_block_len == 0 {
            return Err(CodecError::InvalidArgument("pwr_block_len must be > 0"));
        }
        Ok(())
    }

    /// Compresses with an absolute error bound: every decompressed value
    /// satisfies `|x - x'| <= bound`. Runs the hybrid predictor when
    /// [`SzCompressor::hybrid_predictor`] is set, exactly as the
    /// [`AbsErrorCodec`] impl does (it is the same body).
    pub fn compress_abs<F: Float>(
        &self,
        data: &[F],
        dims: Dims,
        bound: f64,
    ) -> Result<Vec<u8>, CodecError> {
        AbsErrorCodec::compress_abs_traced(self, data, dims, bound, noop())
    }

    /// Compresses with SZ's blockwise point-wise relative error bound:
    /// every decompressed value satisfies `|x - x'| <= rel_bound * |x|`.
    ///
    /// Mirrors SZ 1.4's PW_REL mode: the absolute bound in each block is
    /// `rel_bound * min|x|` over the block (quantized down to a power of
    /// two so it can be stored in one byte). Blocks containing zeros fall
    /// back to a tiny bound derived from the block's smallest *non-zero*
    /// magnitude, so exact zeros are reconstructed only approximately —
    /// the deficiency the paper notes with `*` in Table IV.
    pub fn compress_pwr<F: Float>(
        &self,
        data: &[F],
        dims: Dims,
        rel_bound: f64,
    ) -> Result<Vec<u8>, CodecError> {
        self.check_config()?;
        if !(rel_bound > 0.0) || !rel_bound.is_finite() {
            return Err(CodecError::InvalidArgument(
                "rel_bound must be finite and > 0",
            ));
        }
        if data.len() != dims.len() {
            return Err(CodecError::InvalidArgument("data length != dims"));
        }
        if dims.rank() >= 2 {
            // Multidimensional data uses true spatial blocks (DRBSD-2);
            // 1D keeps raster runs of `pwr_block_len` points.
            return pwr_spatial::compress(data, dims, rel_bound, self);
        }
        engine::compress(
            data,
            dims,
            EbSpec::BlockRel {
                rel_bound,
                block_len: self.pwr_block_len,
            },
            self,
            noop(),
        )
    }

    /// Compresses with an absolute error bound using the hybrid
    /// Lorenzo/regression predictor (SZ 2-style extension): each 6^d block
    /// picks whichever of the two predictors fits it better. Wins on
    /// fields with strong local gradients; never loses much elsewhere.
    pub fn compress_abs_hybrid<F: Float>(
        &self,
        data: &[F],
        dims: Dims,
        bound: f64,
    ) -> Result<Vec<u8>, CodecError> {
        self.check_config()?;
        if !(bound > 0.0) || !bound.is_finite() {
            return Err(CodecError::InvalidArgument("bound must be finite and > 0"));
        }
        if data.len() != dims.len() {
            return Err(CodecError::InvalidArgument("data length != dims"));
        }
        hybrid::compress(data, dims, bound, self)
    }

    /// Decompresses any SZ stream (any mode).
    pub fn decompress<F: Float>(&self, bytes: &[u8]) -> Result<(Vec<F>, Dims), CodecError> {
        engine::decompress(bytes, noop())
    }

    /// [`SzCompressor::decompress`] with per-stage recording (LZ unwrap,
    /// Huffman decode, reconstruction sweep).
    pub fn decompress_traced<F: Float>(
        &self,
        bytes: &[u8],
        rec: &dyn Recorder,
    ) -> Result<(Vec<F>, Dims), CodecError> {
        engine::decompress(bytes, rec)
    }
}

impl<F: Float> AbsErrorCodec<F> for SzCompressor {
    fn name(&self) -> &'static str {
        "sz"
    }

    fn compress_abs(&self, data: &[F], dims: Dims, bound: f64) -> Result<Vec<u8>, CodecError> {
        self.compress_abs_traced(data, dims, bound, noop())
    }

    fn decompress_abs(&self, bytes: &[u8]) -> Result<(Vec<F>, Dims), CodecError> {
        self.decompress(bytes)
    }

    fn compress_abs_traced(
        &self,
        data: &[F],
        dims: Dims,
        bound: f64,
        rec: &dyn Recorder,
    ) -> Result<Vec<u8>, CodecError> {
        if self.hybrid_predictor {
            // The hybrid coder is block-structured and not internally
            // instrumented; it reports as one encode stage.
            let _enc = Span::enter(rec, stage::ENCODE);
            self.compress_abs_hybrid(data, dims, bound)
        } else {
            self.check_config()?;
            if !(bound > 0.0) || !bound.is_finite() {
                return Err(CodecError::InvalidArgument("bound must be finite and > 0"));
            }
            if data.len() != dims.len() {
                return Err(CodecError::InvalidArgument("data length != dims"));
            }
            engine::compress(data, dims, EbSpec::Abs(bound), self, rec)
        }
    }

    fn decompress_abs_traced(
        &self,
        bytes: &[u8],
        rec: &dyn Recorder,
    ) -> Result<(Vec<F>, Dims), CodecError> {
        self.decompress_traced(bytes, rec)
    }
}

impl<F: Float> LogFusedCodec<F> for SzCompressor {
    /// Single streaming pass: log transform, Lorenzo prediction, and
    /// quantization fused per [`pwrel_kernels::CHUNK`]-sized window, sign
    /// bitmap collected in the same sweep. The hybrid-predictor
    /// configuration has block-structured access that defeats the linear
    /// window, so it maps into a buffer first (still batched) and reuses
    /// the hybrid coder — the stream contract holds either way.
    fn compress_fused(
        &self,
        data: &[F],
        dims: Dims,
        plan: &LogPlan,
        rec: &dyn Recorder,
    ) -> Result<FusedOutput, CodecError> {
        self.check_config()?;
        if !(plan.abs_bound > 0.0) || !plan.abs_bound.is_finite() {
            return Err(CodecError::InvalidArgument("bound must be finite and > 0"));
        }
        if data.len() != dims.len() {
            return Err(CodecError::InvalidArgument("data length != dims"));
        }
        if self.hybrid_predictor {
            let mut mapped: Vec<F> = vec![F::zero(); data.len()];
            let mut scratch = [0f64; pwrel_kernels::CHUNK];
            let mut signs = Vec::with_capacity(if plan.any_negative { data.len() } else { 0 });
            {
                let mut map_timer = StageTimer::new(rec, stage::TRANSFORM);
                for (src, out) in data
                    .chunks(pwrel_kernels::CHUNK)
                    .zip(mapped.chunks_mut(pwrel_kernels::CHUNK))
                {
                    map_timer.time(|| plan.map_chunk(src, out, &mut scratch, &mut signs));
                }
                map_timer.finish();
            }
            let stream = {
                let _enc = Span::enter(rec, stage::ENCODE);
                self.compress_abs_hybrid(&mapped, dims, plan.abs_bound)?
            };
            return Ok(FusedOutput {
                stream,
                signs: plan.any_negative.then_some(signs),
            });
        }
        let (stream, signs) = engine::compress_fused(data, dims, plan, self, rec)?;
        Ok(FusedOutput { stream, signs })
    }
}
