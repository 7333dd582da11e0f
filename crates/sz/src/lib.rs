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
//! * [`AbsErrorCodec::compress_abs`] — absolute error bound (the mode the
//!   log-transform scheme targets, "SZ_T" when wrapped),
//! * [`SzCompressor::compress_pwr`] — the *blockwise* point-wise-relative
//!   mode of SZ 1.4 ("SZ_PWR"): the data is split into blocks and each block
//!   is compressed with an absolute bound derived from the smallest
//!   magnitude in the block. This is the baseline whose compression-ratio
//!   collapse on spiky data motivates the paper.
//!
//! Each stage is one function: the Lorenzo sweep and
//! [`pwrel_kernels::predict::QuantKernel`] in `pwrel-kernels`, and
//! `huffman::{encode_symbols, decode_symbols}` and
//! `lz::{compress, decompress}` in `pwrel-lossless`. With one
//! implementation apiece there is nothing for a stage trait to choose
//! between, so the engine calls them directly.

mod engine;
mod format;
mod pwr_spatial;
mod unpred;

pub use engine::{quantization_codes, EbSpec, DEFAULT_CAPACITY};
pub use format::{SzMode, SzStream};

use pwrel_data::{AbsErrorCodec, CodecError, Dims, Float};
use pwrel_kernels::{FusedOutput, LogFusedCodec, LogPlan};
use pwrel_trace::{noop, Recorder};

/// Configuration + entry points for the SZ-like codec.
///
/// ```
/// use pwrel_sz::SzCompressor;
/// use pwrel_data::{AbsErrorCodec, Dims};
/// use pwrel_trace::noop;
///
/// let data: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.01).sin()).collect();
/// let sz = SzCompressor::default();
/// let stream = sz.compress_abs(&data, Dims::d1(4096), 1e-3, noop()).unwrap();
/// let (back, _) = sz.decompress::<f32>(&stream, noop()).unwrap();
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
}

impl Default for SzCompressor {
    fn default() -> Self {
        Self {
            capacity: DEFAULT_CAPACITY,
            lossless_pass: true,
            pwr_block_len: 256,
        }
    }
}

impl SzCompressor {
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

    /// Validates the configuration and an absolute-bound request.
    fn check_abs<F: Float>(&self, data: &[F], dims: Dims, bound: f64) -> Result<(), CodecError> {
        self.check_config()?;
        if !(bound > 0.0) || !bound.is_finite() {
            return Err(CodecError::InvalidArgument("bound must be finite and > 0"));
        }
        if data.len() != dims.len() {
            return Err(CodecError::InvalidArgument("data length != dims"));
        }
        Ok(())
    }

    /// Decompresses any SZ stream (any mode), recording the LZ unwrap,
    /// Huffman decode and reconstruction sweep on `rec`.
    pub fn decompress<F: Float>(
        &self,
        bytes: &[u8],
        rec: &dyn Recorder,
    ) -> Result<(Vec<F>, Dims), CodecError> {
        engine::decompress(bytes, rec)
    }
}

impl<F: Float> AbsErrorCodec<F> for SzCompressor {
    /// The paper's SZ 1.4 pipeline under one absolute bound.
    fn compress_abs(
        &self,
        data: &[F],
        dims: Dims,
        bound: f64,
        rec: &dyn Recorder,
    ) -> Result<Vec<u8>, CodecError> {
        self.check_abs(data, dims, bound)?;
        engine::compress(data, dims, EbSpec::Abs(bound), self, rec)
    }

    fn decompress_abs(
        &self,
        bytes: &[u8],
        rec: &dyn Recorder,
    ) -> Result<(Vec<F>, Dims), CodecError> {
        self.decompress(bytes, rec)
    }
}

impl<F: Float> LogFusedCodec<F> for SzCompressor {
    /// Single streaming pass: log transform, Lorenzo prediction, and
    /// quantization fused per [`pwrel_kernels::CHUNK`]-sized window, sign
    /// bitmap collected in the same sweep.
    fn compress_fused(
        &self,
        data: &[F],
        dims: Dims,
        plan: &LogPlan,
        rec: &dyn Recorder,
    ) -> Result<FusedOutput, CodecError> {
        self.check_abs(data, dims, plan.abs_bound)?;
        let (stream, signs) = engine::compress_fused(data, dims, plan, self, rec)?;
        Ok(FusedOutput { stream, signs })
    }
}
