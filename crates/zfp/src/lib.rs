#![forbid(unsafe_code)]
#![warn(missing_docs)]
// `!(x > 0.0)` deliberately treats NaN as invalid; clippy prefers
// partial_cmp, which would hide that intent.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

//! ZFP-like transform-based error-bounded lossy compressor.
//!
//! Re-implements the ZFP 0.5 design the paper analyses (Sec. IV-B):
//!
//! 1. the dataset is partitioned into 4^d **blocks** (edge blocks are padded
//!    by replicating boundary samples),
//! 2. each block is aligned to a common exponent and converted to
//!    **fixed-point** integers (block-floating-point),
//! 3. an integer **decorrelating lifting transform** (ZFP's exact lifting
//!    steps; near-lossless — its truncating shifts stay far below any
//!    requested tolerance thanks to the fixed-point headroom) is applied
//!    along each dimension,
//! 4. coefficients are reordered by total sequency, mapped to **negabinary**
//!    and coded bit-plane by bit-plane with ZFP's group-testing **embedded
//!    coder**, most significant plane first.
//!
//! Two modes, matching the paper's ZFP_T and ZFP_P baselines:
//!
//! * [`ZfpCompressor::compress_accuracy`] — fixed accuracy (absolute error
//!   bound). Like ZFP, the plane cutoff is chosen *conservatively*
//!   (`maxprec = emax - emin + 2(d+1)`), so the observed error is typically
//!   far below the bound — the "over-preservation" the paper reports for
//!   ZFP_T's compression ratios.
//! * [`ZfpCompressor::compress_precision`] — fixed precision (the `-p` mode
//!   used as a pseudo relative-error bound). Blocks mixing magnitudes can
//!   violate any point-wise relative bound, reproducing ZFP_P's huge max
//!   errors in Table IV.

pub mod analysis;
pub(crate) mod blocks;
mod codec;
pub mod lift;
pub mod nb;

pub use codec::{precision_for_rel_bound, BlockSamples};
pub use lift::Lift;
pub use nb::GroupTestCoder;

use pwrel_data::{AbsErrorCodec, CodecError, Dims, Float};
use pwrel_kernels::{FusedOutput, LogFusedCodec, LogPlan};
use pwrel_trace::{noop, Recorder};

/// Configuration + entry points for the ZFP-like codec.
///
/// ```
/// use pwrel_zfp::ZfpCompressor;
/// use pwrel_data::Dims;
///
/// let dims = Dims::d2(32, 32);
/// let data: Vec<f32> = (0..dims.len()).map(|i| (i as f32 * 0.02).cos()).collect();
/// let zfp = ZfpCompressor;
/// let stream = zfp.compress_accuracy(&data, dims, 1e-4).unwrap();
/// let (back, _) = zfp.decompress::<f32>(&stream).unwrap();
/// for (a, b) in data.iter().zip(&back) {
///     assert!((a - b).abs() <= 1e-4);
/// }
/// ```
#[derive(Debug, Clone, Default)]
pub struct ZfpCompressor;

impl ZfpCompressor {
    /// Fixed-accuracy compression: target `|x - x'| <= tolerance`.
    pub fn compress_accuracy<F: Float>(
        &self,
        data: &[F],
        dims: Dims,
        tolerance: f64,
    ) -> Result<Vec<u8>, CodecError> {
        if !(tolerance > 0.0) || !tolerance.is_finite() {
            return Err(CodecError::InvalidArgument(
                "tolerance must be finite and > 0",
            ));
        }
        if data.len() != dims.len() {
            return Err(CodecError::InvalidArgument("data length != dims"));
        }
        codec::compress(data, dims, codec::Mode::Accuracy(tolerance), noop())
    }

    /// Fixed-precision compression: keep `precision` bit planes per block
    /// (ZFP's `-p` flag; 1 ..= F::BITS+2).
    pub fn compress_precision<F: Float>(
        &self,
        data: &[F],
        dims: Dims,
        precision: u32,
    ) -> Result<Vec<u8>, CodecError> {
        if precision == 0 || precision > F::BITS + 2 {
            return Err(CodecError::InvalidArgument("precision out of range"));
        }
        if data.len() != dims.len() {
            return Err(CodecError::InvalidArgument("data length != dims"));
        }
        codec::compress(data, dims, codec::Mode::Precision(precision), noop())
    }

    /// [`ZfpCompressor::compress_precision`] with per-stage recording
    /// (lift and plane-coder aggregates). Emits the same bytes.
    pub fn compress_precision_traced<F: Float>(
        &self,
        data: &[F],
        dims: Dims,
        precision: u32,
        rec: &dyn Recorder,
    ) -> Result<Vec<u8>, CodecError> {
        if precision == 0 || precision > F::BITS + 2 {
            return Err(CodecError::InvalidArgument("precision out of range"));
        }
        if data.len() != dims.len() {
            return Err(CodecError::InvalidArgument("data length != dims"));
        }
        codec::compress(data, dims, codec::Mode::Precision(precision), rec)
    }

    /// Fixed-rate compression: every 4^d block spends exactly
    /// `rate` bits per value (1 ..= F::BITS+2), giving constant-size,
    /// randomly-accessible blocks — ZFP's original mode. Error is not
    /// bounded; it is whatever the budget buys. Rejects non-finite input.
    pub fn compress_rate<F: Float>(
        &self,
        data: &[F],
        dims: Dims,
        rate: u32,
    ) -> Result<Vec<u8>, CodecError> {
        if rate == 0 || rate > F::BITS + 2 {
            return Err(CodecError::InvalidArgument("rate out of range"));
        }
        if data.len() != dims.len() {
            return Err(CodecError::InvalidArgument("data length != dims"));
        }
        codec::compress(data, dims, codec::Mode::FixedRate(rate), noop())
    }

    /// Decompresses any ZFP stream (any mode).
    pub fn decompress<F: Float>(&self, bytes: &[u8]) -> Result<(Vec<F>, Dims), CodecError> {
        codec::decompress(bytes, noop())
    }

    /// [`ZfpCompressor::decompress`] with per-stage recording (plane-coder
    /// and inverse-lift aggregates).
    pub fn decompress_traced<F: Float>(
        &self,
        bytes: &[u8],
        rec: &dyn Recorder,
    ) -> Result<(Vec<F>, Dims), CodecError> {
        codec::decompress(bytes, rec)
    }

    /// Randomly accesses one 4^d block of a **fixed-rate** stream — the
    /// capability constant-size blocks exist for. Returns the block's
    /// samples in block raster order (padded positions included) and the
    /// in-grid extent along each axis. Errors on non-fixed-rate streams.
    pub fn decompress_block<F: Float>(
        &self,
        bytes: &[u8],
        bx: usize,
        by: usize,
        bz: usize,
    ) -> Result<BlockSamples<F>, CodecError> {
        codec::decompress_block(bytes, bx, by, bz)
    }
}

impl<F: Float> LogFusedCodec<F> for ZfpCompressor {
    /// Fused accuracy-mode compression: each 4^d block is gathered from
    /// the original data and log-mapped on a stack scratch right before
    /// encoding — no intermediate mapped field. The sign bitmap comes
    /// from a dedicated integer sweep in the same call.
    fn compress_fused(
        &self,
        data: &[F],
        dims: Dims,
        plan: &LogPlan,
        rec: &dyn Recorder,
    ) -> Result<FusedOutput, CodecError> {
        if !(plan.abs_bound > 0.0) || !plan.abs_bound.is_finite() {
            return Err(CodecError::InvalidArgument(
                "tolerance must be finite and > 0",
            ));
        }
        if data.len() != dims.len() {
            return Err(CodecError::InvalidArgument("data length != dims"));
        }
        let (stream, signs) =
            codec::compress_fused(data, dims, plan, codec::Mode::Accuracy(plan.abs_bound), rec)?;
        Ok(FusedOutput { stream, signs })
    }
}

impl<F: Float> AbsErrorCodec<F> for ZfpCompressor {
    fn name(&self) -> &'static str {
        "zfp"
    }

    fn compress_abs(&self, data: &[F], dims: Dims, bound: f64) -> Result<Vec<u8>, CodecError> {
        self.compress_accuracy(data, dims, bound)
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
        if !(bound > 0.0) || !bound.is_finite() {
            return Err(CodecError::InvalidArgument(
                "tolerance must be finite and > 0",
            ));
        }
        if data.len() != dims.len() {
            return Err(CodecError::InvalidArgument("data length != dims"));
        }
        codec::compress(data, dims, codec::Mode::Accuracy(bound), rec)
    }

    fn decompress_abs_traced(
        &self,
        bytes: &[u8],
        rec: &dyn Recorder,
    ) -> Result<(Vec<F>, Dims), CodecError> {
        codec::decompress(bytes, rec)
    }
}
