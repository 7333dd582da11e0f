//! Adapters wrapping each workspace compressor in the [`Codec`] trait.
//!
//! Compression for the transform-wrapped codecs is `PwRelCompressor`'s
//! one route, the fused single pass (transform, prediction and
//! quantization in one streaming sweep). Decompression reads everything
//! it needs from the payload itself — the adapters carry no decode-time
//! state.

use crate::codec::{Codec, CompressOpts};
use pwrel_core::{LogBase, PwRelCompressor};
use pwrel_data::{AbsErrorCodec, CodecError, Dims, Float};
use pwrel_fpzip::FpzipCompressor;
use pwrel_isabela::IsabelaCompressor;
use pwrel_sz::SzCompressor;
use pwrel_trace::{noop, stage, Recorder, Span};
use pwrel_zfp::ZfpCompressor;

/// Generates the four monomorphic `Codec` data methods, each a call to
/// the adapter's one generic `compress_impl` / `decompress_impl` pair.
macro_rules! dispatch_elem {
    () => {
        fn compress_f32(
            &self,
            data: &[f32],
            dims: Dims,
            opts: &CompressOpts,
            rec: &dyn Recorder,
        ) -> Result<Vec<u8>, CodecError> {
            self.compress_impl(data, dims, opts, rec)
        }

        fn compress_f64(
            &self,
            data: &[f64],
            dims: Dims,
            opts: &CompressOpts,
            rec: &dyn Recorder,
        ) -> Result<Vec<u8>, CodecError> {
            self.compress_impl(data, dims, opts, rec)
        }

        fn decompress_f32(
            &self,
            payload: &[u8],
            rec: &dyn Recorder,
        ) -> Result<(Vec<f32>, Dims), CodecError> {
            self.decompress_impl(payload, rec)
        }

        fn decompress_f64(
            &self,
            payload: &[u8],
            rec: &dyn Recorder,
        ) -> Result<(Vec<f64>, Dims), CodecError> {
            self.decompress_impl(payload, rec)
        }
    };
}

/// SZ_T: the paper's transform scheme around the SZ-like codec, fused
/// single-pass compression.
#[derive(Debug, Clone, Copy, Default)]
pub struct SzT;

impl SzT {
    fn compress_impl<F: Float>(
        &self,
        data: &[F],
        dims: Dims,
        opts: &CompressOpts,
        rec: &dyn Recorder,
    ) -> Result<Vec<u8>, CodecError> {
        PwRelCompressor::new(SzCompressor::default(), opts.base)
            .compress(data, dims, opts.bound, rec)
    }

    fn decompress_impl<F: Float>(
        &self,
        payload: &[u8],
        rec: &dyn Recorder,
    ) -> Result<(Vec<F>, Dims), CodecError> {
        // The base is read from the payload; the constructor's base is a
        // compile-side default.
        PwRelCompressor::new(SzCompressor::default(), LogBase::Two).decompress(payload, rec)
    }
}

impl Codec for SzT {
    fn id(&self) -> u8 {
        1
    }

    fn name(&self) -> &'static str {
        "sz_t"
    }

    fn describe(&self) -> &'static str {
        "log transform + SZ (the paper's SZ_T)"
    }

    fn stages(&self) -> &'static [&'static str] {
        &[
            stage::TRANSFORM,
            stage::PREDICT_QUANTIZE,
            stage::HUFFMAN,
            stage::LZ,
            stage::SIGNS,
        ]
    }

    fn entropy_mode(&self) -> u8 {
        crate::container::ENTROPY_MODE_INTERLEAVED
    }

    dispatch_elem!();
}

/// ZFP_T: the transform scheme around the ZFP-like codec.
#[derive(Debug, Clone, Copy, Default)]
pub struct ZfpT;

impl ZfpT {
    fn compress_impl<F: Float>(
        &self,
        data: &[F],
        dims: Dims,
        opts: &CompressOpts,
        rec: &dyn Recorder,
    ) -> Result<Vec<u8>, CodecError> {
        PwRelCompressor::new(ZfpCompressor, opts.base).compress(data, dims, opts.bound, rec)
    }

    fn decompress_impl<F: Float>(
        &self,
        payload: &[u8],
        rec: &dyn Recorder,
    ) -> Result<(Vec<F>, Dims), CodecError> {
        PwRelCompressor::new(ZfpCompressor, LogBase::Two).decompress(payload, rec)
    }
}

impl Codec for ZfpT {
    fn id(&self) -> u8 {
        3
    }

    fn name(&self) -> &'static str {
        "zfp_t"
    }

    fn describe(&self) -> &'static str {
        "log transform + ZFP fixed-accuracy (the paper's ZFP_T)"
    }

    fn stages(&self) -> &'static [&'static str] {
        &[
            stage::TRANSFORM,
            stage::LIFT,
            stage::PLANE_CODE,
            stage::SIGNS,
        ]
    }

    // Align framed chunks with ZFP's 4^d blocks so interior chunks pay
    // no edge-padding overhead.
    fn chunk_granularity(&self) -> usize {
        4
    }

    dispatch_elem!();
}

/// Bare SZ with an absolute bound (`opts.bound` is absolute, not
/// relative).
#[derive(Debug, Clone, Copy, Default)]
pub struct SzAbs;

impl SzAbs {
    fn compress_impl<F: Float>(
        &self,
        data: &[F],
        dims: Dims,
        opts: &CompressOpts,
        rec: &dyn Recorder,
    ) -> Result<Vec<u8>, CodecError> {
        SzCompressor::default().compress_abs(data, dims, opts.bound, rec)
    }

    fn decompress_impl<F: Float>(
        &self,
        payload: &[u8],
        rec: &dyn Recorder,
    ) -> Result<(Vec<F>, Dims), CodecError> {
        SzCompressor::default().decompress(payload, rec)
    }
}

impl Codec for SzAbs {
    fn id(&self) -> u8 {
        4
    }

    fn name(&self) -> &'static str {
        "sz_abs"
    }

    fn describe(&self) -> &'static str {
        "SZ with an absolute error bound"
    }

    fn stages(&self) -> &'static [&'static str] {
        &[stage::PREDICT_QUANTIZE, stage::HUFFMAN, stage::LZ]
    }

    fn entropy_mode(&self) -> u8 {
        crate::container::ENTROPY_MODE_INTERLEAVED
    }

    dispatch_elem!();
}

/// SZ 1.4's blockwise point-wise-relative mode (the paper's baseline).
#[derive(Debug, Clone, Copy, Default)]
pub struct SzPwr;

impl SzPwr {
    fn compress_impl<F: Float>(
        &self,
        data: &[F],
        dims: Dims,
        opts: &CompressOpts,
        rec: &dyn Recorder,
    ) -> Result<Vec<u8>, CodecError> {
        // PWR routes per-block through internal engines; not internally
        // instrumented, so it reports as one encode stage.
        let _enc = Span::enter(rec, stage::ENCODE);
        SzCompressor::default().compress_pwr(data, dims, opts.bound)
    }

    fn decompress_impl<F: Float>(
        &self,
        payload: &[u8],
        rec: &dyn Recorder,
    ) -> Result<(Vec<F>, Dims), CodecError> {
        // One encode stage, like the compress side.
        let _enc = Span::enter(rec, stage::ENCODE);
        SzCompressor::default().decompress(payload, noop())
    }
}

impl Codec for SzPwr {
    fn id(&self) -> u8 {
        5
    }

    fn name(&self) -> &'static str {
        "sz_pwr"
    }

    fn describe(&self) -> &'static str {
        "SZ blockwise point-wise-relative mode (SZ_PWR baseline)"
    }

    fn stages(&self) -> &'static [&'static str] {
        &[stage::ENCODE]
    }

    fn entropy_mode(&self) -> u8 {
        crate::container::ENTROPY_MODE_INTERLEAVED
    }

    dispatch_elem!();
}

/// FPZIP at the precision matching the requested relative bound.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fpzip;

impl Fpzip {
    fn compress_impl<F: Float>(
        &self,
        data: &[F],
        dims: Dims,
        opts: &CompressOpts,
        rec: &dyn Recorder,
    ) -> Result<Vec<u8>, CodecError> {
        let _enc = Span::enter(rec, stage::ENCODE);
        FpzipCompressor::for_rel_bound::<F>(opts.bound).compress(data, dims)
    }

    fn decompress_impl<F: Float>(
        &self,
        payload: &[u8],
        rec: &dyn Recorder,
    ) -> Result<(Vec<F>, Dims), CodecError> {
        let _enc = Span::enter(rec, stage::ENCODE);
        pwrel_fpzip::decompress(payload)
    }
}

impl Codec for Fpzip {
    fn id(&self) -> u8 {
        6
    }

    fn name(&self) -> &'static str {
        "fpzip"
    }

    fn describe(&self) -> &'static str {
        "FPZIP truncated-precision predictive coder"
    }

    fn stages(&self) -> &'static [&'static str] {
        &[stage::ENCODE]
    }

    fn entropy_mode(&self) -> u8 {
        crate::container::ENTROPY_MODE_INTERLEAVED
    }

    dispatch_elem!();
}

/// ISABELA B-spline fitting with a point-wise relative bound.
#[derive(Debug, Clone, Copy, Default)]
pub struct Isabela;

impl Isabela {
    fn compress_impl<F: Float>(
        &self,
        data: &[F],
        dims: Dims,
        opts: &CompressOpts,
        rec: &dyn Recorder,
    ) -> Result<Vec<u8>, CodecError> {
        let _enc = Span::enter(rec, stage::ENCODE);
        IsabelaCompressor::default().compress_rel(data, dims, opts.bound)
    }

    fn decompress_impl<F: Float>(
        &self,
        payload: &[u8],
        rec: &dyn Recorder,
    ) -> Result<(Vec<F>, Dims), CodecError> {
        let _enc = Span::enter(rec, stage::ENCODE);
        pwrel_isabela::decompress(payload)
    }
}

impl Codec for Isabela {
    fn id(&self) -> u8 {
        7
    }

    fn name(&self) -> &'static str {
        "isabela"
    }

    fn describe(&self) -> &'static str {
        "ISABELA sort-and-spline compressor"
    }

    fn stages(&self) -> &'static [&'static str] {
        &[stage::ENCODE]
    }

    fn entropy_mode(&self) -> u8 {
        crate::container::ENTROPY_MODE_INTERLEAVED
    }

    dispatch_elem!();
}

/// Bare ZFP at the fixed precision matching the requested relative
/// bound (no point-wise guarantee; kept for the paper's comparisons).
#[derive(Debug, Clone, Copy, Default)]
pub struct ZfpP;

impl ZfpP {
    fn compress_impl<F: Float>(
        &self,
        data: &[F],
        dims: Dims,
        opts: &CompressOpts,
        rec: &dyn Recorder,
    ) -> Result<Vec<u8>, CodecError> {
        ZfpCompressor.compress_precision(
            data,
            dims,
            pwrel_zfp::precision_for_rel_bound::<F>(opts.bound),
            rec,
        )
    }

    fn decompress_impl<F: Float>(
        &self,
        payload: &[u8],
        rec: &dyn Recorder,
    ) -> Result<(Vec<F>, Dims), CodecError> {
        ZfpCompressor.decompress(payload, rec)
    }
}

impl Codec for ZfpP {
    fn id(&self) -> u8 {
        8
    }

    fn name(&self) -> &'static str {
        "zfp_p"
    }

    fn describe(&self) -> &'static str {
        "ZFP fixed-precision mode (ZFP_P comparison point)"
    }

    fn stages(&self) -> &'static [&'static str] {
        &[stage::LIFT, stage::PLANE_CODE]
    }

    // Same 4^d block alignment as `ZfpT`.
    fn chunk_granularity(&self) -> usize {
        4
    }

    dispatch_elem!();
}
