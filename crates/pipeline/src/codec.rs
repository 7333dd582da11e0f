//! The object-safe whole-codec trait and its generic dispatch helper.

use pwrel_core::LogBase;
use pwrel_data::{CodecError, Dims, Float};
use pwrel_trace::Recorder;

/// Per-run compression options shared by every registered codec.
///
/// `bound` is interpreted by the codec: a point-wise relative bound for
/// the transform-wrapped and PWR codecs, an absolute bound for `sz_abs`.
/// `base` only matters to the log-transform codecs; the rest ignore it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressOpts {
    /// Error bound (codec-interpreted, see above).
    pub bound: f64,
    /// Logarithm base for the transform-wrapped codecs.
    pub base: LogBase,
}

impl CompressOpts {
    /// Options with the given bound and the paper's default base 2.
    pub fn rel(bound: f64) -> Self {
        Self {
            bound,
            base: LogBase::Two,
        }
    }
}

/// An error-bounded compression pipeline as one dispatchable unit.
///
/// Object safety is the point: registries hold `Box<dyn Codec>` and the
/// CLI / bench / stream engines route through them without per-codec
/// match arms. That forces monomorphic `f32`/`f64` entry points instead
/// of a generic method; [`PipelineElem`] recovers the generic view for
/// callers parameterized over the element type.
///
/// There is one data method per direction and element type. Each takes
/// the recorder the run reports to; untraced callers pass
/// [`pwrel_trace::noop`], and instrumentation must not change a byte.
///
/// The payload produced by `compress_*` is the codec's native
/// self-describing stream; the registry wraps it in the unified
/// container (see [`crate::container`]) and the framed-stream engines
/// in one frame per chunk (see [`crate::stream`]), so implementations
/// never deal with outer headers.
pub trait Codec: Send + Sync {
    /// Stable stream id recorded in the container header.
    fn id(&self) -> u8;

    /// Registry lookup name (what `--codec` takes on the CLI).
    fn name(&self) -> &'static str;

    /// One-line human description for codec listings.
    fn describe(&self) -> &'static str;

    /// The stage spans this codec emits when compressed through a live
    /// recorder — the contract the trace exporters and the coverage
    /// tests check against. Constants come from [`pwrel_trace::stage`].
    /// The default (empty) declares "uninstrumented": the registry still
    /// wraps the run in its root span, but no per-stage breakdown is
    /// promised.
    fn stages(&self) -> &'static [&'static str] {
        &[]
    }

    /// Preferred slice multiple (along the slowest axis) for framed
    /// chunking. The block-structured codecs override this so chunk
    /// boundaries align with their native blocks (ZFP: 4) instead of
    /// paying edge-padding overhead in every chunk.
    fn chunk_granularity(&self) -> usize {
        1
    }

    /// Sub-stream count of the codec's quantization-code entropy stage,
    /// recorded in the v2 container and stream headers: 1 for codecs
    /// without an interleaved Huffman stage, [`huffman::LANES`] for the
    /// codecs whose payloads carry 4-way interleaved symbol streams.
    /// Advisory — payloads self-describe — but lets `pwrel info` report
    /// the engine without decoding.
    ///
    /// [`huffman::LANES`]: pwrel_lossless::huffman::LANES
    fn entropy_mode(&self) -> u8 {
        crate::container::ENTROPY_MODE_SINGLE
    }

    /// Compresses `f32` data under `opts`, recording stages on `rec`.
    fn compress_f32(
        &self,
        data: &[f32],
        dims: Dims,
        opts: &CompressOpts,
        rec: &dyn Recorder,
    ) -> Result<Vec<u8>, CodecError>;

    /// Compresses `f64` data under `opts`, recording stages on `rec`.
    fn compress_f64(
        &self,
        data: &[f64],
        dims: Dims,
        opts: &CompressOpts,
        rec: &dyn Recorder,
    ) -> Result<Vec<u8>, CodecError>;

    /// Decompresses an `f32` payload produced by
    /// [`Codec::compress_f32`], recording stages on `rec`.
    fn decompress_f32(
        &self,
        payload: &[u8],
        rec: &dyn Recorder,
    ) -> Result<(Vec<f32>, Dims), CodecError>;

    /// Decompresses an `f64` payload produced by
    /// [`Codec::compress_f64`], recording stages on `rec`.
    fn decompress_f64(
        &self,
        payload: &[u8],
        rec: &dyn Recorder,
    ) -> Result<(Vec<f64>, Dims), CodecError>;
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
}

/// Element types the pipeline can route through a `dyn Codec`: the
/// bridge from generic code to the trait's monomorphic entry points.
pub trait PipelineElem: Float + sealed::Sealed {
    /// Calls the matching monomorphic compress method.
    fn codec_compress(
        codec: &dyn Codec,
        data: &[Self],
        dims: Dims,
        opts: &CompressOpts,
        rec: &dyn Recorder,
    ) -> Result<Vec<u8>, CodecError>;

    /// Calls the matching monomorphic decompress method.
    fn codec_decompress(
        codec: &dyn Codec,
        payload: &[u8],
        rec: &dyn Recorder,
    ) -> Result<(Vec<Self>, Dims), CodecError>;
}

impl PipelineElem for f32 {
    fn codec_compress(
        codec: &dyn Codec,
        data: &[f32],
        dims: Dims,
        opts: &CompressOpts,
        rec: &dyn Recorder,
    ) -> Result<Vec<u8>, CodecError> {
        codec.compress_f32(data, dims, opts, rec)
    }

    fn codec_decompress(
        codec: &dyn Codec,
        payload: &[u8],
        rec: &dyn Recorder,
    ) -> Result<(Vec<f32>, Dims), CodecError> {
        codec.decompress_f32(payload, rec)
    }
}

impl PipelineElem for f64 {
    fn codec_compress(
        codec: &dyn Codec,
        data: &[f64],
        dims: Dims,
        opts: &CompressOpts,
        rec: &dyn Recorder,
    ) -> Result<Vec<u8>, CodecError> {
        codec.compress_f64(data, dims, opts, rec)
    }

    fn codec_decompress(
        codec: &dyn Codec,
        payload: &[u8],
        rec: &dyn Recorder,
    ) -> Result<(Vec<f64>, Dims), CodecError> {
        codec.decompress_f64(payload, rec)
    }
}
