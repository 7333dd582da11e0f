//! The codec interface shared by every compressor in the workspace.
//!
//! The paper's transformation scheme is generic: it wraps *any*
//! absolute-error-bounded lossy compressor. [`AbsErrorCodec`] is that
//! contract; the SZ-like and ZFP-like codecs implement it, and
//! `pwrel-core`'s `PwRelCompressor` is parameterized over it.

use crate::{Dims, Float};

/// Errors surfaced by compression/decompression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The compressed stream is truncated or malformed.
    Corrupt(&'static str),
    /// The request is invalid (e.g. non-positive error bound).
    InvalidArgument(&'static str),
    /// The stream was produced for a different element type or codec.
    Mismatch(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Corrupt(w) => write!(f, "corrupt stream: {w}"),
            CodecError::InvalidArgument(w) => write!(f, "invalid argument: {w}"),
            CodecError::Mismatch(w) => write!(f, "stream mismatch: {w}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<pwrel_bitstream::Error> for CodecError {
    fn from(e: pwrel_bitstream::Error) -> Self {
        match e {
            pwrel_bitstream::Error::UnexpectedEof => CodecError::Corrupt("unexpected EOF"),
            pwrel_bitstream::Error::InvalidValue(w) => CodecError::Corrupt(w),
        }
    }
}

/// An absolute-error-bounded lossy compressor.
///
/// # Contract
///
/// For every finite input value `x_i`, the decompressed value `x'_i`
/// satisfies `|x_i - x'_i| <= bound`. Non-finite inputs must be preserved
/// exactly or rejected. `decompress(compress(data))` returns data of the
/// original length and dims.
pub trait AbsErrorCodec<F: Float> {
    /// Short identifier used in reports (e.g. `"sz"`, `"zfp"`).
    fn name(&self) -> &'static str;

    /// Compresses `data` with the guarantee `|x - x'| <= bound`.
    fn compress_abs(&self, data: &[F], dims: Dims, bound: f64) -> Result<Vec<u8>, CodecError>;

    /// Decompresses a stream produced by [`AbsErrorCodec::compress_abs`].
    fn decompress_abs(&self, bytes: &[u8]) -> Result<(Vec<F>, Dims), CodecError>;

    /// [`AbsErrorCodec::compress_abs`] with per-stage recording on `rec`.
    /// The default ignores the recorder; codecs with internal stages
    /// worth attributing override it. The stream bytes must be identical
    /// either way.
    fn compress_abs_traced(
        &self,
        data: &[F],
        dims: Dims,
        bound: f64,
        rec: &dyn pwrel_trace::Recorder,
    ) -> Result<Vec<u8>, CodecError> {
        let _ = rec;
        self.compress_abs(data, dims, bound)
    }

    /// [`AbsErrorCodec::decompress_abs`] with per-stage recording on
    /// `rec`. Same contract as the compress side: identical output, the
    /// recorder only observes.
    fn decompress_abs_traced(
        &self,
        bytes: &[u8],
        rec: &dyn pwrel_trace::Recorder,
    ) -> Result<(Vec<F>, Dims), CodecError> {
        let _ = rec;
        self.decompress_abs(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert_eq!(
            CodecError::InvalidArgument("bound must be > 0").to_string(),
            "invalid argument: bound must be > 0"
        );
        let e: CodecError = pwrel_bitstream::Error::UnexpectedEof.into();
        assert_eq!(e, CodecError::Corrupt("unexpected EOF"));
    }
}
