//! Back-compat sniffing and decoding of pre-container streams.
//!
//! Before the unified container, every codec wrote its own magic and
//! readers matched on it. Streams in the wild keep decoding: when a
//! stream does not start with the unified magic, the registry falls
//! back to the per-codec sniff below.

use crate::codec::PipelineElem;
use crate::container::{self, ContainerHeader};
use crate::stream::{self, StreamHeader};
use pwrel_core::{LogBase, PwRelCompressor};
use pwrel_data::{CodecError, Dims};
use pwrel_sz::SzCompressor;
use pwrel_zfp::ZfpCompressor;

/// Legacy stream kinds recognisable from their per-codec magic bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKind {
    /// Log-transform container (SZ_T / ZFP_T).
    PwRel,
    /// Bare SZ container (possibly inside an LZ wrapper).
    Sz,
    /// ZFP container.
    Zfp,
    /// FPZIP container.
    Fpzip,
    /// ISABELA container.
    Isabela,
}

impl StreamKind {
    /// Human-readable description for stream listings.
    pub fn describe(self) -> &'static str {
        match self {
            StreamKind::PwRel => "legacy pwrel log-transform container (SZ_T/ZFP_T)",
            StreamKind::Sz => "legacy SZ container",
            StreamKind::Zfp => "legacy ZFP container",
            StreamKind::Fpzip => "legacy FPZIP container",
            StreamKind::Isabela => "legacy ISABELA container",
        }
    }
}

/// What a compressed stream is, across all container generations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StreamInfo {
    /// A unified container with its parsed header.
    Unified(ContainerHeader),
    /// A framed chunk stream with its parsed stream header.
    Framed(StreamHeader),
    /// A pre-container stream recognised by its per-codec magic.
    Legacy(StreamKind),
}

/// Identifies any compressed stream: unified, framed, or legacy.
pub fn identify(bytes: &[u8]) -> Option<StreamInfo> {
    if container::is_unified(bytes) {
        return container::unwrap(bytes)
            .ok()
            .map(|(h, _)| StreamInfo::Unified(h));
    }
    if stream::is_framed(bytes) {
        let mut r: &[u8] = bytes;
        return stream::decode_stream_header(&mut r)
            .ok()
            .map(StreamInfo::Framed);
    }
    identify_legacy(bytes).map(StreamInfo::Legacy)
}

/// Identifies a legacy stream from its leading bytes.
pub fn identify_legacy(bytes: &[u8]) -> Option<StreamKind> {
    if bytes.len() >= 4 {
        match &bytes[..4] {
            b"PWT1" => return Some(StreamKind::PwRel),
            b"ZFR1" => return Some(StreamKind::Zfp),
            b"FPZ1" => return Some(StreamKind::Fpzip),
            b"ISB1" => return Some(StreamKind::Isabela),
            _ => {}
        }
    }
    // SZ streams carry a 1-byte LZ wrapper flag before the magic. The raw
    // wrapper exposes the magic directly; the LZ wrapper hides it, so sniff
    // by decoding (legacy streams are rare enough that a full decode is
    // acceptable).
    if bytes.len() >= 5 && (bytes[0] == 0 || bytes[0] == 1) {
        if bytes[0] == 0 && &bytes[1..5] == b"SZR1" {
            return Some(StreamKind::Sz);
        }
        if bytes[0] == 1 {
            if let Ok(unpacked) = pwrel_lossless::lz::decompress(&bytes[1..]) {
                if unpacked.len() >= 4 && &unpacked[..4] == b"SZR1" {
                    return Some(StreamKind::Sz);
                }
            }
        }
    }
    None
}

/// Decodes a legacy (pre-container) stream by magic sniffing.
pub fn decompress_legacy<F: PipelineElem>(bytes: &[u8]) -> Result<(Vec<F>, Dims), CodecError> {
    match identify_legacy(bytes) {
        Some(StreamKind::PwRel) => {
            // The wrapper needs an inner codec; the inner stream is
            // self-identifying, so try SZ first and fall back to ZFP.
            let sz = PwRelCompressor::new(SzCompressor::default(), LogBase::Two);
            match sz.decompress_full::<F>(bytes, pwrel_trace::noop()) {
                Ok(r) => Ok(r),
                Err(_) => PwRelCompressor::new(ZfpCompressor, LogBase::Two)
                    .decompress_full::<F>(bytes, pwrel_trace::noop()),
            }
        }
        Some(StreamKind::Sz) => SzCompressor::default().decompress::<F>(bytes),
        Some(StreamKind::Zfp) => ZfpCompressor.decompress::<F>(bytes),
        Some(StreamKind::Fpzip) => pwrel_fpzip::decompress::<F>(bytes),
        Some(StreamKind::Isabela) => pwrel_isabela::decompress::<F>(bytes),
        None => Err(CodecError::Mismatch("unrecognized stream")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identify_legacy_kinds() {
        assert_eq!(identify_legacy(b"PWT1rest"), Some(StreamKind::PwRel));
        assert_eq!(identify_legacy(b"ZFR1rest"), Some(StreamKind::Zfp));
        assert_eq!(identify_legacy(b"FPZ1rest"), Some(StreamKind::Fpzip));
        assert_eq!(identify_legacy(b"ISB1rest"), Some(StreamKind::Isabela));
        assert_eq!(identify_legacy(b"\x00SZR1rest"), Some(StreamKind::Sz));
        assert_eq!(identify_legacy(b"garbage!"), None);
        assert_eq!(identify_legacy(b""), None);
    }

    #[test]
    fn identify_lz_wrapped_sz_stream() {
        // A highly compressible field makes SZ choose the LZ wrapper
        // (leading byte 1), which hides the magic until unwrapped.
        let data = vec![1.0f32; 65536];
        let stream = SzCompressor::default()
            .compress_abs(&data, Dims::d1(65536), 0.1)
            .unwrap();
        assert_eq!(stream[0], 1, "expected the LZ wrapper on constant data");
        assert_eq!(identify_legacy(&stream), Some(StreamKind::Sz));
    }

    #[test]
    fn legacy_pwrel_stream_decodes() {
        let data: Vec<f32> = (1..2000).map(|i| (i as f32).sin() * 100.0).collect();
        let dims = Dims::d1(data.len());
        let stream = PwRelCompressor::new(SzCompressor::default(), LogBase::Two)
            .compress_fused(&data, dims, 1e-3, pwrel_trace::noop())
            .unwrap();
        let (back, d) = decompress_legacy::<f32>(&stream).unwrap();
        assert_eq!(d, dims);
        for (a, b) in data.iter().zip(&back) {
            assert!(((a - b) / a).abs() <= 1e-3);
        }
    }
}
