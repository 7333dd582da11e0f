//! The unified versioned container every registered codec's stream is
//! wrapped in.
//!
//! Layout:
//!
//! ```text
//! magic "PWU1" | version u8 | codec id u8 | elem_bits u8
//! rank u8 | nx ny nz uvarint
//! bound f64 | base id u8 | entropy mode u8 (v2+)
//! payload_len uvarint | payload (codec-native self-describing stream)
//! ```
//!
//! Version 2 added the entropy-mode byte: the sub-stream count of the
//! codec's quantization-code entropy stage (1 = legacy single stream,
//! 4 = 4-way interleaved Huffman). Version 1 streams decode with an
//! implied mode of 1. The byte is advisory — payloads self-describe
//! their entropy framing — but lets tools like `pwrel info` report the
//! engine without decoding, so unknown values are rejected as corrupt.
//!
//! The header is intentionally redundant with the codec payloads (which
//! stay self-describing): decoding dispatches on the codec id alone, and
//! the recorded element type and dims cross-check the payload — a
//! corrupted or mismatched stream fails loudly at the container layer
//! instead of deep inside a codec.

use pwrel_bitstream::{bytesio, varint};
use pwrel_core::LogBase;
use pwrel_data::{CodecError, Dims};

/// Magic bytes of the unified container.
pub const CONTAINER_MAGIC: &[u8; 4] = b"PWU1";

/// Current container format version.
pub const CONTAINER_VERSION: u8 = 2;

/// Entropy-mode byte of the legacy single-stream Huffman engine.
pub const ENTROPY_MODE_SINGLE: u8 = 1;

/// Entropy-mode byte of the 4-way interleaved Huffman engine.
pub const ENTROPY_MODE_INTERLEAVED: u8 = pwrel_lossless::huffman::LANES as u8;

/// Parsed unified container header.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContainerHeader {
    /// Format version (currently always [`CONTAINER_VERSION`]).
    pub version: u8,
    /// Registered codec id the payload belongs to.
    pub codec_id: u8,
    /// Element width in bits (32 or 64).
    pub elem_bits: u8,
    /// Grid shape of the compressed field.
    pub dims: Dims,
    /// The error bound the stream was produced under (codec-interpreted).
    pub bound: f64,
    /// Logarithm base recorded for the transform-wrapped codecs.
    pub base: LogBase,
    /// Sub-stream count of the codec's entropy stage (1 = legacy single
    /// stream, 4 = interleaved); implied 1 for version-1 streams.
    pub entropy_mode: u8,
}

/// Serializes the header and payload into one unified stream.
pub fn wrap(header: &ContainerHeader, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 40);
    out.extend_from_slice(CONTAINER_MAGIC);
    out.push(header.version);
    out.push(header.codec_id);
    out.push(header.elem_bits);
    let (rank, nx, ny, nz) = header.dims.to_header();
    out.push(rank);
    varint::write_uvarint(&mut out, nx);
    varint::write_uvarint(&mut out, ny);
    varint::write_uvarint(&mut out, nz);
    bytesio::put_f64(&mut out, header.bound);
    out.push(header.base.id());
    if header.version >= 2 {
        out.push(header.entropy_mode);
    }
    varint::write_uvarint(&mut out, payload.len() as u64);
    out.extend_from_slice(payload);
    out
}

/// True when `bytes` starts with the unified magic.
pub fn is_unified(bytes: &[u8]) -> bool {
    bytes.starts_with(CONTAINER_MAGIC)
}

/// Parses a unified stream's header: every field before the payload,
/// the payload length included. It reads only the header's own bytes,
/// so a stream prefix that holds the header parses. Returns the header,
/// the recorded payload length and the offset the payload starts at.
///
/// Fails with [`CodecError::Mismatch`] when the magic is absent or the
/// version is unknown, [`CodecError::Corrupt`] on malformed fields.
pub fn read_header(bytes: &[u8]) -> Result<(ContainerHeader, usize, usize), CodecError> {
    if !is_unified(bytes) {
        return Err(CodecError::Mismatch("not a unified container"));
    }
    let mut pos = 4usize;
    let version = *bytes.get(pos).ok_or(CodecError::Corrupt("eof in header"))?;
    pos += 1;
    if version == 0 || version > CONTAINER_VERSION {
        return Err(CodecError::Mismatch("unsupported container version"));
    }
    let codec_id = *bytes.get(pos).ok_or(CodecError::Corrupt("eof in header"))?;
    pos += 1;
    let elem_bits = *bytes.get(pos).ok_or(CodecError::Corrupt("eof in header"))?;
    pos += 1;
    if elem_bits != 32 && elem_bits != 64 {
        return Err(CodecError::Corrupt("bad element width"));
    }
    let rank = *bytes.get(pos).ok_or(CodecError::Corrupt("eof in header"))?;
    pos += 1;
    let nx = varint::read_uvarint(bytes, &mut pos)?;
    let ny = varint::read_uvarint(bytes, &mut pos)?;
    let nz = varint::read_uvarint(bytes, &mut pos)?;
    let dims = Dims::from_header(rank, nx, ny, nz).ok_or(CodecError::Corrupt("bad dims header"))?;
    let bound = bytesio::get_f64(bytes, &mut pos)?;
    let base = LogBase::from_id(*bytes.get(pos).ok_or(CodecError::Corrupt("eof in header"))?)
        .ok_or(CodecError::Corrupt("bad base id"))?;
    pos += 1;
    let entropy_mode = if version >= 2 {
        let mode = *bytes.get(pos).ok_or(CodecError::Corrupt("eof in header"))?;
        pos += 1;
        if mode != ENTROPY_MODE_SINGLE && mode != ENTROPY_MODE_INTERLEAVED {
            return Err(CodecError::Corrupt("bad entropy mode"));
        }
        mode
    } else {
        ENTROPY_MODE_SINGLE
    };
    let payload_len = varint::read_uvarint(bytes, &mut pos)? as usize;
    let header = ContainerHeader {
        version,
        codec_id,
        elem_bits,
        dims,
        bound,
        base,
        entropy_mode,
    };
    Ok((header, payload_len, pos))
}

/// Parses a unified stream into its header and codec payload: the
/// [`read_header`] errors, plus [`CodecError::Corrupt`] for a payload
/// shorter than its recorded length.
pub fn unwrap(bytes: &[u8]) -> Result<(ContainerHeader, &[u8]), CodecError> {
    let (header, payload_len, mut pos) = read_header(bytes)?;
    let payload = bytesio::get_bytes(bytes, &mut pos, payload_len)?;
    Ok((header, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> ContainerHeader {
        ContainerHeader {
            version: CONTAINER_VERSION,
            codec_id: 3,
            elem_bits: 32,
            dims: Dims::d2(16, 32),
            bound: 1e-3,
            base: LogBase::Two,
            entropy_mode: ENTROPY_MODE_INTERLEAVED,
        }
    }

    #[test]
    fn wrap_unwrap_round_trips() {
        let payload = b"codec payload bytes";
        let bytes = wrap(&header(), payload);
        let (h, p) = unwrap(&bytes).unwrap();
        assert_eq!(h, header());
        assert_eq!(p, payload);
    }

    #[test]
    fn wrong_magic_is_mismatch() {
        assert_eq!(
            unwrap(b"NOPE....."),
            Err(CodecError::Mismatch("not a unified container"))
        );
    }

    #[test]
    fn unknown_version_is_mismatch() {
        let mut bytes = wrap(&header(), b"x");
        bytes[4] = 99;
        assert_eq!(
            unwrap(&bytes),
            Err(CodecError::Mismatch("unsupported container version"))
        );
    }

    #[test]
    fn version1_decodes_with_implied_single_mode() {
        let mut h = header();
        h.version = 1;
        let bytes = wrap(&h, b"payload");
        let (parsed, p) = unwrap(&bytes).unwrap();
        assert_eq!(parsed.version, 1);
        assert_eq!(parsed.entropy_mode, ENTROPY_MODE_SINGLE);
        assert_eq!(p, b"payload");
    }

    #[test]
    fn bad_entropy_mode_is_corrupt() {
        for bad in [0u8, 2, 3, 5, 255] {
            let mut h = header();
            h.entropy_mode = bad;
            let bytes = wrap(&h, b"x");
            assert_eq!(
                unwrap(&bytes),
                Err(CodecError::Corrupt("bad entropy mode")),
                "mode={bad}"
            );
        }
    }

    #[test]
    fn header_parses_without_the_payload() {
        let payload = [7u8; 300];
        let bytes = wrap(&header(), &payload);
        let start = bytes.len() - payload.len();
        let (h, len, at) = read_header(&bytes[..start]).unwrap();
        assert_eq!((h, len, at), (header(), payload.len(), start));
        assert!(unwrap(&bytes[..start]).is_err());
    }

    #[test]
    fn every_truncation_errors_not_panics() {
        let bytes = wrap(&header(), b"some payload");
        for cut in 0..bytes.len() {
            assert!(unwrap(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }
}
