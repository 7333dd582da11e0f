//! The PWRP/1 wire format: handshake, request/response framing, status
//! codes, and segmented bodies.
//!
//! This module is the single source of truth for the byte layout
//! specified in `PROTOCOL.md` — server and client both encode and
//! decode through it, so the two sides cannot drift. Every function
//! that parses peer-controlled bytes is named `decode_*`: those are the
//! audit's L1 entry points (panic-free by contract — a hostile peer
//! must never be able to kill a connection thread with anything but an
//! error return), and every length they read off the wire is checked
//! against an explicit cap before it sizes an allocation or a read
//! (L5 admission, in the style of `FrameWalker::admit`).

use pwrel_core::LogBase;
use pwrel_data::{CodecError, Dims};
use std::io::{Read, Write};

/// Handshake magic: both hellos start with these four bytes.
pub const HELLO_MAGIC: &[u8; 4] = b"PWRP";
/// The protocol version this build speaks.
pub const PROTO_VERSION: u8 = 1;
/// Server hello version meaning "no common version; closing".
pub const NO_COMMON_VERSION: u8 = 0;

/// Request type: compress raw elements into a PWS1 stream.
pub const MSG_COMPRESS: u8 = 0x01;
/// Request type: decompress a PWS1 stream into raw elements.
pub const MSG_DECOMPRESS: u8 = 0x02;
/// Request type: identify a stream prefix (kind, codec, shape).
pub const MSG_INFO: u8 = 0x03;
/// Request type: list the registered codecs.
pub const MSG_CODECS: u8 = 0x04;
/// Request type: text metrics exposition.
pub const MSG_METRICS: u8 = 0x05;
/// Request type: liveness probe, empty body both ways.
pub const MSG_PING: u8 = 0x06;
/// Pseudo request type used in connection-level error responses (sent
/// before any request was parsed, e.g. handshake timeout or the
/// connection cap).
pub const MSG_CONNECTION: u8 = 0x00;

/// Status: success; a segmented body follows.
pub const ST_OK: u8 = 0;
/// Status: malformed request header field.
pub const ST_BAD_REQUEST: u8 = 1;
/// Status: codec id not in the registry.
pub const ST_UNKNOWN_CODEC: u8 = 2;
/// Status: request body failed to decode.
pub const ST_CORRUPT: u8 = 3;
/// Status: in-flight or connection cap exceeded; retry later.
pub const ST_BUSY: u8 = 4;
/// Status: per-connection byte quota exhausted.
pub const ST_QUOTA: u8 = 5;
/// Status: peer stalled past the read timeout.
pub const ST_TIMEOUT: u8 = 6;
/// Status: request exceeds the server's element cap.
pub const ST_TOO_LARGE: u8 = 7;
/// Status: server-side failure not attributable to the request.
pub const ST_INTERNAL: u8 = 8;
/// Status: handshake version not supported.
pub const ST_UNSUPPORTED_VERSION: u8 = 9;

/// Hard cap on one response-body segment's payload length.
pub const SEG_MAX: u32 = 1 << 20;
/// Segment size the writer targets (one syscall per 64 KiB of body).
pub const SEG_LEN: usize = 64 << 10;
/// Cap on an `info` request's stream-prefix blob.
pub const INFO_BLOB_MAX: u64 = 4096;
/// Cap on an error message's byte length.
pub const ERR_MSG_MAX: u64 = 1024;

/// Human-readable status-code name (the glossary key in
/// `OPERATIONS.md`).
pub fn status_name(code: u8) -> &'static str {
    match code {
        ST_OK => "ok",
        ST_BAD_REQUEST => "bad_request",
        ST_UNKNOWN_CODEC => "unknown_codec",
        ST_CORRUPT => "corrupt",
        ST_BUSY => "busy",
        ST_QUOTA => "quota",
        ST_TIMEOUT => "timeout",
        ST_TOO_LARGE => "too_large",
        ST_INTERNAL => "internal",
        ST_UNSUPPORTED_VERSION => "unsupported_version",
        _ => "unknown",
    }
}

/// The trace counter of responses with status `code`:
/// `serve_responses_` followed by [`status_name`].
pub fn status_counter(code: u8) -> &'static str {
    match code {
        ST_OK => "serve_responses_ok",
        ST_BAD_REQUEST => "serve_responses_bad_request",
        ST_UNKNOWN_CODEC => "serve_responses_unknown_codec",
        ST_CORRUPT => "serve_responses_corrupt",
        ST_BUSY => "serve_responses_busy",
        ST_QUOTA => "serve_responses_quota",
        ST_TIMEOUT => "serve_responses_timeout",
        ST_TOO_LARGE => "serve_responses_too_large",
        ST_INTERNAL => "serve_responses_internal",
        ST_UNSUPPORTED_VERSION => "serve_responses_unsupported_version",
        _ => "serve_responses_unknown",
    }
}

/// Everything that can go wrong speaking PWRP/1.
#[derive(Debug)]
pub enum ServeError {
    /// Socket or file I/O failed (timeouts surface here too).
    Io(std::io::Error),
    /// The peer violated the wire framing.
    Protocol(&'static str),
    /// A PWRP/1 error status: produced by the server when rejecting a
    /// request, reproduced by the client when it receives one.
    Status {
        /// Status code (`ST_*`).
        code: u8,
        /// Human-readable detail carried on the wire.
        msg: String,
    },
    /// Codec-level failure while processing a body.
    Codec(CodecError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Protocol(m) => write!(f, "protocol violation: {m}"),
            ServeError::Status { code, msg } => {
                write!(f, "{} ({msg})", status_name(*code))
            }
            ServeError::Codec(e) => write!(f, "codec error: {e:?}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<CodecError> for ServeError {
    fn from(e: CodecError) -> Self {
        ServeError::Codec(e)
    }
}

impl ServeError {
    /// True when the underlying cause is a socket read timeout.
    pub fn is_timeout(&self) -> bool {
        matches!(self, ServeError::Io(e) if matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ))
    }
}

// ---------------------------------------------------------------------------
// Primitive reads/writes
// ---------------------------------------------------------------------------

/// Reads one byte (an untrusted-source primitive for the taint audit).
fn read_u8(r: &mut dyn Read) -> Result<u8, ServeError> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b).map_err(ServeError::Io)?;
    let [byte] = b;
    Ok(byte)
}

/// Reads a little-endian `u32` off the wire.
fn read_u32(r: &mut dyn Read) -> Result<u32, ServeError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b).map_err(ServeError::Io)?;
    Ok(u32::from_le_bytes(b))
}

/// Reads a little-endian `f64` off the wire.
fn read_f64(r: &mut dyn Read) -> Result<f64, ServeError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b).map_err(ServeError::Io)?;
    Ok(f64::from_le_bytes(b))
}

/// Reads an LEB128 varint (10-byte cap, same encoding as PWS1).
fn read_uvarint(r: &mut dyn Read) -> Result<u64, ServeError> {
    let mut val = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = read_u8(r)?;
        let low = u64::from(byte & 0x7f);
        val |= low
            .checked_shl(shift)
            .ok_or(ServeError::Protocol("varint overflow"))?;
        if byte & 0x80 == 0 {
            return Ok(val);
        }
        shift += 7;
        if shift >= 64 {
            return Err(ServeError::Protocol("varint overflow"));
        }
    }
}

fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

// ---------------------------------------------------------------------------
// Handshake
// ---------------------------------------------------------------------------

/// Encodes a hello (client's or server's): magic plus a version byte.
pub fn encode_hello(version: u8) -> [u8; 5] {
    let mut b = [0u8; 5];
    b[..4].copy_from_slice(HELLO_MAGIC);
    b[4] = version;
    b
}

/// Decodes a hello, returning the peer's version byte.
pub fn decode_hello(r: &mut dyn Read) -> Result<u8, ServeError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic).map_err(ServeError::Io)?;
    if &magic != HELLO_MAGIC {
        return Err(ServeError::Protocol("bad hello magic"));
    }
    read_u8(r)
}

// ---------------------------------------------------------------------------
// Request framing
// ---------------------------------------------------------------------------

/// The fixed prefix of every request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestPrefix {
    /// `MSG_*` request type.
    pub msg_type: u8,
    /// Client-chosen correlation id, echoed in the response.
    pub request_id: u32,
}

/// Encodes a request prefix.
pub fn encode_request_prefix(out: &mut Vec<u8>, p: RequestPrefix) {
    out.push(p.msg_type);
    out.extend_from_slice(&p.request_id.to_le_bytes());
}

/// Decodes the next request prefix, or `None` on a clean end of
/// stream (the peer closed between requests).
pub fn decode_request_prefix(r: &mut dyn Read) -> Result<Option<RequestPrefix>, ServeError> {
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ServeError::Io(e)),
        }
    }
    let request_id = read_u32(r)?;
    let [msg_type] = first;
    Ok(Some(RequestPrefix {
        msg_type,
        request_id,
    }))
}

/// The type-specific header of a compress request: everything the
/// server needs to run the chunk pipeline, so the point-wise bound
/// travels with each request rather than living in server state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressHeader {
    /// Registry codec id (`pwrel codecs` lists them).
    pub codec_id: u8,
    /// Element width: 32 or 64.
    pub elem_bits: u8,
    /// Log base for the transform codecs.
    pub base: LogBase,
    /// Error bound (interpretation is per-codec, as in the registry).
    pub bound: f64,
    /// Field shape; the raw body is exactly `dims.len()` elements.
    pub dims: Dims,
    /// Elements per PWS1 chunk; 0 = server default.
    pub chunk_elems: u64,
}

/// Encodes a compress request header (everything after the prefix).
pub fn encode_compress_header(out: &mut Vec<u8>, h: &CompressHeader) {
    out.push(h.codec_id);
    out.push(h.elem_bits);
    out.push(h.base.id());
    out.extend_from_slice(&h.bound.to_le_bytes());
    let (rank, nx, ny, nz) = h.dims.to_header();
    out.push(rank);
    put_uvarint(out, nx);
    put_uvarint(out, ny);
    put_uvarint(out, nz);
    put_uvarint(out, h.chunk_elems);
}

/// Decodes and admits a compress request header. `max_elems` is the
/// server's per-request element cap; a shape over it is rejected here,
/// before the server commits any memory to the request.
pub fn decode_compress_header(
    r: &mut dyn Read,
    max_elems: u64,
) -> Result<CompressHeader, ServeError> {
    let codec_id = read_u8(r)?;
    let elem_bits = read_u8(r)?;
    if elem_bits != 32 && elem_bits != 64 {
        return Err(ServeError::Protocol("element width must be 32 or 64"));
    }
    let base = LogBase::from_id(read_u8(r)?).ok_or(ServeError::Protocol("bad log base id"))?;
    let bound = read_f64(r)?;
    if !bound.is_finite() || bound <= 0.0 {
        return Err(ServeError::Protocol("bound must be finite and positive"));
    }
    let rank = read_u8(r)?;
    let nx = read_uvarint(r)?;
    let ny = read_uvarint(r)?;
    let nz = read_uvarint(r)?;
    let dims =
        Dims::from_header(rank, nx, ny, nz).ok_or(ServeError::Protocol("bad dims header"))?;
    let total = dims.len() as u64;
    if total == 0 {
        return Err(ServeError::Protocol("empty field"));
    }
    if total > max_elems {
        return Err(ServeError::Status {
            code: ST_TOO_LARGE,
            msg: format!("{total} elements exceeds the server cap of {max_elems}"),
        });
    }
    let chunk_elems = read_uvarint(r)?;
    if chunk_elems > total {
        return Err(ServeError::Protocol("chunk_elems exceeds the field"));
    }
    Ok(CompressHeader {
        codec_id,
        elem_bits,
        base,
        bound,
        dims,
        chunk_elems,
    })
}

/// Encodes an info request header: blob length plus the blob itself.
pub fn encode_info_blob(out: &mut Vec<u8>, blob: &[u8]) {
    put_uvarint(out, blob.len() as u64);
    out.extend_from_slice(blob);
}

/// Decodes an info request's stream-prefix blob (capped at
/// [`INFO_BLOB_MAX`] bytes *before* the allocation).
pub fn decode_info_blob(r: &mut dyn Read) -> Result<Vec<u8>, ServeError> {
    let len = read_uvarint(r)?;
    if len > INFO_BLOB_MAX {
        return Err(ServeError::Status {
            code: ST_TOO_LARGE,
            msg: format!("info blob of {len} bytes exceeds the {INFO_BLOB_MAX}-byte cap"),
        });
    }
    let mut blob = vec![0u8; len as usize];
    r.read_exact(&mut blob).map_err(ServeError::Io)?;
    Ok(blob)
}

// ---------------------------------------------------------------------------
// Response framing
// ---------------------------------------------------------------------------

/// Writes a response prefix: echoed type and id plus the status byte.
pub fn write_response_prefix(
    w: &mut dyn Write,
    msg_type: u8,
    request_id: u32,
    status: u8,
) -> Result<(), ServeError> {
    let [i0, i1, i2, i3] = request_id.to_le_bytes();
    let b = [msg_type, i0, i1, i2, i3, status];
    w.write_all(&b).map_err(ServeError::Io)
}

/// Decodes a response prefix: `(msg_type, request_id, status)`.
pub fn decode_response_prefix(r: &mut dyn Read) -> Result<(u8, u32, u8), ServeError> {
    let msg_type = read_u8(r)?;
    let request_id = read_u32(r)?;
    let status = read_u8(r)?;
    Ok((msg_type, request_id, status))
}

/// Writes an error detail string (truncated to [`ERR_MSG_MAX`]).
pub fn write_error_msg(w: &mut dyn Write, msg: &str) -> Result<(), ServeError> {
    let bytes = msg.as_bytes();
    let mut end = bytes.len().min(ERR_MSG_MAX as usize);
    while end > 0 && !msg.is_char_boundary(end) {
        end -= 1;
    }
    let clipped = bytes.get(..end).unwrap_or_default();
    let mut head = Vec::with_capacity(clipped.len() + 2);
    put_uvarint(&mut head, clipped.len() as u64);
    head.extend_from_slice(clipped);
    w.write_all(&head).map_err(ServeError::Io)
}

/// Decodes an error detail string (length capped before allocation;
/// invalid UTF-8 is replaced, never rejected — the message is advisory).
pub fn decode_error_msg(r: &mut dyn Read) -> Result<String, ServeError> {
    let len = read_uvarint(r)?;
    if len > ERR_MSG_MAX {
        return Err(ServeError::Protocol("oversized error message"));
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf).map_err(ServeError::Io)?;
    Ok(String::from_utf8_lossy(&buf).into_owned())
}

/// Buffering writer for a segmented OK body: emits
/// `u32 len | payload` segments of at most [`SEG_LEN`] bytes and closes
/// with the zero terminator plus the trailer status. The trailer is
/// what lets the server abort cleanly *mid-body* — by the time a codec
/// error surfaces, the prefix already said `ok`, so the failure rides
/// behind the last segment instead of corrupting the stream.
pub struct SegmentWriter<'a> {
    inner: &'a mut dyn Write,
    buf: Vec<u8>,
    payload_bytes: u64,
    finished: bool,
}

impl<'a> SegmentWriter<'a> {
    /// A segmented body over `inner`.
    pub fn new(inner: &'a mut dyn Write) -> Self {
        Self {
            inner,
            buf: Vec::with_capacity(SEG_LEN),
            payload_bytes: 0,
            finished: false,
        }
    }

    /// Total payload bytes emitted so far (excluding framing).
    pub fn payload_bytes(&self) -> u64 {
        self.payload_bytes
    }

    fn emit_buf(&mut self) -> Result<(), ServeError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let len = self.buf.len() as u32;
        self.inner
            .write_all(&len.to_le_bytes())
            .map_err(ServeError::Io)?;
        self.inner.write_all(&self.buf).map_err(ServeError::Io)?;
        self.payload_bytes = self.payload_bytes.saturating_add(u64::from(len));
        self.buf.clear();
        Ok(())
    }

    /// Flushes pending payload, writes the terminator, and closes the
    /// body with `status` (plus a detail message when non-OK).
    pub fn finish(mut self, status: u8, msg: &str) -> Result<u64, ServeError> {
        self.emit_buf()?;
        self.inner
            .write_all(&0u32.to_le_bytes())
            .map_err(ServeError::Io)?;
        self.inner.write_all(&[status]).map_err(ServeError::Io)?;
        if status != ST_OK {
            write_error_msg(self.inner, msg)?;
        }
        self.inner.flush().map_err(ServeError::Io)?;
        self.finished = true;
        Ok(self.payload_bytes)
    }
}

impl Write for SegmentWriter<'_> {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        let mut rest = data;
        while !rest.is_empty() {
            let room = SEG_LEN.saturating_sub(self.buf.len());
            let take = room.min(rest.len());
            let (now, later) = rest.split_at(take);
            self.buf.extend_from_slice(now);
            rest = later;
            if self.buf.len() >= SEG_LEN {
                self.emit_buf()
                    .map_err(|_| std::io::Error::other("segment write failed"))?;
            }
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.emit_buf()
            .map_err(|_| std::io::Error::other("segment write failed"))?;
        self.inner.flush()
    }
}

/// Decodes a segmented body into `out`, returning the payload byte
/// count. A non-OK trailer becomes [`ServeError::Status`] — by then
/// `out` may hold a partial body, which the caller must discard.
pub fn decode_segmented_body(r: &mut dyn Read, out: &mut dyn Write) -> Result<u64, ServeError> {
    let mut scratch: Vec<u8> = Vec::new();
    let mut total = 0u64;
    loop {
        let seg = read_u32(r)?;
        if seg == 0 {
            break;
        }
        if seg > SEG_MAX {
            return Err(ServeError::Protocol("oversized body segment"));
        }
        let n = seg as usize;
        if scratch.len() < n {
            scratch.resize(n, 0);
        }
        let buf = scratch
            .get_mut(..n)
            .ok_or(ServeError::Protocol("segment scratch"))?;
        r.read_exact(buf).map_err(ServeError::Io)?;
        out.write_all(buf).map_err(ServeError::Io)?;
        total = total.saturating_add(u64::from(seg));
    }
    let status = read_u8(r)?;
    if status != ST_OK {
        let msg = decode_error_msg(r)?;
        return Err(ServeError::Status { code: status, msg });
    }
    out.flush().map_err(ServeError::Io)?;
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_round_trips() {
        let b = encode_hello(PROTO_VERSION);
        let mut r: &[u8] = &b;
        assert_eq!(decode_hello(&mut r).unwrap(), PROTO_VERSION);
    }

    #[test]
    fn hello_rejects_bad_magic() {
        let mut r: &[u8] = b"HTTP/1.1 GET";
        assert!(matches!(decode_hello(&mut r), Err(ServeError::Protocol(_))));
    }

    #[test]
    fn status_counter_is_the_prefixed_status_name() {
        for code in 0..=u8::MAX {
            assert_eq!(
                status_counter(code),
                format!("serve_responses_{}", status_name(code))
            );
        }
    }

    #[test]
    fn request_prefix_round_trips_and_eof_is_none() {
        let mut out = Vec::new();
        let p = RequestPrefix {
            msg_type: MSG_COMPRESS,
            request_id: 0xDEAD_BEEF,
        };
        encode_request_prefix(&mut out, p);
        let mut r: &[u8] = &out;
        assert_eq!(decode_request_prefix(&mut r).unwrap(), Some(p));
        assert_eq!(decode_request_prefix(&mut r).unwrap(), None);
    }

    /// PROTOCOL.md §8's worked compress request, byte for byte.
    #[test]
    fn protocol_worked_example_request_bytes() {
        let mut out = Vec::new();
        encode_request_prefix(
            &mut out,
            RequestPrefix {
                msg_type: MSG_COMPRESS,
                request_id: 42,
            },
        );
        encode_compress_header(
            &mut out,
            &CompressHeader {
                codec_id: 1,
                elem_bits: 32,
                base: LogBase::Two,
                bound: 1e-3,
                dims: Dims::d1(6),
                chunk_elems: 0,
            },
        );
        assert_eq!(
            out,
            [
                0x01, 0x2a, 0x00, 0x00, 0x00, 0x01, 0x20, 0x00, 0xfc, 0xa9, 0xf1, 0xd2, 0x4d, 0x62,
                0x50, 0x3f, 0x01, 0x06, 0x01, 0x01, 0x00
            ]
        );
    }

    #[test]
    fn compress_header_round_trips() {
        let h = CompressHeader {
            codec_id: 3,
            elem_bits: 64,
            base: LogBase::E,
            bound: 1e-4,
            dims: Dims::d3(4, 8, 16),
            chunk_elems: 128,
        };
        let mut out = Vec::new();
        encode_compress_header(&mut out, &h);
        let mut r: &[u8] = &out;
        assert_eq!(decode_compress_header(&mut r, 1 << 20).unwrap(), h);
    }

    #[test]
    fn compress_header_rejections() {
        let base = CompressHeader {
            codec_id: 1,
            elem_bits: 32,
            base: LogBase::Two,
            bound: 1e-3,
            dims: Dims::d1(100),
            chunk_elems: 0,
        };
        // Element cap.
        let mut out = Vec::new();
        encode_compress_header(&mut out, &base);
        let mut r: &[u8] = &out;
        assert!(matches!(
            decode_compress_header(&mut r, 10),
            Err(ServeError::Status {
                code: ST_TOO_LARGE,
                ..
            })
        ));
        // Bad element width.
        let mut out2 = out.clone();
        out2[1] = 16;
        let mut r: &[u8] = &out2;
        assert!(matches!(
            decode_compress_header(&mut r, 1 << 20),
            Err(ServeError::Protocol(_))
        ));
        // Non-positive bound.
        let mut h = base;
        h.bound = -1.0;
        let mut out3 = Vec::new();
        encode_compress_header(&mut out3, &h);
        let mut r: &[u8] = &out3;
        assert!(matches!(
            decode_compress_header(&mut r, 1 << 20),
            Err(ServeError::Protocol(_))
        ));
        // chunk_elems over the field.
        let mut h = base;
        h.chunk_elems = 101;
        let mut out4 = Vec::new();
        encode_compress_header(&mut out4, &h);
        let mut r: &[u8] = &out4;
        assert!(matches!(
            decode_compress_header(&mut r, 1 << 20),
            Err(ServeError::Protocol(_))
        ));
    }

    #[test]
    fn segmented_body_round_trips_across_segment_boundaries() {
        let payload: Vec<u8> = (0..SEG_LEN * 2 + 777).map(|i| (i % 251) as u8).collect();
        let mut wire = Vec::new();
        {
            let mut w = SegmentWriter::new(&mut wire);
            w.write_all(&payload).unwrap();
            assert_eq!(w.finish(ST_OK, "").unwrap(), payload.len() as u64);
        }
        let mut back = Vec::new();
        let mut r: &[u8] = &wire;
        let n = decode_segmented_body(&mut r, &mut back).unwrap();
        assert_eq!(n, payload.len() as u64);
        assert_eq!(back, payload);
        assert!(r.is_empty(), "trailer must consume the wire exactly");
    }

    #[test]
    fn segmented_body_error_trailer_surfaces_as_status() {
        let mut wire = Vec::new();
        {
            let mut w = SegmentWriter::new(&mut wire);
            w.write_all(b"partial").unwrap();
            w.finish(ST_CORRUPT, "bad frame").unwrap();
        }
        let mut back = Vec::new();
        let mut r: &[u8] = &wire;
        match decode_segmented_body(&mut r, &mut back) {
            Err(ServeError::Status { code, msg }) => {
                assert_eq!(code, ST_CORRUPT);
                assert_eq!(msg, "bad frame");
            }
            other => panic!("expected status error, got {other:?}"),
        }
    }

    #[test]
    fn oversized_segment_is_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(SEG_MAX + 1).to_le_bytes());
        let mut r: &[u8] = &wire;
        let mut sink = Vec::new();
        assert!(matches!(
            decode_segmented_body(&mut r, &mut sink),
            Err(ServeError::Protocol(_))
        ));
    }

    #[test]
    fn info_blob_cap_is_enforced() {
        let mut wire = Vec::new();
        put_uvarint(&mut wire, INFO_BLOB_MAX + 1);
        let mut r: &[u8] = &wire;
        assert!(matches!(
            decode_info_blob(&mut r),
            Err(ServeError::Status {
                code: ST_TOO_LARGE,
                ..
            })
        ));
    }

    #[test]
    fn error_msg_truncates_to_cap() {
        let long = "x".repeat(5000);
        let mut wire = Vec::new();
        write_error_msg(&mut wire, &long).unwrap();
        let mut r: &[u8] = &wire;
        let back = decode_error_msg(&mut r).unwrap();
        assert_eq!(back.len(), ERR_MSG_MAX as usize);
    }

    #[test]
    fn uvarint_overflow_is_an_error() {
        let wire = [0xffu8; 11];
        let mut r: &[u8] = &wire;
        assert!(matches!(read_uvarint(&mut r), Err(ServeError::Protocol(_))));
    }
}
