//! A small blocking PWRP/1 client: the CLI's `remote` subcommand, the
//! black-box integration tests, and perfbench's serve workload all speak
//! through it.
//!
//! One struct, one connection, sequential requests. The only subtlety
//! is large request bodies: the server streams its response *while*
//! consuming the body, so a client that writes the whole body before
//! reading anything can deadlock once both TCP windows fill. Body-
//! carrying requests therefore send from a scoped helper thread while
//! the calling thread reads the response — see
//! [`Client::compress_stream`].

use crate::proto::{self, CompressHeader, RequestPrefix, ServeError};
use pwrel_core::LogBase;
use pwrel_data::{Dims, Float};
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A connected PWRP/1 client.
///
/// Per the protocol, any error response closes the connection; after a
/// method returns an error the client is spent and the caller must
/// reconnect.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: u32,
    server_version: u8,
}

impl Client {
    /// Connects and performs the version handshake.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, ServeError> {
        let stream = TcpStream::connect(addr).map_err(ServeError::Io)?;
        let _ = stream.set_nodelay(true);
        let write_half = stream.try_clone().map_err(ServeError::Io)?;
        let mut writer = BufWriter::new(write_half);
        writer
            .write_all(&proto::encode_hello(proto::PROTO_VERSION))
            .map_err(ServeError::Io)?;
        writer.flush().map_err(ServeError::Io)?;
        let mut reader = BufReader::new(stream);
        let server_version = proto::decode_hello(&mut reader)?;
        if server_version.min(proto::PROTO_VERSION) < 1 {
            return Err(ServeError::Status {
                code: proto::ST_UNSUPPORTED_VERSION,
                msg: format!("server speaks version {server_version}"),
            });
        }
        Ok(Client {
            reader,
            writer,
            next_id: 1,
            server_version,
        })
    }

    /// The version the server announced in its hello.
    pub fn server_version(&self) -> u8 {
        self.server_version
    }

    /// Sets the socket read timeout (how long to wait on the server).
    pub fn set_read_timeout(&mut self, ms: u64) -> Result<(), ServeError> {
        self.reader
            .get_ref()
            .set_read_timeout(Some(Duration::from_millis(ms.max(1))))
            .map_err(ServeError::Io)
    }

    fn next_prefix(&mut self, msg_type: u8) -> RequestPrefix {
        let request_id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        RequestPrefix {
            msg_type,
            request_id,
        }
    }

    /// Sends a bodyless (or small-header) request and collects the
    /// response body.
    fn simple(&mut self, msg_type: u8, header: &[u8]) -> Result<Vec<u8>, ServeError> {
        let p = self.next_prefix(msg_type);
        let mut head = Vec::with_capacity(header.len() + 8);
        proto::encode_request_prefix(&mut head, p);
        head.extend_from_slice(header);
        self.writer.write_all(&head).map_err(ServeError::Io)?;
        self.writer.flush().map_err(ServeError::Io)?;
        let mut out = Vec::new();
        read_response(&mut self.reader, p, &mut out)?;
        Ok(out)
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ServeError> {
        self.simple(proto::MSG_PING, &[]).map(|_| ())
    }

    /// The server's codec listing: one `id name description` line per
    /// registered codec.
    pub fn codecs(&mut self) -> Result<String, ServeError> {
        let body = self.simple(proto::MSG_CODECS, &[])?;
        Ok(String::from_utf8_lossy(&body).into_owned())
    }

    /// The server's text metrics exposition.
    pub fn metrics(&mut self) -> Result<String, ServeError> {
        let body = self.simple(proto::MSG_METRICS, &[])?;
        Ok(String::from_utf8_lossy(&body).into_owned())
    }

    /// Identifies a compressed stream from its leading bytes (at most
    /// [`proto::INFO_BLOB_MAX`]; longer slices are clipped client-side).
    pub fn info(&mut self, stream_prefix: &[u8]) -> Result<String, ServeError> {
        let end = stream_prefix.len().min(proto::INFO_BLOB_MAX as usize);
        let blob = stream_prefix.get(..end).unwrap_or_default();
        let mut header = Vec::with_capacity(blob.len() + 4);
        proto::encode_info_blob(&mut header, blob);
        let body = self.simple(proto::MSG_INFO, &header)?;
        Ok(String::from_utf8_lossy(&body).into_owned())
    }

    /// Compresses through the server: `body` supplies exactly
    /// `header.dims.len()` little-endian elements; the PWS1 stream the
    /// server produces is written to `out`. Returns the stream's byte
    /// count.
    pub fn compress_stream(
        &mut self,
        header: &CompressHeader,
        body: &mut (dyn Read + Send),
        out: &mut dyn Write,
    ) -> Result<u64, ServeError> {
        let p = self.next_prefix(proto::MSG_COMPRESS);
        let mut head = Vec::with_capacity(64);
        proto::encode_request_prefix(&mut head, p);
        proto::encode_compress_header(&mut head, header);
        self.request_with_body(p, head, body, out)
    }

    /// Decompresses through the server: `body` supplies a PWS1 stream
    /// (self-delimiting); the reconstructed little-endian elements are
    /// written to `out`. Returns the raw byte count.
    pub fn decompress_stream(
        &mut self,
        body: &mut (dyn Read + Send),
        out: &mut dyn Write,
    ) -> Result<u64, ServeError> {
        let p = self.next_prefix(proto::MSG_DECOMPRESS);
        let mut head = Vec::with_capacity(8);
        proto::encode_request_prefix(&mut head, p);
        self.request_with_body(p, head, body, out)
    }

    /// In-memory convenience over [`Client::compress_stream`]: encodes
    /// `data` little-endian and returns the server's PWS1 stream.
    pub fn compress_elems<F: Float>(
        &mut self,
        codec_id: u8,
        data: &[F],
        dims: Dims,
        bound: f64,
        base: LogBase,
    ) -> Result<Vec<u8>, ServeError> {
        let mut body = Vec::with_capacity(data.len().saturating_mul(F::NBYTES));
        for &v in data {
            v.write_le(&mut body);
        }
        let header = CompressHeader {
            codec_id,
            elem_bits: F::BITS as u8,
            base,
            bound,
            dims,
            chunk_elems: 0,
        };
        let mut out = Vec::new();
        let mut src: &[u8] = &body;
        self.compress_stream(&header, &mut src, &mut out)?;
        Ok(out)
    }

    /// In-memory convenience over [`Client::decompress_stream`]:
    /// decodes the server's little-endian response into elements.
    pub fn decompress_elems<F: Float>(&mut self, stream: &[u8]) -> Result<Vec<F>, ServeError> {
        let mut raw = Vec::new();
        let mut src: &[u8] = stream;
        self.decompress_stream(&mut src, &mut raw)?;
        if raw.len() % F::NBYTES != 0 {
            return Err(ServeError::Protocol(
                "response is not a whole number of elements",
            ));
        }
        let elems: Vec<F> = raw.chunks_exact(F::NBYTES).filter_map(F::read_le).collect();
        if elems.len() != raw.len() / F::NBYTES {
            return Err(ServeError::Protocol("element decode failed"));
        }
        Ok(elems)
    }

    /// Writes `head` + the body from a scoped sender thread while this
    /// thread reads the response, so neither side of the socket can
    /// stall the other.
    fn request_with_body(
        &mut self,
        p: RequestPrefix,
        head: Vec<u8>,
        body: &mut (dyn Read + Send),
        out: &mut dyn Write,
    ) -> Result<u64, ServeError> {
        let reader = &mut self.reader;
        let writer = &mut self.writer;
        std::thread::scope(|s| {
            let sender = s.spawn(move || -> Result<(), ServeError> {
                writer.write_all(&head).map_err(ServeError::Io)?;
                std::io::copy(body, writer).map_err(ServeError::Io)?;
                writer.flush().map_err(ServeError::Io)?;
                Ok(())
            });
            let received = read_response(reader, p, out);
            let sent = sender
                .join()
                .unwrap_or(Err(ServeError::Protocol("request sender thread failed")));
            match (received, sent) {
                (Ok(n), Ok(())) => Ok(n),
                // A response-side error explains any send-side breakage
                // (the server rejected and closed), so it wins.
                (Err(e), _) => Err(e),
                (Ok(_), Err(e)) => Err(e),
            }
        })
    }
}

/// Reads one response for `expect`, streaming its body into `out`.
/// Free function (not a method) so [`Client::request_with_body`] can
/// split-borrow the reader while the writer is lent to the sender.
fn read_response(
    reader: &mut BufReader<TcpStream>,
    expect: RequestPrefix,
    out: &mut dyn Write,
) -> Result<u64, ServeError> {
    let (msg_type, request_id, status) = proto::decode_response_prefix(reader)?;
    if msg_type == proto::MSG_CONNECTION {
        let msg = proto::decode_error_msg(reader)?;
        return Err(ServeError::Status { code: status, msg });
    }
    if msg_type != expect.msg_type || request_id != expect.request_id {
        return Err(ServeError::Protocol("response does not match the request"));
    }
    if status != proto::ST_OK {
        let msg = proto::decode_error_msg(reader)?;
        return Err(ServeError::Status { code: status, msg });
    }
    proto::decode_segmented_body(reader, out)
}
