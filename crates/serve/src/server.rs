//! The PWRP/1 server: accept loop, per-connection threads, request
//! dispatch, backpressure, quotas, and timeouts.
//!
//! Control flow per connection (see `DESIGN.md` §17):
//!
//! 1. Handshake: both sides announce their highest protocol version;
//!    the effective version is the minimum. A peer announcing 0 is
//!    refused with `unsupported_version`.
//! 2. Request loop: parse a prefix, dispatch by type, respond. Light
//!    requests (`ping`, `codecs`, `metrics`, `info`) run unconditionally;
//!    heavy requests (`compress`, `decompress`) must win a slot under
//!    the global in-flight cap or are rejected with `busy` — overload
//!    sheds load instead of queueing it.
//! 3. Any non-OK response closes the connection: after a failed request
//!    the remainder of its body is unconsumed and the byte stream is
//!    unsynchronized, so re-framing is the client's job (reconnect).
//!
//! Bodies never materialize: a compress request's raw elements flow
//! from the socket through [`ReadSource`] into the chunk pipeline, and
//! the PWS1 output flows straight back out through the segment framing;
//! decompression is the mirror image. Both run the registry's one
//! stream engine inline on the connection thread.
//!
//! The trace sink is the server's only record, and it must not grow per
//! request: the server records counters, observations and span totals,
//! and the codecs inside heavy requests report through a recorder that
//! keeps no span events.

use crate::proto::{self, CompressHeader, RequestPrefix, SegmentWriter, ServeError};
use crate::ServeConfig;
use pwrel_pipeline::stream::decode_stream_header;
use pwrel_pipeline::{
    global, identify, CodecRegistry, CompressOpts, PipelineElem, ReadSource, StreamHeader,
    WriteSink,
};
use pwrel_trace::{stage, Recorder, TraceSink};
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Elements per PWS1 chunk when neither the request nor the server
/// config picks one (1 Mi elements = 4 MiB of `f32`, 8 MiB of `f64`).
const DEFAULT_CHUNK_ELEMS: usize = 1 << 20;

/// Pause before retrying a failed `accept`. A failure such as running
/// out of file descriptors persists while connections wait in the
/// backlog, so retrying at once would spin a core.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// State shared by the acceptor and every connection thread.
struct Shared {
    cfg: ServeConfig,
    registry: &'static CodecRegistry,
    /// The server's one record, rendered by the `metrics` request.
    sink: TraceSink,
    /// Heavy requests currently processing (the `busy` gate).
    inflight: AtomicUsize,
    /// Open connections (the connection-cap gate and a metrics gauge).
    conns: AtomicUsize,
    shutdown: AtomicBool,
}

/// RAII slot under the global in-flight cap.
struct InflightGuard<'a>(&'a AtomicUsize);

impl<'a> InflightGuard<'a> {
    fn try_acquire(counter: &'a AtomicUsize, cap: usize) -> Option<Self> {
        let mut cur = counter.load(Ordering::Relaxed);
        loop {
            if cur >= cap {
                return None;
            }
            match counter.compare_exchange_weak(cur, cur + 1, Ordering::AcqRel, Ordering::Relaxed) {
                Ok(_) => return Some(InflightGuard(counter)),
                Err(seen) => cur = seen,
            }
        }
    }
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The recorder heavy requests hand the codec: counters, observations
/// and stage totals go to the server's sink, span events go nowhere. A
/// stream round trip opens dozens of spans, and a sink that kept them
/// would grow for the life of the process.
struct Aggregates<'a>(&'a TraceSink);

impl Recorder for Aggregates<'_> {
    fn is_enabled(&self) -> bool {
        true
    }

    fn add(&self, name: &'static str, delta: u64) {
        self.0.add(name, delta);
    }

    fn observe(&self, name: &'static str, value: f64) {
        self.0.observe(name, value);
    }

    fn add_span_total(&self, name: &'static str, total_ns: u64, calls: u64) {
        self.0.add_span_total(name, total_ns, calls);
    }
}

/// RAII open-connection count.
struct ConnGuard(Arc<Shared>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.conns.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Byte-counting reader enforcing the per-connection quota and flagging
/// why a downstream parse failed (quota vs. stall), so a
/// [`pwrel_data::CodecError`] surfacing from the pipeline can be mapped
/// back to the precise protocol status.
struct MeteredReader<R> {
    inner: R,
    bytes_read: u64,
    quota: u64,
    quota_hit: bool,
    timed_out: bool,
}

impl<R: Read> MeteredReader<R> {
    fn new(inner: R, quota: u64) -> Self {
        Self {
            inner,
            bytes_read: 0,
            quota,
            quota_hit: false,
            timed_out: false,
        }
    }
}

impl<R: Read> Read for MeteredReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let cap = if self.quota > 0 {
            let left = self.quota.saturating_sub(self.bytes_read);
            if left == 0 {
                self.quota_hit = true;
                return Err(std::io::Error::other("connection byte quota exhausted"));
            }
            (buf.len() as u64).min(left) as usize
        } else {
            buf.len()
        };
        let Some(window) = buf.get_mut(..cap) else {
            return Ok(0);
        };
        match self.inner.read(window) {
            Ok(n) => {
                self.bytes_read = self.bytes_read.saturating_add(n as u64);
                Ok(n)
            }
            Err(e) => {
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) {
                    self.timed_out = true;
                }
                Err(e)
            }
        }
    }
}

/// A bound PWRP/1 server, ready to [`run`](Server::run) or
/// [`spawn`](Server::spawn).
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// Handle to a spawned server: address for clients plus shutdown.
/// Dropping the handle shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds the configured address (port 0 picks an ephemeral port —
    /// read it back with [`Server::local_addr`]).
    pub fn bind(cfg: ServeConfig) -> Result<Self, ServeError> {
        let listener = TcpListener::bind(&cfg.addr).map_err(ServeError::Io)?;
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                cfg,
                registry: global(),
                sink: TraceSink::new(),
                inflight: AtomicUsize::new(0),
                conns: AtomicUsize::new(0),
                shutdown: AtomicBool::new(false),
            }),
        })
    }

    /// The bound listen address.
    pub fn local_addr(&self) -> Result<SocketAddr, ServeError> {
        self.listener.local_addr().map_err(ServeError::Io)
    }

    /// Runs the accept loop on the calling thread until shutdown.
    pub fn run(self) -> Result<(), ServeError> {
        let shared = Arc::clone(&self.shared);
        accept_loop(self.listener, shared);
        Ok(())
    }

    /// Runs the accept loop on a background thread and returns a handle
    /// for clients and shutdown.
    pub fn spawn(self) -> Result<ServerHandle, ServeError> {
        let addr = self.local_addr()?;
        let shared = Arc::clone(&self.shared);
        let listener = self.listener;
        let loop_shared = Arc::clone(&shared);
        let join = std::thread::Builder::new()
            .name("pwrp-accept".to_string())
            .spawn(move || accept_loop(listener, loop_shared))
            .map_err(ServeError::Io)?;
        Ok(ServerHandle {
            addr,
            shared,
            join: Some(join),
        })
    }
}

impl ServerHandle {
    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown and waits for the acceptor to exit. Connection
    /// threads notice the flag at their next request boundary.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(ACCEPT_BACKOFF);
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        shared.sink.add(stage::C_SERVE_CONNECTIONS, 1);
        let open = shared.conns.fetch_add(1, Ordering::AcqRel) + 1;
        let guard = ConnGuard(Arc::clone(&shared));
        if open > shared.cfg.max_connections {
            shared.sink.add(stage::C_SERVE_REFUSED, 1);
            count_response(&shared, proto::ST_BUSY);
            refuse(stream, proto::ST_BUSY, "connection cap reached");
            drop(guard);
            continue;
        }
        let conn_shared = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name("pwrp-conn".to_string())
            .spawn(move || {
                let _guard = guard;
                handle_connection(stream, conn_shared);
            });
        // Spawn failure (resource exhaustion): shed the connection.
        if spawned.is_err() {
            shared.sink.add(stage::C_SERVE_REFUSED, 1);
        }
    }
}

/// Best-effort refusal: hello + connection-level error, then close.
fn refuse(stream: TcpStream, status: u8, msg: &str) {
    let mut w = BufWriter::new(stream);
    let _ = w.write_all(&proto::encode_hello(proto::PROTO_VERSION));
    let _ = proto::write_response_prefix(&mut w, proto::MSG_CONNECTION, 0, status);
    let _ = proto::write_error_msg(&mut w, msg);
    let _ = w.flush();
}

/// Maps a request failure to its protocol status and detail, using the
/// reader's flags to tell quota exhaustion and stalls apart from
/// genuine corruption.
fn classify<R: Read>(err: &ServeError, reader: &MeteredReader<R>) -> (u8, String) {
    if reader.quota_hit {
        return (
            proto::ST_QUOTA,
            "connection byte quota exhausted".to_string(),
        );
    }
    if reader.timed_out || err.is_timeout() {
        return (proto::ST_TIMEOUT, "read timed out".to_string());
    }
    match err {
        ServeError::Status { code, msg } => (*code, msg.clone()),
        ServeError::Protocol(m) => (proto::ST_BAD_REQUEST, (*m).to_string()),
        ServeError::Codec(e) => match e {
            pwrel_data::CodecError::Corrupt(m) => (proto::ST_CORRUPT, (*m).to_string()),
            pwrel_data::CodecError::InvalidArgument(m) => (proto::ST_BAD_REQUEST, (*m).to_string()),
            pwrel_data::CodecError::Mismatch(m) => (proto::ST_BAD_REQUEST, (*m).to_string()),
        },
        ServeError::Io(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
            (proto::ST_BAD_REQUEST, "truncated request".to_string())
        }
        ServeError::Io(e) => (proto::ST_INTERNAL, format!("i/o failure: {}", e.kind())),
    }
}

/// Counts one response with status `status`.
fn count_response(shared: &Shared, status: u8) {
    shared.sink.add(proto::status_counter(status), 1);
}

fn handle_connection(stream: TcpStream, shared: Arc<Shared>) {
    let timeout = Duration::from_millis(shared.cfg.read_timeout_ms);
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = stream.set_write_timeout(Some(timeout));
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut writer = BufWriter::new(write_half);
    let mut reader = MeteredReader::new(BufReader::new(stream), shared.cfg.quota_bytes);

    // Handshake: announce, read the peer's announcement, take the min.
    if writer
        .write_all(&proto::encode_hello(proto::PROTO_VERSION))
        .is_err()
        || writer.flush().is_err()
    {
        return;
    }
    let peer_version = match proto::decode_hello(&mut reader) {
        Ok(v) => v,
        Err(_) => return,
    };
    if peer_version.min(proto::PROTO_VERSION) < 1 {
        count_response(&shared, proto::ST_UNSUPPORTED_VERSION);
        let _ = proto::write_response_prefix(
            &mut writer,
            proto::MSG_CONNECTION,
            0,
            proto::ST_UNSUPPORTED_VERSION,
        );
        let _ = proto::write_error_msg(&mut writer, "this server speaks PWRP version 1");
        let _ = writer.flush();
        return;
    }

    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let prefix = match proto::decode_request_prefix(&mut reader) {
            Ok(None) => return,
            Ok(Some(p)) => p,
            Err(e) => {
                // Prefix never arrived intact; answer at connection level
                // when the cause is identifiable (the slowloris case).
                let (status, msg) = classify(&e, &reader);
                if status == proto::ST_TIMEOUT || status == proto::ST_QUOTA {
                    count_response(&shared, status);
                    let _ =
                        proto::write_response_prefix(&mut writer, proto::MSG_CONNECTION, 0, status);
                    let _ = proto::write_error_msg(&mut writer, &msg);
                    let _ = writer.flush();
                }
                return;
            }
        };
        shared.sink.add(stage::C_SERVE_REQUESTS, 1);
        let started = Instant::now();
        let bytes_before = reader.bytes_read;

        let outcome = dispatch(prefix, &mut reader, &mut writer, &shared);

        let elapsed = started.elapsed();
        let us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        shared.sink.observe(stage::O_SERVE_REQUEST_US, us as f64);
        shared.sink.add_span_total(stage::SERVE_REQUEST, ns, 1);
        shared.sink.add(
            stage::C_SERVE_BYTES_IN,
            reader.bytes_read.saturating_sub(bytes_before),
        );

        match outcome {
            Ok(true) => continue,
            Ok(false) => return,
            Err(e) => {
                let (status, msg) = classify(&e, &reader);
                count_response(&shared, status);
                let _ = proto::write_response_prefix(
                    &mut writer,
                    prefix.msg_type,
                    prefix.request_id,
                    status,
                );
                let _ = proto::write_error_msg(&mut writer, &msg);
                let _ = writer.flush();
                return;
            }
        }
    }
}

/// Runs one request. `Ok(true)` = responded, connection stays open;
/// `Ok(false)` = responded (possibly with an error trailer mid-body),
/// connection must close; `Err` = nothing written yet, the caller sends
/// a prefix-level error response and closes.
fn dispatch(
    prefix: RequestPrefix,
    reader: &mut MeteredReader<BufReader<TcpStream>>,
    writer: &mut BufWriter<TcpStream>,
    shared: &Shared,
) -> Result<bool, ServeError> {
    match prefix.msg_type {
        proto::MSG_PING => {
            respond_ok_body(writer, prefix, shared, &[])?;
            Ok(true)
        }
        proto::MSG_CODECS => {
            let t0 = Instant::now();
            let mut text = String::new();
            for codec in shared.registry.iter() {
                use std::fmt::Write as _;
                let _ = writeln!(text, "{} {} {}", codec.id(), codec.name(), codec.describe());
            }
            span_total(shared, stage::SERVE_CODECS, t0);
            respond_ok_body(writer, prefix, shared, text.as_bytes())?;
            Ok(true)
        }
        proto::MSG_METRICS => {
            let t0 = Instant::now();
            let text = crate::metrics::render(
                &shared.sink,
                shared.conns.load(Ordering::Relaxed) as u64,
                shared.inflight.load(Ordering::Relaxed) as u64,
            );
            span_total(shared, stage::SERVE_METRICS, t0);
            respond_ok_body(writer, prefix, shared, text.as_bytes())?;
            Ok(true)
        }
        proto::MSG_INFO => {
            let t0 = Instant::now();
            let blob = proto::decode_info_blob(reader)?;
            let text = identify(&blob).map_or("unrecognized stream".to_string(), |i| i.to_string());
            span_total(shared, stage::SERVE_INFO, t0);
            respond_ok_body(writer, prefix, shared, text.as_bytes())?;
            Ok(true)
        }
        proto::MSG_COMPRESS => handle_compress(prefix, reader, writer, shared),
        proto::MSG_DECOMPRESS => handle_decompress(prefix, reader, writer, shared),
        _ => Err(ServeError::Status {
            code: proto::ST_BAD_REQUEST,
            msg: format!("unknown request type 0x{:02x}", prefix.msg_type),
        }),
    }
}

fn span_total(shared: &Shared, name: &'static str, t0: Instant) {
    let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    shared.sink.add_span_total(name, ns, 1);
}

/// Writes a complete OK response with the given body bytes.
fn respond_ok_body(
    writer: &mut BufWriter<TcpStream>,
    prefix: RequestPrefix,
    shared: &Shared,
    body: &[u8],
) -> Result<(), ServeError> {
    proto::write_response_prefix(writer, prefix.msg_type, prefix.request_id, proto::ST_OK)?;
    let mut seg = SegmentWriter::new(writer);
    seg.write_all(body).map_err(ServeError::Io)?;
    let sent = seg.finish(proto::ST_OK, "")?;
    shared.sink.add(stage::C_SERVE_BYTES_OUT, sent);
    count_response(shared, proto::ST_OK);
    Ok(())
}

/// The `compress` handler: header → admission → in-flight gate → OK
/// prefix → stream the raw body through the pipeline into segments.
fn handle_compress(
    prefix: RequestPrefix,
    reader: &mut MeteredReader<BufReader<TcpStream>>,
    writer: &mut BufWriter<TcpStream>,
    shared: &Shared,
) -> Result<bool, ServeError> {
    let hdr = proto::decode_compress_header(reader, shared.cfg.max_request_elems)?;
    let Some(codec) = shared.registry.get(hdr.codec_id) else {
        return Err(ServeError::Status {
            code: proto::ST_UNKNOWN_CODEC,
            msg: format!("no codec with id {}", hdr.codec_id),
        });
    };
    let name = codec.name();
    let Some(_slot) = InflightGuard::try_acquire(&shared.inflight, shared.cfg.max_inflight) else {
        return Err(ServeError::Status {
            code: proto::ST_BUSY,
            msg: "in-flight request cap reached; retry later".to_string(),
        });
    };

    proto::write_response_prefix(writer, prefix.msg_type, prefix.request_id, proto::ST_OK)?;
    let t0 = Instant::now();
    let mut seg = SegmentWriter::new(writer);
    let result = match hdr.elem_bits {
        32 => compress_body::<f32>(shared, name, &hdr, reader, &mut seg),
        64 => compress_body::<f64>(shared, name, &hdr, reader, &mut seg),
        _ => Err(pwrel_data::CodecError::InvalidArgument(
            "element width must be 32 or 64",
        )),
    };
    span_total(shared, stage::SERVE_COMPRESS, t0);
    finish_heavy(seg, result.map(|_| ()), reader, shared)
}

fn compress_body<F: PipelineElem>(
    shared: &Shared,
    name: &str,
    hdr: &CompressHeader,
    reader: &mut MeteredReader<BufReader<TcpStream>>,
    seg: &mut SegmentWriter<'_>,
) -> Result<(), pwrel_data::CodecError> {
    let total = hdr.dims.len();
    let nbytes = (total as u64).saturating_mul(F::NBYTES as u64);
    let opts = CompressOpts {
        bound: hdr.bound,
        base: hdr.base,
    };
    let limited = Read::take(reader, nbytes);
    let mut src: ReadSource<_> = ReadSource::new(limited);
    shared.registry.compress_stream_traced::<F>(
        name,
        &mut src,
        seg,
        hdr.dims,
        &opts,
        effective_chunk_elems(hdr.chunk_elems, &shared.cfg, total),
        &Aggregates(&shared.sink),
    )?;
    Ok(())
}

/// The `decompress` handler: PWS1 header off the socket → shape
/// admission against the server cap → in-flight gate → OK prefix →
/// frame walk streaming raw elements into segments.
fn handle_decompress(
    prefix: RequestPrefix,
    reader: &mut MeteredReader<BufReader<TcpStream>>,
    writer: &mut BufWriter<TcpStream>,
    shared: &Shared,
) -> Result<bool, ServeError> {
    let header = decode_stream_header(reader).map_err(ServeError::Codec)?;
    let total = header.dims.len() as u64;
    if total == 0 {
        return Err(ServeError::Protocol("empty field in stream header"));
    }
    if total > shared.cfg.max_request_elems {
        return Err(ServeError::Status {
            code: proto::ST_TOO_LARGE,
            msg: format!(
                "{total} elements exceeds the server cap of {}",
                shared.cfg.max_request_elems
            ),
        });
    }
    if shared.registry.get(header.codec_id).is_none() {
        return Err(ServeError::Status {
            code: proto::ST_UNKNOWN_CODEC,
            msg: format!("no codec with id {}", header.codec_id),
        });
    }
    let Some(_slot) = InflightGuard::try_acquire(&shared.inflight, shared.cfg.max_inflight) else {
        return Err(ServeError::Status {
            code: proto::ST_BUSY,
            msg: "in-flight request cap reached; retry later".to_string(),
        });
    };

    proto::write_response_prefix(writer, prefix.msg_type, prefix.request_id, proto::ST_OK)?;
    let t0 = Instant::now();
    let mut seg = SegmentWriter::new(writer);
    let result = match header.elem_bits {
        32 => decompress_body::<f32>(shared, &header, reader, &mut seg),
        64 => decompress_body::<f64>(shared, &header, reader, &mut seg),
        _ => Err(pwrel_data::CodecError::Corrupt(
            "element width must be 32 or 64",
        )),
    };
    span_total(shared, stage::SERVE_DECOMPRESS, t0);
    finish_heavy(seg, result, reader, shared)
}

fn decompress_body<F: PipelineElem>(
    shared: &Shared,
    header: &StreamHeader,
    reader: &mut MeteredReader<BufReader<TcpStream>>,
    seg: &mut SegmentWriter<'_>,
) -> Result<(), pwrel_data::CodecError> {
    let mut sink: WriteSink<&mut SegmentWriter<'_>> = WriteSink::new(seg);
    shared.registry.decompress_stream_body_traced::<F>(
        header,
        reader,
        &mut sink,
        &Aggregates(&shared.sink),
    )?;
    Ok(())
}

/// Closes a heavy-request body: OK trailer on success (connection
/// lives), classified error trailer on failure (connection closes —
/// the request's remaining body bytes were never consumed).
fn finish_heavy(
    seg: SegmentWriter<'_>,
    result: Result<(), pwrel_data::CodecError>,
    reader: &MeteredReader<BufReader<TcpStream>>,
    shared: &Shared,
) -> Result<bool, ServeError> {
    match result {
        Ok(()) => {
            let sent = seg.finish(proto::ST_OK, "")?;
            shared.sink.add(stage::C_SERVE_BYTES_OUT, sent);
            count_response(shared, proto::ST_OK);
            Ok(true)
        }
        Err(e) => {
            let (status, msg) = classify(&ServeError::Codec(e), reader);
            count_response(shared, status);
            let sent = seg.finish(status, &msg)?;
            shared.sink.add(stage::C_SERVE_BYTES_OUT, sent);
            Ok(false)
        }
    }
}

/// Picks the chunk size for a compress request: request value, else
/// server default, else [`DEFAULT_CHUNK_ELEMS`]; always clamped into
/// `1..=total` so hostile or oversized values cannot reach
/// [`pwrel_pipeline::stream::ChunkPlan`] unvetted.
fn effective_chunk_elems(requested: u64, cfg: &ServeConfig, total: usize) -> usize {
    let base = if requested > 0 {
        requested.min(total as u64) as usize
    } else if cfg.chunk_elems > 0 {
        cfg.chunk_elems
    } else {
        DEFAULT_CHUNK_ELEMS
    };
    base.min(total).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inflight_guard_caps_and_releases() {
        let ctr = AtomicUsize::new(0);
        let a = InflightGuard::try_acquire(&ctr, 2).expect("slot 1");
        let b = InflightGuard::try_acquire(&ctr, 2).expect("slot 2");
        assert!(InflightGuard::try_acquire(&ctr, 2).is_none());
        drop(a);
        let c = InflightGuard::try_acquire(&ctr, 2).expect("freed slot");
        drop(b);
        drop(c);
        assert_eq!(ctr.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn metered_reader_enforces_quota() {
        let data = [7u8; 100];
        let mut r = MeteredReader::new(&data[..], 10);
        let mut buf = [0u8; 64];
        let n = r.read(&mut buf).expect("within quota");
        assert_eq!(n, 10);
        assert!(!r.quota_hit);
        assert!(r.read(&mut buf).is_err());
        assert!(r.quota_hit);
    }

    #[test]
    fn metered_reader_unlimited_when_zero() {
        let data = [7u8; 100];
        let mut r = MeteredReader::new(&data[..], 0);
        let mut out = Vec::new();
        r.read_to_end(&mut out).expect("no quota");
        assert_eq!(out.len(), 100);
        assert_eq!(r.bytes_read, 100);
    }

    #[test]
    fn heavy_requests_leave_no_span_events_in_the_sink() {
        let handle = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServeConfig::default()
        })
        .and_then(Server::spawn)
        .expect("spawn server");
        let codec = global().by_name("sz_t").expect("sz_t registered").id();
        let dims = pwrel_data::Dims::d3(16, 16, 16);
        let data: Vec<f32> = (0..dims.len()).map(|i| 1.0 + (i % 29) as f32).collect();
        let mut client = crate::Client::connect(handle.addr()).expect("connect");
        for _ in 0..3 {
            let stream = client
                .compress_elems(codec, &data, dims, 1e-3, pwrel_core::LogBase::Two)
                .expect("compress");
            let back: Vec<f32> = client.decompress_elems(&stream).expect("decompress");
            assert_eq!(back.len(), data.len());
        }
        let text = client.metrics().expect("metrics");
        assert_eq!(handle.shared.sink.events().len(), 0);
        // The codecs' counters and stage totals still reach the record.
        for name in ["trace_quant_values ", "trace_span_transform_calls "] {
            assert!(
                text.lines().any(|l| l.starts_with(name)),
                "{name}missing:\n{text}"
            );
        }
    }

    #[test]
    fn chunk_elems_resolution_order_and_clamp() {
        let mut cfg = ServeConfig {
            chunk_elems: 0,
            ..ServeConfig::default()
        };
        assert_eq!(effective_chunk_elems(0, &cfg, 10), 10);
        assert_eq!(effective_chunk_elems(4, &cfg, 10), 4);
        assert_eq!(effective_chunk_elems(0, &cfg, 1 << 30), DEFAULT_CHUNK_ELEMS);
        cfg.chunk_elems = 6;
        assert_eq!(effective_chunk_elems(0, &cfg, 10), 6);
        assert_eq!(effective_chunk_elems(0, &cfg, 4), 4);
        assert_eq!(effective_chunk_elems(1 << 40, &cfg, 10), 10);
    }
}
