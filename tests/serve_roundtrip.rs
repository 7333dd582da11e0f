//! Black-box integration tests for `pwrel-serve`: every test talks to a
//! real server over a real TCP socket.
//!
//! Three guarantees under test (PROTOCOL.md / DESIGN.md §17):
//!
//! 1. **Transport adds nothing.** A stream compressed through the
//!    server is byte-identical to `CodecRegistry::compress_stream` run
//!    locally with the same codec, bound, dims and chunking — for every
//!    registered codec at both precisions — and concurrent clients all
//!    get those same bytes.
//! 2. **Hostile input maps to a status, never a panic.** Each protocol
//!    error code is reachable from the wire (bad magic, version 0,
//!    unknown request type, unknown codec, corrupt body, quota, element
//!    cap, stalled header, busy), the response carries the right code,
//!    and the server keeps serving afterwards.
//! 3. **Overload degrades predictably.** Connection-cap and in-flight
//!    cap rejections are `busy`, delivered as connection-level or
//!    request-level errors respectively, and the `metrics` response
//!    counts them from the server's one record.

use pwrel::data::Float;
use pwrel::pipeline::{global, CompressOpts, SliceSource};
use pwrel_serve::proto;
use pwrel_serve::{Client, CompressHeader, ServeConfig, Server, ServerHandle};
use std::io::{Read, Write};
use std::net::TcpStream;

fn spawn(cfg: ServeConfig) -> ServerHandle {
    Server::bind(cfg).expect("bind").spawn().expect("spawn")
}

fn spawn_default() -> ServerHandle {
    spawn(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..Default::default()
    })
}

/// Values spanning several decades with exact zeros sprinkled in — the
/// shape the transform codecs are built for.
fn sample<F: pwrel::data::Float>(n: usize) -> Vec<F> {
    (0..n)
        .map(|i| {
            if i % 97 == 0 {
                F::from_f64(0.0)
            } else {
                F::from_f64(((i as f64) * 0.013).sin() * 10f64.powi((i % 7) as i32 - 3))
            }
        })
        .collect()
}

/// The local reference stream: `compress_stream` with the same
/// parameters the server resolves for the request.
fn local_stream<F: pwrel::pipeline::PipelineElem>(
    codec: &str,
    data: &[F],
    dims: pwrel::data::Dims,
    bound: f64,
    chunk_elems: usize,
) -> Vec<u8> {
    let mut src = SliceSource::new(data);
    let mut out = Vec::new();
    global()
        .compress_stream::<F>(
            codec,
            &mut src,
            &mut out,
            dims,
            &CompressOpts::rel(bound),
            chunk_elems,
        )
        .unwrap();
    out
}

/// Compresses `data` through the server with an explicit chunk size.
fn server_stream<F: pwrel::data::Float>(
    client: &mut Client,
    codec_id: u8,
    data: &[F],
    dims: pwrel::data::Dims,
    bound: f64,
    chunk_elems: usize,
) -> Vec<u8> {
    let mut body = Vec::with_capacity(data.len() * F::NBYTES);
    for v in data {
        v.write_le(&mut body);
    }
    let header = CompressHeader {
        codec_id,
        elem_bits: F::BITS as u8,
        base: pwrel::core::LogBase::Two,
        bound,
        dims,
        chunk_elems: chunk_elems as u64,
    };
    let mut out = Vec::new();
    let mut src: &[u8] = &body;
    client
        .compress_stream(&header, &mut src, &mut out)
        .expect("server compress");
    out
}

// ---------------------------------------------------------------------
// 1. Transport adds nothing.
// ---------------------------------------------------------------------

#[test]
fn every_codec_matches_local_compress_and_round_trips_f32() {
    let dims = pwrel::data::Dims::d2(32, 64);
    let data: Vec<f32> = sample(dims.len());
    let bound = 1e-3;
    let handle = spawn_default();
    for codec in global().iter() {
        let mut client = Client::connect(handle.addr()).expect("connect");
        let via_server = server_stream(&mut client, codec.id(), &data, dims, bound, 512);
        let local = local_stream(codec.name(), &data, dims, bound, 512);
        assert_eq!(via_server, local, "{}: server stream differs", codec.name());

        // Round trip back through the server; must equal the local
        // decode bit for bit.
        let back: Vec<f32> = client.decompress_elems(&via_server).expect("decompress");
        let mut sink = pwrel::pipeline::VecSink::new();
        global()
            .decompress_stream::<f32>(&mut &local[..], &mut sink)
            .unwrap();
        let local_back = sink.into_inner();
        assert_eq!(back.len(), data.len(), "{}", codec.name());
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&local_back), "{}", codec.name());
    }
}

#[test]
fn every_codec_matches_local_compress_f64() {
    let dims = pwrel::data::Dims::d1(1500);
    let data: Vec<f64> = sample(dims.len());
    let bound = 1e-4;
    let handle = spawn_default();
    for codec in global().iter() {
        let mut client = Client::connect(handle.addr()).expect("connect");
        let via_server = server_stream(&mut client, codec.id(), &data, dims, bound, 400);
        let local = local_stream(codec.name(), &data, dims, bound, 400);
        assert_eq!(via_server, local, "{}: server stream differs", codec.name());
        let back: Vec<f64> = client.decompress_elems(&via_server).expect("decompress");
        assert_eq!(back.len(), data.len(), "{}", codec.name());
    }
}

#[test]
fn concurrent_clients_get_identical_bytes() {
    let handle = spawn_default();
    let addr = handle.addr();
    let dims = pwrel::data::Dims::d2(48, 64);
    let data: Vec<f32> = sample(dims.len());
    let reference = local_stream("sz_t", &data, dims, 1e-3, 1024);
    let codec_id = global().by_name("sz_t").unwrap().id();

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let data = &data;
                let reference = &reference;
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    for _ in 0..3 {
                        let got = server_stream(&mut client, codec_id, data, dims, 1e-3, 1024);
                        assert_eq!(&got, reference, "concurrent stream differs");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread");
        }
    });
}

#[test]
fn info_ping_codecs_metrics_respond() {
    let handle = spawn_default();
    let mut client = Client::connect(handle.addr()).expect("connect");
    assert_eq!(client.server_version(), proto::PROTO_VERSION);
    client.ping().expect("ping");

    let codecs = client.codecs().expect("codecs");
    for name in ["sz_t", "zfp_t", "zfp_p", "fpzip", "isabela"] {
        assert!(codecs.contains(name), "codec listing misses {name}");
    }

    let dims = pwrel::data::Dims::d1(600);
    let data: Vec<f32> = sample(dims.len());
    let codec_id = global().by_name("sz_t").unwrap().id();
    let stream = server_stream(&mut client, codec_id, &data, dims, 1e-2, 200);
    let info = client.info(&stream).expect("info");
    assert!(info.contains("framed stream"), "{info}");

    let metrics = client.metrics().expect("metrics");
    // Every line the OPERATIONS.md glossary names except the error
    // responses, which appear once they occur (see
    // `metrics_count_refusals_and_requests_once`).
    for name in [
        "pwrp_requests_total",
        "pwrp_responses_ok",
        "pwrp_connections_open",
        "pwrp_connections_total",
        "pwrp_connections_refused",
        "pwrp_inflight",
        "pwrp_latency_count",
        "pwrp_latency_mean_us",
        "pwrp_latency_p50_us",
        "pwrp_latency_p90_us",
        "pwrp_latency_p99_us",
        "pwrp_latency_max_us",
        "trace_serve_requests",
        "trace_serve_responses_ok",
        "trace_span_serve.compress_ns_total",
    ] {
        assert!(
            metric(&metrics, name).is_some(),
            "metrics misses {name}:\n{metrics}"
        );
    }
}

#[test]
fn info_identifies_a_unified_stream_longer_than_the_blob_cap() {
    let handle = spawn_default();
    let mut client = Client::connect(handle.addr()).expect("connect");
    let dims = pwrel::data::Dims::d1(8192);
    let data: Vec<f32> = sample(dims.len());
    let stream = global()
        .compress("sz_t", &data, dims, &CompressOpts::rel(1e-3))
        .expect("compress");
    assert!(
        stream.len() as u64 > proto::INFO_BLOB_MAX,
        "{} bytes",
        stream.len()
    );
    // The client sends only the first INFO_BLOB_MAX bytes; the header
    // alone names the stream, in the rendering `pwrel info` prints.
    let info = client.info(&stream).expect("info");
    assert!(info.starts_with("unified container: codec sz_t"), "{info}");
    let local = pwrel::pipeline::identify(&stream).expect("identify");
    assert_eq!(info, local.to_string());
}

/// The value of line `name` in a `metrics` response.
fn metric(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
}

// ---------------------------------------------------------------------
// 2. Hostile input maps to a status, never a panic.
// ---------------------------------------------------------------------

/// Raw-socket helper: handshake manually, send `payload`, read the
/// response prefix (and error message when non-OK). Returns
/// `(msg_type, request_id, status, msg)`.
fn raw_exchange(
    addr: std::net::SocketAddr,
    hello: &[u8],
    payload: &[u8],
) -> std::io::Result<(u8, u32, u8, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(std::time::Duration::from_secs(20)))?;
    let mut server_hello = [0u8; 5];
    stream.read_exact(&mut server_hello)?;
    assert_eq!(&server_hello[..4], proto::HELLO_MAGIC);
    stream.write_all(hello)?;
    stream.write_all(payload)?;
    stream.flush()?;
    let mut prefix = [0u8; 6];
    stream.read_exact(&mut prefix)?;
    let msg_type = prefix[0];
    let request_id = u32::from_le_bytes([prefix[1], prefix[2], prefix[3], prefix[4]]);
    let status = prefix[5];
    let msg = if status != proto::ST_OK {
        proto::decode_error_msg(&mut stream).unwrap_or_default()
    } else {
        String::new()
    };
    Ok((msg_type, request_id, status, msg))
}

/// After a hostile exchange the server must still serve new clients.
fn assert_still_serving(addr: std::net::SocketAddr) {
    let mut client = Client::connect(addr).expect("reconnect after hostile input");
    client.ping().expect("ping after hostile input");
}

#[test]
fn bad_hello_magic_closes_the_connection() {
    let handle = spawn_default();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(20)))
        .unwrap();
    let mut server_hello = [0u8; 5];
    stream.read_exact(&mut server_hello).unwrap();
    stream.write_all(b"HTTP/1.1\r\n").unwrap();
    // No response is owed to a peer that failed the handshake; the
    // connection just ends.
    let mut rest = Vec::new();
    let n = stream.read_to_end(&mut rest).unwrap_or(0);
    assert_eq!(n, 0, "server sent bytes after a bad hello: {rest:?}");
    assert_still_serving(handle.addr());
}

#[test]
fn version_zero_is_refused_as_unsupported() {
    let handle = spawn_default();
    let mut hello = proto::HELLO_MAGIC.to_vec();
    hello.push(0); // NO_COMMON_VERSION
    let (msg_type, id, status, msg) = raw_exchange(handle.addr(), &hello, &[]).unwrap();
    assert_eq!(msg_type, proto::MSG_CONNECTION);
    assert_eq!(id, 0);
    assert_eq!(status, proto::ST_UNSUPPORTED_VERSION);
    assert!(msg.contains("version 1"), "{msg}");
    assert_still_serving(handle.addr());
}

#[test]
fn unknown_request_type_is_bad_request() {
    let handle = spawn_default();
    let hello = proto::encode_hello(proto::PROTO_VERSION);
    // Type 0x77, request id 9.
    let payload = [0x77u8, 9, 0, 0, 0];
    let (msg_type, id, status, msg) = raw_exchange(handle.addr(), &hello, &payload).unwrap();
    assert_eq!(msg_type, 0x77, "error echoes the request type");
    assert_eq!(id, 9, "error echoes the request id");
    assert_eq!(status, proto::ST_BAD_REQUEST);
    assert!(msg.contains("unknown request type"), "{msg}");
    assert_still_serving(handle.addr());
}

#[test]
fn unknown_codec_id_is_rejected_before_the_body() {
    let handle = spawn_default();
    let hello = proto::encode_hello(proto::PROTO_VERSION);
    // 2 is the retired id no codec may reuse; 250 was never assigned.
    for codec_id in [2u8, 250] {
        let mut payload = Vec::new();
        proto::encode_request_prefix(
            &mut payload,
            proto::RequestPrefix {
                msg_type: proto::MSG_COMPRESS,
                request_id: 1,
            },
        );
        proto::encode_compress_header(
            &mut payload,
            &CompressHeader {
                codec_id,
                elem_bits: 32,
                base: pwrel::core::LogBase::Two,
                bound: 1e-3,
                dims: pwrel::data::Dims::d1(16),
                chunk_elems: 0,
            },
        );
        let (_, _, status, msg) = raw_exchange(handle.addr(), &hello, &payload).unwrap();
        assert_eq!(status, proto::ST_UNKNOWN_CODEC, "id {codec_id}");
        assert!(msg.contains(&format!("id {codec_id}")), "{msg}");
    }
    assert_still_serving(handle.addr());
}

#[test]
fn corrupt_body_mid_stream_is_a_corrupt_trailer() {
    let handle = spawn_default();
    let mut client = Client::connect(handle.addr()).expect("connect");

    // A genuine framed stream with its tail replaced by garbage: the
    // PWS1 header parses (so the server answers OK and starts framing)
    // and the chunk walk then fails — the error must arrive as a
    // non-OK trailer, which surfaces as a Status error client-side.
    let dims = pwrel::data::Dims::d1(4096);
    let data: Vec<f32> = sample(dims.len());
    let mut stream = local_stream("sz_t", &data, dims, 1e-3, 1024);
    let tail = stream.len().saturating_sub(stream.len() / 2);
    for b in &mut stream[tail..] {
        *b ^= 0xA5;
    }
    let err = client.decompress_elems::<f32>(&stream).unwrap_err();
    match err {
        pwrel_serve::ServeError::Status { code, .. } => {
            assert_eq!(code, proto::ST_CORRUPT, "want corrupt, got {code}")
        }
        other => panic!("want a corrupt status, got {other:?}"),
    }
    assert_still_serving(handle.addr());
}

#[test]
fn garbage_decompress_body_is_rejected_cleanly() {
    // Short server read timeout: the truncated case below stalls the
    // header read and must resolve as a timeout, not hang the test.
    let handle = spawn(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        read_timeout_ms: 400,
        ..Default::default()
    });
    for junk in [
        vec![0u8; 64],
        vec![0xFFu8; 64],
        b"PWS1".to_vec(), // magic then truncation: looks like a stall
    ] {
        let mut client = Client::connect(handle.addr()).expect("connect");
        let err = client.decompress_elems::<f32>(&junk).unwrap_err();
        match err {
            pwrel_serve::ServeError::Status { code, .. } => assert!(
                code == proto::ST_CORRUPT
                    || code == proto::ST_BAD_REQUEST
                    || code == proto::ST_TIMEOUT,
                "unexpected status {code} for {junk:?}"
            ),
            other => panic!("want a status error, got {other:?}"),
        }
    }
    assert_still_serving(handle.addr());
}

#[test]
fn body_over_quota_is_a_quota_error() {
    let handle = spawn(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        quota_bytes: 4096,
        ..Default::default()
    });
    let dims = pwrel::data::Dims::d1(8192); // 32 KiB body >> 4 KiB quota
    let data: Vec<f32> = sample(dims.len());
    let mut client = Client::connect(handle.addr()).expect("connect");
    let codec_id = global().by_name("sz_t").unwrap().id();
    let mut body = Vec::new();
    for v in &data {
        v.write_le(&mut body);
    }
    let header = CompressHeader {
        codec_id,
        elem_bits: 32,
        base: pwrel::core::LogBase::Two,
        bound: 1e-3,
        dims,
        chunk_elems: 0,
    };
    let mut src: &[u8] = &body;
    let mut out = Vec::new();
    let err = client
        .compress_stream(&header, &mut src, &mut out)
        .unwrap_err();
    match err {
        pwrel_serve::ServeError::Status { code, .. } => assert_eq!(code, proto::ST_QUOTA),
        other => panic!("want quota status, got {other:?}"),
    }
    assert_still_serving(handle.addr());
}

#[test]
fn shape_over_element_cap_is_too_large() {
    let handle = spawn(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        max_request_elems: 1000,
        ..Default::default()
    });
    let mut client = Client::connect(handle.addr()).expect("connect");
    let err = client
        .compress_elems::<f32>(
            0,
            &[1.0f32; 8],
            // The header claims far more elements than the cap; the
            // server must reject it before reading any body.
            pwrel::data::Dims::d3(100, 100, 100),
            1e-3,
            pwrel::core::LogBase::Two,
        )
        .unwrap_err();
    match err {
        pwrel_serve::ServeError::Status { code, msg } => {
            assert_eq!(code, proto::ST_TOO_LARGE);
            assert!(msg.contains("1000000"), "{msg}");
        }
        other => panic!("want too_large status, got {other:?}"),
    }
    assert_still_serving(handle.addr());
}

#[test]
fn slowloris_partial_header_times_out() {
    let handle = spawn(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        read_timeout_ms: 300,
        ..Default::default()
    });
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(20)))
        .unwrap();
    let mut server_hello = [0u8; 5];
    stream.read_exact(&mut server_hello).unwrap();
    stream
        .write_all(&proto::encode_hello(proto::PROTO_VERSION))
        .unwrap();
    // Two bytes of a five-byte request prefix, then silence.
    stream.write_all(&[proto::MSG_PING, 1]).unwrap();
    stream.flush().unwrap();

    // Best effort, the server answers with a connection-level timeout
    // before dropping us.
    let mut prefix = [0u8; 6];
    stream.read_exact(&mut prefix).expect("timeout response");
    assert_eq!(prefix[0], proto::MSG_CONNECTION);
    assert_eq!(prefix[5], proto::ST_TIMEOUT);
    assert_still_serving(handle.addr());
}

// ---------------------------------------------------------------------
// 3. Overload degrades predictably.
// ---------------------------------------------------------------------

#[test]
fn connection_cap_refuses_with_busy() {
    let handle = spawn(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        max_connections: 1,
        ..Default::default()
    });
    let first = Client::connect(handle.addr()).expect("first connection");
    // Read the refusal without writing anything: the server sends its
    // hello plus a connection-level busy and closes immediately, so a
    // client write would race into a broken pipe.
    let mut second = TcpStream::connect(handle.addr()).unwrap();
    second
        .set_read_timeout(Some(std::time::Duration::from_secs(20)))
        .unwrap();
    let mut server_hello = [0u8; 5];
    second.read_exact(&mut server_hello).unwrap();
    assert_eq!(&server_hello[..4], proto::HELLO_MAGIC);
    let mut prefix = [0u8; 6];
    second.read_exact(&mut prefix).unwrap();
    assert_eq!(prefix[0], proto::MSG_CONNECTION);
    assert_eq!(prefix[5], proto::ST_BUSY);
    drop(first);
}

#[test]
fn metrics_count_refusals_and_requests_once() {
    let handle = spawn(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        max_connections: 1,
        ..Default::default()
    });
    let mut client = Client::connect(handle.addr()).expect("first connection");
    // One refusal at the connection cap, read to the end so the server
    // has counted it.
    let mut refused = TcpStream::connect(handle.addr()).unwrap();
    refused
        .set_read_timeout(Some(std::time::Duration::from_secs(20)))
        .unwrap();
    let mut rest = Vec::new();
    refused.read_to_end(&mut rest).unwrap();
    // The 5-byte hello, then a connection-level prefix ending in its
    // status byte.
    assert_eq!(rest.get(10), Some(&proto::ST_BUSY), "{rest:?}");

    client.ping().expect("ping");
    let dims = pwrel::data::Dims::d1(600);
    let data: Vec<f32> = sample(dims.len());
    let codec_id = global().by_name("sz_t").unwrap().id();
    let stream = server_stream(&mut client, codec_id, &data, dims, 1e-2, 200);
    let _: Vec<f32> = client.decompress_elems(&stream).expect("decompress");
    let text = client.metrics().expect("metrics");
    let value = |name: &str| metric(&text, name).unwrap_or_else(|| panic!("{name}:\n{text}"));

    assert_eq!(value("pwrp_responses_busy"), 1.0, "{text}");
    assert_eq!(value("trace_serve_responses_busy"), 1.0, "{text}");
    assert_eq!(value("pwrp_connections_refused"), 1.0, "{text}");
    assert_eq!(value("pwrp_requests_total"), 4.0, "{text}");
    assert_eq!(
        value("pwrp_requests_total"),
        value("trace_serve_requests"),
        "{text}"
    );
    assert_eq!(
        value("pwrp_latency_count"),
        value("trace_obs_serve_request_us_count"),
        "{text}"
    );
}

#[test]
fn inflight_cap_rejects_heavy_requests_with_busy() {
    let handle = spawn(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        max_inflight: 1,
        ..Default::default()
    });
    // Connection A opens a compress request and stalls mid-body,
    // holding the only in-flight slot.
    let mut a = TcpStream::connect(handle.addr()).unwrap();
    let mut server_hello = [0u8; 5];
    a.read_exact(&mut server_hello).unwrap();
    a.write_all(&proto::encode_hello(proto::PROTO_VERSION))
        .unwrap();
    let mut payload = Vec::new();
    proto::encode_request_prefix(
        &mut payload,
        proto::RequestPrefix {
            msg_type: proto::MSG_COMPRESS,
            request_id: 1,
        },
    );
    proto::encode_compress_header(
        &mut payload,
        &CompressHeader {
            codec_id: global().by_name("sz_t").unwrap().id(),
            elem_bits: 32,
            base: pwrel::core::LogBase::Two,
            bound: 1e-3,
            dims: pwrel::data::Dims::d1(1 << 20),
            chunk_elems: 0,
        },
    );
    a.write_all(&payload).unwrap();
    a.flush().unwrap();
    // Give the server time to parse the header and take the slot.
    std::thread::sleep(std::time::Duration::from_millis(300));

    // Connection B's heavy request must bounce with busy.
    let mut b = Client::connect(handle.addr()).expect("second connection");
    let err = b
        .compress_elems::<f32>(
            global().by_name("sz_t").unwrap().id(),
            &sample::<f32>(64),
            pwrel::data::Dims::d1(64),
            1e-3,
            pwrel::core::LogBase::Two,
        )
        .unwrap_err();
    match err {
        pwrel_serve::ServeError::Status { code, .. } => assert_eq!(code, proto::ST_BUSY),
        other => panic!("want busy, got {other:?}"),
    }

    // Light requests still pass while the slot is held.
    let mut c = Client::connect(handle.addr()).expect("third connection");
    c.ping().expect("light request under load");
    drop(a);
}
