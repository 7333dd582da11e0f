//! `serve.sz_t.density`: PWRP/1 over loopback against the `pwrel-serve`
//! binary, run as its own process with its default configuration (on an
//! ephemeral port) so its memory and CPU can be read from `/proc`.
//!
//! Two connections run a closed loop with no think time. Each request
//! pair compresses a 64³ density body in 4 chunks and then decompresses
//! the stream it got back. The field and codec are the one-shot
//! workload's, so the gap between the two is socket, protocol and the
//! sequential stream engine. Each connection reconnects after a bounded
//! session, well inside the server's per-connection byte quota. A run is
//! a fixed number of requests rather than a fixed time, so memory that
//! grows per request compares fairly between commits. The connections
//! pause together every few hundred milliseconds, and with no request
//! in flight the host-speed probe takes its readings.

use crate::data::{self, BoundCheck, BOUND};
use crate::layers::{self, Dir, Ledger};
use crate::report::Report;
use crate::speed::Probe;
use crate::{end_to_end, host, peak_rss, sample_peaks, set_up, stats, Args, Timings};
use pwrel_core::LogBase;
use pwrel_data::Dims;
use pwrel_pipeline::{global, CompressOpts, SliceSource, VecSink};
use pwrel_serve::proto::{ST_BUSY, ST_QUOTA, ST_TIMEOUT};
use pwrel_serve::{Client, CompressHeader, ServeError};
use pwrel_trace::{noop, Recorder, TraceSink};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

const CODEC: &str = "sz_t";
/// Fields in the rotating input set.
const INPUTS: u64 = 4;
/// PWS1 chunks per compress request.
const CHUNKS: usize = 4;
/// Concurrent client connections.
const CONNECTIONS: usize = 2;
/// Request pairs per connection before it reconnects: about 490 MiB of
/// request bodies, inside the default 1 GiB connection quota.
const SESSION_PAIRS: usize = 400;
/// Request pairs per second of `--seconds`. Close to what a 2-core host
/// sustains at the parent commit, so a run lasts about as long as asked;
/// fixed, so every commit serves the same number of requests.
const PAIRS_PER_SECOND: f64 = 72.0;
/// Request pairs per connection between two pauses for probe readings
/// (about 0.7 s at the parent commit).
const SEGMENT_PAIRS: usize = 24;
/// Probe readings in each pause.
const PROBE_READINGS: usize = 2;
/// Checked request pairs per connection that end set-up.
const WARMUP_PAIRS: usize = 4;
/// Local engine round trips per input in the traced run (half traced).
const LOCAL_ROUNDS: usize = 8;

fn dims() -> Dims {
    Dims::d3(64, 64, 64)
}

fn raw_bytes() -> usize {
    dims().len() * 4
}

fn chunk_elems() -> usize {
    dims().len() / CHUNKS
}

/// The `pwrel-serve` binary, built beside this one.
fn server_bin() -> PathBuf {
    std::env::current_exe()
        .expect("path of the running benchmark")
        .with_file_name("pwrel-serve")
}

/// The server process; killed and reaped when dropped.
struct Server {
    child: Child,
    addr: SocketAddr,
    /// Held open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    fn spawn(bin: &Path) -> Self {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| panic!("start {}: {e}", bin.display()));
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let addr = stdout
            .read_line(&mut line)
            .ok()
            .and_then(|_| line.trim().rsplit(' ').next()?.parse().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            panic!("pwrel-serve did not announce its address: {line:?}");
        };
        Server {
            child,
            addr,
            _stdout: stdout,
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The server's `metrics` response as `name → value`.
    fn metrics(&self) -> BTreeMap<String, f64> {
        let text = Client::connect(self.addr)
            .and_then(|mut c| c.metrics())
            .expect("metrics request");
        text.lines()
            .filter_map(|l| {
                let (k, v) = l.split_once(' ')?;
                Some((k.to_string(), v.trim().parse().ok()?))
            })
            .collect()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One input: its request body, reference stream and reconstruction.
struct Case {
    input: Vec<f32>,
    body: Vec<u8>,
    stream: Vec<u8>,
    decoded: Vec<u8>,
}

/// What one connection's requests saw.
#[derive(Default)]
struct Session {
    timings: Timings,
    connect_ns: Vec<f64>,
    attempted: u64,
    failed: u64,
    wrong: u64,
    refused: u64,
}

impl Session {
    fn merge(&mut self, other: Session) {
        self.timings.merge(other.timings);
        self.connect_ns.extend(other.connect_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.refused += other.refused;
    }

    fn fail(&mut self, e: &ServeError) {
        self.failed += 1;
        if matches!(e, ServeError::Status { code, .. } if [ST_BUSY, ST_QUOTA, ST_TIMEOUT].contains(code))
        {
            self.refused += 1;
        }
    }
}

/// One client connection's state, kept across segments.
struct Conn {
    /// Which connection this is; offsets its walk through the inputs.
    id: usize,
    client: Option<Client>,
    /// Pairs sent on the current connection.
    used: usize,
    /// Pairs sent in all.
    sent: usize,
}

/// `pairs` more checked compress + decompress pairs on `conn`,
/// reconnecting every [`SESSION_PAIRS`] pairs and after any error.
/// Completion times count from `start`.
fn drive(
    addr: SocketAddr,
    cases: &[Case],
    conn: &mut Conn,
    pairs: usize,
    start: Instant,
) -> Session {
    let header = CompressHeader {
        codec_id: global().by_name(CODEC).expect("codec registered").id(),
        elem_bits: 32,
        base: LogBase::Two,
        bound: BOUND,
        dims: dims(),
        chunk_elems: chunk_elems() as u64,
    };
    let mut s = Session::default();
    let (mut packed, mut back) = (Vec::new(), Vec::new());
    for _ in 0..pairs {
        let p = conn.sent;
        conn.sent += 1;
        if conn.used == SESSION_PAIRS {
            conn.client = None;
        }
        let c = match &mut conn.client {
            Some(c) => c,
            None => {
                let t0 = Instant::now();
                match Client::connect(addr) {
                    Ok(c) => {
                        s.connect_ns.push(t0.elapsed().as_nanos() as f64);
                        conn.used = 0;
                        conn.client.insert(c)
                    }
                    Err(e) => {
                        s.attempted += 1;
                        s.fail(&e);
                        continue;
                    }
                }
            }
        };
        conn.used += 1;
        let case = &cases[(conn.id + p) % cases.len()];
        s.attempted += 1;
        packed.clear();
        let t0 = Instant::now();
        let res = c.compress_stream(&header, &mut &case.body[..], &mut packed);
        let ns = t0.elapsed().as_nanos() as f64;
        match res {
            Ok(_) if packed == case.stream => {
                s.timings.compress_ns.push(ns);
                s.timings.compress_at.push(start.elapsed().as_secs_f64());
            }
            Ok(_) => {
                s.failed += 1;
                s.wrong += 1;
                continue;
            }
            Err(e) => {
                s.fail(&e);
                conn.client = None;
                continue;
            }
        }
        s.attempted += 1;
        back.clear();
        let t0 = Instant::now();
        let res = c.decompress_stream(&mut &packed[..], &mut back);
        let ns = t0.elapsed().as_nanos() as f64;
        match res {
            Ok(_) if back == case.decoded => {
                s.timings.decompress_ns.push(ns);
                s.timings.decompress_at.push(start.elapsed().as_secs_f64());
            }
            Ok(_) => {
                s.failed += 1;
                s.wrong += 1;
            }
            Err(e) => {
                s.fail(&e);
                conn.client = None;
            }
        }
    }
    s
}

/// Runs [`CONNECTIONS`] concurrent [`drive`] loops splitting `pairs`,
/// in segments of [`SEGMENT_PAIRS`] pairs per connection. Before each
/// segment and after the last, with no request in flight, `probe` (if
/// any) takes its readings; completion times count from its start.
/// Returns what the connections saw and how long they took.
fn drive_all(
    addr: SocketAddr,
    cases: &[Case],
    pairs: usize,
    mut probe: Option<&mut Probe>,
) -> (Session, Duration) {
    let per_conn = pairs.div_ceil(CONNECTIONS);
    let mut conns: Vec<Conn> = (0..CONNECTIONS)
        .map(|id| Conn {
            id,
            client: None,
            used: 0,
            sent: 0,
        })
        .collect();
    let start = probe.as_ref().map_or_else(Instant::now, |p| p.start());
    let mut all = Session::default();
    let mut done = 0;
    while done < per_conn {
        if let Some(p) = probe.as_deref_mut() {
            p.read(PROBE_READINGS);
        }
        let n = SEGMENT_PAIRS.min(per_conn - done);
        std::thread::scope(|scope| {
            let handles: Vec<_> = conns
                .iter_mut()
                .map(|conn| scope.spawn(move || drive(addr, cases, conn, n, start)))
                .collect();
            for h in handles {
                all.merge(h.join().expect("client thread"));
            }
        });
        done += n;
    }
    if let Some(p) = probe {
        p.read(PROBE_READINGS);
    }
    (all, start.elapsed())
}

fn fixture(seed: u64, bin: &Path, r: &mut Report) -> (Server, Vec<Case>, BoundCheck) {
    let server = Server::spawn(bin);
    let opts = CompressOpts::rel(BOUND);
    let mut check = BoundCheck::default();
    // References come from the sequential stream engine the server runs.
    let cases: Vec<Case> = (0..INPUTS)
        .map(|i| {
            let input = data::density(dims(), data::sub_seed(seed, i));
            let mut stream = Vec::new();
            global()
                .compress_stream::<f32>(
                    CODEC,
                    &mut SliceSource::new(&input),
                    &mut stream,
                    dims(),
                    &opts,
                    chunk_elems(),
                )
                .expect("reference compress");
            let mut sink = VecSink::new();
            global()
                .decompress_stream::<f32>(&mut &stream[..], &mut sink)
                .expect("reference decompress");
            let decoded = sink.into_inner();
            check.feed(&input, &decoded);
            Case {
                body: data::le_bytes(&input),
                decoded: data::le_bytes(&decoded),
                input,
                stream,
            }
        })
        .collect();
    let (warm, _) = drive_all(server.addr, &cases, WARMUP_PAIRS * CONNECTIONS, None);
    r.attempted += warm.attempted;
    r.failed += warm.failed;
    r.wrong += warm.wrong;
    (server, cases, check)
}

/// Times the sequential stream engine the server runs, in this process
/// on the same bodies, alternating untraced and traced round trips.
fn local_engine(cases: &[Case], r: &mut Report) -> (Ledger, Timings, Timings) {
    let opts = CompressOpts::rel(BOUND);
    let mut ledger = Ledger::default();
    let (mut plain, mut traced) = (Timings::default(), Timings::default());
    let round_trip = |case: &Case, c_rec: &dyn Recorder, d_rec: &dyn Recorder, r: &mut Report| {
        r.attempted += 2;
        let mut stream = Vec::new();
        let t0 = Instant::now();
        let res = global().compress_stream_traced::<f32>(
            CODEC,
            &mut SliceSource::new(&case.input),
            &mut stream,
            dims(),
            &opts,
            chunk_elems(),
            c_rec,
        );
        let c_ns = t0.elapsed().as_nanos() as f64;
        let mut sink = VecSink::new();
        let t1 = Instant::now();
        let dres = global().decompress_stream_traced::<f32>(&mut &stream[..], &mut sink, d_rec);
        let d_ns = t1.elapsed().as_nanos() as f64;
        let completed = res.is_ok() && dres.is_ok();
        let ok = completed
            && stream == case.stream
            && data::le_bytes(&sink.into_inner()) == case.decoded;
        if !ok {
            r.failed += 1;
            r.wrong += u64::from(completed);
        }
        ok.then_some([c_ns, d_ns])
    };
    for _ in 0..LOCAL_ROUNDS / 2 {
        for case in cases {
            if let Some([c, d]) = round_trip(case, noop(), noop(), r) {
                plain.compress_ns.push(c);
                plain.decompress_ns.push(d);
            }
            let (sc, sd) = (TraceSink::new(), TraceSink::new());
            if let Some([c, d]) = round_trip(case, &sc, &sd, r) {
                ledger.record(Dir::Compress, &sc, c, raw_bytes());
                ledger.record(Dir::Decompress, &sd, d, raw_bytes());
                traced.compress_ns.push(c);
                traced.decompress_ns.push(d);
            }
        }
    }
    (ledger, plain, traced)
}

pub fn run(args: &Args) -> Report {
    let mut r = Report::default();
    let ((server, cases, check), setups) = set_up(args.setup_repeats(), || {
        fixture(args.seed, &server_bin(), &mut r)
    });
    if !check.holds() {
        r.wrong += 1;
    }
    r.note(format!(
        "check {INPUTS} references: max |x-x'|/(b_r|x|) = {:.6} (b_r = {BOUND})",
        check.max_ratio
    ));
    let pid = server.pid();
    let local = args.trace.then(|| local_engine(&cases, &mut r));

    let pairs = (args.seconds * PAIRS_PER_SECOND).ceil() as usize;
    let before = server.metrics();
    let (cpu0, rss0) = (host::cpu_time(pid), host::rss_kib(pid));
    let peaks = sample_peaks(pid);
    // The server and both connections keep every core busy.
    let mut probe = Probe::new(crate::workers());
    let (s, wall) = drive_all(server.addr, &cases, pairs, Some(&mut probe));
    let (cpu1, rss1) = (host::cpu_time(pid), host::rss_kib(pid));
    let after = server.metrics();
    r.attempted += s.attempted;
    r.failed += s.failed;
    r.wrong += s.wrong;
    let completed = (s.timings.compress_ns.len() + s.timings.decompress_ns.len()) as f64;
    r.note(format!(
        "served {completed} requests over {CONNECTIONS} connections, {} sessions, in {:.2} s",
        s.connect_ns.len(),
        wall.as_secs_f64()
    ));

    peak_rss(&mut r, peaks, "server process");
    if let Some((ledger, plain, traced)) = local {
        ledger.stage_metrics(&mut r);
        let delta =
            |key: String| after.get(&key).unwrap_or(&0.0) - before.get(&key).unwrap_or(&0.0);
        let span = |name: &str| {
            (
                delta(format!("trace_span_{name}_ns_total")),
                delta(format!("trace_span_{name}_calls")),
            )
        };
        let (c_ns, c_calls) = span("serve.compress");
        let (d_ns, d_calls) = span("serve.decompress");
        let (req_ns, req_calls) = span("serve.request");
        // The delta holds the first metrics request; leave it out.
        let (m_ns, m_calls) = span("serve.metrics");
        let (req_ns, req_calls) = (req_ns - m_ns, req_calls - m_calls);
        let client_ns: f64 = s
            .timings
            .compress_ns
            .iter()
            .chain(&s.timings.decompress_ns)
            .sum();
        let server_compress_ms = c_ns / c_calls / 1e6;
        r.set(
            "serve.server_compress_ms",
            server_compress_ms,
            format!("mean of {c_calls} requests"),
        );
        r.set(
            "serve.server_decompress_ms",
            d_ns / d_calls / 1e6,
            format!("mean of {d_calls} requests"),
        );
        r.set(
            "serve.transport_ms",
            (client_ns / completed - req_ns / req_calls) / 1e6,
            "mean client latency minus mean server serve.request span",
        );
        r.set(
            "serve.engine_gap_ms",
            server_compress_ms - stats::median(&plain.compress_ns) / 1e6,
            "server compress span minus local sequential compress_stream",
        );
        r.set(
            "serve.connect_ms",
            stats::median(&s.connect_ns) / 1e6,
            format!("median of {} connects", s.connect_ns.len()),
        );
        r.set(
            "serve.cpu_ms_per_req",
            (cpu1 - cpu0).as_secs_f64() * 1e3 / completed,
            "server user + system CPU (10 ms ticks) per request",
        );
        r.set(
            "serve.rss_kib_per_kreq",
            (rss1 - rss0) / (completed / 1000.0),
            format!("server RSS {rss0} -> {rss1} KiB"),
        );
        r.set(
            "serve.refused",
            s.refused as f64,
            "busy + quota + timeout responses",
        );
        r.set(
            "unattributed_pct",
            100.0 * (req_ns - c_ns - d_ns) / client_ns,
            "server request time outside its codec spans, over client latency",
        );
        r.set(
            "trace.overhead_pct",
            layers::overhead_pct(plain.medians(), traced.medians()),
            format!(
                "local sequential engine, {} traced vs {} untraced round trips",
                traced.compress_ns.len(),
                plain.compress_ns.len()
            ),
        );
    } else {
        end_to_end(
            &mut r,
            &s.timings,
            &probe.into_speed(),
            raw_bytes(),
            wall,
            &setups,
        );
        let packed: usize = cases.iter().map(|c| c.stream.len()).sum();
        r.set(
            "ratio",
            (raw_bytes() * cases.len()) as f64 / packed as f64,
            format!("{} inputs, {packed} compressed bytes", cases.len()),
        );
    }
    r
}
