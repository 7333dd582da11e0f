//! `stream.zfp_t.velocity`: a signed field far larger than L2, file to
//! file through `ChunkedCodec` with one worker per core.
//!
//! The 192³ velocity field (27 MiB) is cut into 12 slab chunks, so the
//! log transform's sign coding (mixed signs), ZFP's lift and plane
//! coding, PWS1 framing and the worker pool's queue do the work, and the
//! SZ layers do none. Every call reads its input from a file and writes
//! its output to a file; each output is then compared with the reference
//! a block at a time, outside the timed call, so memory measures the
//! engine's window and not the benchmark's buffers. Host-speed probe
//! readings precede every round trip, while the pool is idle.

use crate::data::{self, BoundCheck, BOUND};
use crate::layers::{self, Dir, Ledger};
use crate::report::Report;
use crate::speed::Probe;
use crate::{end_to_end, peak_rss, sample_peaks, set_up, stats, workers, Args, Timings, WORK_DIR};
use pwrel_data::{CodecError, Dims};
use pwrel_parallel::{ChunkedCodec, WorkerPool};
use pwrel_pipeline::stream::{decode_frame_header, decode_stream_header};
use pwrel_pipeline::{global, ChunkSink, ChunkSource, CompressOpts, ReadSource, WriteSink};
use pwrel_trace::{noop, stage, Recorder, TraceSink};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

const CODEC: &str = "zfp_t";
const EDGE: usize = 192;
/// 16 slices of the slowest axis per chunk: 12 chunks of 2.25 MiB.
const CHUNK_ELEMS: usize = 16 * EDGE * EDGE;
/// Probe readings before each round trip (one takes several ms; a
/// round trip with its checks about half a second).
const PROBE_READINGS: usize = 2;

fn dims() -> Dims {
    Dims::d3(EDGE, EDGE, EDGE)
}

fn raw_bytes() -> usize {
    dims().len() * 4
}

/// A scratch directory inside the checkout, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new() -> Self {
        let dir = Path::new(WORK_DIR).join(format!("stream-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create work directory");
        WorkDir(dir)
    }

    fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Wraps one of the engine's readers, writers, sources or sinks and,
/// when given a sink's clock, times the calling thread inside it and
/// marks when each call returned (sink-relative ns).
struct Timed<'a, T> {
    inner: T,
    clock: Option<&'a TraceSink>,
    busy_ns: u64,
    /// `(running count, return time)`: bytes read so far for readers,
    /// chunks handed over for sources.
    marks: Vec<(u64, u64)>,
    count: u64,
}

impl<'a, T> Timed<'a, T> {
    fn new(inner: T, clock: Option<&'a TraceSink>) -> Self {
        Timed {
            inner,
            clock,
            busy_ns: 0,
            marks: Vec::new(),
            count: 0,
        }
    }

    fn time<R>(&mut self, add: impl FnOnce(&R) -> u64, f: impl FnOnce(&mut T) -> R) -> R {
        let Some(clock) = self.clock else {
            return f(&mut self.inner);
        };
        let t0 = clock.elapsed_ns();
        let out = f(&mut self.inner);
        let t1 = clock.elapsed_ns();
        self.busy_ns += t1 - t0;
        self.count += add(&out);
        self.marks.push((self.count, t1));
        out
    }
}

impl<R: Read> Read for Timed<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.time(
            |n: &std::io::Result<usize>| *n.as_ref().unwrap_or(&0) as u64,
            |r| r.read(buf),
        )
    }
}

impl<W: Write> Write for Timed<'_, W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.time(|_| 0, |w| w.write(buf))
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.time(|_| 0, |w| w.flush())
    }
}

impl<S: ChunkSource<f32>> ChunkSource<f32> for Timed<'_, S> {
    fn next_chunk(&mut self, n: usize, buf: &mut Vec<f32>) -> Result<(), CodecError> {
        self.time(|_| 1, |s| s.next_chunk(n, buf))
    }
}

impl<S: ChunkSink<f32>> ChunkSink<f32> for Timed<'_, S> {
    fn put_chunk(&mut self, start: usize, data: &[f32]) -> Result<(), CodecError> {
        self.time(|_| 0, |s| s.put_chunk(start, data))
    }
}

/// What one streamed call cost: wall time, calling-thread time inside
/// reads and writes, and when each chunk was ready for the pool.
struct Call {
    wall_ns: f64,
    caller_ns: u64,
    handed_ns: Vec<u64>,
}

/// Files, reference layout and engine of a run.
struct Fixture {
    dir: WorkDir,
    frame_ends: Vec<u64>,
    engine: ChunkedCodec,
    packed_bytes: u64,
}

fn io_err(_: std::io::Error) -> CodecError {
    CodecError::InvalidArgument("benchmark file I/O failed")
}

fn recorder(clock: Option<&TraceSink>) -> &dyn Recorder {
    match clock {
        Some(sink) => sink,
        None => noop(),
    }
}

impl Fixture {
    fn new(seed: u64, r: &mut Report) -> (Self, BoundCheck) {
        let dir = WorkDir::new();
        let input = data::velocity(dims(), data::sub_seed(seed, 0));
        let mut w = BufWriter::new(File::create(dir.file("input.f32")).expect("create input"));
        for part in input.chunks(1 << 16) {
            w.write_all(&data::le_bytes(part)).expect("write input");
        }
        w.flush().expect("flush input");
        drop(w);

        // References come from the sequential engine.
        let opts = CompressOpts::rel(BOUND);
        let mut src = ReadSource::new(BufReader::new(
            File::open(dir.file("input.f32")).expect("open input"),
        ));
        let mut out = BufWriter::new(File::create(dir.file("ref.pws")).expect("create reference"));
        global()
            .compress_stream::<f32>(CODEC, &mut src, &mut out, dims(), &opts, CHUNK_ELEMS)
            .expect("reference compress");
        out.flush().expect("flush reference");
        drop(out);
        let mut sink = WriteSink::new(BufWriter::new(
            File::create(dir.file("ref.f32")).expect("create"),
        ));
        let mut packed = BufReader::new(File::open(dir.file("ref.pws")).expect("open reference"));
        global()
            .decompress_stream::<f32>(&mut packed, &mut sink)
            .expect("reference decompress");
        sink.into_inner().flush().expect("flush reference");

        let mut check = BoundCheck::default();
        let mut decoded = BufReader::new(File::open(dir.file("ref.f32")).expect("open"));
        let mut block = vec![0u8; 4 << 16];
        for part in input.chunks(1 << 16) {
            let bytes = &mut block[..part.len() * 4];
            decoded.read_exact(bytes).expect("reference length");
            let dec: Vec<f32> = bytes
                .chunks_exact(4)
                .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                .collect();
            check.feed(part, &dec);
        }
        drop(input);

        let frame_ends = frame_ends(&dir.file("ref.pws"));
        let packed_bytes = std::fs::metadata(dir.file("ref.pws")).expect("stat").len();
        let fx = Fixture {
            dir,
            frame_ends,
            engine: ChunkedCodec::new(WorkerPool::new(workers()), CHUNK_ELEMS),
            packed_bytes,
        };
        fx.round_trip([None, None], r);
        (fx, check)
    }

    fn compress(&self, clock: Option<&TraceSink>) -> Result<Call, CodecError> {
        let t0 = Instant::now();
        let file = File::open(self.dir.file("input.f32")).map_err(io_err)?;
        let mut src = Timed::new(ReadSource::new(BufReader::new(file)), clock);
        let file = File::create(self.dir.file("out.pws")).map_err(io_err)?;
        let mut out = Timed::new(BufWriter::new(file), clock);
        let opts = CompressOpts::rel(BOUND);
        self.engine.compress_stream_traced::<f32>(
            global(),
            CODEC,
            &mut src,
            &mut out,
            dims(),
            &opts,
            recorder(clock),
        )?;
        out.flush().map_err(io_err)?;
        let caller_ns = src.busy_ns + out.busy_ns;
        drop(out);
        Ok(Call {
            wall_ns: t0.elapsed().as_nanos() as f64,
            caller_ns,
            handed_ns: src.marks.iter().map(|&(_, t)| t).collect(),
        })
    }

    fn decompress(&self, clock: Option<&TraceSink>) -> Result<Call, CodecError> {
        let t0 = Instant::now();
        let file = File::open(self.dir.file("out.pws")).map_err(io_err)?;
        let mut input = Timed::new(BufReader::new(file), clock);
        let file = File::create(self.dir.file("out.f32")).map_err(io_err)?;
        let mut sink = Timed::new(WriteSink::new(BufWriter::new(file)), clock);
        self.engine.decompress_stream_traced::<f32>(
            global(),
            &mut input,
            &mut sink,
            recorder(clock),
        )?;
        let caller_ns = input.busy_ns + sink.busy_ns;
        sink.inner.into_inner().flush().map_err(io_err)?;
        // A frame is ready for the pool once the read that completes
        // its payload returns.
        let handed_ns = self
            .frame_ends
            .iter()
            .filter_map(|&end| {
                input
                    .marks
                    .iter()
                    .find(|&&(n, _)| n >= end)
                    .map(|&(_, t)| t)
            })
            .collect();
        Ok(Call {
            wall_ns: t0.elapsed().as_nanos() as f64,
            caller_ns,
            handed_ns,
        })
    }

    fn same_as(&self, out: &str, reference: &str) -> bool {
        let open = |name| File::open(self.dir.file(name)).map(BufReader::new);
        match (open(out), open(reference)) {
            (Ok(a), Ok(b)) => data::same_stream(a, b).unwrap_or(false),
            _ => false,
        }
    }

    /// One checked compress + decompress, file to file.
    fn round_trip(&self, clock: [Option<&TraceSink>; 2], r: &mut Report) -> Option<[Call; 2]> {
        r.attempted += 1;
        let c = match self.compress(clock[0]) {
            Ok(c) if self.same_as("out.pws", "ref.pws") => c,
            other => {
                r.failed += 1;
                r.wrong += u64::from(other.is_ok());
                return None;
            }
        };
        r.attempted += 1;
        match self.decompress(clock[1]) {
            Ok(d) if self.same_as("out.f32", "ref.f32") => Some([c, d]),
            other => {
                r.failed += 1;
                r.wrong += u64::from(other.is_ok());
                None
            }
        }
    }
}

/// Byte offset at which each frame of the PWS1 stream at `path` ends.
fn frame_ends(path: &Path) -> Vec<u64> {
    struct Counting<R>(R, u64);
    impl<R: Read> Read for Counting<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.0.read(buf)?;
            self.1 += n as u64;
            Ok(n)
        }
    }
    let mut r = Counting(BufReader::new(File::open(path).expect("open reference")), 0);
    let header = decode_stream_header(&mut r).expect("reference header");
    (0..header.n_chunks)
        .map(|_| {
            let fh = decode_frame_header(&mut r).expect("reference frame");
            std::io::copy(&mut (&mut r).take(fh.payload_len), &mut std::io::sink())
                .expect("payload");
            r.1
        })
        .collect()
}

/// How long each chunk sat in the pool's queue: the k-th chunk span to
/// start against the k-th chunk handed over (the queue is FIFO).
fn queue_waits(sink: &TraceSink, span: &str, handed_ns: &[u64]) -> Vec<f64> {
    let mut starts: Vec<u64> = sink
        .events()
        .iter()
        .filter(|e| e.name == span)
        .map(|e| e.start_ns)
        .collect();
    starts.sort_unstable();
    starts
        .iter()
        .zip(handed_ns)
        .map(|(&s, &h)| s.saturating_sub(h) as f64)
        .collect()
}

pub fn run(args: &Args) -> Report {
    let mut r = Report::default();
    let ((fx, check), setups) = set_up(args.setup_repeats(), || Fixture::new(args.seed, &mut r));
    if !check.holds() {
        r.wrong += 1;
    }
    r.note(format!(
        "check reference: max |x-x'|/(b_r|x|) = {:.6} (b_r = {BOUND}); {} chunks, {} workers",
        check.max_ratio,
        fx.frame_ends.len(),
        workers()
    ));
    let peaks = sample_peaks(std::process::id());

    let (mut plain, mut traced) = (Timings::default(), Timings::default());
    let mut ledger = Ledger::default();
    let (mut caller_ns, mut waits) = ([0.0f64; 2], Vec::new());
    let mut probe = Probe::new(workers());
    let start = probe.start();
    let mut i = 0usize;
    while start.elapsed() < args.run_length() {
        probe.read(PROBE_READINGS);
        if args.trace && i % 2 == 1 {
            let sinks = [TraceSink::new(), TraceSink::new()];
            if let Some(calls) = fx.round_trip([Some(&sinks[0]), Some(&sinks[1])], &mut r) {
                for (k, (dir, span)) in [
                    (Dir::Compress, stage::CHUNK_COMPRESS),
                    (Dir::Decompress, stage::CHUNK_DECOMPRESS),
                ]
                .into_iter()
                .enumerate()
                {
                    ledger.record(dir, &sinks[k], calls[k].wall_ns, raw_bytes());
                    caller_ns[k] += calls[k].caller_ns as f64;
                    waits.extend(queue_waits(&sinks[k], span, &calls[k].handed_ns));
                }
                traced.push([calls[0].wall_ns, calls[1].wall_ns], start.elapsed());
            }
        } else if let Some([c, d]) = fx.round_trip([None, None], &mut r) {
            plain.push([c.wall_ns, d.wall_ns], start.elapsed());
        }
        i += 1;
    }
    probe.read(PROBE_READINGS);
    let wall = start.elapsed();

    peak_rss(&mut r, peaks, "benchmark process");
    if args.trace {
        use Dir::{Compress as C, Decompress as D};
        ledger.stage_metrics(&mut r);
        let calls = ledger.calls(C) + ledger.calls(D);
        r.set(
            "stream.self_ms_per_mib",
            ledger.per_mib(C, caller_ns[0]) + ledger.per_mib(D, caller_ns[1]),
            "calling thread inside the engine's reads and writes, compress + decompress",
        );
        r.set(
            "pool.queue_wait_ms",
            if waits.is_empty() {
                0.0
            } else {
                stats::median(&waits) / 1e6
            },
            format!("median of {} chunks", waits.len()),
        );
        let chunk_ns =
            ledger.top_ns(C, stage::CHUNK_COMPRESS) + ledger.top_ns(D, stage::CHUNK_DECOMPRESS);
        r.set(
            "pool.busy_share",
            chunk_ns / (workers() as f64 * (ledger.wall_ns(C) + ledger.wall_ns(D))),
            format!("chunk time over {} workers x wall", workers()),
        );
        r.set(
            "pool.tasks",
            ledger.counter(stage::C_POOL_TASKS) / calls as f64,
            format!("per call, {calls} calls"),
        );
        // Worker time inside a chunk span but outside every stage.
        let loose =
            ledger.self_ns(C, stage::CHUNK_COMPRESS) + ledger.self_ns(D, stage::CHUNK_DECOMPRESS);
        r.set(
            "unattributed_pct",
            100.0 * loose / (chunk_ns + caller_ns[0] + caller_ns[1]),
            "chunk time outside every stage, over worker + calling-thread busy time",
        );
        r.set(
            "trace.overhead_pct",
            layers::overhead_pct(plain.medians(), traced.medians()),
            format!(
                "median round trip, {} traced vs {} untraced",
                traced.compress_ns.len(),
                plain.compress_ns.len()
            ),
        );
    } else {
        end_to_end(
            &mut r,
            &plain,
            &probe.into_speed(),
            raw_bytes(),
            wall,
            &setups,
        );
        r.set(
            "ratio",
            raw_bytes() as f64 / fx.packed_bytes as f64,
            format!("{} compressed bytes", fx.packed_bytes),
        );
    }
    r
}
