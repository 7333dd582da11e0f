//! `oneshot.sz_t.density`: the paper's codec on the paper's field.
//!
//! A rotating set of 64³ lognormal density fields (1 MiB each) is
//! compressed and decompressed one call at a time through
//! `CodecRegistry`, on one thread. The transform, predict/quantize,
//! Huffman and LZ stages do nearly all the work; the sign, ZFP, pool,
//! framing and socket layers do none. A host-speed probe reading
//! precedes every other round trip.

use crate::data::{self, BoundCheck, BOUND};
use crate::layers::{self, Dir, Ledger};
use crate::report::Report;
use crate::speed::Probe;
use crate::{end_to_end, peak_rss, sample_peaks, set_up, Args, Timings};
use pwrel_data::Dims;
use pwrel_pipeline::{global, CompressOpts};
use pwrel_trace::{noop, Recorder, TraceSink};
use std::hint::black_box;
use std::time::{Duration, Instant};

const CODEC: &str = "sz_t";
/// Fields in the rotating input set.
const INPUTS: u64 = 4;
/// Checked, untimed round trips per input that end set-up.
const WARMUP_ROUNDS: usize = 2;
/// Round trips per probe reading (a reading costs about a third of a
/// round trip).
const PROBE_EVERY: usize = 2;

fn dims() -> Dims {
    Dims::d3(64, 64, 64)
}

/// One input with its reference stream and reconstruction.
struct Case {
    input: Vec<f32>,
    stream: Vec<u8>,
    decoded: Vec<f32>,
}

fn raw_bytes() -> usize {
    dims().len() * 4
}

/// Generates the inputs, builds and bound-checks each reference, and
/// warms up.
fn fixture(seed: u64, r: &mut Report) -> (Vec<Case>, BoundCheck) {
    let opts = CompressOpts::rel(BOUND);
    let mut check = BoundCheck::default();
    let cases: Vec<Case> = (0..INPUTS)
        .map(|i| {
            let input = data::density(dims(), data::sub_seed(seed, i));
            let stream = global()
                .compress::<f32>(CODEC, &input, dims(), &opts)
                .expect("reference compress");
            let (decoded, d) = global()
                .decompress::<f32>(&stream)
                .expect("reference decompress");
            assert_eq!(d, dims(), "reference dims");
            check.feed(&input, &decoded);
            Case {
                input,
                stream,
                decoded,
            }
        })
        .collect();
    for _ in 0..WARMUP_ROUNDS {
        for case in &cases {
            round_trip(case, noop(), noop(), r);
        }
    }
    (cases, check)
}

/// One checked compress + decompress; the two call times in ns, or
/// `None` when either call failed or returned other bytes than the
/// reference.
fn round_trip(
    case: &Case,
    c_rec: &dyn Recorder,
    d_rec: &dyn Recorder,
    r: &mut Report,
) -> Option<[f64; 2]> {
    let opts = CompressOpts::rel(BOUND);
    r.attempted += 1;
    let t0 = Instant::now();
    let out = global().compress_traced::<f32>(CODEC, black_box(&case.input), dims(), &opts, c_rec);
    let c_ns = t0.elapsed().as_nanos() as f64;
    let stream = match out {
        Ok(s) if s == case.stream => s,
        other => {
            r.failed += 1;
            r.wrong += u64::from(other.is_ok());
            return None;
        }
    };
    r.attempted += 1;
    let t1 = Instant::now();
    let out = global().decompress_traced::<f32>(black_box(&stream), d_rec);
    let d_ns = t1.elapsed().as_nanos() as f64;
    match out {
        Ok((v, d)) if d == dims() && data::same_bits(&v, &case.decoded) => Some([c_ns, d_ns]),
        other => {
            r.failed += 1;
            r.wrong += u64::from(other.is_ok());
            None
        }
    }
}

/// What the measuring loop saw.
struct Measured {
    plain: Timings,
    traced: Timings,
    ledger: Ledger,
}

/// Round trips through the inputs until `length` has passed since the
/// probe's start. When `trace`, every other one is traced; otherwise a
/// probe reading precedes every [`PROBE_EVERY`]-th. (Readings serve only
/// the end-to-end metrics; in the traced run they would precede only
/// the untraced calls and skew the tracing cost.)
fn measure(
    cases: &[Case],
    probe: &mut Probe,
    length: Duration,
    trace: bool,
    r: &mut Report,
) -> Measured {
    let mut m = Measured {
        plain: Timings::default(),
        traced: Timings::default(),
        ledger: Ledger::default(),
    };
    let start = probe.start();
    let mut i = 0usize;
    while start.elapsed() < length {
        if !trace && i.is_multiple_of(PROBE_EVERY) {
            probe.read(1);
        }
        let case = &cases[i % cases.len()];
        if trace && i % 2 == 1 {
            let (sc, sd) = (TraceSink::new(), TraceSink::new());
            if let Some([c, d]) = round_trip(case, &sc, &sd, r) {
                m.ledger.record(Dir::Compress, &sc, c, raw_bytes());
                m.ledger.record(Dir::Decompress, &sd, d, raw_bytes());
                m.traced.push([c, d], start.elapsed());
            }
        } else if let Some(ns) = round_trip(case, noop(), noop(), r) {
            m.plain.push(ns, start.elapsed());
        }
        i += 1;
    }
    if !trace {
        // A reading after the last round trip too.
        probe.read(1);
    }
    m
}

pub fn run(args: &Args) -> Report {
    let mut r = Report::default();
    let ((cases, check), setups) = set_up(args.setup_repeats(), || fixture(args.seed, &mut r));
    if !check.holds() {
        r.wrong += 1;
    }
    r.note(format!(
        "check {INPUTS} references: max |x-x'|/(b_r|x|) = {:.6} (b_r = {BOUND})",
        check.max_ratio,
    ));
    let peaks = sample_peaks(std::process::id());
    let mut probe = Probe::new(1);
    let Measured {
        plain,
        traced,
        ledger,
    } = measure(&cases, &mut probe, args.run_length(), args.trace, &mut r);
    let wall = probe.start().elapsed();

    peak_rss(&mut r, peaks, "benchmark process");
    if args.trace {
        ledger.stage_metrics(&mut r);
        let total = ledger.wall_ns(Dir::Compress) + ledger.wall_ns(Dir::Decompress);
        r.set(
            "unattributed_pct",
            100.0 * (total - ledger.layer_ns()) / total,
            "call time outside every layer's self time",
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
        r.note(format!(
            "stage self times cover {:.2}% of compress and {:.2}% of decompress root spans",
            100.0 * ledger.stage_coverage(Dir::Compress, pwrel_trace::stage::COMPRESS),
            100.0 * ledger.stage_coverage(Dir::Decompress, pwrel_trace::stage::DECOMPRESS),
        ));
    } else {
        let speed = probe.into_speed();
        end_to_end(&mut r, &plain, &speed, raw_bytes(), wall, &setups);
        let packed: usize = cases.iter().map(|c| c.stream.len()).sum();
        r.set(
            "ratio",
            (raw_bytes() * cases.len()) as f64 / packed as f64,
            format!("{} inputs, {packed} compressed bytes", cases.len()),
        );
    }
    r
}
