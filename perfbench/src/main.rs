//! `perfbench`: the repository benchmark. Runs one workload through the
//! public entry points (one-shot `CodecRegistry`, chunk-pipelined
//! `ChunkedCodec`, PWRP/1 over loopback against the `pwrel-serve`
//! binary), checks every output against a reference, and prints its
//! metrics with a one-line JSON result last. `perfbench/run.py` builds
//! and runs it; `perfbench/README.md` defines every metric.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Scratch files go to `.bench_work` under the working directory; the
//! `pwrel-serve` binary is taken from beside this one. Timings are
//! reported adjusted for host speed (see `speed`).

mod data;
mod host;
mod layers;
mod oneshot;
mod report;
mod serve;
mod spans;
mod speed;
mod stats;
mod stream;

use report::Report;
use speed::{Probe, Speed};
use std::time::{Duration, Instant};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &[
    "oneshot.sz_t.density",
    "stream.zfp_t.velocity",
    "serve.sz_t.density",
];

/// Where the stream workload keeps its files while it runs.
pub const WORK_DIR: &str = ".bench_work";

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Command-line settings of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(bad("between 0 and 600"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload:?}; one of {WORKLOADS:?}"
            ));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }

    /// The measuring phase's length.
    pub fn run_length(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// How many times to set up: several when `setup_s` is reported.
    pub fn setup_repeats(&self) -> usize {
        if self.trace {
            1
        } else {
            SETUP_REPEATS
        }
    }
}

/// Probe readings taken just before and just after each set-up.
const SETUP_READINGS: usize = 3;

/// Set-up durations in seconds, as timed and adjusted for host speed.
#[derive(Debug, Default)]
pub struct SetUps {
    pub raw_s: Vec<f64>,
    pub adjusted_s: Vec<f64>,
}

/// Runs `f` `repeats` times, keeping the last result (earlier ones are
/// dropped before the next starts) and every duration. Each duration is
/// adjusted by the probe readings taken either side of it.
pub fn set_up<T>(repeats: usize, mut f: impl FnMut() -> T) -> (T, SetUps) {
    let mut times = SetUps::default();
    // Set-up work runs on one thread.
    let mut probe = Probe::new(1);
    let mut last = None;
    for _ in 0..repeats.max(1) {
        drop(last.take());
        let from = probe.speed().count();
        probe.read(SETUP_READINGS);
        let t0 = Instant::now();
        last = Some(f());
        let s = t0.elapsed().as_secs_f64();
        probe.read(SETUP_READINGS);
        times.raw_s.push(s);
        times.adjusted_s.push(s * probe.speed().factor_since(from));
    }
    (last.expect("at least one set-up"), times)
}

/// Per-call latencies of one run, nanoseconds, and when each call
/// completed, seconds from the start of the measuring phase.
#[derive(Debug, Default)]
pub struct Timings {
    pub compress_ns: Vec<f64>,
    pub decompress_ns: Vec<f64>,
    pub compress_at: Vec<f64>,
    pub decompress_at: Vec<f64>,
}

impl Timings {
    /// Adds a compress and the decompress that followed it, which
    /// completed `since_start` into the measuring phase.
    pub fn push(&mut self, [c_ns, d_ns]: [f64; 2], since_start: Duration) {
        let end = since_start.as_secs_f64();
        self.compress_ns.push(c_ns);
        self.decompress_ns.push(d_ns);
        self.compress_at.push(end - d_ns / 1e9);
        self.decompress_at.push(end);
    }

    /// Adds the samples of `other`.
    pub fn merge(&mut self, other: Timings) {
        self.compress_ns.extend(other.compress_ns);
        self.decompress_ns.extend(other.decompress_ns);
        self.compress_at.extend(other.compress_at);
        self.decompress_at.extend(other.decompress_at);
    }

    /// Median compress and decompress latency, ns.
    pub fn medians(&self) -> [f64; 2] {
        [
            stats::median(&self.compress_ns),
            stats::median(&self.decompress_ns),
        ]
    }

    /// Every latency scaled by the host-speed factor where it ended.
    fn adjusted(&self, speed: &Speed) -> Timings {
        let scale = |ns: &[f64], at: &[f64]| -> Vec<f64> {
            ns.iter()
                .zip(at)
                .map(|(&ns, &t)| ns * speed.factor_at(t))
                .collect()
        };
        Timings {
            compress_ns: scale(&self.compress_ns, &self.compress_at),
            decompress_ns: scale(&self.decompress_ns, &self.decompress_at),
            compress_at: self.compress_at.clone(),
            decompress_at: self.decompress_at.clone(),
        }
    }
}

/// Sets the end-to-end metrics every workload shares, each timing
/// adjusted for host speed by the probe readings in `speed`: throughput
/// from the median call, median latency, completed requests per second
/// (median window) of the measuring phase, and set-up time. The p90 and
/// p99 tails are printed with the record but are not gated metrics: see
/// the README.
pub fn end_to_end(
    r: &mut Report,
    raw: &Timings,
    speed: &Speed,
    raw_bytes: usize,
    wall: Duration,
    setups: &SetUps,
) {
    let (probe_ns, readings) = speed.summary();
    let [raw_c, raw_d] = raw.medians();
    r.note(format!(
        "host speed: median probe {:.3} ms over {readings} readings (reference {:.3} ms); \
         raw medians compress {:.3} ms, decompress {:.3} ms",
        probe_ns / 1e6,
        speed::REFERENCE_NS / 1e6,
        raw_c / 1e6,
        raw_d / 1e6
    ));
    let t = raw.adjusted(speed);
    let mib = raw_bytes as f64 / (1u64 << 20) as f64;
    let directions = [
        (
            "compress",
            &t.compress_ns,
            ["compress_mib_s", "compress_p50_ms"],
        ),
        (
            "decompress",
            &t.decompress_ns,
            ["decompress_mib_s", "decompress_p50_ms"],
        ),
    ];
    for (dir, samples, [mib_s, p50]) in directions {
        let n = samples.len();
        let med = stats::median(samples);
        r.set(
            mib_s,
            mib / (med / 1e9),
            format!("{mib:.2} MiB per call, median of {n}"),
        );
        r.set(p50, med / 1e6, format!("{n} samples"));
        for p in [90.0, 99.0] {
            let (tail, pct) = stats::tail(samples, p);
            r.note(format!(
                "tail {dir}_p{p}_ms = {} ms (p{pct:.1} of {n} samples)",
                tail / 1e6
            ));
        }
    }
    let done: Vec<f64> = t
        .compress_at
        .iter()
        .chain(&t.decompress_at)
        .copied()
        .collect();
    let windows = stats::windowed_rates(&done, wall.as_secs_f64());
    let rates: Vec<f64> = windows
        .iter()
        .map(|&(t0, t1, rate)| rate / speed.factor(t0, t1))
        .collect();
    r.set(
        "requests_per_s",
        stats::median(&rates),
        format!(
            "median of {} windows; {} calls in {:.2} s",
            windows.len(),
            done.len(),
            wall.as_secs_f64()
        ),
    );
    r.set(
        "setup_s",
        stats::median(&setups.adjusted_s),
        format!(
            "median of {} set-ups {:.3?}, raw {:.3?}",
            setups.adjusted_s.len(),
            setups.adjusted_s,
            setups.raw_s
        ),
    );
}

/// How often the peak-RSS reading restarts during the measuring phase.
const PEAK_INTERVAL: Duration = Duration::from_secs(1);

/// Starts sampling the peak RSS of process `pid` for `peak_rss_mib`.
pub fn sample_peaks(pid: u32) -> host::PeakSampler {
    host::PeakSampler::start(pid, PEAK_INTERVAL)
}

/// Sets `peak_rss_mib` to the median interval peak of `sampler`.
pub fn peak_rss(r: &mut Report, sampler: host::PeakSampler, whose: &str) {
    let (peaks, reset) = sampler.finish();
    let note = if reset {
        format!(
            "{whose}, median of {} peaks over {PEAK_INTERVAL:?} intervals",
            peaks.len()
        )
    } else {
        format!(
            "{whose}, median of {} readings of the peak since start (the kernel refused a reset)",
            peaks.len()
        )
    };
    r.set("peak_rss_mib", stats::median(&peaks), note);
}

fn main() {
    let overrides = host::pwrel_overrides();
    if !overrides.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: these select other kernels or scales",
            overrides.join(", ")
        );
        std::process::exit(2);
    }
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "run workload={} seed={} seconds={} trace={} nproc={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workers()
    );
    let mut report = match args.workload.as_str() {
        "oneshot.sz_t.density" => oneshot::run(&args),
        "stream.zfp_t.velocity" => stream::run(&args),
        _ => serve::run(&args),
    };
    report.print(args.trace);
}

/// Worker threads for pooled paths: one per available core.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn args_parse_and_reject() {
        let a = parse("--workload serve.sz_t.density --seed 7 --seconds 2 --trace 1").unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (7, 2.0, true));
        assert!(parse("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload serve.sz_t.density --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--workload serve.sz_t.density --seed x").is_err());
    }

    #[test]
    fn set_up_keeps_the_last_result() {
        let mut n = 0;
        let (last, times) = set_up(3, || {
            n += 1;
            n
        });
        assert_eq!((last, times.raw_s.len(), times.adjusted_s.len()), (3, 3, 3));
        assert!(times.adjusted_s.iter().all(|&s| s > 0.0));
    }
}
