//! Sums traced calls into per-layer metrics.

use crate::report::Report;
use crate::spans;
use pwrel_trace::{stage, TraceSink};
use std::collections::BTreeMap;

const MIB: f64 = (1u64 << 20) as f64;

/// Direction of a traced call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    Compress = 0,
    Decompress = 1,
}

/// Span names whose self time is a named layer on the one-shot and
/// streamed paths. Anything else (a chunk span's own time) is
/// unattributed.
const LAYER_SPANS: &[&str] = &[
    stage::COMPRESS,
    stage::DECOMPRESS,
    stage::TRANSFORM,
    stage::TRANSFORM_INV,
    stage::SIGNS,
    stage::PREDICT_QUANTIZE,
    stage::RECONSTRUCT,
    stage::HUFFMAN,
    stage::LZ,
    stage::LIFT,
    stage::PLANE_CODE,
];

/// Per-direction sums over every traced call of a run.
#[derive(Debug, Default)]
pub struct Ledger {
    self_ns: [BTreeMap<&'static str, f64>; 2],
    top_ns: [BTreeMap<&'static str, f64>; 2],
    wall_ns: [f64; 2],
    raw_bytes: [f64; 2],
    calls: [u64; 2],
    counters: BTreeMap<&'static str, u64>,
    observations: BTreeMap<&'static str, (f64, u64)>,
}

impl Ledger {
    /// Adds one traced call: its sink, the benchmark's own wall time
    /// around it, and the raw bytes it compressed or reconstructed.
    pub fn record(&mut self, dir: Dir, sink: &TraceSink, wall_ns: f64, raw_bytes: usize) {
        let d = dir as usize;
        let a = spans::attribute(sink);
        for (name, ns) in a.self_ns {
            *self.self_ns[d].entry(name).or_default() += ns;
        }
        for (name, ns) in a.top_ns {
            *self.top_ns[d].entry(name).or_default() += ns;
        }
        self.wall_ns[d] += wall_ns;
        self.raw_bytes[d] += raw_bytes as f64;
        self.calls[d] += 1;
        for (name, v) in sink.counters() {
            *self.counters.entry(name).or_default() += v;
        }
        for (name, s) in sink.observations() {
            let slot = self.observations.entry(name).or_default();
            slot.0 += s.sum;
            slot.1 += s.count;
        }
    }

    /// Self time of span `name` in direction `dir`, ns.
    pub fn self_ns(&self, dir: Dir, name: &str) -> f64 {
        self.self_ns[dir as usize].get(name).copied().unwrap_or(0.0)
    }

    /// Summed duration of top-level spans `name`, ns.
    pub fn top_ns(&self, dir: Dir, name: &str) -> f64 {
        self.top_ns[dir as usize].get(name).copied().unwrap_or(0.0)
    }

    /// Summed benchmark-side wall time of the calls in `dir`, ns.
    pub fn wall_ns(&self, dir: Dir) -> f64 {
        self.wall_ns[dir as usize]
    }

    /// Traced calls recorded in `dir`.
    pub fn calls(&self, dir: Dir) -> u64 {
        self.calls[dir as usize]
    }

    /// `ns` spent in direction `dir` as milliseconds per raw MiB.
    pub fn per_mib(&self, dir: Dir, ns: f64) -> f64 {
        let mib = self.raw_bytes[dir as usize] / MIB;
        if mib > 0.0 {
            ns / 1e6 / mib
        } else {
            0.0
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    fn observed_mean(&self, name: &str) -> f64 {
        match self.observations.get(name) {
            Some(&(sum, n)) if n > 0 => sum / n as f64,
            _ => 0.0,
        }
    }

    /// Named-layer self time in both directions, ns.
    pub fn layer_ns(&self) -> f64 {
        [Dir::Compress, Dir::Decompress]
            .iter()
            .flat_map(|&d| LAYER_SPANS.iter().map(move |n| self.self_ns(d, n)))
            .sum()
    }

    /// Share of each direction's root span its stages' self times cover
    /// (the one-shot reconciliation rule: at least 95%).
    pub fn stage_coverage(&self, dir: Dir, root: &str) -> f64 {
        let root_ns = self.top_ns(dir, root);
        if root_ns > 0.0 {
            1.0 - self.self_ns(dir, root) / root_ns
        } else {
            0.0
        }
    }

    /// Sets every stage metric the codec spans and counters yield.
    pub fn stage_metrics(&self, r: &mut Report) {
        use Dir::{Compress as C, Decompress as D};
        let note = format!(
            "{} traced compress, {} traced decompress calls",
            self.calls(C),
            self.calls(D)
        );
        let ms = |dir: Dir, name: &str| self.per_mib(dir, self.self_ns(dir, name));
        r.set("transform.fwd_ms_per_mib", ms(C, stage::TRANSFORM), &note);
        r.set(
            "transform.inv_ms_per_mib",
            ms(D, stage::TRANSFORM_INV),
            &note,
        );
        r.set(
            "transform.lemma2_correction",
            self.observed_mean(stage::O_LEMMA2_CORRECTION),
            "mean over compress calls",
        );
        r.set("signs.ms_per_mib", ms(C, stage::SIGNS), &note);
        r.set(
            "signs.density",
            self.observed_mean(stage::O_SIGN_DENSITY),
            "mean negative share over compress calls",
        );
        r.set(
            "predict_quantize.ms_per_mib",
            ms(C, stage::PREDICT_QUANTIZE),
            &note,
        );
        r.set("reconstruct.ms_per_mib", ms(D, stage::RECONSTRUCT), &note);
        let values = self.counter(stage::C_QUANT_VALUES);
        r.set(
            "quant.outlier_rate",
            if values > 0.0 {
                self.counter(stage::C_QUANT_OUTLIERS) / values
            } else {
                0.0
            },
            format!("{values} values quantized"),
        );
        r.set("huffman.enc_ms_per_mib", ms(C, stage::HUFFMAN), &note);
        r.set("huffman.dec_ms_per_mib", ms(D, stage::HUFFMAN), &note);
        r.set("lz.enc_ms_per_mib", ms(C, stage::LZ), &note);
        r.set("lz.dec_ms_per_mib", ms(D, stage::LZ), &note);
        r.set("lift.fwd_ms_per_mib", ms(C, stage::LIFT), &note);
        r.set("lift.inv_ms_per_mib", ms(D, stage::LIFT), &note);
        r.set("plane_code.enc_ms_per_mib", ms(C, stage::PLANE_CODE), &note);
        r.set("plane_code.dec_ms_per_mib", ms(D, stage::PLANE_CODE), &note);
        r.set(
            "container.self_ms_per_mib",
            ms(C, stage::COMPRESS) + ms(D, stage::DECOMPRESS),
            "one-shot root self time, compress + decompress",
        );
        let hits = self.counter(stage::C_ARENA_HITS);
        let misses = self.counter(stage::C_ARENA_MISSES);
        if hits + misses > 0.0 {
            r.set(
                "arena.hit_rate",
                hits / (hits + misses),
                format!("{} arena requests", hits + misses),
            );
        }
    }
}

/// `(traced − untraced) / untraced` round-trip medians, in percent.
pub fn overhead_pct(untraced: [f64; 2], traced: [f64; 2]) -> f64 {
    let base = untraced[0] + untraced[1];
    100.0 * (traced[0] + traced[1] - base) / base
}
