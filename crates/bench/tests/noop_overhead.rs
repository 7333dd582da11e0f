//! Guards the observability layer's zero-cost claim structurally: with a
//! recorder that reports itself disabled, no codec path records anything.
//! Every span, counter, observation and stage-total site must be gated on
//! `Recorder::is_enabled`, so untraced runs pay one predictable branch per
//! stage boundary and nothing per element.
//!
//! A counting recorder stands in for `noop()`: it answers `false` from
//! `is_enabled` and counts every call it receives. All seven registered
//! codecs run one-shot, `Sequential`-stream and `ChunkedCodec` round trips
//! at 4,096 and 131,072 elements. Any recording call fails the test, and a
//! one-shot round trip must consult `is_enabled` the same number of times
//! at both sizes: a check that scales with the data is a per-element or
//! per-block branch. The wall-clock cost of tracing is measured end to end
//! by the benchmark (`trace.overhead_pct`), not here.

use pwrel_data::{grf, Dims};
use pwrel_parallel::{ChunkedCodec, WorkerPool};
use pwrel_pipeline::{global, CompressOpts, SliceSource, VecSink};
use pwrel_trace::{Recorder, SpanId};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// A disabled recorder that counts the calls it receives.
#[derive(Default)]
struct Counting {
    is_enabled: AtomicU64,
    recorded: AtomicU64,
}

impl Counting {
    /// `is_enabled` checks so far.
    fn checks(&self) -> u64 {
        self.is_enabled.load(Relaxed)
    }

    fn record(&self) {
        self.recorded.fetch_add(1, Relaxed);
    }
}

impl Recorder for Counting {
    fn is_enabled(&self) -> bool {
        self.is_enabled.fetch_add(1, Relaxed);
        false
    }

    fn begin_span(&self, _: &'static str) -> SpanId {
        self.record();
        SpanId::NONE
    }

    fn end_span(&self, _: SpanId) {
        self.record();
    }

    fn add(&self, _: &'static str, _: u64) {
        self.record();
    }

    fn observe(&self, _: &'static str, _: f64) {
        self.record();
    }

    fn add_span_total(&self, _: &'static str, _: u64, _: u64) {
        self.record();
    }
}

/// A signed, smooth field with runs of exact zeros, so the transform
/// codecs take their sign and zero paths.
fn field(dims: Dims) -> Vec<f32> {
    let mut data = grf::gaussian_field(dims, 7, 2, 2);
    for v in data.iter_mut().step_by(97) {
        *v = 0.0;
    }
    data
}

/// One-shot round trip through the registry; returns the `is_enabled`
/// checks it made.
fn one_shot(codec: &str, data: &[f32], dims: Dims, rec: &Counting) -> u64 {
    let before = rec.checks();
    let opts = CompressOpts::rel(1e-3);
    let stream = global()
        .compress_traced(codec, data, dims, &opts, rec)
        .unwrap();
    let (back, _) = global().decompress_traced::<f32>(&stream, rec).unwrap();
    assert_eq!(back.len(), data.len(), "{codec}");
    rec.checks() - before
}

/// Framed-stream round trips in four chunks: inline on the registry, then
/// pooled through `ChunkedCodec`.
fn streamed(codec: &str, data: &[f32], dims: Dims, rec: &Counting) {
    let opts = CompressOpts::rel(1e-3);
    let chunk = dims.len() / 4;
    let mut stream = Vec::new();
    global()
        .compress_stream_traced(
            codec,
            &mut SliceSource::new(data),
            &mut stream,
            dims,
            &opts,
            chunk,
            rec,
        )
        .unwrap();
    let mut sink = VecSink::<f32>::new();
    global()
        .decompress_stream_traced(&mut &stream[..], &mut sink, rec)
        .unwrap();
    assert_eq!(sink.into_inner().len(), data.len(), "{codec}");

    let chunked = ChunkedCodec::new(WorkerPool::new(2), chunk);
    let mut stream = Vec::new();
    chunked
        .compress_stream_traced(
            global(),
            codec,
            &mut SliceSource::new(data),
            &mut stream,
            dims,
            &opts,
            rec,
        )
        .unwrap();
    let mut sink = VecSink::<f32>::new();
    chunked
        .decompress_stream_traced(global(), &mut &stream[..], &mut sink, rec)
        .unwrap();
    assert_eq!(sink.into_inner().len(), data.len(), "{codec}");
}

#[test]
fn disabled_recorder_records_nothing_on_any_path() {
    let small = Dims::d3(16, 16, 16);
    let large = Dims::d3(64, 64, 32);
    let (small_data, large_data) = (field(small), field(large));
    for codec in global().iter().map(|c| c.name()) {
        let rec = Counting::default();
        let small_checks = one_shot(codec, &small_data, small, &rec);
        let large_checks = one_shot(codec, &large_data, large, &rec);
        streamed(codec, &small_data, small, &rec);
        streamed(codec, &large_data, large, &rec);

        assert_eq!(
            rec.recorded.load(Relaxed),
            0,
            "{codec}: a disabled recorder received span, counter or observation calls"
        );
        assert!(
            small_checks > 0,
            "{codec}: the recorder was never consulted"
        );
        assert_eq!(
            small_checks,
            large_checks,
            "{codec}: is_enabled checks grow with the field ({small_checks} at {} \
             elements, {large_checks} at {})",
            small.len(),
            large.len()
        );
    }
}
