//! The concrete thread-safe recorder: a sharded in-memory event sink.
//!
//! Design constraints, in order:
//!
//! 1. **Recording must not distort the measurement.** Worker threads
//!    land on different shards (`thread id % SHARDS`), so span recording
//!    from `pwrel-parallel` workers contends only on a per-shard
//!    `Mutex<Vec<Event>>` push — "lock-free enough" for stage-granular
//!    spans (tens per compress), with per-block costs kept out of the
//!    sink entirely by [`crate::StageTimer`].
//! 2. **No `unsafe`, no dependencies.** The workspace audit confines
//!    `unsafe` to `pwrel-parallel`; this crate is plain std.
//! 3. **Panic-free.** Exporters run inside operator tooling; lock
//!    poisoning is absorbed with `unwrap_or_else(PoisonError::into_inner)`
//!    and every index is checked.

use crate::{Recorder, SpanId};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Number of event shards. Threads map onto shards by logical thread
/// id, so contention needs more than `SHARDS` simultaneously-recording
/// threads plus an unlucky modulus.
const SHARDS: usize = 16;

/// One closed-or-open span occurrence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Stage name (a [`crate::stage`] constant at every in-tree call site).
    pub name: &'static str,
    /// Logical thread id (process-wide, assigned on first record).
    pub tid: u32,
    /// Start offset in nanoseconds since the sink was created.
    pub start_ns: u64,
    /// Duration in nanoseconds; `None` while the span is still open.
    pub dur_ns: Option<u64>,
}

/// Number of power-of-two buckets in an [`ObservedStat`] histogram:
/// bucket 0 holds values whose integer part is 0, bucket `i` holds
/// integer parts in `[2^(i-1), 2^i)`. 64 buckets cover `u64`.
pub const BUCKETS: usize = 64;

/// Running summary of an observation series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObservedStat {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Smallest observed value.
    pub min: f64,
    /// Largest observed value.
    pub max: f64,
    /// Observation counts per power-of-two bucket of the value's integer
    /// part (see [`BUCKETS`]).
    pub buckets: [u64; BUCKETS],
}

/// The bucket of `value`: its integer part's bit length, capped at the
/// last bucket. The saturating `as` sends NaN, negative and fractional
/// values to bucket 0.
fn bucket_index(value: f64) -> usize {
    let int = value as u64;
    ((u64::BITS - int.leading_zeros()) as usize).min(BUCKETS - 1)
}

impl Default for ObservedStat {
    /// The summary of no observations.
    fn default() -> Self {
        ObservedStat {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; BUCKETS],
        }
    }
}

impl ObservedStat {
    fn merge(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        if let Some(bucket) = self.buckets.get_mut(bucket_index(value)) {
            *bucket += 1;
        }
    }

    /// Approximate `q`-quantile (`q` in 0..=1) as the upper bound of the
    /// bucket where the cumulative count crosses `q * count`; 0 when
    /// empty or when that bucket is bucket 0. Resolution is one power of
    /// two: exact quantiles need the raw samples.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (ix, n) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(*n);
            if seen >= rank {
                return if ix == 0 { 0 } else { 1u64 << ix.min(63) };
            }
        }
        self.max as u64
    }

    /// Mean of the observed values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Pre-aggregated per-block stage timing published by
/// [`crate::StageTimer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotal {
    /// Total nanoseconds across all calls.
    pub total_ns: u64,
    /// Number of calls folded into `total_ns`.
    pub calls: u64,
}

thread_local! {
    /// Process-wide logical thread id cache (`u32::MAX` = unassigned).
    static TID: Cell<u32> = const { Cell::new(u32::MAX) };
}

/// Global logical-thread-id source shared by all sinks, so a thread
/// keeps one id even when several sinks are alive.
static NEXT_TID: AtomicU32 = AtomicU32::new(0);

/// In-memory [`Recorder`] collecting spans, counters, observations, and
/// aggregated stage totals, with a monotonic epoch taken at
/// construction. Export with [`crate::export::summary_table`] or
/// [`crate::export::chrome_trace_json`].
#[derive(Debug)]
pub struct TraceSink {
    epoch: Instant,
    shards: Vec<Mutex<Vec<Event>>>,
    counters: Mutex<BTreeMap<&'static str, u64>>,
    observations: Mutex<BTreeMap<&'static str, ObservedStat>>,
    span_totals: Mutex<BTreeMap<&'static str, SpanTotal>>,
}

impl Default for TraceSink {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceSink {
    /// An empty sink whose clock starts now.
    pub fn new() -> Self {
        TraceSink {
            epoch: Instant::now(),
            shards: (0..SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
            counters: Mutex::new(BTreeMap::new()),
            observations: Mutex::new(BTreeMap::new()),
            span_totals: Mutex::new(BTreeMap::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn thread_id(&self) -> u32 {
        TID.with(|cell| {
            let cached = cell.get();
            if cached != u32::MAX {
                return cached;
            }
            let fresh = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            cell.set(fresh);
            fresh
        })
    }

    /// Nanoseconds elapsed since the sink was created — the wall-clock
    /// figure `--stats` reconciles span totals against.
    pub fn elapsed_ns(&self) -> u64 {
        self.now_ns()
    }

    /// All recorded events, merged across shards and sorted by start
    /// time (ties: longer span first, so parents precede children).
    pub fn events(&self) -> Vec<Event> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let guard = shard.lock().unwrap_or_else(PoisonError::into_inner);
            out.extend(guard.iter().copied());
        }
        out.sort_by(|a, b| {
            a.start_ns.cmp(&b.start_ns).then(
                b.dur_ns
                    .unwrap_or(u64::MAX)
                    .cmp(&a.dur_ns.unwrap_or(u64::MAX)),
            )
        });
        out
    }

    /// Counter snapshot, name-sorted.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        let guard = self.counters.lock().unwrap_or_else(PoisonError::into_inner);
        guard.iter().map(|(&k, &v)| (k, v)).collect()
    }

    /// Observation snapshot, name-sorted.
    pub fn observations(&self) -> Vec<(&'static str, ObservedStat)> {
        let guard = self
            .observations
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        guard.iter().map(|(&k, &v)| (k, v)).collect()
    }

    /// Aggregated per-block stage totals, name-sorted.
    pub fn span_totals(&self) -> Vec<(&'static str, SpanTotal)> {
        let guard = self
            .span_totals
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        guard.iter().map(|(&k, &v)| (k, v)).collect()
    }
}

impl Recorder for TraceSink {
    fn is_enabled(&self) -> bool {
        true
    }

    fn begin_span(&self, name: &'static str) -> SpanId {
        let tid = self.thread_id();
        let shard_ix = tid as usize % SHARDS;
        let start_ns = self.now_ns();
        let Some(shard) = self.shards.get(shard_ix) else {
            return SpanId::NONE;
        };
        let mut guard = shard.lock().unwrap_or_else(PoisonError::into_inner);
        let event_ix = guard.len();
        guard.push(Event {
            name,
            tid,
            start_ns,
            dur_ns: None,
        });
        // Pack (shard, index); indices beyond 2^56 are unreachable in
        // practice (that many events would OOM long before).
        SpanId::from_raw(((shard_ix as u64) << 56) | (event_ix as u64 & ((1 << 56) - 1)))
    }

    fn end_span(&self, id: SpanId) {
        if id == SpanId::NONE {
            return;
        }
        let end_ns = self.now_ns();
        let shard_ix = (id.raw() >> 56) as usize;
        let event_ix = (id.raw() & ((1 << 56) - 1)) as usize;
        let Some(shard) = self.shards.get(shard_ix) else {
            return;
        };
        let mut guard = shard.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(event) = guard.get_mut(event_ix) {
            if event.dur_ns.is_none() {
                event.dur_ns = Some(end_ns.saturating_sub(event.start_ns));
            }
        }
    }

    fn add(&self, name: &'static str, delta: u64) {
        let mut guard = self.counters.lock().unwrap_or_else(PoisonError::into_inner);
        let slot = guard.entry(name).or_insert(0);
        *slot = slot.saturating_add(delta);
    }

    fn observe(&self, name: &'static str, value: f64) {
        let mut guard = self
            .observations
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        guard.entry(name).or_default().merge(value);
    }

    fn add_span_total(&self, name: &'static str, total_ns: u64, calls: u64) {
        let mut guard = self
            .span_totals
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let slot = guard.entry(name).or_default();
        slot.total_ns = slot.total_ns.saturating_add(total_ns);
        slot.calls = slot.calls.saturating_add(calls);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Span;

    #[test]
    fn spans_nest_and_close_in_lifo_order() {
        let sink = TraceSink::new();
        {
            let _outer = Span::enter(&sink, "outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = Span::enter(&sink, "inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        let events = sink.events();
        assert_eq!(events.len(), 2);
        let outer = events.iter().find(|e| e.name == "outer").expect("outer");
        let inner = events.iter().find(|e| e.name == "inner").expect("inner");
        let (od, id) = (outer.dur_ns.expect("closed"), inner.dur_ns.expect("closed"));
        // Containment: inner starts after outer and ends no later.
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.start_ns + id <= outer.start_ns + od);
        assert!(od >= id);
        // Sorted parents-first.
        assert_eq!(events.first().map(|e| e.name), Some("outer"));
    }

    #[test]
    fn early_return_still_closes_span() {
        fn faulty(rec: &TraceSink) -> Result<(), ()> {
            let _span = Span::enter(rec, "faulty");
            Err(())
        }
        let sink = TraceSink::new();
        assert!(faulty(&sink).is_err());
        let events = sink.events();
        assert_eq!(events.len(), 1);
        assert!(events.first().and_then(|e| e.dur_ns).is_some());
    }

    #[test]
    fn unmatched_begin_stays_open() {
        let sink = TraceSink::new();
        let id = sink.begin_span("open");
        let events = sink.events();
        assert_eq!(events.first().map(|e| e.dur_ns), Some(None));
        sink.end_span(id);
        sink.end_span(id); // double-close is ignored
        let events = sink.events();
        assert!(events.first().and_then(|e| e.dur_ns).is_some());
    }

    #[test]
    fn counters_accumulate_and_observations_summarize() {
        let sink = TraceSink::new();
        sink.add("bytes", 10);
        sink.add("bytes", 5);
        sink.observe("wait", 2.0);
        sink.observe("wait", 4.0);
        assert_eq!(sink.counters(), vec![("bytes", 15)]);
        let obs = sink.observations();
        let (name, stat) = obs.first().copied().expect("one observation");
        assert_eq!(name, "wait");
        assert_eq!(stat.count, 2);
        assert_eq!(stat.min, 2.0);
        assert_eq!(stat.max, 4.0);
        assert_eq!(stat.mean(), 3.0);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let sink = TraceSink::new();
        for us in [0u64, 1, 2, 3, 100, 1000, 1000, 1000] {
            sink.observe("latency", us as f64);
        }
        let (_, h) = sink.observations().pop().expect("one observation");
        assert_eq!(h.count, 8);
        assert_eq!(h.quantile(0.0), 0);
        // p99 lands in the 1000 µs bucket: upper bound 2^10 = 1024.
        assert_eq!(h.quantile(0.99), 1024);
        assert!(h.mean() > 0.0);
        assert_eq!(h.buckets.iter().sum::<u64>(), h.count);

        let odd = TraceSink::new();
        for v in [f64::NAN, -5.0, 0.5] {
            odd.observe("odd", v);
        }
        let (_, h) = odd.observations().pop().expect("one observation");
        assert_eq!(h.buckets.first(), Some(&3));
        assert_eq!(h.quantile(1.0), 0);
    }

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let mut last = 0;
        for shift in 0..64u32 {
            let ix = bucket_index((1u64 << shift) as f64);
            assert!(ix >= last && ix < BUCKETS);
            last = ix;
        }
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(u64::MAX as f64), BUCKETS - 1);
        // Filed by integer part: NaN, negatives and fractions are 0.
        for v in [f64::NAN, -1.0, -1e300, f64::NEG_INFINITY, 0.999] {
            assert_eq!(bucket_index(v), 0, "{v}");
        }
        assert_eq!(bucket_index(1.5), 1);
        assert_eq!(bucket_index(f64::INFINITY), BUCKETS - 1);
    }

    #[test]
    fn span_totals_merge() {
        let sink = TraceSink::new();
        sink.add_span_total("lift", 100, 4);
        sink.add_span_total("lift", 50, 2);
        assert_eq!(
            sink.span_totals(),
            vec![(
                "lift",
                SpanTotal {
                    total_ns: 150,
                    calls: 6
                }
            )]
        );
    }

    #[test]
    fn concurrent_recording_from_many_threads() {
        let sink = std::sync::Arc::new(TraceSink::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let sink = std::sync::Arc::clone(&sink);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        let _span = Span::enter(sink.as_ref(), "worker");
                        sink.add("work", 1);
                    }
                    t
                })
            })
            .collect();
        for t in threads {
            t.join().expect("worker thread");
        }
        let events = sink.events();
        assert_eq!(events.len(), 800);
        assert!(events.iter().all(|e| e.dur_ns.is_some()));
        assert_eq!(sink.counters(), vec![("work", 800)]);
        // Logical thread ids: every event's tid is stable per thread.
        let distinct: std::collections::BTreeSet<u32> = events.iter().map(|e| e.tid).collect();
        assert_eq!(distinct.len(), 8);
    }
}
