//! Self time per layer from one traced call's sink.
//!
//! Spans carry no parent id, so nesting is recovered by interval
//! containment on each thread: a span's parent is the innermost span on
//! the same thread whose interval holds it. Self time is a span's
//! duration minus its direct children's.
//!
//! Per-block stages (ZFP lift and plane coding, the fused log mapping)
//! arrive as aggregates without a position. Their time already sits in
//! the self time of the span that ran the block loop, so each aggregate
//! is moved out of that span and into its own name: counted once.

use pwrel_trace::{stage, Event, TraceSink};
use std::collections::BTreeMap;

/// For each aggregated stage, the spans that may run its block loop,
/// innermost first. The first one present in a sink is the parent.
const AGGREGATE_PARENTS: &[(&str, &[&str])] = &[
    (
        stage::TRANSFORM,
        &[
            stage::PREDICT_QUANTIZE,
            stage::CHUNK_COMPRESS,
            stage::COMPRESS,
        ],
    ),
    (
        stage::LIFT,
        &[
            stage::CHUNK_COMPRESS,
            stage::CHUNK_DECOMPRESS,
            stage::COMPRESS,
            stage::DECOMPRESS,
        ],
    ),
    (
        stage::PLANE_CODE,
        &[
            stage::CHUNK_COMPRESS,
            stage::CHUNK_DECOMPRESS,
            stage::COMPRESS,
            stage::DECOMPRESS,
        ],
    ),
];

/// Where one traced call's time went, in nanoseconds.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Attribution {
    /// Self time per stage name, aggregates folded in.
    pub self_ns: BTreeMap<&'static str, f64>,
    /// Summed duration of the spans no other span on their thread
    /// encloses (the call's root, and each worker's chunk spans).
    pub top_ns: BTreeMap<&'static str, f64>,
}

/// Self and top-level times of every span in `sink`.
pub fn attribute(sink: &TraceSink) -> Attribution {
    let mut out = from_events(&sink.events());
    for (name, total) in sink.span_totals() {
        fold_aggregate(&mut out, name, total.total_ns as f64);
    }
    out
}

fn from_events(events: &[Event]) -> Attribution {
    let mut by_thread: BTreeMap<u32, Vec<(u64, u64, &'static str)>> = BTreeMap::new();
    for e in events {
        if let Some(dur) = e.dur_ns {
            by_thread
                .entry(e.tid)
                .or_default()
                .push((e.start_ns, dur, e.name));
        }
    }
    let mut out = Attribution::default();
    for spans in by_thread.values_mut() {
        // Parents first: earlier start, then longer duration.
        spans.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        let mut children_ns = vec![0u64; spans.len()];
        let mut open: Vec<usize> = Vec::new();
        for (i, &(start, dur, name)) in spans.iter().enumerate() {
            let end = start + dur;
            while let Some(&top) = open.last() {
                let (s, d, _) = spans[top];
                if end <= s + d {
                    break;
                }
                open.pop();
            }
            match open.last() {
                Some(&parent) => children_ns[parent] += dur,
                None => *out.top_ns.entry(name).or_default() += dur as f64,
            }
            open.push(i);
        }
        for (&(_, dur, name), &kids) in spans.iter().zip(&children_ns) {
            *out.self_ns.entry(name).or_default() += dur.saturating_sub(kids) as f64;
        }
    }
    out
}

fn fold_aggregate(out: &mut Attribution, name: &'static str, ns: f64) {
    let parent = AGGREGATE_PARENTS
        .iter()
        .find(|(agg, _)| *agg == name)
        .and_then(|(_, parents)| parents.iter().find(|p| out.self_ns.contains_key(*p)));
    if let Some(&p) = parent {
        if let Some(v) = out.self_ns.get_mut(p) {
            *v -= ns;
        }
    }
    *out.self_ns.entry(name).or_default() += ns;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, tid: u32, start: u64, dur: u64) -> Event {
        Event {
            name,
            tid,
            start_ns: start,
            dur_ns: Some(dur),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) > a [10,50) > b [20,30); c [60,90) under root.
        let a = from_events(&[
            ev("root", 0, 0, 100),
            ev("a", 0, 10, 40),
            ev("b", 0, 20, 10),
            ev("c", 0, 60, 30),
        ]);
        assert_eq!(a.self_ns["root"], 30.0);
        assert_eq!(a.self_ns["a"], 30.0);
        assert_eq!(a.self_ns["b"], 10.0);
        assert_eq!(a.self_ns["c"], 30.0);
        assert_eq!(a.top_ns.len(), 1);
        assert_eq!(a.top_ns["root"], 100.0);
        let total: f64 = a.self_ns.values().sum();
        assert_eq!(total, 100.0);
    }

    #[test]
    fn threads_nest_independently() {
        // A worker span overlapping the root in time is not its child.
        let a = from_events(&[
            ev("root", 0, 0, 100),
            ev("chunk", 1, 10, 50),
            ev("stage", 1, 20, 20),
            ev("chunk", 1, 70, 20),
        ]);
        assert_eq!(a.self_ns["root"], 100.0);
        assert_eq!(a.self_ns["chunk"], 50.0);
        assert_eq!(a.self_ns["stage"], 20.0);
        assert_eq!(a.top_ns["chunk"], 70.0);
    }

    #[test]
    fn equal_starts_nest_the_longer_span_outside() {
        let a = from_events(&[ev("inner", 0, 5, 10), ev("outer", 0, 5, 30)]);
        assert_eq!(a.self_ns["outer"], 20.0);
        assert_eq!(a.self_ns["inner"], 10.0);
    }

    #[test]
    fn aggregates_move_out_of_their_parent_once() {
        let mut a = from_events(&[
            ev(stage::COMPRESS, 0, 0, 100),
            ev(stage::TRANSFORM, 0, 0, 5),
            ev(stage::PREDICT_QUANTIZE, 0, 5, 60),
        ]);
        fold_aggregate(&mut a, stage::TRANSFORM, 15.0);
        assert_eq!(a.self_ns[stage::TRANSFORM], 20.0);
        assert_eq!(a.self_ns[stage::PREDICT_QUANTIZE], 45.0);
        assert_eq!(a.self_ns[stage::COMPRESS], 35.0);
        let total: f64 = a.self_ns.values().sum();
        assert_eq!(total, 100.0);

        let mut z = from_events(&[ev(stage::CHUNK_DECOMPRESS, 1, 0, 50)]);
        fold_aggregate(&mut z, stage::LIFT, 20.0);
        fold_aggregate(&mut z, stage::PLANE_CODE, 25.0);
        assert_eq!(z.self_ns[stage::CHUNK_DECOMPRESS], 5.0);
    }

    #[test]
    fn attribute_reads_a_real_sink() {
        use pwrel_trace::{Recorder, Span};
        let sink = TraceSink::new();
        {
            let _root = Span::enter(&sink, stage::COMPRESS);
            let _pq = Span::enter(&sink, stage::PREDICT_QUANTIZE);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        sink.add_span_total(stage::TRANSFORM, 1_000_000, 4);
        let a = attribute(&sink);
        assert_eq!(a.self_ns[stage::TRANSFORM], 1_000_000.0);
        assert!(a.self_ns[stage::PREDICT_QUANTIZE] >= 1_000_000.0);
        let root = a.top_ns[stage::COMPRESS];
        let total: f64 = a.self_ns.values().sum();
        assert!((total - root).abs() < 1.0);
    }
}
