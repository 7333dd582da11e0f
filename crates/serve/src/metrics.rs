//! The text exposition behind the `metrics` request.
//!
//! The server keeps one record, its [`pwrel_trace::TraceSink`], and
//! [`render`] shows it twice: the `pwrp_*` block is the service view
//! (requests, responses by status, connections, latency quantiles from
//! the `serve_request_us` histogram) and the `trace_*` block lists every
//! counter, observation and span total as recorded. Only the two gauges,
//! open connections and in-flight requests, come from outside the sink.
//! Field meanings are glossed in `OPERATIONS.md`.

use crate::proto::{status_counter, status_name, ST_OK, ST_UNSUPPORTED_VERSION};
use pwrel_trace::{stage, TraceSink};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Renders the text exposition: `pwrp_*` service lines followed by
/// `trace_*` lines from the sink, one `name value` pair per line.
pub fn render(sink: &TraceSink, open_conns: u64, inflight: u64) -> String {
    let counters: BTreeMap<_, _> = sink.counters().into_iter().collect();
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0);
    let observations = sink.observations();
    let latency = observations
        .iter()
        .find(|(name, _)| *name == stage::O_SERVE_REQUEST_US)
        .map(|(_, stat)| *stat)
        .unwrap_or_default();

    let mut out = String::with_capacity(2048);
    let _ = writeln!(
        out,
        "pwrp_requests_total {}",
        counter(stage::C_SERVE_REQUESTS)
    );
    for code in ST_OK..=ST_UNSUPPORTED_VERSION {
        let n = counter(status_counter(code));
        if n > 0 {
            let _ = writeln!(out, "pwrp_responses_{} {n}", status_name(code));
        }
    }
    let _ = writeln!(out, "pwrp_connections_open {open_conns}");
    let _ = writeln!(
        out,
        "pwrp_connections_total {}",
        counter(stage::C_SERVE_CONNECTIONS)
    );
    let _ = writeln!(
        out,
        "pwrp_connections_refused {}",
        counter(stage::C_SERVE_REFUSED)
    );
    let _ = writeln!(out, "pwrp_inflight {inflight}");
    let _ = writeln!(out, "pwrp_latency_count {}", latency.count);
    let _ = writeln!(out, "pwrp_latency_mean_us {:.1}", latency.mean());
    for (label, q) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)] {
        let _ = writeln!(out, "pwrp_latency_{label}_us {}", latency.quantile(q));
    }
    let max_us = if latency.count > 0 { latency.max } else { 0.0 };
    let _ = writeln!(out, "pwrp_latency_max_us {max_us:.0}");

    for (name, value) in &counters {
        let _ = writeln!(out, "trace_{name} {value}");
    }
    for (name, stat) in &observations {
        let _ = writeln!(out, "trace_obs_{name}_count {}", stat.count);
        let _ = writeln!(out, "trace_obs_{name}_mean {:.3}", stat.mean());
        if stat.count > 0 {
            let _ = writeln!(out, "trace_obs_{name}_min {:.3}", stat.min);
            let _ = writeln!(out, "trace_obs_{name}_max {:.3}", stat.max);
        }
    }
    for (name, total) in sink.span_totals() {
        let _ = writeln!(out, "trace_span_{name}_ns_total {}", total.total_ns);
        let _ = writeln!(out, "trace_span_{name}_calls {}", total.calls);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::ST_BUSY;
    use pwrel_trace::Recorder;

    #[test]
    fn render_contains_service_and_trace_sections() {
        let sink = TraceSink::new();
        sink.add(stage::C_SERVE_REQUESTS, 2);
        sink.add(status_counter(ST_OK), 1);
        sink.add(status_counter(ST_BUSY), 1);
        sink.add(stage::C_SERVE_CONNECTIONS, 1);
        sink.observe(stage::O_SERVE_REQUEST_US, 500.0);
        sink.add_span_total(stage::SERVE_REQUEST, 1_000, 1);
        let text = render(&sink, 1, 0);
        for line in [
            "pwrp_requests_total 2",
            "pwrp_responses_ok 1",
            "pwrp_responses_busy 1",
            "pwrp_connections_open 1",
            "pwrp_connections_total 1",
            "pwrp_connections_refused 0",
            "pwrp_latency_count 1",
            "pwrp_latency_mean_us 500.0",
            // 500 µs lands in [256, 512): upper bound 512.
            "pwrp_latency_p99_us 512",
            "pwrp_latency_max_us 500",
            "trace_serve_requests 2",
            "trace_serve_responses_busy 1",
            "trace_obs_serve_request_us_count 1",
            "trace_span_serve.request_calls 1",
        ] {
            assert!(text.lines().any(|l| l == line), "{line} missing:\n{text}");
        }
    }

    #[test]
    fn empty_sink_renders_zeros() {
        let text = render(&TraceSink::new(), 0, 0);
        for line in [
            "pwrp_requests_total 0",
            "pwrp_latency_count 0",
            "pwrp_latency_mean_us 0.0",
            "pwrp_latency_p50_us 0",
            "pwrp_latency_max_us 0",
        ] {
            assert!(text.lines().any(|l| l == line), "{line} missing:\n{text}");
        }
        assert!(!text.contains("pwrp_responses_"), "{text}");
    }
}
