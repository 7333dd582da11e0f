//! Metric names, the per-run result, and its printed form.
//!
//! The names and units here are the ones `BENCHMARK.json` declares; a
//! test keeps the two in step.

use std::collections::BTreeMap;

/// Metrics a user of the system sees, reported with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("compress_mib_s", "MiB/s"),
    ("decompress_mib_s", "MiB/s"),
    ("ratio", "x"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
    ("requests_per_s", "1/s"),
    ("compress_p50_ms", "ms"),
    ("decompress_p50_ms", "ms"),
];

/// Metrics of single layers, reported by the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("transform.fwd_ms_per_mib", "ms/MiB"),
    ("transform.inv_ms_per_mib", "ms/MiB"),
    ("transform.lemma2_correction", "share"),
    ("signs.ms_per_mib", "ms/MiB"),
    ("signs.density", "share"),
    ("predict_quantize.ms_per_mib", "ms/MiB"),
    ("reconstruct.ms_per_mib", "ms/MiB"),
    ("quant.outlier_rate", "share"),
    ("huffman.enc_ms_per_mib", "ms/MiB"),
    ("huffman.dec_ms_per_mib", "ms/MiB"),
    ("lz.enc_ms_per_mib", "ms/MiB"),
    ("lz.dec_ms_per_mib", "ms/MiB"),
    ("lift.fwd_ms_per_mib", "ms/MiB"),
    ("lift.inv_ms_per_mib", "ms/MiB"),
    ("plane_code.enc_ms_per_mib", "ms/MiB"),
    ("plane_code.dec_ms_per_mib", "ms/MiB"),
    ("container.self_ms_per_mib", "ms/MiB"),
    ("stream.self_ms_per_mib", "ms/MiB"),
    ("arena.hit_rate", "share"),
    ("pool.queue_wait_ms", "ms"),
    ("pool.busy_share", "share"),
    ("pool.tasks", "count"),
    ("serve.server_compress_ms", "ms"),
    ("serve.server_decompress_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.engine_gap_ms", "ms"),
    ("serve.connect_ms", "ms"),
    ("serve.cpu_ms_per_req", "ms"),
    ("serve.rss_kib_per_kreq", "KiB"),
    ("serve.refused", "count"),
    ("trace.overhead_pct", "%"),
    ("unattributed_pct", "%"),
];

/// Whether `name` is a valid metric or workload name: a letter or digit
/// first, then letters, digits, `_`, `.` and `-`, at most 64 in all.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One run's outcome: operation counts and named metric values, each
/// with a note (sample count, percentile read, …) for the printed table.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations started, including set-up checks.
    pub attempted: u64,
    /// Operations that errored, were refused, or returned other bytes
    /// than their reference.
    pub failed: u64,
    /// Completed operations whose output differed from the reference,
    /// or references that broke the point-wise bound.
    pub wrong: u64,
    values: BTreeMap<&'static str, (f64, String)>,
    lines: Vec<String>,
}

impl Report {
    /// Sets metric `name` (one of [`END_TO_END`] or [`PER_LAYER`]).
    pub fn set(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        assert!(valid_name(name), "bad metric name {name:?}");
        assert!(unit_of(name).is_some(), "undeclared metric {name}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(name, (value, note.into()));
    }

    /// Adds an informational line to the printed record.
    pub fn note(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// Prints the human-readable record, then the JSON result as the
    /// last line. `traced` selects the per-layer set; any per-layer
    /// metric the workload does not exercise reads 0.
    pub fn print(&mut self, traced: bool) {
        let names = if traced { PER_LAYER } else { END_TO_END };
        for &(name, _) in names {
            if traced {
                self.values
                    .entry(name)
                    .or_insert((0.0, "not exercised by this workload".into()));
            } else {
                assert!(self.values.contains_key(name), "missing metric {name}");
            }
        }
        for line in &self.lines {
            println!("{line}");
        }
        println!("ops attempted={} failed={}", self.attempted, self.failed);
        let mut json = Vec::new();
        for &(name, unit) in names {
            let (value, note) = &self.values[name];
            println!("metric {name} = {value} {unit}  ({note})");
            json.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.wrong == 0,
            self.attempted,
            self.failed,
            json.join(", ")
        );
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_rule() {
        for good in ["ratio", "oneshot.sz_t.density", "p-99", "9lives"] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", ".x", "_x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn every_declared_name_is_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} declared twice");
            assert!(!unit.is_empty() && unit.len() <= 16, "{name}: {unit}");
        }
        for w in crate::WORKLOADS {
            assert!(valid_name(w), "{w}");
        }
    }

    /// `(name, unit)` of every object in `BENCHMARK.json`'s `key` array.
    fn declared(json: &str, key: &str) -> Vec<(String, Option<String>)> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        let field = |obj: &str, f: &str| -> Option<String> {
            let at = obj.find(&format!("\"{f}\""))?;
            let rest = &obj[at + f.len() + 2..];
            let open = rest.find('"')?;
            let rest = &rest[open + 1..];
            Some(rest[..rest.find('"')?].to_string())
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name").expect("name"), field(obj, "unit")))
            .collect()
    }

    #[test]
    fn names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let pairs = |list: &[(&str, &str)]| -> Vec<(String, Option<String>)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), Some(u.to_string())))
                .collect()
        };
        assert_eq!(declared(&json, "end_to_end"), pairs(END_TO_END));
        assert_eq!(declared(&json, "per_layer"), pairs(PER_LAYER));
        let workloads: Vec<String> = declared(&json, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }
}
