//! Diagnostic rendering: rustc-style text and a machine-readable JSON
//! report (hand-serialized — the workspace has no serde).

use crate::lints::Finding;
use crate::RunStats;
use std::fmt::Write as _;

/// Renders findings as rustc-style diagnostics. Allowed/waived findings
/// are summarized, not itemized, unless `verbose`.
pub fn render_text(findings: &[Finding], verbose: bool) -> String {
    let mut out = String::new();
    let mut shown: Vec<&Finding> = findings
        .iter()
        .filter(|f| verbose || (!f.allowed && !f.waived))
        .collect();
    shown.sort_by(|a, b| (&a.path, a.line, a.lint).cmp(&(&b.path, b.line, b.lint)));
    for f in &shown {
        let sev = if f.allowed {
            "allowed"
        } else if f.waived {
            "waived"
        } else {
            "error"
        };
        let _ = writeln!(out, "{sev}[{}]: {}", f.lint, f.msg);
        if f.line > 0 {
            let _ = writeln!(out, "  --> {}:{} (in `{}`)", f.path, f.line, f.func);
        } else {
            let _ = writeln!(out, "  --> {}", f.path);
        }
        if let Some(n) = &f.note {
            let _ = writeln!(out, "  note: {n}");
        }
    }
    let (active, allowed, waived) = counts(findings);
    let _ = writeln!(
        out,
        "audit: {active} error(s), {allowed} allowlisted, {waived} inline-waived"
    );
    out
}

/// (active, allowlisted, waived) counts.
pub fn counts(findings: &[Finding]) -> (usize, usize, usize) {
    let active = findings.iter().filter(|f| !f.allowed && !f.waived).count();
    let allowed = findings.iter().filter(|f| f.allowed).count();
    let waived = findings.iter().filter(|f| f.waived).count();
    (active, allowed, waived)
}

/// Renders the machine-readable JSON report: findings, stale allowlist
/// keys, summary counts, and (when available) per-lint timings.
pub fn render_json(findings: &[Finding], stale: &[String], stats: Option<&RunStats>) -> String {
    let mut out = String::from("{\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        let _ = write!(
            out,
            "\"lint\": {}, \"path\": {}, \"line\": {}, \"function\": {}, \
             \"kind\": {}, \"message\": {}, \"allowed\": {}, \"waived\": {}",
            json_str(f.lint),
            json_str(&f.path),
            f.line,
            json_str(&f.func),
            json_str(&f.kind),
            json_str(&f.msg),
            f.allowed,
            f.waived,
        );
        if let Some(n) = &f.note {
            let _ = write!(out, ", \"note\": {}", json_str(n));
        }
        out.push('}');
    }
    out.push_str("\n  ],\n  \"stale_allowlist_keys\": [");
    for (i, s) in stale.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&json_str(s));
    }
    out.push(']');
    let (active, allowed, waived) = counts(findings);
    let _ = write!(
        out,
        ",\n  \"summary\": {{\"errors\": {active}, \"allowlisted\": {allowed}, \
         \"waived\": {waived}}}"
    );
    if let Some(s) = stats {
        let _ = write!(
            out,
            ",\n  \"timings_ms\": {{\"collect\": {:.3}, \"analyze\": {:.3}",
            s.collect_ms, s.analyze_ms
        );
        for (lint, ms) in &s.lint_ms {
            let _ = write!(out, ", \"{lint}\": {ms:.3}");
        }
        let _ = write!(out, ", \"total\": {:.3}}}", s.total_ms);
    }
    out.push_str("\n}\n");
    out
}

/// JSON string escaping (control chars, quote, backslash).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding() -> Finding {
        Finding {
            lint: "L1",
            path: "crates/sz/src/x.rs".into(),
            line: 7,
            func: "helper".into(),
            kind: "unwrap".into(),
            msg: "`.unwrap()` on a decode-reachable path".into(),
            note: Some("reachable via: decompress → helper".into()),
            allowed: false,
            waived: false,
        }
    }

    #[test]
    fn text_shows_location_and_note() {
        let t = render_text(&[finding()], false);
        assert!(t.contains("error[L1]"));
        assert!(t.contains("crates/sz/src/x.rs:7"));
        assert!(t.contains("decompress → helper"));
        assert!(t.contains("1 error(s)"));
    }

    #[test]
    fn allowed_findings_hidden_unless_verbose() {
        let mut f = finding();
        f.allowed = true;
        assert!(!render_text(&[f.clone()], false).contains("allowed[L1]"));
        assert!(render_text(&[f], true).contains("allowed[L1]"));
    }

    #[test]
    fn json_escapes_and_counts() {
        let mut f = finding();
        f.msg = "quote \" and\nnewline".into();
        let j = render_json(&[f], &[], None);
        assert!(j.contains("quote \\\" and\\nnewline"));
        assert!(j.contains("\"errors\": 1"));
        assert!(!j.contains("timings_ms"));
    }

    #[test]
    fn json_includes_stale_keys_and_stats() {
        let stats = RunStats {
            collect_ms: 1.0,
            analyze_ms: 2.0,
            lint_ms: vec![("L1", 3.5), ("L5", 0.25)],
            total_ms: 7.0,
        };
        let j = render_json(&[], &["L1 a b index".into()], Some(&stats));
        assert!(
            j.contains("\"stale_allowlist_keys\": [\"L1 a b index\"]"),
            "{j}"
        );
        assert!(j.contains("\"L5\": 0.250"), "{j}");
        assert!(j.contains("\"total\": 7.000}"), "{j}");
    }
}
