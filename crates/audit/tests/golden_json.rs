//! Golden snapshot of the `--json` report over a miniature crate tree.
//!
//! The fixture workspace is materialized under `CARGO_TARGET_TMPDIR` (so
//! the deliberately-broken sources are never scanned by the real audit)
//! and exercises every lint family with at least one finding: an L1
//! panic-capable index on a decode path, an L3 unsafe block without a
//! SAFETY comment, an L5 tainted allocation, plus an allowlisted finding
//! and a stale allowlist key. Timings are omitted (`stats: None`) so the
//! report is byte-deterministic.
//!
//! Regenerate after an intentional lint change with:
//! `PWREL_AUDIT_BLESS=1 cargo test -p pwrel-audit --test golden_json`

use pwrel_audit::{report, run, Config};
use std::fs;
use std::path::Path;

/// A decode module with one violation per lint family. `read_uvarint`
/// matches the taint engine's source catalog by name; `decode_block`
/// lets the count reach an allocation and a slice index unvalidated,
/// while `decode_bounded` shows the clean path the lint must not flag.
const DECODE_RS: &str = r#"//! Golden-test decode module (deliberately broken).

fn read_uvarint(data: &[u8], pos: &mut usize) -> u64 {
    let b = data[*pos];
    *pos += 1;
    b as u64
}

pub fn decode_block(data: &[u8]) -> Vec<u64> {
    let mut pos = 0;
    let n = read_uvarint(data, &mut pos) as usize;
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        out.push(data[i] as u64);
    }
    out
}

pub fn decode_bounded(data: &[u8], max: usize) -> Vec<u64> {
    let mut pos = 0;
    let n = (read_uvarint(data, &mut pos) as usize).min(max);
    Vec::with_capacity(n)
}

pub fn decode_raw(data: &[u8]) -> u32 {
    unsafe { std::ptr::read_unaligned(data.as_ptr() as *const u32) }
}
"#;

/// The allowlist key that matches the `read_uvarint` index finding.
const LIVE_KEY: &str = "L1 crates/lossless/src/decode.rs read_uvarint index";

/// An allowlist key whose file does not exist.
const STALE_KEY: &str = "L1 crates/lossless/src/removed.rs gone index";

fn materialize(root: &Path) {
    let src_dir = root.join("crates/lossless/src");
    fs::create_dir_all(&src_dir).unwrap();
    fs::create_dir_all(root.join("tests/fixtures")).unwrap();
    fs::write(src_dir.join("decode.rs"), DECODE_RS).unwrap();
    // One live and one stale key, so both report sections are exercised.
    fs::write(
        root.join("audit.allow"),
        format!("{LIVE_KEY}\n{STALE_KEY}\n"),
    )
    .unwrap();
}

#[test]
fn json_report_matches_golden() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("audit-golden-mini");
    if root.exists() {
        fs::remove_dir_all(&root).unwrap();
    }
    materialize(&root);

    let cfg = Config::new(root.clone());
    let out = run(&cfg, &[]).unwrap();
    let json = report::render_json(&out.findings, &out.stale, None);

    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/mini.golden.json");
    if std::env::var_os("PWREL_AUDIT_BLESS").is_some() {
        fs::write(&golden_path, &json).unwrap();
        return;
    }
    let golden = fs::read_to_string(&golden_path)
        .expect("golden file present; bless with PWREL_AUDIT_BLESS=1");
    assert_eq!(
        json, golden,
        "JSON report drifted from the golden snapshot; if the change is \
         intentional, re-bless with PWREL_AUDIT_BLESS=1"
    );
}

/// The fixture tree must actually produce findings from the families the
/// golden is meant to pin down — guards against the snapshot silently
/// degenerating to an empty report.
#[test]
fn fixture_tree_exercises_the_lint_families() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("audit-golden-families");
    if root.exists() {
        fs::remove_dir_all(&root).unwrap();
    }
    materialize(&root);
    let cfg = Config::new(root.clone());
    let out = run(&cfg, &[]).unwrap();
    for lint in ["L1", "L3", "L5"] {
        assert!(
            out.findings.iter().any(|f| f.lint == lint),
            "fixture produced no {lint} finding"
        );
    }
    assert!(
        out.findings.iter().any(|f| f.allowed),
        "allowlisted finding missing"
    );
    assert_eq!(out.stale, [STALE_KEY]);
    assert!(
        !out.findings
            .iter()
            .any(|f| f.func == "decode_bounded" && f.lint == "L5"),
        "validated path must stay clean"
    );
}

/// `--update-allowlist` rewrites the allowlist from the current findings:
/// the stale key is gone afterwards, the live one stays, and the next run
/// reports nothing stale.
#[test]
fn update_allowlist_drops_stale_keys() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("audit-golden-update");
    if root.exists() {
        fs::remove_dir_all(&root).unwrap();
    }
    materialize(&root);
    let mut cfg = Config::new(root.clone());
    cfg.update_allowlist = true;
    let out = run(&cfg, &[]).unwrap();
    assert_eq!(out.stale, [STALE_KEY], "the rewriting run still reports it");

    let rewritten = fs::read_to_string(root.join("audit.allow")).unwrap();
    let keys: Vec<&str> = rewritten.lines().filter(|l| !l.starts_with('#')).collect();
    assert!(!keys.contains(&STALE_KEY), "{rewritten}");
    assert!(keys.contains(&LIVE_KEY), "{rewritten}");

    cfg.update_allowlist = false;
    let again = run(&cfg, &[]).unwrap();
    assert!(again.stale.is_empty(), "{:?}", again.stale);
}
