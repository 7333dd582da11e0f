//! `pwrel-audit`: workspace-specific static analysis.
//!
//! Six lints clippy cannot express (see `DESIGN.md` §10 and §16):
//!
//! - **L1** — no `panic!`-family macro, `.unwrap()`, `.expect(..)`, or
//!   unchecked `[..]` indexing reachable from a decode/decompress entry
//!   point. Hostile-input paths must return `CodecError`.
//! - **L2** — no bare numeric `as` cast in the bound-arithmetic modules
//!   (`core::transform`, `core::pwrel`, `core::theory`, the quantizers);
//!   conversions go through the documented `pwrel_core::cast` helpers so
//!   the Lemma 2 correction cannot be silently bypassed.
//! - **L3** — `unsafe` is confined to `pwrel-parallel`, and every site
//!   there carries a `// SAFETY:` comment.
//! - **L4** — every codec registered in `CodecRegistry::builtin` has all
//!   six golden-stream fixtures under `tests/fixtures`, and every `*.bin`
//!   there belongs to a registered codec.
//! - **L5** — interprocedural taint: a value read from an untrusted
//!   stream (uvarints, header fields, bit reads) must pass a recognized
//!   validation before reaching an allocation size, slice index, or loop
//!   bound anywhere downstream, across function boundaries.
//! - **L6** — parallel discipline in `pwrel-parallel`: no
//!   `.lock().unwrap()` outside the poisoning policy, no panic-capable
//!   construct in fns driving the executor's channel/condvar protocol,
//!   and every `unsafe impl Send/Sync` names its loom model test.
//!
//! The analysis is a purpose-built lexer + token-level model rather than
//! a full parser: the build environment vendors no `syn`, and two of the
//! lints (L3, inline waivers) need comment text a parser drops anyway.
//! Reachability (L1) and taint propagation (L5) are syntactic
//! over-approximations by function name and `Type::` qualifier, with
//! ubiquitous constructor-shaped names excluded; their misses are
//! covered dynamically by the fuzz targets.
//!
//! [`run`] is one pass: every covered file is read and analyzed afresh,
//! and nothing is kept on disk between runs (see `DESIGN.md` §16).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allowlist;
pub mod dataflow;
pub mod lexer;
pub mod lints;
pub mod model;
pub mod report;

use allowlist::Allowlist;
use lints::{classify, Finding};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Audit configuration.
pub struct Config {
    /// Workspace root.
    pub root: PathBuf,
    /// Allowlist file (repo-relative to `root`).
    pub allowlist: PathBuf,
    /// Where to write the JSON report, if anywhere.
    pub json: Option<PathBuf>,
    /// Rewrite the allowlist from the current findings.
    pub update_allowlist: bool,
    /// Itemize allowed/waived findings too.
    pub verbose: bool,
}

impl Config {
    /// Default configuration rooted at the cargo workspace.
    pub fn new(root: PathBuf) -> Self {
        let allowlist = root.join("audit.allow");
        Self {
            root,
            allowlist,
            json: None,
            update_allowlist: false,
            verbose: false,
        }
    }
}

/// Wall-clock timings for one audit run, reported only in the `--json`
/// output so CI logs show where a slow audit spends its time.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// File discovery walk, milliseconds.
    pub collect_ms: f64,
    /// Read + lex + model + flow extraction of every file, milliseconds.
    pub analyze_ms: f64,
    /// Per-lint wall clock, milliseconds, in execution order.
    pub lint_ms: Vec<(&'static str, f64)>,
    /// Whole `run()`, milliseconds.
    pub total_ms: f64,
}

/// Everything `run` produces.
#[derive(Debug)]
pub struct RunOutput {
    /// All findings, with allow/waive flags applied.
    pub findings: Vec<Finding>,
    /// Allowlist keys that matched no finding (stale — the file only
    /// shrinks, so these must be deleted).
    pub stale: Vec<String>,
}

/// Collects every `.rs` file the audit covers, as repo-relative paths.
pub fn collect_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut out)?;
        }
    }
    out.sort();
    Ok(out
        .into_iter()
        .filter_map(|p| p.strip_prefix(root).ok().map(Path::to_path_buf))
        .collect())
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            // `target` dirs can nest under crates when building in-tree.
            if name == "target" || name == ".git" {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Runs the full audit.
pub fn run(cfg: &Config, registered_codecs: &[String]) -> std::io::Result<RunOutput> {
    let t_run = Instant::now();
    let mut stats = RunStats::default();

    let t = Instant::now();
    let rels = collect_files(&cfg.root)?;
    stats.collect_ms = t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    let mut files = Vec::new();
    for rel in &rels {
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        let src = std::fs::read_to_string(cfg.root.join(rel))?;
        let class = classify(&rel_str);
        let force_test = class == lints::FileClass::TestOnly;
        files.push((model::analyze_source(&rel_str, &src, force_test), class));
    }
    stats.analyze_ms = t.elapsed().as_secs_f64() * 1e3;

    let mut findings = Vec::new();
    let timed = |name: &'static str, f: Vec<Finding>, stats: &mut RunStats, t0: Instant| {
        stats.lint_ms.push((name, t0.elapsed().as_secs_f64() * 1e3));
        f
    };
    let t0 = Instant::now();
    findings.extend(timed("L1", lints::lint_l1(&files), &mut stats, t0));
    let t0 = Instant::now();
    findings.extend(timed("L2", lints::lint_l2(&files), &mut stats, t0));
    let t0 = Instant::now();
    findings.extend(timed("L3", lints::lint_l3(&files), &mut stats, t0));
    let t0 = Instant::now();
    findings.extend(timed(
        "L4",
        lints::lint_l4(registered_codecs, &cfg.root.join("tests/fixtures")),
        &mut stats,
        t0,
    ));
    let t0 = Instant::now();
    findings.extend(timed("L5", dataflow::lint_l5(&files), &mut stats, t0));
    let t0 = Instant::now();
    findings.extend(timed("L6", lints::lint_l6(&files), &mut stats, t0));

    lints::apply_waivers(&files, &mut findings);

    let allow = Allowlist::load(&cfg.allowlist)?;
    allow.apply(&mut findings);
    let stale: Vec<String> = allow
        .stale(&findings)
        .into_iter()
        .map(str::to_string)
        .collect();

    if cfg.update_allowlist {
        std::fs::write(&cfg.allowlist, Allowlist::render(&findings))?;
    }
    stats.total_ms = t_run.elapsed().as_secs_f64() * 1e3;
    if let Some(json) = &cfg.json {
        std::fs::write(json, report::render_json(&findings, &stale, Some(&stats)))?;
    }
    Ok(RunOutput { findings, stale })
}
