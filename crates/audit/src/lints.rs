//! The audit lint catalog (L1–L4) over a set of [`FileModel`]s.
//!
//! These are repo-policy lints clippy cannot express because they need
//! cross-function reachability (L1), module-scoped cast policy (L2),
//! comment text (L3), or the live codec registry (L4).

use crate::model::{FileModel, SiteKind};
use std::collections::{HashMap, HashSet, VecDeque};

/// Crates whose decode paths L1 polices. `cli`/`bench`/`metrics` sit above
/// the codec boundary (they may unwrap: errors there are app-level), and
/// `parallel` is covered by L3/loom instead. `trace` is policed through
/// its exporter entry points rather than decoders (see
/// [`is_decode_entry`]): exporters run at the end of long jobs, where a
/// panic throws away the whole run's recording. `serve` is policed both
/// through its wire decoders and through the per-request `handle_*`
/// dispatchers: a panic there kills a worker thread mid-connection and
/// strands every queued client.
const L1_CRATES: &[&str] = &[
    "bitstream",
    "lossless",
    "sz",
    "zfp",
    "fpzip",
    "isabela",
    "pipeline",
    "core",
    "datagen",
    "kernels",
    "trace",
    "serve",
];

/// Bound-arithmetic modules where bare numeric `as` casts are forbidden
/// (L2): the Lemma 2 correction lives here, and a silent narrowing or
/// float↔int truncation bypasses it.
const L2_FILES: &[&str] = &[
    "crates/core/src/transform.rs",
    "crates/core/src/pwrel.rs",
    "crates/core/src/theory.rs",
    "crates/kernels/src/predict.rs",
    "crates/kernels/src/blocklift.rs",
];

/// The allowlisted cast-helper modules: the only places `as` is legal in
/// bound arithmetic, with each conversion documented. `pwrel-kernels`
/// carries its own copy (it sits below `pwrel-core` in the dependency
/// graph and cannot import the original).
const CAST_HELPERS: &[&str] = &["crates/core/src/cast.rs", "crates/kernels/src/cast.rs"];

/// Macros that abort decoding with a panic.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Unqualified call names too ubiquitous to resolve by name alone; edges
/// through them are dropped (documented approximation — they are
/// constructor/std-trait shaped and not decode logic). Shared with the
/// L5 taint engine's call resolution.
pub(crate) const RESOLVE_STOPLIST: &[&str] = &[
    "new",
    "default",
    "fmt",
    "clone",
    "drop",
    "next",
    "from",
    "into",
    "len",
    "is_empty",
    "get",
    "iter",
    "push",
    "pop",
    "extend",
    "insert",
    "remove",
    "min",
    "max",
    "abs",
    "clamp",
    "map",
    "collect",
    "to_vec",
    "to_string",
    "as_ref",
    "as_mut",
    "eq",
    "ne",
    "hash",
    "write",
    "flush",
    // `Option::take`/`Iterator::take` and the `Index` trait shadow the
    // workspace's same-named helpers (`BufferPool::take`, `Dims::index`);
    // qualified calls still resolve.
    "take",
    "index",
];

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Lint id: `"L1"`…`"L4"`.
    pub lint: &'static str,
    /// Repo-relative file path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Enclosing function name (allowlist key component).
    pub func: String,
    /// Stable kind key (allowlist key component), e.g. `"unwrap"`.
    pub kind: String,
    /// Human message.
    pub msg: String,
    /// Optional note (e.g. the reachability chain).
    pub note: Option<String>,
    /// True when suppressed by the allowlist file.
    pub allowed: bool,
    /// True when suppressed by an inline `audit:allow(Ln)` comment.
    pub waived: bool,
}

impl Finding {
    /// The stable allowlist key for this finding.
    pub fn key(&self) -> String {
        format!("{} {} {} {}", self.lint, self.path, self.func, self.kind)
    }
}

/// How a file participates in the lints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FileClass {
    /// Normal workspace source: all lints apply.
    Source,
    /// Integration tests / benches / examples: L3 only.
    TestOnly,
    /// Vendored stand-ins (`crates/shims`), the frozen seed engine
    /// (`bench/src/baseline.rs`), and the audit tool itself: L3 only.
    Exempt,
}

/// Classifies a repo-relative path.
pub fn classify(path: &str) -> FileClass {
    if path.starts_with("crates/shims/")
        || path.starts_with("crates/audit/")
        || path.starts_with("crates/fuzz/")
        || path == "crates/bench/src/baseline.rs"
    {
        return FileClass::Exempt;
    }
    if path.contains("/tests/")
        || path.contains("/benches/")
        || path.starts_with("tests/")
        || path.starts_with("examples/")
        || path.starts_with("crates/bench/")
    {
        return FileClass::TestOnly;
    }
    FileClass::Source
}

/// The crate directory name of a repo-relative path (`"sz"` for
/// `crates/sz/src/lib.rs`), or `""` for root-package files.
pub(crate) fn crate_of(path: &str) -> &str {
    path.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("")
}

/// True when `name` marks an untrusted-input decode entry point.
fn is_decode_entry(path: &str, name: &str) -> bool {
    name.contains("decompress")
        || name.contains("decode")
        || name.contains("deserialize")
        || (name == "unwrap" && path.ends_with("pipeline/src/container.rs"))
        || (path.ends_with("trace/src/export.rs")
            && matches!(name, "summary_table" | "chrome_trace_json" | "stage_rows"))
        || (path.ends_with("serve/src/server.rs") && name.starts_with("handle_"))
}

/// Global function id: (file index, fn index).
type FnId = (usize, usize);

/// Runs L1: no panic-capable construct reachable from a decode path.
pub fn lint_l1(files: &[(FileModel, FileClass)]) -> Vec<Finding> {
    // Definition tables over non-test, non-exempt fns.
    let mut by_name: HashMap<&str, Vec<FnId>> = HashMap::new();
    let mut by_qual_name: HashMap<(&str, &str), Vec<FnId>> = HashMap::new();
    for (fi, (fm, class)) in files.iter().enumerate() {
        if *class == FileClass::Exempt {
            continue;
        }
        for (gi, f) in fm.fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            by_name.entry(&f.name).or_default().push((fi, gi));
            if let Some(q) = &f.qualifier {
                by_qual_name.entry((q, &f.name)).or_default().push((fi, gi));
            }
        }
    }

    // Edges: caller -> callees, resolved syntactically.
    let mut edges: HashMap<FnId, Vec<FnId>> = HashMap::new();
    for (fi, (fm, class)) in files.iter().enumerate() {
        if *class == FileClass::Exempt {
            continue;
        }
        for site in &fm.sites {
            let SiteKind::Call { name, qual, .. } = &site.kind else {
                continue;
            };
            let Some(local) = site.fn_idx else { continue };
            if fm.fns[local].is_test {
                continue;
            }
            let caller: FnId = (fi, local);
            let targets: Option<&Vec<FnId>> = match qual {
                Some(q) => by_qual_name
                    .get(&(q.as_str(), name.as_str()))
                    .or_else(|| by_name.get(name.as_str())),
                None if RESOLVE_STOPLIST.contains(&name.as_str()) => None,
                None => by_name.get(name.as_str()),
            };
            if let Some(ts) = targets {
                // Over 6 same-named defs is too ambiguous to be signal.
                if qual.is_none() && ts.len() > 6 {
                    continue;
                }
                edges.entry(caller).or_default().extend(ts.iter().copied());
            }
        }
    }

    // BFS from decode entries, remembering one example parent per fn.
    let mut parent: HashMap<FnId, Option<FnId>> = HashMap::new();
    let mut queue: VecDeque<FnId> = VecDeque::new();
    for (fi, (fm, class)) in files.iter().enumerate() {
        if *class != FileClass::Source || !L1_CRATES.contains(&crate_of(&fm.path)) {
            continue;
        }
        for (gi, f) in fm.fns.iter().enumerate() {
            if !f.is_test && is_decode_entry(&fm.path, &f.name) {
                parent.entry((fi, gi)).or_insert(None);
                queue.push_back((fi, gi));
            }
        }
    }
    while let Some(id) = queue.pop_front() {
        if let Some(callees) = edges.get(&id) {
            for &c in callees {
                if let std::collections::hash_map::Entry::Vacant(e) = parent.entry(c) {
                    e.insert(Some(id));
                    queue.push_back(c);
                }
            }
        }
    }

    let chain = |mut id: FnId| -> String {
        let mut names = vec![files[id.0].0.fns[id.1].name.clone()];
        while let Some(Some(p)) = parent.get(&id) {
            names.push(files[p.0].0.fns[p.1].name.clone());
            id = *p;
            if names.len() > 8 {
                break;
            }
        }
        names.reverse();
        format!("reachable via: {}", names.join(" → "))
    };

    // Flag panic-capable sites inside reachable fns of policed crates.
    let mut out = Vec::new();
    for (fi, (fm, class)) in files.iter().enumerate() {
        if *class != FileClass::Source || !L1_CRATES.contains(&crate_of(&fm.path)) {
            continue;
        }
        for site in &fm.sites {
            let Some(local) = site.fn_idx else { continue };
            if fm.fns[local].is_test || !parent.contains_key(&(fi, local)) {
                continue;
            }
            let (kind, msg) = match &site.kind {
                SiteKind::Macro(m) if PANIC_MACROS.contains(&m.as_str()) => (
                    format!("panic-macro-{m}"),
                    format!("`{m}!` on a decode-reachable path"),
                ),
                SiteKind::Call { name, method, .. } if *method && name == "unwrap" => (
                    "unwrap".to_string(),
                    "`.unwrap()` on a decode-reachable path".to_string(),
                ),
                SiteKind::Call { name, method, .. } if *method && name == "expect" => (
                    "expect".to_string(),
                    "`.expect(..)` on a decode-reachable path".to_string(),
                ),
                SiteKind::Index => (
                    "index".to_string(),
                    "unchecked `[..]` indexing on a decode-reachable path".to_string(),
                ),
                _ => continue,
            };
            out.push(Finding {
                lint: "L1",
                path: fm.path.clone(),
                line: site.line,
                func: fm.fns[local].name.clone(),
                kind,
                msg,
                note: Some(chain((fi, local))),
                allowed: false,
                waived: false,
            });
        }
    }
    out
}

/// Runs L2: bare numeric casts in bound-arithmetic modules.
pub fn lint_l2(files: &[(FileModel, FileClass)]) -> Vec<Finding> {
    let mut out = Vec::new();
    for (fm, class) in files {
        if *class != FileClass::Source
            || !L2_FILES.contains(&fm.path.as_str())
            || CAST_HELPERS.contains(&fm.path.as_str())
        {
            continue;
        }
        for site in &fm.sites {
            let SiteKind::Cast(ty) = &site.kind else {
                continue;
            };
            if fm.site_in_test(site) {
                continue;
            }
            out.push(Finding {
                lint: "L2",
                path: fm.path.clone(),
                line: site.line,
                func: fm.fn_name(site).to_string(),
                kind: format!("cast-{ty}"),
                msg: format!("bare `as {ty}` in a bound-arithmetic module; use `pwrel_core::cast`"),
                note: None,
                allowed: false,
                waived: false,
            });
        }
    }
    out
}

/// Runs L3: `unsafe` confined to `pwrel-parallel`, and every site there
/// carries a `SAFETY:` comment within the preceding four lines.
pub fn lint_l3(files: &[(FileModel, FileClass)]) -> Vec<Finding> {
    let mut out = Vec::new();
    for (fm, _) in files {
        // Shim crates are vendored stand-ins for external deps, but they
        // still must not smuggle `unsafe` into the build.
        let in_parallel = fm.path.starts_with("crates/parallel/");
        for site in &fm.sites {
            if site.kind != SiteKind::Unsafe {
                continue;
            }
            if !in_parallel {
                out.push(Finding {
                    lint: "L3",
                    path: fm.path.clone(),
                    line: site.line,
                    func: fm.fn_name(site).to_string(),
                    kind: "unsafe-outside-parallel".to_string(),
                    msg: "`unsafe` outside pwrel-parallel (crate roots carry \
                          #![forbid(unsafe_code)])"
                        .to_string(),
                    note: None,
                    allowed: false,
                    waived: false,
                });
                continue;
            }
            // Accept a SAFETY marker anywhere in the contiguous comment
            // block ending on the site's line or directly above it
            // (line comments lex one `Comment` per line).
            let is_safety = |c: &crate::lexer::Comment| {
                c.text.contains("SAFETY") || c.text.contains("# Safety")
            };
            let mut documented = fm
                .comments
                .iter()
                .any(|c| c.end_line == site.line && is_safety(c));
            let mut l = site.line;
            while !documented {
                let Some(c) = fm.comments.iter().find(|c| c.end_line + 1 == l) else {
                    break;
                };
                documented = is_safety(c);
                l = c.line;
            }
            if !documented {
                out.push(Finding {
                    lint: "L3",
                    path: fm.path.clone(),
                    line: site.line,
                    func: fm.fn_name(site).to_string(),
                    kind: "missing-safety-comment".to_string(),
                    msg: "`unsafe` site without a `// SAFETY:` comment on the \
                          same or directly preceding line"
                        .to_string(),
                    note: None,
                    allowed: false,
                    waived: false,
                });
            }
        }
    }
    out
}

/// Runs L4: every codec name in `registered` has all six golden-stream
/// fixtures (`{f32,f64} × {1d,2d,3d}`) under `fixtures_dir`, and every
/// `*.bin` there belongs to a registered codec.
pub fn lint_l4(registered: &[String], fixtures_dir: &std::path::Path) -> Vec<Finding> {
    let mut out = Vec::new();
    for name in registered {
        for elem in ["f32", "f64"] {
            for nd in ["1d", "2d", "3d"] {
                let file = format!("{name}_{elem}_{nd}.bin");
                if !fixtures_dir.join(&file).is_file() {
                    out.push(Finding {
                        lint: "L4",
                        path: format!("tests/fixtures/{file}"),
                        line: 0,
                        func: "<registry>".to_string(),
                        kind: format!("fixture-{name}-{elem}-{nd}"),
                        msg: format!(
                            "registered codec `{name}` lacks golden-stream fixture `{file}`"
                        ),
                        note: Some(
                            "`PWREL_REGEN_FIXTURES=1 cargo test --test golden_streams` \
                             regenerates the `_v2` fixtures only; legacy fixtures are \
                             never regenerated (see tests/golden_streams.rs)"
                                .to_string(),
                        ),
                        allowed: false,
                        waived: false,
                    });
                }
            }
        }
    }
    let mut files: Vec<String> = std::fs::read_dir(fixtures_dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|f| f.ends_with(".bin"))
        .collect();
    files.sort();
    for file in files {
        let codec = fixture_codec(&file);
        if codec.is_some_and(|c| registered.iter().any(|r| r == c)) {
            continue;
        }
        out.push(Finding {
            lint: "L4",
            path: format!("tests/fixtures/{file}"),
            line: 0,
            func: "<registry>".to_string(),
            kind: format!("orphan-{file}"),
            msg: format!("golden-stream fixture `{file}` belongs to no registered codec"),
            note: Some(
                "delete it and its lines in tests/fixtures/decoded_digests.txt, \
                 or register its codec"
                    .to_string(),
            ),
            allowed: false,
            waived: false,
        });
    }
    out
}

/// The codec a fixture file name `<codec>_<f32|f64>_<1|2|3>d[_v2].bin`
/// names, or `None` if the name does not follow that pattern.
fn fixture_codec(file: &str) -> Option<&str> {
    let stem = file.strip_suffix(".bin")?;
    let stem = stem.strip_suffix("_v2").unwrap_or(stem);
    let (rest, nd) = stem.rsplit_once('_')?;
    let (codec, elem) = rest.rsplit_once('_')?;
    let shape_ok = ["1d", "2d", "3d"].contains(&nd) && ["f32", "f64"].contains(&elem);
    (shape_ok && !codec.is_empty()).then_some(codec)
}

/// Method names that participate in the pipeline executor's channel and
/// condvar protocol; a panic inside a fn that drives this protocol can
/// strand peers blocked on the other end (L6).
const PROTOCOL_CALLS: &[&str] = &[
    "send",
    "recv",
    "try_recv",
    "recv_timeout",
    "wait",
    "wait_while",
    "wait_timeout",
    "notify_one",
    "notify_all",
];

/// Runs L6: parallel-discipline rules inside `crates/parallel`.
///
/// - `lock-unwrap`: `.lock().unwrap()` / `.try_lock().unwrap()` outside
///   the documented poisoning policy (the poison-tolerant `lock()` helper
///   is the only sanctioned way to take a mutex).
/// - `unsafe-impl-unmodeled`: an `unsafe impl Send/Sync` whose SAFETY
///   comment block does not name a loom model test.
/// - `protocol-panic`: a panic-capable construct (`unwrap`/`expect`/panic
///   macro) inside a non-test fn that drives the executor's channel or
///   condvar protocol — a panic there strands blocked peers.
pub fn lint_l6(files: &[(FileModel, FileClass)]) -> Vec<Finding> {
    let mut out = Vec::new();
    for (fm, _) in files {
        if !fm.path.starts_with("crates/parallel/") {
            continue;
        }
        // Fns that touch the channel/condvar protocol.
        let mut protocol_fns: HashMap<usize, &str> = HashMap::new();
        for site in &fm.sites {
            let SiteKind::Call { name, method, .. } = &site.kind else {
                continue;
            };
            if *method && PROTOCOL_CALLS.contains(&name.as_str()) {
                if let Some(fi) = site.fn_idx {
                    protocol_fns.entry(fi).or_insert(name.as_str());
                }
            }
        }
        for site in &fm.sites {
            if fm.site_in_test(site) {
                continue;
            }
            match &site.kind {
                SiteKind::LockUnwrap => {
                    out.push(Finding {
                        lint: "L6",
                        path: fm.path.clone(),
                        line: site.line,
                        func: fm.fn_name(site).to_string(),
                        kind: "lock-unwrap".to_string(),
                        msg: "`.lock().unwrap()` outside the documented poisoning policy"
                            .to_string(),
                        note: Some(
                            "use the poison-tolerant `lock()` helper (pool.rs) so a panicked \
                             worker cannot wedge its peers"
                                .to_string(),
                        ),
                        allowed: false,
                        waived: false,
                    });
                }
                SiteKind::UnsafeImpl(header)
                    if header.contains("Send") || header.contains("Sync") =>
                {
                    // The contiguous comment block ending on the impl line
                    // or directly above it must name a loom model test.
                    let names_loom = |c: &crate::lexer::Comment| c.text.contains("loom");
                    let mut modeled = fm
                        .comments
                        .iter()
                        .any(|c| c.end_line == site.line && names_loom(c));
                    let mut l = site.line;
                    while !modeled {
                        let Some(c) = fm.comments.iter().find(|c| c.end_line + 1 == l) else {
                            break;
                        };
                        modeled = names_loom(c);
                        l = c.line;
                    }
                    if !modeled {
                        out.push(Finding {
                            lint: "L6",
                            path: fm.path.clone(),
                            line: site.line,
                            func: fm.fn_name(site).to_string(),
                            kind: "unsafe-impl-unmodeled".to_string(),
                            msg: format!(
                                "`unsafe impl {header}` without a loom model test named in \
                                 its SAFETY comment"
                            ),
                            note: Some(
                                "name the covering test from tests/loom_pool.rs in the \
                                 comment block above the impl"
                                    .to_string(),
                            ),
                            allowed: false,
                            waived: false,
                        });
                    }
                }
                SiteKind::Macro(m) if PANIC_MACROS.contains(&m.as_str()) => {
                    if let Some(proto) = site.fn_idx.and_then(|fi| protocol_fns.get(&fi)) {
                        out.push(Finding {
                            lint: "L6",
                            path: fm.path.clone(),
                            line: site.line,
                            func: fm.fn_name(site).to_string(),
                            kind: format!("protocol-panic-{m}"),
                            msg: format!(
                                "`{m}!` inside a fn driving the channel/condvar protocol \
                                 (calls `.{proto}()`)"
                            ),
                            note: Some(
                                "a panic between send/recv pairs strands blocked peers; \
                                 propagate an error or document the drain invariant"
                                    .to_string(),
                            ),
                            allowed: false,
                            waived: false,
                        });
                    }
                }
                SiteKind::Call { name, method, .. }
                    if *method && (name == "unwrap" || name == "expect") =>
                {
                    if let Some(proto) = site.fn_idx.and_then(|fi| protocol_fns.get(&fi)) {
                        out.push(Finding {
                            lint: "L6",
                            path: fm.path.clone(),
                            line: site.line,
                            func: fm.fn_name(site).to_string(),
                            kind: format!("protocol-{name}"),
                            msg: format!(
                                "`.{name}()` inside a fn driving the channel/condvar \
                                 protocol (calls `.{proto}()`)"
                            ),
                            note: Some(
                                "a panic between send/recv pairs strands blocked peers; \
                                 propagate an error or document the drain invariant"
                                    .to_string(),
                            ),
                            allowed: false,
                            waived: false,
                        });
                    }
                }
                _ => {}
            }
        }
    }
    out
}

/// Applies inline comment waivers.
///
/// - `audit:allow(Ln[, Lm…]): reason` suppresses matching findings from
///   the marker through the end of its contiguous comment block and the
///   first code line after it — documented invariants routinely span
///   several `//` lines, which the lexer keeps as separate comments.
/// - `audit:allow-fn(Ln[, Lm…]): reason`, placed inside a function or in
///   the doc/attribute block directly above it, suppresses the whole
///   function — for guarded hot loops where one invariant covers every
///   site.
pub fn apply_waivers(files: &[(FileModel, FileClass)], findings: &mut [Finding]) {
    let mut lines: HashSet<(String, &'static str, u32)> = HashSet::new();
    let mut fns: HashSet<(String, &'static str, String)> = HashSet::new();
    for (fm, _) in files {
        for c in &fm.comments {
            for (marker, fn_scope) in [("audit:allow(", false), ("audit:allow-fn(", true)] {
                let Some(idx) = c.text.find(marker) else {
                    continue;
                };
                let rest = &c.text[idx + marker.len()..];
                let Some(close) = rest.find(')') else {
                    continue;
                };
                for lint in rest[..close].split(',') {
                    let lint: &'static str = match lint.trim() {
                        "L1" => "L1",
                        "L2" => "L2",
                        "L3" => "L3",
                        "L4" => "L4",
                        "L5" => "L5",
                        "L6" => "L6",
                        _ => continue,
                    };
                    if fn_scope {
                        // Innermost fn whose span covers the comment; when
                        // the comment sits above the item (doc/attribute
                        // position), the next `fn` within 10 lines.
                        let target = fm
                            .fns
                            .iter()
                            .filter(|f| f.line <= c.line && c.line <= f.end_line)
                            .min_by_key(|f| f.end_line.saturating_sub(f.line))
                            .or_else(|| {
                                fm.fns
                                    .iter()
                                    .filter(|f| f.line > c.line && f.line - c.line <= 10)
                                    .min_by_key(|f| f.line)
                            });
                        if let Some(f) = target {
                            fns.insert((fm.path.clone(), lint, f.name.clone()));
                        }
                    } else {
                        // Extend through the contiguous comment run below
                        // the marker, then one code line past it.
                        let mut last = c.end_line;
                        while let Some(n) = fm.comments.iter().find(|n| n.line == last + 1) {
                            last = n.end_line;
                        }
                        for l in c.line..=last + 1 {
                            lines.insert((fm.path.clone(), lint, l));
                        }
                    }
                }
            }
        }
    }
    for f in findings.iter_mut() {
        if lines.contains(&(f.path.clone(), f.lint, f.line))
            || fns.contains(&(f.path.clone(), f.lint, f.func.clone()))
        {
            f.waived = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::analyze_source;

    fn run_l1(srcs: &[(&str, &str)]) -> Vec<Finding> {
        let files: Vec<_> = srcs
            .iter()
            .map(|(p, s)| (analyze_source(p, s, false), classify(p)))
            .collect();
        lint_l1(&files)
    }

    #[test]
    fn l1_flags_unwrap_reachable_from_decode() {
        let f = run_l1(&[(
            "crates/sz/src/x.rs",
            "pub fn decompress(b: &[u8]) { helper(b); }\n\
             fn helper(b: &[u8]) { b.first().unwrap(); }",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].kind, "unwrap");
        assert_eq!(f[0].func, "helper");
        assert!(f[0]
            .note
            .as_deref()
            .unwrap()
            .contains("decompress → helper"));
    }

    #[test]
    fn l1_ignores_compress_only_panics() {
        let f = run_l1(&[(
            "crates/sz/src/x.rs",
            "pub fn compress(b: &[u8]) { b.first().unwrap(); }\n\
             pub fn decompress(b: &[u8]) { let _ = b.len(); }",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn l1_flags_indexing_and_panic_macros() {
        let f = run_l1(&[(
            "crates/zfp/src/x.rs",
            "pub fn decode_block(b: &[u8]) -> u8 { if b.len() < 2 { panic!(\"no\") } b[1] }",
        )]);
        let kinds: Vec<_> = f.iter().map(|x| x.kind.as_str()).collect();
        assert!(kinds.contains(&"panic-macro-panic"), "{kinds:?}");
        assert!(kinds.contains(&"index"), "{kinds:?}");
    }

    #[test]
    fn l1_cross_file_reachability() {
        let f = run_l1(&[
            (
                "crates/pipeline/src/a.rs",
                "pub fn decompress(b: &[u8]) { read_header(b); }",
            ),
            (
                "crates/bitstream/src/b.rs",
                "pub fn read_header(b: &[u8]) { b.iter().next().expect(\"hdr\"); }",
            ),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].kind, "expect");
        assert_eq!(f[0].path, "crates/bitstream/src/b.rs");
    }

    #[test]
    fn l1_skips_test_code_and_exempt_files() {
        let f = run_l1(&[
            (
                "crates/sz/src/x.rs",
                "#[cfg(test)]\nmod tests { fn decompress_helper(b: &[u8]) { b.first().unwrap(); } }",
            ),
            (
                "crates/bench/src/baseline.rs",
                "pub fn decompress(b: &[u8]) { b.first().unwrap(); }",
            ),
        ]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn l2_flags_bare_casts_outside_helper() {
        let src = "pub fn correct(eb: f64) -> i64 { eb as i64 }";
        let files = vec![(
            analyze_source("crates/core/src/pwrel.rs", src, false),
            FileClass::Source,
        )];
        let f = lint_l2(&files);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, "cast-i64");
    }

    #[test]
    fn l2_ignores_unlisted_modules() {
        let src = "pub fn f(x: f64) -> i64 { x as i64 }";
        let files = vec![(
            analyze_source("crates/sz/src/engine.rs", src, false),
            FileClass::Source,
        )];
        assert!(lint_l2(&files).is_empty());
    }

    #[test]
    fn l3_unsafe_outside_parallel_and_missing_safety() {
        let files = vec![
            (
                analyze_source(
                    "crates/bitstream/src/x.rs",
                    "fn f(p: *const u8) { unsafe { p.read() }; }",
                    false,
                ),
                FileClass::Source,
            ),
            (
                analyze_source(
                    "crates/parallel/src/pool.rs",
                    "fn g(p: *const u8) {\n// SAFETY: p is valid.\nunsafe { p.read() };\nunsafe { p.read() };\n}",
                    false,
                ),
                FileClass::Source,
            ),
        ];
        let f = lint_l3(&files);
        let kinds: Vec<_> = f
            .iter()
            .map(|x| (x.path.as_str(), x.kind.as_str()))
            .collect();
        assert_eq!(
            kinds,
            vec![
                ("crates/bitstream/src/x.rs", "unsafe-outside-parallel"),
                ("crates/parallel/src/pool.rs", "missing-safety-comment"),
            ],
            "{f:?}"
        );
    }

    #[test]
    fn waiver_comment_suppresses_same_and_next_line() {
        let src = "pub fn decompress(b: &[u8]) {\n\
                   // audit:allow(L1): length pre-validated by header check\n\
                   let _ = b[0];\n\
                   let _ = b[1];\n}";
        let files = vec![(
            analyze_source("crates/sz/src/x.rs", src, false),
            FileClass::Source,
        )];
        let mut f = lint_l1(&files);
        apply_waivers(&files, &mut f);
        let waived: Vec<_> = f.iter().map(|x| (x.line, x.waived)).collect();
        assert_eq!(waived, vec![(3, true), (4, false)], "{f:?}");
    }

    #[test]
    fn fn_scoped_waiver_covers_whole_function() {
        let src = "pub fn decompress(b: &[u8]) {\n\
                   // audit:allow-fn(L1): indices bounded by the header check\n\
                   let _ = b[0];\n\
                   let _ = b[1];\n}\n\
                   pub fn decode_other(b: &[u8]) { let _ = b[0]; }";
        let files = vec![(
            analyze_source("crates/sz/src/x.rs", src, false),
            FileClass::Source,
        )];
        let mut f = lint_l1(&files);
        apply_waivers(&files, &mut f);
        for x in &f {
            if x.func == "decompress" {
                assert!(x.waived, "{x:?}");
            } else {
                assert!(!x.waived, "{x:?}");
            }
        }
        assert_eq!(f.iter().filter(|x| !x.waived).count(), 1);
    }

    #[test]
    fn l6_lock_unwrap_flagged_but_poison_helper_clean() {
        let files = vec![(
            analyze_source(
                "crates/parallel/src/pool.rs",
                "fn bad(m: &Mutex<u8>) { let _ = m.lock().unwrap(); }\n\
                 fn good(m: &Mutex<u8>) { let _ = m.lock().unwrap_or_else(|e| e.into_inner()); }",
                false,
            ),
            FileClass::Source,
        )];
        let f = lint_l6(&files);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].kind, "lock-unwrap");
        assert_eq!(f[0].func, "bad");
    }

    #[test]
    fn l6_unsafe_send_impl_requires_loom_reference() {
        let files = vec![(
            analyze_source(
                "crates/parallel/src/pool.rs",
                "// SAFETY: modeled by loom_pool::send_sync.\n\
                 unsafe impl Send for A {}\n\
                 // SAFETY: the pointer is never aliased.\n\
                 unsafe impl Sync for B {}\n\
                 unsafe impl Other for C {}",
                false,
            ),
            FileClass::Source,
        )];
        let f = lint_l6(&files);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].kind, "unsafe-impl-unmodeled");
        assert!(f[0].msg.contains("Sync for B"), "{f:?}");
    }

    #[test]
    fn l6_panic_in_protocol_fn_flagged_elsewhere_not() {
        let files = vec![(
            analyze_source(
                "crates/parallel/src/pool.rs",
                "fn drive(rx: &Receiver<u8>) { let v = rx.recv().unwrap(); drop(v); }\n\
                 fn plain(x: Option<u8>) { x.unwrap(); }",
                false,
            ),
            FileClass::Source,
        )];
        let f = lint_l6(&files);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].kind, "protocol-unwrap");
        assert_eq!(f[0].func, "drive");
    }

    #[test]
    fn l6_outside_parallel_is_ignored() {
        let files = vec![(
            analyze_source(
                "crates/sz/src/engine.rs",
                "fn f(m: &Mutex<u8>) { let _ = m.lock().unwrap(); }",
                false,
            ),
            FileClass::Source,
        )];
        assert!(lint_l6(&files).is_empty());
    }

    #[test]
    fn l4_reports_missing_fixtures() {
        let dir = std::env::temp_dir().join("pwrel_audit_l4_test");
        let _ = std::fs::create_dir_all(&dir);
        for nd in ["1d", "2d", "3d"] {
            let _ = std::fs::write(dir.join(format!("have_f32_{nd}.bin")), b"x");
            let _ = std::fs::write(dir.join(format!("have_f64_{nd}.bin")), b"x");
        }
        let f = lint_l4(&["have".into(), "missing".into()], &dir);
        assert_eq!(f.len(), 6, "{f:?}");
        assert!(f.iter().all(|x| x.kind.starts_with("fixture-missing")));
    }

    #[test]
    fn l4_reports_fixtures_of_unregistered_codecs() {
        let dir = std::env::temp_dir().join("pwrel_audit_l4_orphan_test");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::create_dir_all(&dir);
        for elem in ["f32", "f64"] {
            for nd in ["1d", "2d", "3d"] {
                let _ = std::fs::write(dir.join(format!("sz_t_{elem}_{nd}.bin")), b"x");
                let _ = std::fs::write(dir.join(format!("sz_t_{elem}_{nd}_v2.bin")), b"x");
            }
        }
        for file in ["gone_t_f32_1d_v2.bin", "gone_t_f64_3d.bin", "stray.bin"] {
            let _ = std::fs::write(dir.join(file), b"x");
        }
        let _ = std::fs::write(dir.join("decoded_digests.txt"), b"x");
        let f = lint_l4(&["sz_t".into()], &dir);
        let kinds: Vec<&str> = f.iter().map(|x| x.kind.as_str()).collect();
        assert_eq!(
            kinds,
            [
                "orphan-gone_t_f32_1d_v2.bin",
                "orphan-gone_t_f64_3d.bin",
                "orphan-stray.bin"
            ],
            "{f:?}"
        );
        assert_eq!(fixture_codec("sz_t_f64_2d_v2.bin"), Some("sz_t"));
        assert_eq!(fixture_codec("zfp_p_f32_1d.bin"), Some("zfp_p"));
        assert_eq!(fixture_codec("_f32_1d.bin"), None);
    }
}
