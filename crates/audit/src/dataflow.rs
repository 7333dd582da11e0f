//! Interprocedural data-flow (taint) analysis for lint L5.
//!
//! Built on the same token stream as the structural model: each function
//! body is reduced to an ordered list of [`FlowEvent`]s — assignments,
//! recognized validations, sinks, call-argument positions, and returns.
//! The L5 engine then runs a flow-sensitive walk over each function
//! (events fire in source order, so a validation clears a variable only
//! for the events *after* it — a bound check after the allocation does
//! not retroactively excuse it) and iterates call-site argument and
//! return-value taint across the syntactic call graph to a fixpoint.
//!
//! Everything here is a deliberate, conservative over-approximation of
//! real Rust semantics:
//!
//! - variables are names, not places — `h.n_elems` taints/reads the base
//!   ident `h`, and shadowing is a plain reassignment;
//! - control flow is ignored except for statement order (back edges and
//!   branch joins collapse into "validated once, validated after");
//! - call resolution reuses L1's name/`Type::` matching with the same
//!   stoplist and ambiguity cutoff.
//!
//! The recognizer catalog (what counts as a *source*, a *validation*,
//! and a *sink*) is documented in `DESIGN.md` §16.

use crate::lexer::{Tok, TokKind};
use crate::lints::{crate_of, FileClass, Finding, RESOLVE_STOPLIST};
use crate::model::{FileModel, FnDef, NUMERIC_TYPES};
use std::collections::{HashMap, HashSet};

/// Calls whose return value is untrusted stream data: the byte/bit read
/// primitives of `pwrel-bitstream` plus the local `Read`-based wrappers
/// in `pipeline::stream`. Float reads (`read_f64`, `get_f32`/`get_f64`)
/// are deliberately excluded — a float cannot reach a length/index sink
/// without an `as` cast through an integer, and including them drowns
/// the report in error-bound arithmetic.
const SOURCE_CALLS: &[&str] = &[
    "read_uvarint",
    "read_ivarint",
    "read_bit",
    "read_bits",
    "read_bits_lsb",
    "peek_bits",
    "peek_word",
    "get_u16",
    "get_u32",
    "get_u64",
    "get_bytes",
    "read_u8",
    "read_u16",
    "read_u32",
    "read_u64",
];

/// Method/assoc-fn calls recognized as validating every variable they
/// touch (receiver and arguments). `checked_*` is in the ISSUE contract;
/// `min`/`clamp` impose a bound directly; `try_from`/`try_into` impose
/// the target type's range.
const VALIDATOR_CALLS: &[&str] = &[
    "min",
    "clamp",
    "checked_add",
    "checked_sub",
    "checked_mul",
    "checked_div",
    "checked_rem",
    "checked_pow",
    "checked_shl",
    "checked_shr",
    "try_from",
    "try_into",
    // `(lo..=hi).contains(&x)` is the clippy-preferred spelling of a
    // double comparison; the argument is range-checked. (Coarse: a
    // collection-membership `contains` also matches.)
    "contains",
    // `FrameWalker::admit` is the pipeline's plausibility cap: it bounds
    // the frame header's payload length against the container budget, so
    // a header that survives it is validated (ISSUE contract).
    "admit",
];

/// Keywords and primitives excluded from variable-ident collection.
const IDENT_SKIP: &[&str] = &[
    "let", "mut", "ref", "if", "else", "match", "return", "in", "for", "while", "loop", "as",
    "move", "break", "continue", "fn", "pub", "use", "where", "impl", "dyn", "unsafe", "const",
    "static", "struct", "enum", "trait", "mod", "true", "false", "crate", "super", "box", "async",
    "await", "_",
];

/// Lowercase type-ish idents that close generics (`Vec<u8>`); a `>` whose
/// left neighbor is one of these is a generic bracket, not a comparison.
/// [`NUMERIC_TYPES`] is appended at the check site.
const TYPEISH: &[&str] = &["bool", "str", "char"];

/// Crates whose sinks L5 reports on (taint *propagates* through every
/// Source-class file, but findings outside the decode surface are noise).
pub const L5_CRATES: &[&str] = &[
    "bitstream",
    "lossless",
    "sz",
    "zfp",
    "fpzip",
    "isabela",
    "pipeline",
    "core",
    "serve",
];

/// One ordered def-use event inside a function body.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowEvent {
    /// `lhs = rhs` (incl. `let`, compound `+=`, and `if let` bindings).
    Assign {
        /// 1-based source line.
        line: u32,
        /// True when the rhs is mask/shift/modulo-derived and therefore
        /// bounded by construction.
        bounded: bool,
        /// Idents bound on the left.
        lhs: Vec<String>,
        /// Idents read on the right.
        rhs: Vec<String>,
        /// Calls on the right, as `(name, qualifier)` for resolution.
        rhs_calls: Vec<(String, Option<String>)>,
    },
    /// A recognized validation touching `vars` (comparison, `match`
    /// scrutinee, or a `VALIDATOR_CALLS` call).
    Validate {
        /// 1-based source line.
        line: u32,
        /// Validated idents.
        vars: Vec<String>,
    },
    /// Tainted data reaching this is an L5 finding.
    Sink {
        /// 1-based source line.
        line: u32,
        /// Stable finding kind, e.g. `"taint-with_capacity"`.
        kind: String,
        /// Idents feeding the sink (capacity arg, index expression, …).
        vars: Vec<String>,
    },
    /// A call with per-argument-position ident sets, for interprocedural
    /// parameter taint.
    Call {
        /// 1-based source line.
        line: u32,
        /// Callee name (last path segment).
        name: String,
        /// `Type::` qualifier when syntactically present.
        qual: Option<String>,
        /// True for `.name(..)` method syntax (affects the arg→param
        /// position mapping when the callee takes `self`).
        method: bool,
        /// Idents per argument position.
        args: Vec<Vec<String>>,
    },
    /// `return expr` or the function's tail expression.
    Return {
        /// 1-based source line.
        line: u32,
        /// Idents flowing out.
        vars: Vec<String>,
        /// Calls flowing out, as `(name, qualifier)`.
        calls: Vec<(String, Option<String>)>,
    },
}

/// Per-function def-use chain: parameter names plus ordered events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FnFlow {
    /// Parameter names in declaration order (`self` included).
    pub params: Vec<String>,
    /// Events in source (token) order.
    pub events: Vec<FlowEvent>,
}

// ---------------------------------------------------------------------------
// Extraction
// ---------------------------------------------------------------------------

fn is_lowercase_ident(t: &Tok) -> bool {
    t.kind == TokKind::Ident
        && t.text
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_lowercase() || c == '_')
}

/// True when the token can end a value expression (left side of a binary
/// comparison / shift / mask).
fn value_ish(t: &Tok) -> bool {
    matches!(t.kind, TokKind::Num)
        || t.is_punct(')')
        || t.is_punct(']')
        || (is_lowercase_ident(t)
            && !TYPEISH.contains(&t.text.as_str())
            && !NUMERIC_TYPES.contains(&t.text.as_str()))
}

/// Collects variable idents in `[a, b)`, skipping keywords, call names
/// (ident followed by `(`), macro names (ident followed by `!`), and
/// field names (`dims.nz` reads the base `dims`, not `nz` — but a `.`
/// preceded by another `.` is a range, whose bound *is* a variable).
///
/// With `skip_len_recv`, the receiver of `.len()`/`.is_empty()` is
/// dropped too: a materialized buffer's length is bounded by an
/// allocation that already succeeded. Validation contexts pass `false`
/// so `if codes.len() != n` still validates `codes`.
fn collect_idents(toks: &[Tok], a: usize, b: usize, out: &mut Vec<String>, skip_len_recv: bool) {
    for i in a..b.min(toks.len()) {
        let t = &toks[i];
        if t.kind != TokKind::Ident || IDENT_SKIP.contains(&t.text.as_str()) {
            continue;
        }
        if i.checked_sub(1).is_some_and(|p| toks[p].is_punct('.'))
            && !i.checked_sub(2).is_some_and(|p| toks[p].is_punct('.'))
        {
            continue;
        }
        if let Some(n) = toks.get(i + 1) {
            if n.is_punct('(') || n.is_punct('!') {
                continue;
            }
        }
        if skip_len_recv
            && toks.get(i + 1).is_some_and(|n| n.is_punct('.'))
            && toks
                .get(i + 2)
                .is_some_and(|n| n.is_ident("len") || n.is_ident("is_empty"))
            && toks.get(i + 3).is_some_and(|n| n.is_punct('('))
        {
            continue;
        }
        if !out.contains(&t.text) {
            out.push(t.text.clone());
        }
    }
}

/// True when the expression ending at `i` (exclusive) is value-shaped:
/// [`value_ish`] final token, or a cast's numeric type (`x as u64 > y` is
/// a comparison even though a bare `u64` left of `>` reads as a generic).
fn value_before(toks: &[Tok], a: usize, i: usize) -> bool {
    let Some(p) = i.checked_sub(1).filter(|p| *p >= a) else {
        return false;
    };
    if value_ish(&toks[p]) {
        return true;
    }
    NUMERIC_TYPES.contains(&toks[p].text.as_str())
        && p.checked_sub(1)
            .filter(|q| *q >= a)
            .is_some_and(|q| toks[q].is_ident("as"))
}

/// True when `[a, b)` contains a value comparison (`<`, `>`, `<=`, `>=`,
/// `==`, `!=`) as opposed to generics, shifts, or arrows.
fn has_comparison(toks: &[Tok], a: usize, b: usize) -> bool {
    for i in a..b.min(toks.len()) {
        let t = &toks[i];
        if t.kind != TokKind::Punct {
            continue;
        }
        let prev = i.checked_sub(1).filter(|p| *p >= a).map(|p| &toks[p]);
        let next = toks.get(i + 1).filter(|_| i + 1 < b);
        match t.text.as_str() {
            "="
                // `==` (skip the `=` of `<=`/`>=`/`!=`/`=>` — those are
                // counted at their first character).
                if next.is_some_and(|n| n.is_punct('='))
                    && prev.is_none_or(|p| {
                        !p.is_punct('=') && !p.is_punct('!') && !p.is_punct('<') && !p.is_punct('>')
                    })
                => {
                    return true;
                }
            "!"
                if next.is_some_and(|n| n.is_punct('=')) => {
                    return true;
                }
            "<" | ">" => {
                // Shifts (`<<`, `>>`) and arrows (`->`, `=>`) are not
                // comparisons; generic brackets are filtered by requiring
                // a value-shaped left neighbor (`Vec<u8>` fails it).
                let same = |p: &Tok| p.text == t.text;
                if prev.is_some_and(same) || next.is_some_and(same) {
                    continue;
                }
                if t.text == ">" && prev.is_some_and(|p| p.is_punct('-') || p.is_punct('=')) {
                    continue;
                }
                if value_before(toks, a, i) {
                    return true;
                }
            }
            _ => {}
        }
    }
    false
}

/// True when `[a, b)` derives its value by mask/shift/modulo — bounded by
/// construction, so the assigned variable is treated as validated.
fn bounded_expr(toks: &[Tok], a: usize, b: usize) -> bool {
    for i in a..b.min(toks.len()) {
        let t = &toks[i];
        if t.kind != TokKind::Punct {
            continue;
        }
        let next = toks.get(i + 1).filter(|_| i + 1 < b);
        match t.text.as_str() {
            "%" => return true,
            ">"
                // Right shift `x >> k`: value-shaped left operand keeps
                // `Vec<Vec<u8>>`'s nested closers out.
                if next.is_some_and(|n| n.is_punct('>')) && value_before(toks, a, i) => {
                    return true;
                }
            "&"
                // Binary and (mask): `x & 0xFF`. A `&` after a non-value
                // token is a reference; `&&` is boolean.
                if value_before(toks, a, i)
                    && next.is_some_and(|n| !n.is_punct('&') && !n.is_punct('='))
                => {
                    return true;
                }
            _ => {}
        }
    }
    false
}

/// Splits the top-level comma groups of the paren/bracket group opening
/// at `open`; returns (per-group idents, close index).
fn group_args(toks: &[Tok], open: usize, limit: usize) -> (Vec<Vec<String>>, usize) {
    let mut args: Vec<Vec<String>> = Vec::new();
    let mut depth = 0i64;
    let mut start = open + 1;
    let mut i = open;
    while i < limit.min(toks.len()) {
        let t = &toks[i];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                if i > start {
                    let mut v = Vec::new();
                    collect_idents(toks, start, i, &mut v, true);
                    args.push(v);
                }
                return (args, i);
            }
        } else if t.is_punct(',') && depth == 1 {
            let mut v = Vec::new();
            collect_idents(toks, start, i, &mut v, true);
            args.push(v);
            start = i + 1;
        }
        i += 1;
    }
    (args, limit.saturating_sub(1))
}

/// Which argument of a sink call carries the length/count.
fn sink_call(name: &str) -> Option<(&'static str, bool)> {
    // (kind, use_last_arg)
    match name {
        "with_capacity" => Some(("taint-with_capacity", false)),
        "resize" | "resize_with" => Some(("taint-resize", false)),
        "reserve" | "reserve_exact" => Some(("taint-reserve", false)),
        "repeat_n" => Some(("taint-repeat_n", true)),
        _ => None,
    }
}

/// Parses the parameter names of the fn whose `fn` keyword is at `kw`.
fn parse_params(toks: &[Tok], kw: usize, body_open: usize) -> Vec<String> {
    let mut params = Vec::new();
    let mut i = kw + 2; // past `fn name`
                        // Skip generic params `<..>`.
    if toks.get(i).is_some_and(|t| t.is_punct('<')) {
        let mut depth = 0i64;
        while i < body_open {
            if toks[i].is_punct('<') {
                depth += 1;
            } else if toks[i].is_punct('>') {
                depth -= 1;
                if depth == 0 {
                    i += 1;
                    break;
                }
            }
            i += 1;
        }
    }
    while i < body_open && !toks[i].is_punct('(') {
        i += 1;
    }
    if i >= body_open {
        return params;
    }
    // Walk the paren group; each top-level comma chunk contributes the
    // idents of its pattern (everything before the top-level `:`).
    let mut depth = 0i64;
    let mut in_pattern = true;
    let mut chunk: Vec<String> = Vec::new();
    while i < body_open {
        let t = &toks[i];
        // `->` inside a higher-order parameter type (`&dyn Fn(u8) -> u8`)
        // must not close a bracket level.
        let arrow_close = t.is_punct('>')
            && i.checked_sub(1)
                .is_some_and(|p| toks[p].is_punct('-') || toks[p].is_punct('='));
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') || t.is_punct('<') {
            depth += 1;
        } else if t.is_punct(')')
            || t.is_punct(']')
            || t.is_punct('}')
            || (t.is_punct('>') && !arrow_close)
        {
            depth -= 1;
            if depth == 0 {
                params.append(&mut chunk);
                break;
            }
        } else if depth == 1 {
            if t.is_punct(',') {
                params.append(&mut chunk);
                in_pattern = true;
            } else if t.is_punct(':') && !toks.get(i + 1).is_some_and(|n| n.is_punct(':')) {
                in_pattern = false;
            } else if in_pattern
                && t.kind == TokKind::Ident
                && !IDENT_SKIP.contains(&t.text.as_str())
            {
                chunk.push(t.text.clone());
            }
        } else if depth == 2 && in_pattern && t.kind == TokKind::Ident {
            // Destructured tuple patterns `(a, b): (usize, usize)`.
            if !IDENT_SKIP.contains(&t.text.as_str()) {
                chunk.push(t.text.clone());
            }
        }
        i += 1;
    }
    params
}

/// Extracts [`FnFlow`]s for every fn in the file. `fn_kws[i]` is the token
/// index of `fns[i]`'s `fn` keyword.
pub fn extract_flows(toks: &[Tok], fns: &[FnDef], fn_kws: &[usize]) -> Vec<FnFlow> {
    fns.iter()
        .enumerate()
        .map(|(fi, f)| {
            let nested: Vec<(usize, usize)> = fns
                .iter()
                .filter(|g| g.body.0 > f.body.0 && g.body.1 < f.body.1)
                .map(|g| g.body)
                .collect();
            extract_one(toks, f, fn_kws[fi], &nested)
        })
        .collect()
}

fn extract_one(toks: &[Tok], f: &FnDef, kw: usize, nested: &[(usize, usize)]) -> FnFlow {
    let (open, close) = f.body;
    let params = parse_params(toks, kw, open);
    // Event list as (token position, priority, event): validations of a
    // statement fire before its sinks/calls, assignments fire last.
    let mut evs: Vec<(usize, u8, FlowEvent)> = Vec::new();

    // Pass A: statement splitting (boundaries: `;`, `{`, `}`), skipping
    // nested fn bodies. Struct-literal braces over-split; the call/sink
    // pass below matches parens over the full stream so argument capture
    // is unaffected.
    let mut stmts: Vec<(usize, usize)> = Vec::new();
    {
        let mut s = open + 1;
        let mut i = open + 1;
        while i < close {
            if let Some(&(_, nc)) = nested.iter().find(|(no, _)| *no == i) {
                if i > s {
                    stmts.push((s, i));
                }
                i = nc + 1;
                s = i;
                continue;
            }
            let t = &toks[i];
            if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
                if i > s {
                    stmts.push((s, i));
                }
                s = i + 1;
            }
            i += 1;
        }
        if close > s {
            stmts.push((s, close));
        }
    }

    for &(a, b) in &stmts {
        process_stmt(toks, a, b, &mut evs);
    }

    // Fn-tail return: everything after the last depth-0 `;`/`}` inside the
    // body (`Ok(out)` tails; call idents are collected by paren matching
    // in pass B, so here plain idents suffice).
    {
        let mut depth = 0i64;
        let mut tail = open + 1;
        let mut i = open + 1;
        while i < close {
            if let Some(&(_, nc)) = nested.iter().find(|(no, _)| *no == i) {
                i = nc + 1;
                tail = i;
                continue;
            }
            let t = &toks[i];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth -= 1;
                if depth == 0 && t.is_punct('}') {
                    tail = i + 1;
                }
            } else if depth == 0 && t.is_punct(';') {
                tail = i + 1;
            }
            i += 1;
        }
        if tail < close {
            let mut vars = Vec::new();
            collect_idents(toks, tail, close, &mut vars, true);
            let calls = calls_in(toks, tail, close);
            if !vars.is_empty() || !calls.is_empty() {
                evs.push((
                    close,
                    2,
                    FlowEvent::Return {
                        line: toks[close.min(toks.len() - 1)].line,
                        vars,
                        calls,
                    },
                ));
            }
        }
    }

    // Pass B: calls, sinks, and call-derived validations over the whole
    // body (paren groups matched on the full token stream so they cross
    // statement splits).
    let stmt_start = |i: usize| -> usize {
        stmts
            .iter()
            .rev()
            .find(|&&(a, b)| a <= i && i < b)
            .map(|&(a, _)| a)
            .unwrap_or(i)
    };
    let mut i = open + 1;
    while i < close {
        if let Some(&(_, nc)) = nested.iter().find(|(no, _)| *no == i) {
            i = nc + 1;
            continue;
        }
        let t = &toks[i];
        let next = toks.get(i + 1);
        let prev = i.checked_sub(1).map(|p| &toks[p]);
        if t.kind == TokKind::Ident
            && t.text == "vec"
            && next.is_some_and(|n| n.is_punct('!'))
            && toks.get(i + 2).is_some_and(|n| n.is_punct('['))
        {
            // `vec![init; n]` — the count is everything after the
            // top-level `;`; `vec![a, b]` literals have no count.
            let (_, close_idx) = group_args(toks, i + 2, close);
            let mut semi = None;
            let mut depth = 0i64;
            for (j, u) in toks.iter().enumerate().take(close_idx).skip(i + 2) {
                if u.is_punct('(') || u.is_punct('[') || u.is_punct('{') {
                    depth += 1;
                } else if u.is_punct(')') || u.is_punct(']') || u.is_punct('}') {
                    depth -= 1;
                } else if u.is_punct(';') && depth == 1 {
                    semi = Some(j);
                }
            }
            if let Some(s) = semi {
                let mut vars = Vec::new();
                collect_idents(toks, s + 1, close_idx, &mut vars, true);
                if !vars.is_empty() {
                    evs.push((
                        i,
                        1,
                        FlowEvent::Sink {
                            line: t.line,
                            kind: "taint-vec".to_string(),
                            vars,
                        },
                    ));
                }
            }
            i += 3;
            continue;
        }
        if t.kind == TokKind::Ident
            && next.is_some_and(|n| n.is_punct('('))
            && !crate::model::NON_CALL_KEYWORDS.contains(&t.text.as_str())
            && prev.is_none_or(|p| !p.is_ident("fn"))
        {
            let method = prev.is_some_and(|p| p.is_punct('.'));
            let qual =
                if !method && i >= 2 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':') {
                    i.checked_sub(3)
                        .map(|q| &toks[q])
                        .filter(|q| q.kind == TokKind::Ident)
                        .map(|q| q.text.clone())
                } else {
                    None
                };
            let (args, _) = group_args(toks, i + 1, close + 1);
            if VALIDATOR_CALLS.contains(&t.text.as_str()) {
                let mut vars: Vec<String> = Vec::new();
                if method {
                    if let Some(r) = i.checked_sub(2).map(|p| &toks[p]) {
                        if r.kind == TokKind::Ident && !IDENT_SKIP.contains(&r.text.as_str()) {
                            vars.push(r.text.clone());
                        }
                    }
                }
                for a in &args {
                    for v in a {
                        if !vars.contains(v) {
                            vars.push(v.clone());
                        }
                    }
                }
                if !vars.is_empty() {
                    evs.push((stmt_start(i), 0, FlowEvent::Validate { line: t.line, vars }));
                }
            }
            if let Some((kind, last)) = sink_call(&t.text) {
                let vars = if last {
                    args.last().cloned().unwrap_or_default()
                } else {
                    args.first().cloned().unwrap_or_default()
                };
                if !vars.is_empty() {
                    evs.push((
                        i,
                        1,
                        FlowEvent::Sink {
                            line: t.line,
                            kind: kind.to_string(),
                            vars,
                        },
                    ));
                }
            }
            evs.push((
                i,
                1,
                FlowEvent::Call {
                    line: t.line,
                    name: t.text.clone(),
                    qual,
                    method,
                    args,
                },
            ));
        }
        // Index sink: same prev-token rule as the structural model.
        if t.is_punct('[') {
            let is_index = match prev {
                Some(p) if p.kind == TokKind::Ident => {
                    !crate::model::NON_INDEX_KEYWORDS.contains(&p.text.as_str())
                }
                Some(p) if p.is_punct(')') || p.is_punct(']') => true,
                _ => false,
            };
            if is_index {
                let (args, _) = group_args(toks, i, close + 1);
                let vars: Vec<String> = args.into_iter().flatten().collect();
                if !vars.is_empty() {
                    evs.push((
                        i,
                        1,
                        FlowEvent::Sink {
                            line: t.line,
                            kind: "taint-index".to_string(),
                            vars,
                        },
                    ));
                }
            }
        }
        i += 1;
    }

    evs.sort_by_key(|(pos, prio, _)| (*pos, *prio));
    FnFlow {
        params,
        events: evs.into_iter().map(|(_, _, e)| e).collect(),
    }
}

/// Calls in `[a, b)` as `(name, qualifier)` pairs.
fn calls_in(toks: &[Tok], a: usize, b: usize) -> Vec<(String, Option<String>)> {
    let mut out = Vec::new();
    for i in a..b.min(toks.len()) {
        let t = &toks[i];
        if t.kind != TokKind::Ident
            || !toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            || crate::model::NON_CALL_KEYWORDS.contains(&t.text.as_str())
        {
            continue;
        }
        if i.checked_sub(1).is_some_and(|p| toks[p].is_ident("fn")) {
            continue;
        }
        let qual = if i >= 2 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':') {
            i.checked_sub(3)
                .map(|q| &toks[q])
                .filter(|q| q.kind == TokKind::Ident)
                .map(|q| q.text.clone())
        } else {
            None
        };
        out.push((t.text.clone(), qual));
    }
    out
}

/// Processes one statement slice into events (validation, assignment,
/// loop bound, return). Calls/sinks come from pass B.
fn process_stmt(toks: &[Tok], a: usize, b: usize, evs: &mut Vec<(usize, u8, FlowEvent)>) {
    let mut start = a;
    // Skip attributes `#[..]` and a leading `else`.
    while start < b {
        let t = &toks[start];
        if t.is_punct('#') && toks.get(start + 1).is_some_and(|n| n.is_punct('[')) {
            let (_, c) = group_args(toks, start + 1, b);
            start = c + 1;
            continue;
        }
        if t.is_ident("else") {
            start += 1;
            continue;
        }
        break;
    }
    if start >= b {
        return;
    }
    let line = toks[start].line;
    let kw = if toks[start].kind == TokKind::Ident {
        Some(toks[start].text.as_str())
    } else {
        None
    };
    if kw == Some("fn") || kw == Some("use") || kw == Some("mod") {
        return;
    }

    // `for PAT in LO..HI {` — the upper bound drives the loop.
    if kw == Some("for") {
        let mut j = start + 1;
        while j < b && !toks[j].is_ident("in") {
            j += 1;
        }
        let mut k = j;
        while k + 1 < b {
            if toks[k].is_punct('.') && toks[k + 1].is_punct('.') {
                let mut hi = k + 2;
                if toks.get(hi).is_some_and(|t| t.is_punct('=')) {
                    hi += 1;
                }
                let mut vars = Vec::new();
                collect_idents(toks, hi, b, &mut vars, true);
                if !vars.is_empty() {
                    evs.push((
                        k,
                        1,
                        FlowEvent::Sink {
                            line: toks[k].line,
                            kind: "taint-loop-bound".to_string(),
                            vars,
                        },
                    ));
                }
                break;
            }
            k += 1;
        }
    }

    // Comparison anywhere in the statement validates its idents; `match`
    // validates its scrutinee (enum/range dispatch is validation).
    if has_comparison(toks, start, b) {
        let mut vars = Vec::new();
        collect_idents(toks, start, b, &mut vars, false);
        if !vars.is_empty() {
            evs.push((start, 0, FlowEvent::Validate { line, vars }));
        }
    } else if kw == Some("match") {
        let mut vars = Vec::new();
        collect_idents(toks, start + 1, b, &mut vars, false);
        if !vars.is_empty() {
            evs.push((start, 0, FlowEvent::Validate { line, vars }));
        }
    }

    if kw == Some("return") {
        let mut vars = Vec::new();
        collect_idents(toks, start + 1, b, &mut vars, true);
        let calls = calls_in(toks, start + 1, b);
        if !vars.is_empty() || !calls.is_empty() {
            evs.push((b, 2, FlowEvent::Return { line, vars, calls }));
        }
        return;
    }

    // Assignment: first eligible top-level `=`.
    let mut depth = 0i64;
    let mut eq = None;
    for i in start..b {
        let t = &toks[i];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if t.is_punct('=') && depth == 0 {
            let prev = i.checked_sub(1).filter(|p| *p >= start).map(|p| &toks[p]);
            let next = toks.get(i + 1).filter(|_| i + 1 < b);
            let cmp_prev = prev.is_some_and(|p| {
                p.is_punct('=') || p.is_punct('!') || p.is_punct('<') || p.is_punct('>')
            });
            let dotdot = prev.is_some_and(|p| p.is_punct('.'));
            let arrow_or_eq = next.is_some_and(|n| n.is_punct('=') || n.is_punct('>'));
            if cmp_prev || dotdot || arrow_or_eq {
                continue;
            }
            let compound = prev.is_some_and(|p| {
                ["+", "-", "*", "/", "%", "&", "|", "^"]
                    .iter()
                    .any(|c| p.is_punct(c.chars().next().unwrap()))
            });
            eq = Some((i, compound));
            break;
        }
    }
    if let Some((i, compound)) = eq {
        // lhs: pattern idents before any top-level type annotation `:`.
        let mut lhs_end = i;
        let mut d = 0i64;
        for j in start..i {
            let t = &toks[j];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                d += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                d -= 1;
            } else if t.is_punct(':')
                && d == 0
                && !toks.get(j + 1).is_some_and(|n| n.is_punct(':'))
                && j.checked_sub(1).is_none_or(|p| !toks[p].is_punct(':'))
            {
                lhs_end = j;
                break;
            }
        }
        // `arr[idx] = v` writes *through* `idx`: the index idents are
        // reads (the index-sink pass covers them), not binding targets,
        // so bracket groups are excluded from the lhs.
        let mut lhs = Vec::new();
        {
            let mut j = start;
            while j < lhs_end {
                if toks[j].is_punct('[') {
                    let (_, c) = group_args(toks, j, lhs_end + 1);
                    j = c + 1;
                    continue;
                }
                collect_idents(toks, j, j + 1, &mut lhs, true);
                j += 1;
            }
        }
        let mut rhs = Vec::new();
        collect_idents(toks, i + 1, b, &mut rhs, true);
        if compound {
            for v in &lhs {
                if !rhs.contains(v) {
                    rhs.push(v.clone());
                }
            }
        }
        let rhs_calls = calls_in(toks, i + 1, b);
        if !lhs.is_empty() {
            evs.push((
                b,
                2,
                FlowEvent::Assign {
                    line,
                    bounded: bounded_expr(toks, i + 1, b),
                    lhs,
                    rhs,
                    rhs_calls,
                },
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// L5 engine
// ---------------------------------------------------------------------------

/// Global function id: (file index, fn index).
type FnId = (usize, usize);

#[derive(Debug, Default, Clone)]
struct Summary {
    param_taint: Vec<Option<String>>, // origin per tainted param
    taints_ret: bool,
    ret_origin: Option<String>,
}

struct SinkHit {
    file: usize,
    func: usize,
    line: u32,
    kind: String,
    vars: Vec<(String, String)>, // (var, origin)
}

/// Runs L5 over the workspace: interprocedural taint from stream reads to
/// allocation/index/loop-bound sinks.
pub fn lint_l5(files: &[(FileModel, FileClass)]) -> Vec<Finding> {
    // Universe: non-test fns in non-exempt files (TestOnly files mark all
    // fns as test, so they drop out here).
    let mut ids: Vec<FnId> = Vec::new();
    let mut by_name: HashMap<&str, Vec<FnId>> = HashMap::new();
    let mut by_qual: HashMap<(&str, &str), Vec<FnId>> = HashMap::new();
    for (fi, (fm, class)) in files.iter().enumerate() {
        if *class == FileClass::Exempt {
            continue;
        }
        for (gi, f) in fm.fns.iter().enumerate() {
            if f.is_test || gi >= fm.flows.len() {
                continue;
            }
            ids.push((fi, gi));
            by_name.entry(&f.name).or_default().push((fi, gi));
            if let Some(q) = &f.qualifier {
                by_qual.entry((q, &f.name)).or_default().push((fi, gi));
            }
        }
    }
    let resolve = |name: &str, qual: &Option<String>| -> Vec<FnId> {
        let targets = match qual {
            Some(q) => by_qual
                .get(&(q.as_str(), name))
                .or_else(|| by_name.get(name)),
            None if RESOLVE_STOPLIST.contains(&name) => None,
            None => by_name.get(name),
        };
        match targets {
            Some(ts) if qual.is_some() || ts.len() <= 6 => ts.clone(),
            _ => Vec::new(),
        }
    };

    let mut summaries: HashMap<FnId, Summary> = ids
        .iter()
        .map(|&id| {
            let params = &files[id.0].0.flows[id.1].params;
            (
                id,
                Summary {
                    param_taint: vec![None; params.len()],
                    taints_ret: false,
                    ret_origin: None,
                },
            )
        })
        .collect();

    // Fixpoint: walk every fn, propagating return taint and call-argument
    // taint until nothing changes (bounded — taint flags only ever flip
    // from clean to tainted).
    for _ in 0..16 {
        let mut changed = false;
        for &id in &ids {
            let out = walk_fn(files, id, &summaries, &resolve);
            let s = summaries.get_mut(&id).unwrap();
            if out.taints_ret && !s.taints_ret {
                s.taints_ret = true;
                s.ret_origin = out.ret_origin.clone();
                changed = true;
            }
            for (name, qual, method, line, arg_origins) in &out.calls_out {
                for tid in resolve(name, qual) {
                    let tparams = files[tid.0].0.flows[tid.1].params.clone();
                    let takes_self = tparams.first().is_some_and(|p| p == "self");
                    // Same-name fns split across method/free calling
                    // conventions are different fns: `batch.scatter(..)`
                    // must not taint the free `blocks::scatter`. A
                    // matching `Type::` qualifier readmits UFCS calls.
                    let qual_matches = qual
                        .as_deref()
                        .is_some_and(|q| files[tid.0].0.fns[tid.1].qualifier.as_deref() == Some(q));
                    if *method != takes_self && !qual_matches {
                        continue;
                    }
                    let off = usize::from(*method && takes_self);
                    let ts = summaries.get_mut(&tid).unwrap();
                    for (ai, origin) in arg_origins.iter().enumerate() {
                        let Some(origin) = origin else { continue };
                        let pi = ai + off;
                        if pi < ts.param_taint.len() && ts.param_taint[pi].is_none() {
                            let pname = &tparams[pi];
                            let caller = &files[id.0].0.fns[id.1].name;
                            let path = &files[id.0].0.path;
                            ts.param_taint[pi] = Some(trim_origin(&format!(
                                "param `{pname}` via `{caller}` ({path}:{line}): {origin}"
                            )));
                            changed = true;
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Final pass: collect sink hits, report only inside the L5 crates.
    let mut out = Vec::new();
    let mut seen: HashSet<(usize, u32, String)> = HashSet::new();
    for &id in &ids {
        let (fm, class) = &files[id.0];
        if *class != FileClass::Source || !L5_CRATES.contains(&crate_of(&fm.path)) {
            continue;
        }
        let res = walk_fn(files, id, &summaries, &resolve);
        for hit in res.sinks {
            if !seen.insert((hit.file, hit.line, hit.kind.clone())) {
                continue;
            }
            let vars: Vec<&str> = hit.vars.iter().map(|(v, _)| v.as_str()).collect();
            let origin = &hit.vars[0].1;
            let sink_desc = hit.kind.trim_start_matches("taint-").replace('-', " ");
            out.push(Finding {
                lint: "L5",
                path: fm.path.clone(),
                line: hit.line,
                func: fm.fns[hit.func].name.clone(),
                kind: hit.kind,
                msg: format!(
                    "stream-derived `{}` reaches {} before any recognized bound check",
                    vars.join("`/`"),
                    sink_desc
                ),
                note: Some(format!("tainted by {origin}")),
                allowed: false,
                waived: false,
            });
        }
    }
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    out
}

struct WalkOut {
    taints_ret: bool,
    ret_origin: Option<String>,
    sinks: Vec<SinkHit>,
    // (name, qual, method, line, per-arg origin)
    #[allow(clippy::type_complexity)]
    calls_out: Vec<(String, Option<String>, bool, u32, Vec<Option<String>>)>,
}

fn trim_origin(s: &str) -> String {
    if s.len() > 160 {
        let mut end = 157;
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        format!("{}...", &s[..end])
    } else {
        s.to_string()
    }
}

fn walk_fn(
    files: &[(FileModel, FileClass)],
    id: FnId,
    summaries: &HashMap<FnId, Summary>,
    resolve: &dyn Fn(&str, &Option<String>) -> Vec<FnId>,
) -> WalkOut {
    let (fm, _) = &files[id.0];
    let flow = &fm.flows[id.1];
    let summary = &summaries[&id];
    let mut taint: HashMap<&str, String> = HashMap::new();
    let mut validated: HashSet<&str> = HashSet::new();
    for (pi, p) in flow.params.iter().enumerate() {
        if let Some(origin) = summary.param_taint.get(pi).and_then(|o| o.as_ref()) {
            taint.insert(p.as_str(), origin.clone());
        }
    }
    let mut out = WalkOut {
        taints_ret: false,
        ret_origin: None,
        sinks: Vec::new(),
        calls_out: Vec::new(),
    };
    let active = |taint: &HashMap<&str, String>, validated: &HashSet<&str>, v: &str| {
        if validated.contains(v) {
            None
        } else {
            taint.get(v).cloned()
        }
    };
    let call_taint = |name: &str, qual: &Option<String>, line: u32| -> Option<String> {
        if SOURCE_CALLS.contains(&name) {
            return Some(format!("`{name}()` at {}:{line}", fm.path));
        }
        for tid in resolve(name, qual) {
            if let Some(s) = summaries.get(&tid) {
                if s.taints_ret {
                    return Some(s.ret_origin.clone().unwrap_or_else(|| {
                        format!("return of `{}`", files[tid.0].0.fns[tid.1].name)
                    }));
                }
            }
        }
        None
    };
    for ev in &flow.events {
        match ev {
            FlowEvent::Validate { vars, .. } => {
                for v in vars {
                    // Re-borrow from the flow so the lifetime outlives
                    // the loop iteration.
                    validated.insert(v.as_str());
                }
            }
            FlowEvent::Assign {
                line,
                bounded,
                lhs,
                rhs,
                rhs_calls,
            } => {
                let mut origin = None;
                for v in rhs {
                    if let Some(o) = active(&taint, &validated, v) {
                        origin = Some(o);
                        break;
                    }
                }
                if origin.is_none() {
                    for (name, qual) in rhs_calls {
                        if let Some(o) = call_taint(name, qual, *line) {
                            origin = Some(o);
                            break;
                        }
                    }
                }
                // A recognized validator anywhere in the rhs bounds the
                // whole assignment: `let n = (read_uvarint(..) as
                // usize).min(max)` is the dominant single-expression
                // validation idiom. Coarse — the validator might guard
                // only a sub-expression — but decode headers are short
                // arithmetic, and missing it would force a two-statement
                // rewrite of every capped read.
                let validator_in_rhs = rhs_calls
                    .iter()
                    .any(|(n, _)| VALIDATOR_CALLS.contains(&n.as_str()));
                for l in lhs {
                    validated.remove(l.as_str());
                    if *bounded || validator_in_rhs {
                        taint.remove(l.as_str());
                    } else if let Some(o) = &origin {
                        taint.insert(l.as_str(), o.clone());
                    } else {
                        taint.remove(l.as_str());
                    }
                }
            }
            FlowEvent::Sink { line, kind, vars } => {
                let hits: Vec<(String, String)> = vars
                    .iter()
                    .filter_map(|v| active(&taint, &validated, v).map(|o| (v.clone(), o)))
                    .collect();
                if !hits.is_empty() {
                    out.sinks.push(SinkHit {
                        file: id.0,
                        func: id.1,
                        line: *line,
                        kind: kind.clone(),
                        vars: hits,
                    });
                }
            }
            FlowEvent::Call {
                line,
                name,
                qual,
                method,
                args,
            } => {
                let origins: Vec<Option<String>> = args
                    .iter()
                    .map(|a| a.iter().find_map(|v| active(&taint, &validated, v)))
                    .collect();
                if origins.iter().any(Option::is_some) {
                    out.calls_out
                        .push((name.clone(), qual.clone(), *method, *line, origins));
                }
            }
            FlowEvent::Return { line, vars, calls } => {
                if !out.taints_ret {
                    for v in vars {
                        if let Some(o) = active(&taint, &validated, v) {
                            out.taints_ret = true;
                            out.ret_origin = Some(o);
                            break;
                        }
                    }
                    if !out.taints_ret {
                        for (name, qual) in calls {
                            if let Some(o) = call_taint(name, qual, *line) {
                                out.taints_ret = true;
                                out.ret_origin = Some(o);
                                break;
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lints::classify;
    use crate::model::analyze_source;

    fn run(srcs: &[(&str, &str)]) -> Vec<Finding> {
        let files: Vec<_> = srcs
            .iter()
            .map(|(p, s)| (analyze_source(p, s, false), classify(p)))
            .collect();
        lint_l5(&files)
    }

    #[test]
    fn unvalidated_capacity_from_uvarint_is_flagged() {
        let f = run(&[(
            "crates/lossless/src/x.rs",
            "pub fn decompress(data: &[u8]) -> Vec<u8> {\n\
             let mut pos = 0;\n\
             let n = read_uvarint(data, &mut pos) as usize;\n\
             let out: Vec<u8> = Vec::with_capacity(n);\n\
             out }",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].kind, "taint-with_capacity");
        assert!(f[0].note.as_deref().unwrap().contains("read_uvarint"));
    }

    #[test]
    fn comparison_before_sink_validates() {
        let f = run(&[(
            "crates/lossless/src/x.rs",
            "pub fn decompress(data: &[u8]) -> Vec<u8> {\n\
             let mut pos = 0;\n\
             let n = read_uvarint(data, &mut pos) as usize;\n\
             if n > data.len() { return Vec::new(); }\n\
             let out: Vec<u8> = Vec::with_capacity(n);\n\
             out }",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn comparison_after_sink_does_not_excuse_it() {
        let f = run(&[(
            "crates/lossless/src/x.rs",
            "pub fn decompress(data: &[u8]) -> Vec<u8> {\n\
             let mut pos = 0;\n\
             let n = read_uvarint(data, &mut pos) as usize;\n\
             let out: Vec<u8> = Vec::with_capacity(n);\n\
             if n > data.len() { return Vec::new(); }\n\
             out }",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn generic_annotation_is_not_a_comparison() {
        // `Vec<u8> =` must not read as `>=`-style validation.
        let f = run(&[(
            "crates/lossless/src/x.rs",
            "pub fn decompress(data: &[u8]) -> Vec<u8> {\n\
             let mut pos = 0;\n\
             let n = read_uvarint(data, &mut pos) as usize;\n\
             let mut out: Vec<u8> = Vec::with_capacity(n);\n\
             out.push(1); out }",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn taint_propagates_through_call_arguments() {
        let f = run(&[(
            "crates/lossless/src/x.rs",
            "pub fn decompress(data: &[u8]) -> Vec<u8> {\n\
             let mut pos = 0;\n\
             let n = read_uvarint(data, &mut pos) as usize;\n\
             build(data, n) }\n\
             fn build(data: &[u8], count: usize) -> Vec<u8> {\n\
             Vec::with_capacity(count) }",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].func, "build");
        assert!(f[0].note.as_deref().unwrap().contains("decompress"));
    }

    #[test]
    fn taint_propagates_through_returns() {
        let f = run(&[(
            "crates/lossless/src/x.rs",
            "fn header_len(data: &[u8]) -> usize {\n\
             let mut pos = 0;\n\
             read_uvarint(data, &mut pos) as usize }\n\
             pub fn decompress(data: &[u8]) -> Vec<u8> {\n\
             let n = header_len(data);\n\
             Vec::with_capacity(n) }",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].func, "decompress");
    }

    #[test]
    fn min_clamp_and_shift_launder_taint() {
        let f = run(&[(
            "crates/lossless/src/x.rs",
            "pub fn decompress(data: &[u8]) -> Vec<u8> {\n\
             let mut pos = 0;\n\
             let n = read_uvarint(data, &mut pos) as usize;\n\
             let a: Vec<u8> = Vec::with_capacity(n.min(4096));\n\
             let prefix = n >> 53;\n\
             let b = a[prefix];\n\
             vec![b; 1] }",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn tainted_index_and_loop_bound_are_sinks() {
        let f = run(&[(
            "crates/zfp/src/x.rs",
            "pub fn decode(data: &[u8], lut: &[u8]) -> u8 {\n\
             let mut pos = 0;\n\
             let i = read_uvarint(data, &mut pos) as usize;\n\
             let m = read_uvarint(data, &mut pos) as usize;\n\
             let mut acc = 0;\n\
             for _ in 0..m { acc += 1; }\n\
             lut[i] + acc }",
        )]);
        let kinds: Vec<_> = f.iter().map(|x| x.kind.as_str()).collect();
        assert!(kinds.contains(&"taint-index"), "{f:?}");
        assert!(kinds.contains(&"taint-loop-bound"), "{f:?}");
    }

    #[test]
    fn vec_macro_count_is_a_sink_but_literals_are_not() {
        let f = run(&[(
            "crates/sz/src/x.rs",
            "pub fn decompress(data: &[u8]) -> Vec<u32> {\n\
             let mut pos = 0;\n\
             let n = read_uvarint(data, &mut pos) as usize;\n\
             let lit = vec![1, 2, 3];\n\
             let mut out = vec![0u32; n];\n\
             out[0] = lit[0]; out }",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].kind, "taint-vec");
    }

    #[test]
    fn sinks_outside_l5_crates_are_not_reported() {
        let f = run(&[(
            "crates/cli/src/x.rs",
            "pub fn decompress(data: &[u8]) -> Vec<u8> {\n\
             let mut pos = 0;\n\
             let n = read_uvarint(data, &mut pos) as usize;\n\
             Vec::with_capacity(n) }",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn reassignment_after_validation_keeps_the_clean_state() {
        // `let n = n.min(cap);` — the validator fires at statement start,
        // so the reassigned `n` is clean downstream.
        let f = run(&[(
            "crates/lossless/src/x.rs",
            "pub fn decompress(data: &[u8]) -> Vec<u8> {\n\
             let mut pos = 0;\n\
             let n = read_uvarint(data, &mut pos) as usize;\n\
             let n = n.min(1024);\n\
             Vec::with_capacity(n) }",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn match_scrutiny_counts_as_validation() {
        let f = run(&[(
            "crates/lossless/src/x.rs",
            "pub fn decompress(data: &[u8]) -> Vec<u8> {\n\
             let mut pos = 0;\n\
             let mode = read_uvarint(data, &mut pos) as usize;\n\
             match mode { 0 => Vec::new(), _ => Vec::with_capacity(mode) } }",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn cast_comparison_is_recognized() {
        // `n as u64 > cap` — the numeric type left of `>` belongs to a
        // cast, not a generic bracket.
        let f = run(&[(
            "crates/zfp/src/x.rs",
            "pub fn decompress(data: &[u8]) -> Vec<u8> {\n\
             let mut pos = 0;\n\
             let n = read_uvarint(data, &mut pos) as usize;\n\
             if n as u64 * 2 as u64 > data.len() as u64 { return Vec::new(); }\n\
             Vec::with_capacity(n) }",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn indexed_store_does_not_retaint_the_index() {
        // `out[idx] = v` writes through `idx`; it must stay validated.
        let f = run(&[(
            "crates/sz/src/x.rs",
            "pub fn decompress(data: &[u8]) -> Vec<u8> {\n\
             let mut pos = 0;\n\
             let idx = read_uvarint(data, &mut pos) as usize;\n\
             let mut out = vec![0u8; 16];\n\
             if idx >= out.len() { return out; }\n\
             out[idx] = 1;\n\
             out[idx] = 2;\n\
             out }",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn field_reads_taint_only_the_base() {
        // Validating `dims` validates `dims.nz` — the field ident itself
        // must not surface as an independent (never-validated) variable.
        let f = run(&[(
            "crates/fpzip/src/x.rs",
            "pub fn decompress(data: &[u8], dims: Hdr) -> usize {\n\
             let mut pos = 0;\n\
             let dims = read_hdr(read_uvarint(data, &mut pos));\n\
             if dims.nz > 64 { return 0; }\n\
             let mut acc = 0;\n\
             for _ in 0..dims.nz { acc += 1; }\n\
             acc }",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn len_of_materialized_buffer_is_clean() {
        // `get_bytes` taints `payload`, but `payload.len()` is bounded by
        // the allocation that already succeeded.
        let f = run(&[(
            "crates/zfp/src/x.rs",
            "pub fn decompress(data: &[u8]) -> Vec<u8> {\n\
             let mut pos = 0;\n\
             let payload = get_bytes(data, &mut pos);\n\
             let n = payload.len();\n\
             vec![0u8; n] }",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn admit_call_validates_its_args() {
        let f = run(&[(
            "crates/pipeline/src/x.rs",
            "pub fn next_frame(data: &[u8], w: &mut Walker) -> Vec<u8> {\n\
             let mut pos = 0;\n\
             let fh = read_u32(data, &mut pos) as usize;\n\
             w.admit(fh);\n\
             Vec::with_capacity(fh) }",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn method_call_does_not_taint_same_named_free_fn() {
        // `b.scatter(n)` (method) must not taint the free `scatter`'s
        // params — they are different functions.
        let f = run(&[(
            "crates/zfp/src/x.rs",
            "impl Batch { pub fn scatter(&self, n: usize) -> usize { n } }\n\
             pub fn decompress(data: &[u8], b: &Batch) -> Vec<u8> {\n\
             let mut pos = 0;\n\
             let n = read_uvarint(data, &mut pos) as usize;\n\
             let _ = b.scatter(n);\n\
             Vec::new() }\n\
             pub fn scatter(count: usize) -> Vec<u8> {\n\
             Vec::with_capacity(count) }",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn params_parse_with_generics_and_self() {
        let m = analyze_source(
            "x.rs",
            "impl Foo { fn f<T: Clone>(&self, n: usize, (a, b): (u8, u8)) -> T { todo!() } }",
            false,
        );
        assert_eq!(m.flows[0].params, vec!["self", "n", "a", "b"]);
    }
}
