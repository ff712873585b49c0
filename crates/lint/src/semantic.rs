//! Pass 2: the cross-file semantic rules D7-D9.
//!
//! Each rule is a pure function from the workspace [`Model`] (plus the
//! per-file token streams) to findings; the driver in
//! [`crate::analyze_files`] handles scoping, test regions, and
//! suppressions exactly as for the token rules.
//!
//! - **D7** — unit-dimension flow: `.get()` values of different unit
//!   newtypes must not meet in one arithmetic/comparison expression, and
//!   `.0` must not escape the newtypes outside `units.rs`.
//! - **D8** — obs discipline: emitted kinds are declared and registered
//!   exactly once, `emit!`/`span!` arities and lexical balance hold per
//!   function, and restore paths emit nothing.
//! - **D9** — hot-path allocation: `// powadapt-lint: hot` fns must not
//!   allocate directly or through a one-level non-hot callee.

use std::collections::{BTreeMap, BTreeSet};

use crate::diag::RuleId;
use crate::lexer::{Tok, TokKind};
use crate::model::{FnDef, Model};
use crate::suppress::HotMark;

/// Per-file context pass 2 needs alongside the model.
#[derive(Debug, Clone, Copy)]
pub struct FileCtx<'a> {
    /// Workspace-relative path.
    pub path: &'a str,
    /// The file's token stream.
    pub toks: &'a [Tok],
}

/// One semantic finding, anchored by file index + position (the driver
/// attaches snippets).
#[derive(Debug)]
pub struct SemFinding {
    /// The violated rule.
    pub rule: RuleId,
    /// Index into the analyzed file list.
    pub file: usize,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Length in characters of the underlined span.
    pub span_len: u32,
    /// Specific message.
    pub message: String,
}

fn finding(rule: RuleId, file: usize, t: &Tok, message: String) -> SemFinding {
    SemFinding {
        rule,
        file,
        line: t.line,
        col: t.col,
        span_len: t.text.chars().count() as u32,
        message,
    }
}

/// The unit newtypes D7 tracks.
const UNIT_TYPES: &[&str] = &["Watts", "Joules", "Millis", "Micros"];

/// Heap-allocating container types D9 recognizes as `.clone()`/`push`
/// hazards.
const HEAP_TYPES: &[&str] = &["Vec", "VecDeque", "String", "Box", "BTreeMap", "BTreeSet"];

/// The dimension of a type written as token texts, if it is exactly one
/// of the unit newtypes (possibly behind `&`/`&mut`).
fn unit_dim(ty: &[String]) -> Option<&'static str> {
    let core: Vec<&str> = ty
        .iter()
        .map(String::as_str)
        .filter(|t| *t != "&" && *t != "mut")
        .collect();
    match core.as_slice() {
        [one] => UNIT_TYPES.iter().find(|u| *u == one).copied(),
        _ => None,
    }
}

/// The heap container heading a type (`Vec<...>`, `&mut VecDeque<..>`).
fn heap_head(ty: &[String]) -> Option<&'static str> {
    let first = ty.iter().find(|t| {
        t.chars()
            .next()
            .is_some_and(|c| c.is_alphabetic() || c == '_')
            && *t != "mut"
    })?;
    HEAP_TYPES.iter().find(|h| *h == first).copied()
}

/// The element type of a `Vec<T>`-shaped type (for `self.field[i].push`
/// receivers), or `None` when the shape doesn't match.
fn vec_elem(ty: &[String]) -> Option<Vec<String>> {
    let texts: Vec<&str> = ty.iter().map(String::as_str).collect();
    match texts.as_slice() {
        ["Vec", "<", inner @ .., ">"] => Some(inner.iter().map(|s| (*s).to_string()).collect()),
        _ => None,
    }
}

/// Snake-cases a CamelCase variant name the way the obs registry does
/// (`IoStart` -> `io_start`).
fn camel_to_snake(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    for (i, c) in name.chars().enumerate() {
        if c.is_uppercase() {
            if i > 0 {
                out.push('_');
            }
            out.extend(c.to_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

/// Groups files by crate so same-name types in different crates never
/// cross wires. Non-`crates/` files share the `""` key — which is also
/// what makes single-file fixture runs behave as one small crate.
fn crate_key(path: &str) -> &str {
    path.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("")
}

/// Attaches `// powadapt-lint: hot` marks to the fns they precede and
/// returns findings (as S0) for marks that precede no fn. A mark may sit
/// directly above the `fn` line (attributes between the mark and the
/// `fn` are tolerated) or trail it.
pub fn attach_hot_marks(
    model: &mut Model,
    files: &[FileCtx<'_>],
    marks: &mut [HotMark],
    out: &mut Vec<SemFinding>,
) {
    let path_index: BTreeMap<&str, usize> =
        files.iter().enumerate().map(|(i, f)| (f.path, i)).collect();
    for mark in marks {
        let Some(&file) = path_index.get(mark.path.as_str()) else {
            continue;
        };
        let toks = files[file].toks;
        // First token at or after the target line; walk over attributes
        // and qualifiers to the `fn` keyword.
        let mut i = match toks.iter().position(|t| t.line >= mark.target_line) {
            Some(i) => i,
            None => toks.len(),
        };
        let mut fn_tok = None;
        while i < toks.len() {
            let t = &toks[i];
            if t.kind == TokKind::Punct && t.text == "#" {
                // Attribute: skip `#[...]`.
                let mut depth = 0i32;
                i += 1;
                while i < toks.len() {
                    match toks[i].text.as_str() {
                        "[" => depth += 1,
                        "]" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
                i += 1;
                continue;
            }
            match t.text.as_str() {
                "pub" => {
                    i += 1;
                    if i < toks.len() && toks[i].text == "(" {
                        while i < toks.len() && toks[i].text != ")" {
                            i += 1;
                        }
                        i += 1;
                    }
                }
                "const" | "async" | "unsafe" | "extern" => i += 1,
                "fn" => {
                    fn_tok = Some(i);
                    break;
                }
                _ => break,
            }
        }
        let attached = fn_tok.and_then(|sig| {
            model
                .fns
                .iter_mut()
                .find(|f| f.file == file && f.sig_tok == sig)
        });
        if let Some(f) = attached {
            f.hot = true;
            mark.attached = true;
        } else {
            out.push(SemFinding {
                rule: RuleId::S0,
                file,
                line: mark.comment_line,
                col: mark.col,
                span_len: "// powadapt-lint: hot".chars().count() as u32,
                message: "`powadapt-lint: hot` does not precede a fn declaration".to_string(),
            });
        }
    }
}

/// Runs the three semantic rule families over the model.
pub fn run(model: &Model, files: &[FileCtx<'_>]) -> Vec<SemFinding> {
    let file_crates: Vec<String> = files
        .iter()
        .map(|f| crate_key(f.path).to_string())
        .collect();
    let mut out = Vec::new();
    d7_unit_flow(model, files, &file_crates, &mut out);
    d8_obs_discipline(model, files, &mut out);
    d9_hot_allocation(model, files, &mut out);
    out
}

// ---------------------------------------------------------------------
// D7 — unit-dimension flow
// ---------------------------------------------------------------------

/// A resolved unit-typed term in an expression: `x.get()` or
/// `self.f.get()`.
struct UnitTerm {
    start: usize,
    end: usize,
    dim: &'static str,
}

fn d7_unit_flow(
    model: &Model,
    files: &[FileCtx<'_>],
    file_crates: &[String],
    out: &mut Vec<SemFinding>,
) {
    for f in &model.fns {
        let Some((body_start, body_end)) = f.body else {
            continue;
        };
        let in_units_rs = files[f.file].path.ends_with("units.rs");
        let toks = files[f.file].toks;
        // Environment: params and typed locals by name, owner's fields
        // for `self.x`.
        let mut env: BTreeMap<&str, &'static str> = BTreeMap::new();
        for (name, ty) in f.params.iter().chain(f.locals.iter()) {
            if let Some(dim) = unit_dim(ty) {
                env.insert(name.as_str(), dim);
            }
        }
        let mut fields: BTreeMap<&str, &'static str> = BTreeMap::new();
        if let Some(owner) = &f.owner {
            for s in model
                .structs
                .iter()
                .filter(|s| s.name == *owner && file_crates[s.file] == file_crates[f.file])
            {
                for fd in &s.fields {
                    if let Some(dim) = unit_dim(&fd.ty) {
                        fields.insert(fd.name.as_str(), dim);
                    }
                }
            }
        }
        if env.is_empty() && fields.is_empty() {
            continue;
        }

        // Collect `.get()` terms and `.0` escapes in one walk.
        let mut terms: Vec<UnitTerm> = Vec::new();
        let mut i = body_start;
        while i <= body_end {
            let t = &toks[i];
            // Base: `x` or `self.f` with a known dimension.
            let (base_dim, after_base) = if t.kind == TokKind::Ident && t.text == "self" {
                if toks.get(i + 1).is_some_and(|p| p.text == ".") {
                    match toks.get(i + 2) {
                        Some(ft) if ft.kind == TokKind::Ident => {
                            (fields.get(ft.text.as_str()).copied(), i + 3)
                        }
                        _ => (None, i + 1),
                    }
                } else {
                    (None, i + 1)
                }
            } else if t.kind == TokKind::Ident {
                // Not a field access on something else (`other.x`).
                let preceded_by_dot = i > 0 && toks[i - 1].text == ".";
                if preceded_by_dot {
                    (None, i + 1)
                } else {
                    (env.get(t.text.as_str()).copied(), i + 1)
                }
            } else {
                (None, i + 1)
            };
            let Some(dim) = base_dim else {
                i += 1;
                continue;
            };
            // `.get()` -> a raw-valued unit term.
            if toks.get(after_base).is_some_and(|p| p.text == ".")
                && toks.get(after_base + 1).is_some_and(|p| p.text == "get")
                && toks.get(after_base + 2).is_some_and(|p| p.text == "(")
                && toks.get(after_base + 3).is_some_and(|p| p.text == ")")
            {
                terms.push(UnitTerm {
                    start: i,
                    end: after_base + 3,
                    dim,
                });
                i = after_base + 4;
                continue;
            }
            // `.0` -> raw-field escape (only units.rs may).
            if !in_units_rs
                && toks.get(after_base).is_some_and(|p| p.text == ".")
                && toks
                    .get(after_base + 1)
                    .is_some_and(|p| p.kind == TokKind::Int && p.text == "0")
            {
                out.push(finding(
                    RuleId::D7,
                    f.file,
                    &toks[after_base + 1],
                    format!(
                        "raw `.0` access escapes the `{dim}` newtype; only \
                         units.rs and its declared conversions may unwrap it"
                    ),
                ));
                i = after_base + 2;
                continue;
            }
            i += 1;
        }

        // Adjacent terms joined by an arithmetic/comparison operator with
        // different dimensions: mixed-unit expression.
        for pair in terms.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            let op_at = a.end + 1;
            let Some(op_tok) = toks.get(op_at) else {
                continue;
            };
            if op_tok.kind != TokKind::Punct {
                continue;
            }
            let (op, op_len) = match op_tok.text.as_str() {
                "+" | "-" | "*" | "/" | "==" | "!=" => (op_tok.text.clone(), 1usize),
                "<" | ">" => {
                    if toks.get(op_at + 1).is_some_and(|t| t.text == "=") {
                        (format!("{}=", op_tok.text), 2)
                    } else {
                        (op_tok.text.clone(), 1)
                    }
                }
                _ => continue,
            };
            if b.start != op_at + op_len {
                continue;
            }
            if a.dim != b.dim {
                out.push(SemFinding {
                    rule: RuleId::D7,
                    file: f.file,
                    line: op_tok.line,
                    col: op_tok.col,
                    span_len: op.chars().count() as u32,
                    message: format!(
                        "`{a}` {op} `{b}` mixes unit dimensions outside the \
                         declared conversions",
                        a = a.dim,
                        b = b.dim,
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------
// D8 — obs discipline
// ---------------------------------------------------------------------

fn is_restore_fn(name: &str) -> bool {
    name == "read_state" || name.starts_with("restore")
}

fn d8_obs_discipline(model: &Model, files: &[FileCtx<'_>], out: &mut Vec<SemFinding>) {
    // The kind registry: EventKind variants + NAMES string table.
    let variants: Vec<(&str, usize, u32, u32)> = model
        .enums
        .iter()
        .filter(|e| e.name == "EventKind")
        .flat_map(|e| {
            e.variants
                .iter()
                .map(move |(v, l, c)| (v.as_str(), e.file, *l, *c))
        })
        .collect();
    let names: Vec<(&str, usize, u32, u32)> = model
        .names_tables
        .iter()
        .flat_map(|t| {
            t.entries
                .iter()
                .map(move |(n, l, c)| (n.as_str(), t.file, *l, *c))
        })
        .collect();

    // Registry self-consistency (both halves present).
    if !variants.is_empty() && !names.is_empty() {
        for &(v, file, line, col) in &variants {
            let snake = camel_to_snake(v);
            let n = names.iter().filter(|(e, ..)| *e == snake).count();
            if n != 1 {
                out.push(SemFinding {
                    rule: RuleId::D8,
                    file,
                    line,
                    col,
                    span_len: v.chars().count() as u32,
                    message: format!(
                        "event kind `{v}` must be registered exactly once in \
                         NAMES (`{snake}` appears {n} times)"
                    ),
                });
            }
        }
        for &(e, file, line, col) in &names {
            let known = variants.iter().any(|(v, ..)| camel_to_snake(v) == e);
            if !known {
                out.push(SemFinding {
                    rule: RuleId::D8,
                    file,
                    line,
                    col,
                    span_len: (e.chars().count() + 2) as u32,
                    message: format!("NAMES entry `{e}` has no EventKind variant"),
                });
            }
        }
    }

    for site in model.macros.iter().filter(|m| m.is_obs()) {
        let toks = files[site.file].toks;
        let anchor = &toks[site.tok];
        let expected = if site.name == "emit" { 4 } else { 5 };
        // Lexical balance, per enclosing function.
        let balanced = match (site.close, site.enclosing_fn) {
            (None, _) => false,
            (Some(c), Some(fi)) => model.fns[fi].body.is_none_or(|(_, end)| c <= end),
            (Some(_), None) => true,
        };
        if !balanced {
            out.push(finding(
                RuleId::D8,
                site.file,
                anchor,
                format!(
                    "`{}!` is not lexically balanced within its function",
                    site.name
                ),
            ));
            continue;
        }
        if site.args.len() != expected {
            let shape = if site.name == "emit" {
                "(recorder, at, track, kind)"
            } else {
                "(recorder, start, track, label, duration)"
            };
            out.push(finding(
                RuleId::D8,
                site.file,
                anchor,
                format!(
                    "`{}!` takes {expected} arguments {shape}; found {}",
                    site.name,
                    site.args.len()
                ),
            ));
        }
        // Emitted kind must be a declared variant.
        if site.name == "emit" && !variants.is_empty() {
            if let Some(&(a, b)) = site.args.last() {
                let arg = &toks[a..=b.min(toks.len() - 1)];
                let mut k = 0usize;
                while k + 2 < arg.len() {
                    if arg[k].text == "EventKind"
                        && arg[k + 1].text == "::"
                        && arg[k + 2].kind == TokKind::Ident
                    {
                        let v = arg[k + 2].text.as_str();
                        if !variants.iter().any(|(name, ..)| *name == v) {
                            out.push(finding(
                                RuleId::D8,
                                site.file,
                                &arg[k + 2],
                                format!("emitted kind `{v}` is not declared in EventKind"),
                            ));
                        }
                    }
                    k += 1;
                }
            }
        }
        // Restore paths are silent.
        if let Some(fi) = site.enclosing_fn {
            let f = &model.fns[fi];
            if is_restore_fn(&f.name) {
                out.push(finding(
                    RuleId::D8,
                    site.file,
                    anchor,
                    format!(
                        "`{}!` inside restore path `{}`; restore must emit zero \
                         obs events",
                        site.name, f.name
                    ),
                ));
            }
        }
    }

    // One level of propagation: a restore fn calling a fn that emits.
    let emitting: BTreeSet<usize> = model
        .macros
        .iter()
        .filter(|m| m.is_obs())
        .filter_map(|m| m.enclosing_fn)
        .collect();
    for (fi, f) in model.fns.iter().enumerate() {
        if !is_restore_fn(&f.name) {
            continue;
        }
        for call in calls_in_fn(model, files, fi) {
            let Some(callee) = call.callee else { continue };
            if emitting.contains(&callee) {
                let toks = files[f.file].toks;
                out.push(finding(
                    RuleId::D8,
                    f.file,
                    &toks[call.tok],
                    format!(
                        "`{}` emits obs events and is called from restore path \
                         `{}`",
                        model.fns[callee].name, f.name
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------
// D9 — hot-path allocation
// ---------------------------------------------------------------------

/// A banned allocation found directly inside a fn body.
struct AllocSite {
    tok: usize,
    span_len: u32,
    what: String,
}

/// A call site inside a fn body, with its resolved callee when the
/// receiver/path is unambiguous.
struct CallSite {
    tok: usize,
    callee: Option<usize>,
}

/// Token ranges inside a body that are exempt from hot-path scanning:
/// `emit!`/`span!` arguments are only evaluated when the recorder is
/// enabled, so they are zero-cost in the measured configuration.
fn exempt_ranges(model: &Model, file: usize) -> Vec<(usize, usize)> {
    model
        .macros
        .iter()
        .filter(|m| m.file == file && m.is_obs())
        .filter_map(|m| m.close.map(|c| (m.tok, c)))
        .collect()
}

fn in_ranges(ranges: &[(usize, usize)], i: usize) -> bool {
    ranges.iter().any(|&(a, b)| a <= i && i <= b)
}

/// Resolves the type (as tokens) of the receiver ending just before the
/// `.` at `dot`: a named local/param, `self.field`, or
/// `self.field[index]` (element type).
fn receiver_type(
    model: &Model,
    f: &FnDef,
    toks: &[Tok],
    dot: usize,
    file_crates: &[String],
) -> Option<Vec<String>> {
    let owner_fields = |name: &str| -> Option<Vec<String>> {
        let owner = f.owner.as_deref()?;
        model
            .structs
            .iter()
            .filter(|s| s.name == owner && file_crates[s.file] == file_crates[f.file])
            .flat_map(|s| s.fields.iter())
            .find(|fd| fd.name == name)
            .map(|fd| fd.ty.clone())
    };
    if dot == 0 {
        return None;
    }
    let prev = &toks[dot - 1];
    if prev.kind == TokKind::Ident && prev.text != "self" {
        // `self.f.push(..)`?
        if dot >= 3 && toks[dot - 2].text == "." && toks[dot - 3].text == "self" {
            return owner_fields(&prev.text);
        }
        if dot >= 2 && toks[dot - 2].text == "." {
            return None; // `other.f` — unknown receiver
        }
        // Plain binding.
        return f
            .params
            .iter()
            .chain(f.locals.iter())
            .find(|(n, _)| *n == prev.text)
            .map(|(_, ty)| ty.clone());
    }
    if prev.text == "]" {
        // `self.f[idx].push(..)` — walk back over the index.
        let mut depth = 0i32;
        let mut j = dot - 1;
        loop {
            match toks[j].text.as_str() {
                "]" => depth += 1,
                "[" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            if j == 0 {
                return None;
            }
            j -= 1;
        }
        if j >= 3 && toks[j - 2].text == "." && toks[j - 3].text == "self" {
            let field_ty = owner_fields(&toks[j - 1].text)?;
            return vec_elem(&field_ty);
        }
    }
    None
}

/// Scans a fn body for direct banned allocations.
fn alloc_sites(
    model: &Model,
    files: &[FileCtx<'_>],
    fi: usize,
    file_crates: &[String],
) -> Vec<AllocSite> {
    let f = &model.fns[fi];
    let Some((start, end)) = f.body else {
        return Vec::new();
    };
    let toks = files[f.file].toks;
    let exempt = exempt_ranges(model, f.file);
    let mut out = Vec::new();
    let mut i = start;
    while i <= end {
        if in_ranges(&exempt, i) {
            i += 1;
            continue;
        }
        let t = &toks[i];
        if t.kind == TokKind::Ident {
            let next = toks.get(i + 1).map(|t| t.text.as_str());
            let next2 = toks.get(i + 2).map(|t| t.text.as_str());
            let ctor = match (t.text.as_str(), next, next2) {
                ("Vec", Some("::"), Some(m @ ("new" | "with_capacity"))) => {
                    Some((3, format!("`Vec::{m}` allocates")))
                }
                ("String", Some("::"), Some(m @ ("new" | "from" | "with_capacity"))) => {
                    Some((3, format!("`String::{m}` allocates")))
                }
                ("Box", Some("::"), Some("new")) => Some((3, "`Box::new` allocates".to_string())),
                ("vec", Some("!"), _) => Some((2, "`vec!` allocates".to_string())),
                ("format", Some("!"), _) => Some((2, "`format!` allocates a String".to_string())),
                _ => None,
            };
            if let Some((span_toks, what)) = ctor {
                let last = &toks[(i + span_toks - 1).min(end)];
                let span_len = if last.line == t.line {
                    (last.col + last.text.chars().count() as u32).saturating_sub(t.col)
                } else {
                    t.text.chars().count() as u32
                };
                out.push(AllocSite {
                    tok: i,
                    span_len,
                    what,
                });
                i += span_toks;
                continue;
            }
            // Method calls: `.to_string()`, `.to_owned()`, `.push(..)`,
            // `.clone()` on heap receivers.
            let is_method = i > start
                && toks[i - 1].text == "."
                && toks.get(i + 1).is_some_and(|n| n.text == "(");
            if is_method {
                let m = t.text.as_str();
                let what = match m {
                    "to_string" => Some("`.to_string()` allocates a String".to_string()),
                    "to_owned" => Some("`.to_owned()` allocates".to_string()),
                    "push" | "push_back" | "push_front" | "insert" => {
                        receiver_type(model, f, toks, i - 1, file_crates)
                            .and_then(|ty| heap_head(&ty).map(|h| (h, ty)))
                            .map(|(h, _)| format!("`.{m}()` may grow the `{h}`"))
                    }
                    "clone" => receiver_type(model, f, toks, i - 1, file_crates)
                        .and_then(|ty| heap_head(&ty))
                        .map(|h| format!("`.clone()` deep-copies the `{h}`")),
                    _ => None,
                };
                if let Some(what) = what {
                    out.push(AllocSite {
                        tok: i,
                        span_len: t.text.chars().count() as u32,
                        what,
                    });
                }
            }
        }
        i += 1;
    }
    out
}

/// Finds call sites in a fn body and resolves callees where possible:
/// `self.m(..)` through the owner's impls, `Type::m(..)` through
/// `Type`'s impls, bare `m(..)` to a free fn in the same file.
fn calls_in_fn(model: &Model, files: &[FileCtx<'_>], fi: usize) -> Vec<CallSite> {
    let f = &model.fns[fi];
    let Some((start, end)) = f.body else {
        return Vec::new();
    };
    let toks = files[f.file].toks;
    let exempt = exempt_ranges(model, f.file);
    let find_method = |type_name: &str, m: &str| -> Option<usize> {
        model
            .fns
            .iter()
            .position(|g| g.name == m && g.owner.as_deref() == Some(type_name))
    };
    let mut out = Vec::new();
    for i in start..=end {
        if in_ranges(&exempt, i) {
            continue;
        }
        let t = &toks[i];
        if t.kind != TokKind::Ident || toks.get(i + 1).map(|n| n.text.as_str()) != Some("(") {
            continue;
        }
        // Skip the definition's own name (`fn name(`).
        if i > 0 && toks[i - 1].text == "fn" {
            continue;
        }
        let callee = if i >= 2 && toks[i - 1].text == "." {
            if toks[i - 2].text == "self" {
                f.owner.as_deref().and_then(|o| find_method(o, &t.text))
            } else {
                None // method on an unknown receiver
            }
        } else if i >= 2 && toks[i - 1].text == "::" && toks[i - 2].kind == TokKind::Ident {
            find_method(&toks[i - 2].text, &t.text)
        } else {
            // Bare call: free fn in the same file.
            model
                .fns
                .iter()
                .position(|g| g.name == t.text && g.owner.is_none() && g.file == f.file)
        };
        // A fn "calling itself" (recursion) is not a propagation edge.
        if callee == Some(fi) {
            continue;
        }
        out.push(CallSite { tok: i, callee });
    }
    out
}

fn d9_hot_allocation(model: &Model, files: &[FileCtx<'_>], out: &mut Vec<SemFinding>) {
    let file_crates: Vec<String> = files
        .iter()
        .map(|f| crate_key(f.path).to_string())
        .collect();
    // Direct allocations per fn, computed lazily once.
    let mut direct: Vec<Option<Vec<AllocSite>>> = (0..model.fns.len()).map(|_| None).collect();
    let get_direct = |fi: usize, direct: &mut Vec<Option<Vec<AllocSite>>>| {
        if direct[fi].is_none() {
            direct[fi] = Some(alloc_sites(model, files, fi, &file_crates));
        }
    };
    for fi in 0..model.fns.len() {
        if !model.fns[fi].hot {
            continue;
        }
        let f = &model.fns[fi];
        let toks = files[f.file].toks;
        get_direct(fi, &mut direct);
        for site in direct[fi].as_ref().into_iter().flatten() {
            let t = &toks[site.tok];
            out.push(SemFinding {
                rule: RuleId::D9,
                file: f.file,
                line: t.line,
                col: t.col,
                span_len: site.span_len,
                message: format!("hot fn `{}`: {}", f.name, site.what),
            });
        }
        // One level of cross-file propagation through non-hot callees.
        for call in calls_in_fn(model, files, fi) {
            let Some(ci) = call.callee else { continue };
            if model.fns[ci].hot {
                continue;
            }
            get_direct(ci, &mut direct);
            if let Some(first) = direct[ci].as_ref().and_then(|v| v.first()) {
                let callee = &model.fns[ci];
                let t = &toks[call.tok];
                out.push(SemFinding {
                    rule: RuleId::D9,
                    file: f.file,
                    line: t.line,
                    col: t.col,
                    span_len: t.text.chars().count() as u32,
                    message: format!(
                        "hot fn `{}` calls `{}` ({}:{}), which allocates ({})",
                        f.name, callee.name, files[callee.file].path, callee.line, first.what
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run_on(srcs: &[(&str, &str)]) -> Vec<(String, u32, String)> {
        let lexed: Vec<_> = srcs.iter().map(|(_, s)| lex(s)).collect();
        let slices: Vec<&[Tok]> = lexed.iter().map(|l| &l.tokens[..]).collect();
        let mut model = Model::build(&slices);
        let ctxs: Vec<FileCtx<'_>> = srcs
            .iter()
            .zip(&slices)
            .map(|((p, _), toks)| FileCtx { path: p, toks })
            .collect();
        // Attach hot marks from comments.
        let mut marks = Vec::new();
        for ((p, _), l) in srcs.iter().zip(&lexed) {
            marks.extend(crate::suppress::scan(&l.comments, p).hot_marks);
        }
        let mut out = Vec::new();
        attach_hot_marks(&mut model, &ctxs, &mut marks, &mut out);
        out.extend(run(&model, &ctxs));
        out.into_iter()
            .map(|f| (f.rule.as_str().to_string(), f.line, f.message))
            .collect()
    }

    #[test]
    fn d7_flags_mixed_dims_and_escape() {
        let hits = run_on(&[(
            "a.rs",
            "fn f(e: Joules, d: Micros, w: Watts) -> f64 {\n\
             let ok = e.get() + e.get();\n\
             let bad = e.get() / d.get();\n\
             let raw = w.0;\n\
             ok + bad + raw\n}\n",
        )]);
        let d7: Vec<_> = hits.iter().filter(|(r, ..)| r == "D7").collect();
        assert_eq!(d7.len(), 2, "{d7:?}");
        assert!(d7.iter().any(|(_, l, m)| *l == 3 && m.contains("Joules")));
        assert!(d7.iter().any(|(_, l, m)| *l == 4 && m.contains(".0")));
    }

    #[test]
    fn d7_units_rs_may_unwrap() {
        let hits = run_on(&[("crates/sim/src/units.rs", "fn f(w: Watts) -> f64 { w.0 }\n")]);
        assert!(hits.iter().all(|(r, ..)| r != "D7"), "{hits:?}");
    }

    #[test]
    fn d8_registry_and_restore_silence() {
        let hits = run_on(&[(
            "a.rs",
            "enum EventKind { IoStart, IoDone }\n\
             const NAMES: [&str; 2] = [\"io_start\", \"stray\"];\n\
             fn tick(rec: &R) { emit!(rec, t, tr, EventKind::IoStart); }\n\
             fn read_state(rec: &R) { emit!(rec, t, tr, EventKind::IoDone); }\n\
             fn restore_all(rec: &R) { tick(rec); }\n",
        )]);
        let d8: Vec<_> = hits.iter().filter(|(r, ..)| r == "D8").collect();
        // IoDone unregistered + stray entry + emit-in-read_state +
        // restore_all -> tick propagation.
        assert_eq!(d8.len(), 4, "{d8:?}");
        assert!(d8.iter().any(|(_, _, m)| m.contains("`IoDone`")));
        assert!(d8.iter().any(|(_, _, m)| m.contains("`stray`")));
        assert!(d8
            .iter()
            .any(|(_, _, m)| m.contains("restore path `read_state`")));
        assert!(d8
            .iter()
            .any(|(_, _, m)| m.contains("called from restore path `restore_all`")));
    }

    #[test]
    fn d9_direct_and_propagated() {
        let hits = run_on(&[
            (
                "a.rs",
                "struct Q { held: Vec<u64> }\n\
                 impl Q {\n\
                 // powadapt-lint: hot\n\
                 fn pop(&mut self) {\n    self.held.push(1);\n    helper();\n}\n\
                 }\n\
                 fn helper() { other(); }\n",
            ),
            ("b.rs", "fn other() { let v = Vec::new(); }\n"),
        ]);
        let d9: Vec<_> = hits.iter().filter(|(r, ..)| r == "D9").collect();
        // Direct push; helper() itself is clean (one level only, and
        // helper's call to other() is not followed transitively)...
        assert_eq!(d9.len(), 1, "{d9:?}");
        assert!(d9[0].2.contains("push"));
    }

    #[test]
    fn d9_one_level_propagation_flags_allocating_callee() {
        let hits = run_on(&[
            (
                "a.rs",
                "// powadapt-lint: hot\nfn hot_path() { drain(); }\n",
            ),
            ("a2.rs", "fn x() {}\n"),
        ]);
        // drain is unresolved (not in model) -> no finding.
        assert!(hits.iter().all(|(r, ..)| r != "D9"), "{hits:?}");
        let hits = run_on(&[(
            "a.rs",
            "// powadapt-lint: hot\nfn hot_path() { drain(); }\nfn drain() { let s = format!(\"x\"); }\n",
        )]);
        let d9: Vec<_> = hits.iter().filter(|(r, ..)| r == "D9").collect();
        assert_eq!(d9.len(), 1, "{d9:?}");
        assert!(d9[0].2.contains("`drain`"));
        assert!(d9[0].2.contains("format!"));
    }

    #[test]
    fn d9_emit_args_are_exempt() {
        let hits = run_on(&[(
            "a.rs",
            "// powadapt-lint: hot\nfn f(rec: &R) { emit!(rec, t, tr.to_string(), EventKind::X); }\n",
        )]);
        assert!(hits.iter().all(|(r, ..)| r != "D9"), "{hits:?}");
    }

    #[test]
    fn unattached_hot_mark_is_s0() {
        let hits = run_on(&[("a.rs", "// powadapt-lint: hot\nstruct NotAFn;\n")]);
        let s0: Vec<_> = hits.iter().filter(|(r, ..)| r == "S0").collect();
        assert_eq!(s0.len(), 1);
        assert!(s0[0].2.contains("hot"));
    }

    #[test]
    fn hot_mark_tolerates_attributes_and_pub() {
        let hits = run_on(&[(
            "a.rs",
            "// powadapt-lint: hot\n#[inline]\npub fn f() { let v = Vec::new(); }\n",
        )]);
        let d9: Vec<_> = hits.iter().filter(|(r, ..)| r == "D9").collect();
        assert_eq!(d9.len(), 1, "{d9:?}");
    }
}
