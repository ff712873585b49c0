//! Pass 2: the cross-file semantic rule D7.
//!
//! A rule is a pure function from the workspace [`Model`] (plus the
//! per-file token streams) to findings; the driver in
//! [`crate::analyze_files`] handles scoping, test regions, and
//! suppressions exactly as for the token rule D4.
//!
//! - **D7** — unit-dimension flow: `.get()` values of different unit
//!   newtypes must not meet in one arithmetic/comparison expression.
//!   The raw field of a unit newtype is private, so a `.0` escape outside
//!   `units.rs` is a compile error (E0616) and needs no rule.

use std::collections::BTreeMap;

use crate::diag::RuleId;
use crate::lexer::{Tok, TokKind};
use crate::model::Model;

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

/// The unit newtypes D7 tracks.
const UNIT_TYPES: &[&str] = &["Watts", "Joules", "Millis", "Micros"];

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

/// Groups files by crate so same-name types in different crates never
/// cross wires. Non-`crates/` files share the `""` key — which is also
/// what makes single-file fixture runs behave as one small crate.
fn crate_key(path: &str) -> &str {
    path.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("")
}

/// Runs the semantic rule over the model.
pub fn run(model: &Model, files: &[FileCtx<'_>]) -> Vec<SemFinding> {
    let file_crates: Vec<String> = files
        .iter()
        .map(|f| crate_key(f.path).to_string())
        .collect();
    let mut out = Vec::new();
    d7_unit_flow(model, files, &file_crates, &mut out);
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

        // Collect the `.get()` terms.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run_on(srcs: &[(&str, &str)]) -> Vec<(String, u32, String)> {
        let lexed: Vec<_> = srcs.iter().map(|(_, s)| lex(s)).collect();
        let slices: Vec<&[Tok]> = lexed.iter().map(|l| &l.tokens[..]).collect();
        let model = Model::build(&slices);
        let ctxs: Vec<FileCtx<'_>> = srcs
            .iter()
            .zip(&slices)
            .map(|((p, _), toks)| FileCtx { path: p, toks })
            .collect();
        run(&model, &ctxs)
            .into_iter()
            .map(|f| (f.rule.as_str().to_string(), f.line, f.message))
            .collect()
    }

    #[test]
    fn d7_flags_mixed_dims() {
        let hits = run_on(&[(
            "a.rs",
            "fn f(e: Joules, d: Micros, w: Watts) -> f64 {\n\
             let ok = e.get() + e.get();\n\
             let bad = e.get() / d.get();\n\
             let raw = w.0;\n\
             ok + bad + raw\n}\n",
        )]);
        // Only the mixed division: `.0` is rustc's to reject (the unit
        // newtypes' field is private), not D7's.
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].0, "D7");
        assert_eq!(hits[0].1, 3);
        assert!(hits[0].2.contains("Joules"));
    }
}
