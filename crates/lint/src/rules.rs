//! The per-file token rule D4, implemented over the token stream.
//!
//! The rule is a pure function from tokens to findings; the driver in
//! [`crate::analyze_files`] handles scoping, test regions, and
//! suppressions so the rule stays small and independently testable. The
//! determinism and panic-freedom rules that clippy resolves by path live
//! in the workspace's `clippy.toml` and `[workspace.lints]` instead.

use crate::diag::{Diagnostic, RuleId};
use crate::lexer::{Tok, TokKind};

/// A raw finding before suppression/scoping: rule, token index, message.
#[derive(Debug)]
pub struct Finding {
    /// The violated rule.
    pub rule: RuleId,
    /// Index into the token stream where the finding anchors.
    pub tok: usize,
    /// Number of consecutive tokens the span covers (for underlining).
    pub span_toks: usize,
    /// Specific message for this finding.
    pub message: String,
}

fn ident(toks: &[Tok], i: usize) -> Option<&str> {
    toks.get(i)
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.as_str())
}

fn punct(toks: &[Tok], i: usize) -> Option<&str> {
    toks.get(i)
        .filter(|t| t.kind == TokKind::Punct)
        .map(|t| t.text.as_str())
}

/// Suffixes D4 recognizes as unit-bearing parameter names, with the
/// newtype each one must use instead of `f64`.
pub const D4_SUFFIXES: &[(&str, &str)] = &[
    ("_watts", "Watts"),
    ("_joules", "Joules"),
    ("_ms", "Millis"),
    ("_us", "Micros"),
];

/// D4 — unit safety on public APIs.
///
/// Finds `pub fn` signatures and flags parameters declared as raw `f64`
/// (including `&f64`/`&mut f64`) whose names end in a unit suffix.
/// The typed newtypes live in `powadapt_sim::units`.
pub fn d4_unit_newtypes(toks: &[Tok]) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        // `pub` [`(` ... `)`] [`const`|`async`|`unsafe`]* `fn` name
        if ident(toks, i) != Some("pub") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if punct(toks, j) == Some("(") {
            // `pub(crate)` and friends.
            let mut depth = 1i32;
            j += 1;
            while j < toks.len() && depth > 0 {
                match toks[j].text.as_str() {
                    "(" => depth += 1,
                    ")" => depth -= 1,
                    _ => {}
                }
                j += 1;
            }
        }
        while matches!(ident(toks, j), Some("const" | "async" | "unsafe")) {
            j += 1;
        }
        if ident(toks, j) != Some("fn") {
            i += 1;
            continue;
        }
        j += 2; // skip `fn` and the function name
                // Skip generics `<...>` if present.
        if punct(toks, j) == Some("<") {
            let mut depth = 1i32;
            j += 1;
            while j < toks.len() && depth > 0 {
                match toks[j].text.as_str() {
                    "<" => depth += 1,
                    ">" => depth -= 1,
                    _ => {}
                }
                j += 1;
            }
        }
        if punct(toks, j) != Some("(") {
            i = j;
            continue;
        }
        // Walk the parameter list at paren depth 1, splitting on
        // top-level commas (angle-bracket depth tracked so `Fn(A, B)`
        // and `Vec<T>` commas don't split).
        let params_start = j + 1;
        let mut depth = 1i32;
        let mut k = params_start;
        let mut param_start = params_start;
        let mut params: Vec<(usize, usize)> = Vec::new();
        while k < toks.len() && depth > 0 {
            match toks[k].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth == 0 {
                        if k > param_start {
                            params.push((param_start, k));
                        }
                        break;
                    }
                }
                "," if depth == 1 => {
                    params.push((param_start, k));
                    param_start = k + 1;
                }
                _ => {}
            }
            k += 1;
        }
        for &(a, b) in &params {
            check_param(&toks[a..b], a, &mut out);
        }
        i = k.max(i + 1);
    }
    out
}

/// Checks one parameter's tokens (`[mut] name : Type...`) for a
/// unit-suffixed name typed as raw `f64`.
fn check_param(param: &[Tok], base: usize, out: &mut Vec<Finding>) {
    // Find the top-level `:` separating pattern from type.
    let mut angle = 0i32;
    let mut colon = None;
    for (i, t) in param.iter().enumerate() {
        match t.text.as_str() {
            "<" => angle += 1,
            ">" => angle -= 1,
            ":" if angle == 0 && t.kind == TokKind::Punct => {
                colon = Some(i);
                break;
            }
            _ => {}
        }
    }
    let Some(colon) = colon else { return };
    // Name: last ident before the colon (skips `mut`).
    let Some(name_idx) = (0..colon)
        .rev()
        .find(|&i| param[i].kind == TokKind::Ident && param[i].text != "mut")
    else {
        return;
    };
    let name = &param[name_idx].text;
    let Some((suffix, newtype)) = D4_SUFFIXES.iter().find(|(s, _)| name.ends_with(s)) else {
        return;
    };
    // Type: `f64` possibly behind `&`/`&mut`.
    let ty: Vec<&str> = param[colon + 1..]
        .iter()
        .filter(|t| !(t.kind == TokKind::Ident && t.text == "mut"))
        .map(|t| t.text.as_str())
        .collect();
    let is_raw_f64 = matches!(ty.as_slice(), ["f64"] | ["&", "f64"]);
    if is_raw_f64 {
        out.push(Finding {
            rule: RuleId::D4,
            tok: base + name_idx,
            span_toks: 1,
            message: format!(
                "public API takes `{name}: f64`; a `{suffix}` quantity must use \
                 `powadapt_sim::units::{newtype}`"
            ),
        });
    }
}

/// Materializes a [`Finding`] into a [`Diagnostic`] with source spans.
pub fn to_diagnostic(f: &Finding, toks: &[Tok], path: &str, lines: &[&str]) -> Diagnostic {
    let anchor = &toks[f.tok];
    let last = &toks[(f.tok + f.span_toks - 1).min(toks.len() - 1)];
    let span_len = if last.line == anchor.line {
        (last.col + last.text.chars().count() as u32).saturating_sub(anchor.col)
    } else {
        anchor.text.chars().count() as u32
    };
    let snippet = lines
        .get(anchor.line as usize - 1)
        .map_or(String::new(), std::string::ToString::to_string);
    Diagnostic {
        rule: f.rule,
        path: path.to_string(),
        line: anchor.line,
        col: anchor.col,
        message: f.message.clone(),
        snippet,
        span_len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn d4_hits(src: &str) -> Vec<String> {
        d4_unit_newtypes(&lex(src).tokens)
            .into_iter()
            .map(|f| f.message)
            .collect()
    }

    #[test]
    fn d4_catches_unit_suffixed_f64_params() {
        let hits = d4_hits("pub fn sample(&mut self, t: SimTime, true_power_watts: f64) {}");
        assert_eq!(hits.len(), 1);
        assert!(hits[0].contains("Watts"));
        assert_eq!(d4_hits("pub fn lat(p99_us: f64, avg_ms: &f64) {}").len(), 2);
        // Newtyped params, private fns, and non-unit names pass.
        assert!(d4_hits("pub fn f(p99_us: Micros) {}").is_empty());
        assert!(d4_hits("fn g(p99_us: f64) {}").is_empty());
        assert!(d4_hits("pub fn h(ratio: f64) {}").is_empty());
        // Generic functions parse past their `<...>`.
        assert_eq!(
            d4_hits("pub fn s<F: Fn(u64, u64) -> bool>(f: F, delay_ms: f64) {}").len(),
            1
        );
    }
}
