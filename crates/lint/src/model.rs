//! The workspace symbol model the snapshot ABI lock reads.
//!
//! The lock needs to know *what the code declares*, not just which
//! tokens appear: which structs exist and what fields they carry, which
//! impl blocks provide `write_state`/`read_state`, and which structs a
//! `snapshot!` list declares.
//!
//! This module extracts exactly that from the lexer's token stream —
//! no `syn`, because the workspace builds fully offline. The extraction
//! is a set of small linear scans with bracket matching; the subset of
//! Rust it understands (structs with named fields, impl blocks, fn
//! names, `snapshot!` sites) is exactly the subset the lock reads.
//! Anything outside that subset degrades to "unknown" rather than a
//! wrong answer.

use crate::lexer::{Tok, TokKind};

/// A struct declaration.
#[derive(Debug, Clone)]
pub struct StructDef {
    /// Type name.
    pub name: String,
    /// Index into the analyzed file list.
    pub file: usize,
    /// Names of the named fields, in declaration order; empty for tuple
    /// and unit structs.
    pub fields: Vec<String>,
}

/// A function item (free, trait-decl, or inside an impl block).
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// Index into the analyzed file list.
    pub file: usize,
    /// Token index of the `fn` keyword.
    pub sig_tok: usize,
    /// Type name of the enclosing `impl` block, when inside one.
    pub owner: Option<String>,
}

/// An `impl` block.
#[derive(Debug, Clone)]
pub struct ImplDef {
    /// The implemented type's name (generics stripped).
    pub type_name: String,
    /// Index into the analyzed file list.
    pub file: usize,
    /// Token range of the impl body, inclusive braces.
    pub body: (usize, usize),
}

/// One `snapshot! { ... }` invocation (a declarative codec field list).
#[derive(Debug, Clone)]
pub struct SnapshotSite {
    /// Index into the analyzed file list.
    pub file: usize,
    /// Token index of the macro name.
    pub tok: usize,
}

impl SnapshotSite {
    /// The component a `snapshot! { [value] Ty ... }` site declares.
    pub fn snapshot_type<'t>(&self, toks: &'t [Tok]) -> Option<&'t str> {
        ident_at(toks, self.snapshot_type_tok(toks))
    }

    /// A `snapshot!` site's field list in list order, each entry rendered
    /// as `name` or `name: mode` (`skip` fields are not in the list).
    /// `None` for a site without one (`snapshot! { value Ty }`).
    pub fn snapshot_entries(&self, toks: &[Tok]) -> Option<Vec<String>> {
        let open = self.snapshot_type_tok(toks) + 1;
        if punct_at(toks, open) != Some("{") {
            return None;
        }
        let close = match_bracket(toks, open);
        let mut entries = Vec::new();
        let mut entry = String::new();
        let mut depth = 0i32;
        for t in toks.get(open + 1..close)? {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "," if depth == 0 => {
                    entries.push(std::mem::take(&mut entry));
                    continue;
                }
                _ => {}
            }
            entry.push_str(&t.text);
            if t.text == "," || (t.text == ":" && depth == 0) {
                entry.push(' ');
            }
        }
        if !entry.is_empty() {
            entries.push(entry);
        }
        Some(entries)
    }

    fn snapshot_type_tok(&self, toks: &[Tok]) -> usize {
        let i = self.tok + 3;
        if ident_at(toks, i) == Some("value") {
            i + 1
        } else {
            i
        }
    }
}

/// The merged workspace symbol model.
#[derive(Debug, Default)]
pub struct Model {
    /// Every struct declaration.
    pub structs: Vec<StructDef>,
    /// Every impl block.
    pub impls: Vec<ImplDef>,
    /// Every fn item.
    pub fns: Vec<FnDef>,
    /// Every `snapshot!` invocation.
    pub snapshots: Vec<SnapshotSite>,
}

impl Model {
    /// Builds the model over every file's token stream. `files[i]` is
    /// the token slice of file `i`; indices in the model refer back into
    /// this list.
    pub fn build(files: &[&[Tok]]) -> Model {
        let mut m = Model::default();
        for (idx, toks) in files.iter().enumerate() {
            extract_structs(toks, idx, &mut m.structs);
            extract_impls(toks, idx, &mut m.impls);
            extract_fns(toks, idx, &mut m.fns);
            extract_snapshot_sites(toks, idx, &mut m.snapshots);
        }
        // Attach fns to their innermost enclosing impl block.
        for f in &mut m.fns {
            let mut best: Option<&ImplDef> = None;
            for im in m.impls.iter().filter(|im| im.file == f.file) {
                if im.body.0 < f.sig_tok && f.sig_tok < im.body.1 {
                    let better = best.is_none_or(|b| im.body.0 > b.body.0);
                    if better {
                        best = Some(im);
                    }
                }
            }
            f.owner = best.map(|im| im.type_name.clone());
        }
        m
    }
}

fn ident_at(toks: &[Tok], i: usize) -> Option<&str> {
    toks.get(i)
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.as_str())
}

fn punct_at(toks: &[Tok], i: usize) -> Option<&str> {
    toks.get(i)
        .filter(|t| t.kind == TokKind::Punct)
        .map(|t| t.text.as_str())
}

/// Skips a matched `<...>` starting at `i` (which must point at `<`);
/// returns the index just past the closing `>`.
fn skip_generics(toks: &[Tok], i: usize) -> usize {
    if punct_at(toks, i) != Some("<") {
        return i;
    }
    let mut depth = 1i32;
    let mut j = i + 1;
    while j < toks.len() && depth > 0 {
        match toks[j].text.as_str() {
            "<" => depth += 1,
            ">" => depth -= 1,
            _ => {}
        }
        j += 1;
    }
    j
}

/// Skips a matched bracket group starting at `i` (pointing at `(`/`[`/
/// `{`); returns the index of the matching closer.
fn match_bracket(toks: &[Tok], i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    toks.len().saturating_sub(1)
}

fn extract_structs(toks: &[Tok], file: usize, out: &mut Vec<StructDef>) {
    let mut i = 0usize;
    while i < toks.len() {
        if ident_at(toks, i) != Some("struct") {
            i += 1;
            continue;
        }
        let Some(name) = ident_at(toks, i + 1) else {
            i += 1;
            continue;
        };
        let mut j = skip_generics(toks, i + 2);
        // Scan past an optional `where` clause to the body opener. The
        // clause can contain `Fn(..)` parens, so a `(` only means
        // "tuple struct" when no `where` has been seen.
        let mut saw_where = false;
        let mut fields = None;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "where" if toks[j].kind == TokKind::Ident => saw_where = true,
                "{" => {
                    let close = match_bracket(toks, j);
                    fields = Some(parse_fields(&toks[j + 1..close]));
                    j = close;
                    break;
                }
                "(" if !saw_where => {
                    j = match_bracket(toks, j);
                    fields = Some(Vec::new());
                    break;
                }
                ";" => {
                    fields = Some(Vec::new());
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        if let Some(fields) = fields {
            out.push(StructDef {
                name: name.to_string(),
                file,
                fields,
            });
        }
        i = j.max(i + 1);
    }
}

/// The named fields' names between a struct body's braces (exclusive).
fn parse_fields(body: &[Tok]) -> Vec<String> {
    let mut fields = Vec::new();
    let mut i = 0usize;
    while i < body.len() {
        // Skip attributes on the field.
        if punct_at(body, i) == Some("#") && punct_at(body, i + 1) == Some("[") {
            i = match_bracket(body, i + 1) + 1;
            continue;
        }
        // Skip visibility.
        if ident_at(body, i) == Some("pub") {
            i += 1;
            if punct_at(body, i) == Some("(") {
                i = match_bracket(body, i) + 1;
            }
            continue;
        }
        let Some(name) = ident_at(body, i) else {
            i += 1;
            continue;
        };
        if punct_at(body, i + 1) != Some(":") {
            i += 1;
            continue;
        }
        fields.push(name.to_string());
        // Skip the type: it runs to the next top-level comma.
        let mut depth = 0i32;
        let mut angle = 0i32;
        let mut j = i + 2;
        while j < body.len() {
            match body[j].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "<" => angle += 1,
                ">" => angle -= 1,
                "," if depth == 0 && angle <= 0 => break,
                _ => {}
            }
            j += 1;
        }
        i = j + 1;
    }
    fields
}

/// The last path segment of a type/trait path (`powadapt_snap ::
/// Snapshot` -> `Snapshot`; generics stripped).
fn last_segment(path: &[&Tok]) -> Option<String> {
    path.iter()
        .rev()
        .find(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.clone())
}

fn extract_impls(toks: &[Tok], file: usize, out: &mut Vec<ImplDef>) {
    let mut i = 0usize;
    while i < toks.len() {
        if ident_at(toks, i) != Some("impl") {
            i += 1;
            continue;
        }
        let mut j = skip_generics(toks, i + 1);
        // First path: up to `for`, `where`, or `{`.
        let mut first: Vec<&Tok> = Vec::new();
        let mut second: Vec<&Tok> = Vec::new();
        let mut in_second = false;
        let mut angle = 0i32;
        let mut open = None;
        while j < toks.len() {
            let t = &toks[j];
            match t.text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                "for" if t.kind == TokKind::Ident && angle <= 0 => {
                    in_second = true;
                    j += 1;
                    continue;
                }
                "where" if t.kind == TokKind::Ident && angle <= 0 => {
                    // Bounds don't affect the names; skip to the body.
                    while j < toks.len() && toks[j].text != "{" {
                        j += 1;
                    }
                    continue;
                }
                "{" => {
                    open = Some(j);
                    break;
                }
                _ => {}
            }
            if angle <= 0 && t.text != ">" {
                if in_second {
                    second.push(t);
                } else {
                    first.push(t);
                }
            }
            j += 1;
        }
        let Some(open) = open else {
            i = j.max(i + 1);
            continue;
        };
        let close = match_bracket(toks, open);
        let type_name = last_segment(if in_second { &second } else { &first });
        if let Some(type_name) = type_name {
            out.push(ImplDef {
                type_name,
                file,
                body: (open, close),
            });
        }
        i = open + 1;
    }
}

fn extract_fns(toks: &[Tok], file: usize, out: &mut Vec<FnDef>) {
    for i in 0..toks.len() {
        if ident_at(toks, i) != Some("fn") {
            continue;
        }
        // `fn` in a fn-pointer type has no name after it.
        let Some(name) = ident_at(toks, i + 1) else {
            continue;
        };
        if punct_at(toks, skip_generics(toks, i + 2)) != Some("(") {
            continue;
        }
        out.push(FnDef {
            name: name.to_string(),
            file,
            sig_tok: i,
            owner: None,
        });
    }
}

/// Finds `snapshot! { ... }` use sites. The arms of a `macro_rules!
/// snapshot` definition also read `snapshot ! {`, but they interpolate
/// metavariables, so a site with a `$` inside its braces is skipped.
fn extract_snapshot_sites(toks: &[Tok], file: usize, out: &mut Vec<SnapshotSite>) {
    for i in 0..toks.len() {
        let is_site = ident_at(toks, i) == Some("snapshot")
            && punct_at(toks, i + 1) == Some("!")
            && punct_at(toks, i + 2) == Some("{");
        if !is_site {
            continue;
        }
        let close = match_bracket(toks, i + 2);
        if toks[i + 2..=close].iter().any(|t| t.text == "$") {
            continue;
        }
        out.push(SnapshotSite { file, tok: i });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn model_of(src: &str) -> (Model, Vec<Tok>) {
        let toks = lex(src);
        let m = Model::build(&[&toks[..]]);
        (m, toks)
    }

    #[test]
    fn structs_fields_and_types() {
        let (m, _) = model_of(
            "pub struct Meter {\n    #[doc(hidden)]\n    pub watts: Watts,\n    samples: Vec<(SimTime, f64)>,\n}\nstruct Marker;\nstruct Pair(u8, u8);\n",
        );
        assert_eq!(m.structs.len(), 3);
        let meter = &m.structs[0];
        assert_eq!(meter.name, "Meter");
        assert_eq!(meter.fields, ["watts", "samples"]);
        assert_eq!(m.structs[1].name, "Marker");
        assert!(m.structs[1].fields.is_empty());
        assert_eq!(m.structs[2].name, "Pair");
        assert!(m.structs[2].fields.is_empty());
    }

    #[test]
    fn impls_resolve_trait_and_type() {
        let (m, _) = model_of(
            "impl powadapt_snap::Snapshot for EventLog { fn write_state(&self) {} }\n\
             impl<E: Clone> EventQueue<E> { fn read_state(&mut self) {} }\n\
             impl Device for Ssd where Ssd: Sized { fn tick(&self) {} }\n",
        );
        assert_eq!(m.impls.len(), 3);
        // `impl Trait for Type` names the type, not the trait.
        let types: Vec<_> = m.impls.iter().map(|im| im.type_name.as_str()).collect();
        assert_eq!(types, ["EventLog", "EventQueue", "Ssd"]);
        // Fn -> impl attachment.
        let owners: Vec<_> = m.fns.iter().map(|f| f.owner.as_deref()).collect();
        assert_eq!(owners, [Some("EventLog"), Some("EventQueue"), Some("Ssd")]);
    }

    #[test]
    fn macro_definition_arms_are_skipped() {
        let (m, _) = model_of(
            "macro_rules! snapshot {\n    (value $ty:ident) => { $crate::snapshot! { value $ty } };\n}\n",
        );
        assert!(m.snapshots.is_empty());
    }

    #[test]
    fn snapshot_sites_name_their_component() {
        let (m, toks) = model_of(
            "struct A { x: u64 }\nstruct B { y: u64 }\n\
             powadapt_snap::snapshot! { A { x } }\n\
             snapshot! {\n    value B { y }\n}\n\
             macro_rules! snapshot {\n    (value $ty:ident) => { $crate::snapshot! { value $ty } };\n}\n",
        );
        let names: Vec<_> = m.snapshots.iter().map(|s| s.snapshot_type(&toks)).collect();
        assert_eq!(names, [Some("A"), Some("B")]);
        // A site left open at the end of the file is still a site.
        assert_eq!(model_of("snapshot! {").0.snapshots.len(), 1);
    }

    #[test]
    fn snapshot_entries_keep_list_order_and_modes() {
        let (m, toks) = model_of(
            "snapshot! {\n    Ssd {\n        now,\n        events: with(ReadIds, reads),\n        \
             rolling: state,\n        tree: with(a::Tree),\n    }\n    \
             skip { rec: \"telemetry\" }\n    after restore_masks\n}\n\
             snapshot! { value Sketch }\n",
        );
        assert_eq!(
            m.snapshots[0].snapshot_entries(&toks).unwrap(),
            [
                "now",
                "events: with(ReadIds, reads)",
                "rolling: state",
                "tree: with(a::Tree)"
            ]
        );
        assert_eq!(m.snapshots[1].snapshot_entries(&toks), None);
    }
}
