//! Pass 1: the workspace symbol model.
//!
//! The cross-file rules (D7-D9) need to know *what the code declares*,
//! not just which tokens appear: which structs exist and what fields
//! they carry, which impl blocks provide `write_state`/`read_state`,
//! where every `fn` body starts and ends, which `emit!`/`span!` calls
//! sit inside which function, which structs a `snapshot!` list declares, and what the obs kind registry contains.
//!
//! This module extracts exactly that from the existing lexer's token
//! stream — still no `syn`, because the workspace builds fully offline.
//! The extraction is a set of small linear scans with bracket matching;
//! the subset of Rust it understands (structs with named fields, impl
//! blocks, fn items, enum variants, `const NAMES` tables, typed `let`
//! bindings) is exactly the subset the semantic rules consume. Anything
//! outside that subset degrades to "unknown" rather than a wrong answer:
//! the rules skip what they cannot resolve.

use crate::lexer::{Tok, TokKind};

/// One named field of a struct.
#[derive(Debug, Clone)]
pub struct FieldDef {
    /// Field name.
    pub name: String,
    /// The field's type, as raw token texts (generics included).
    pub ty: Vec<String>,
    /// 1-based line of the field name.
    pub line: u32,
    /// 1-based column of the field name.
    pub col: u32,
}

/// A struct declaration.
#[derive(Debug, Clone)]
pub struct StructDef {
    /// Type name.
    pub name: String,
    /// Index into the analyzed file list.
    pub file: usize,
    /// 1-based line of the name token.
    pub line: u32,
    /// 1-based column of the name token.
    pub col: u32,
    /// Named fields; empty for tuple and unit structs.
    pub fields: Vec<FieldDef>,
    /// True for tuple structs (fields unnamed; the unit newtypes are the
    /// intended members of this class).
    pub tuple: bool,
}

/// A function item (free, trait-decl, or inside an impl block).
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// Index into the analyzed file list.
    pub file: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token index of the `fn` keyword.
    pub sig_tok: usize,
    /// Token range of the body: `(open_brace, close_brace)` inclusive.
    /// `None` for body-less declarations (`fn f(...);`).
    pub body: Option<(usize, usize)>,
    /// Parameters as `(name, type tokens)`; `self` receivers excluded.
    pub params: Vec<(String, Vec<String>)>,
    /// Explicitly-typed `let` bindings in the body, as `(name, type)`.
    pub locals: Vec<(String, Vec<String>)>,
    /// Type name of the enclosing `impl` block, when inside one.
    pub owner: Option<String>,
    /// Set from `// powadapt-lint: hot` marks after extraction.
    pub hot: bool,
}

/// An `impl` block.
#[derive(Debug, Clone)]
pub struct ImplDef {
    /// Trait name for `impl Trait for Type`, `None` for inherent impls.
    pub trait_name: Option<String>,
    /// The implemented type's name (generics stripped).
    pub type_name: String,
    /// Index into the analyzed file list.
    pub file: usize,
    /// Token range of the impl body, inclusive braces.
    pub body: (usize, usize),
}

/// One `emit!(...)`, `span!(...)` or `snapshot! { ... }` invocation.
#[derive(Debug, Clone)]
pub struct MacroSite {
    /// `emit`, `span` or `snapshot`.
    pub name: String,
    /// Index into the analyzed file list.
    pub file: usize,
    /// Token index of the macro name.
    pub tok: usize,
    /// 1-based line/col of the macro name.
    pub line: u32,
    /// 1-based column of the macro name.
    pub col: u32,
    /// Top-level argument token ranges (inclusive), split on commas.
    pub args: Vec<(usize, usize)>,
    /// Token index of the closing delimiter; `None` when the invocation
    /// is not closed before the end of the file (lexically unbalanced).
    pub close: Option<usize>,
    /// Index into [`Model::fns`] of the innermost enclosing fn.
    pub enclosing_fn: Option<usize>,
}

impl MacroSite {
    /// Is this an obs `emit!`/`span!` site (as opposed to a declarative
    /// `snapshot!` field list)?
    pub fn is_obs(&self) -> bool {
        self.name != "snapshot"
    }

    /// The component a `snapshot! { [value] Ty ... }` site declares.
    pub fn snapshot_type<'t>(&self, toks: &'t [Tok]) -> Option<&'t str> {
        ident_at(toks, self.snapshot_type_tok(toks)?)
    }

    /// A `snapshot!` site's field list in list order, each entry rendered
    /// as `name` or `name: mode` (`skip` fields are not in the list).
    /// `None` for a site without one (`snapshot! { value Ty }`).
    pub fn snapshot_entries(&self, toks: &[Tok]) -> Option<Vec<String>> {
        let open = self.snapshot_type_tok(toks)? + 1;
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

    fn snapshot_type_tok(&self, toks: &[Tok]) -> Option<usize> {
        if self.is_obs() {
            return None;
        }
        let mut i = self.tok + 3;
        if ident_at(toks, i) == Some("value") {
            i += 1;
        }
        Some(i)
    }
}

/// An enum declaration (the obs kind registry's `EventKind` is the one
/// D8 consumes; all enums are modeled so fixtures can declare their
/// own).
#[derive(Debug, Clone)]
pub struct EnumDef {
    /// Type name.
    pub name: String,
    /// Index into the analyzed file list.
    pub file: usize,
    /// 1-based line of the name token.
    pub line: u32,
    /// Variants as `(name, line, col)`.
    pub variants: Vec<(String, u32, u32)>,
}

/// A `const NAMES: ... = [ "..." ... ]` table (the string half of the
/// obs kind registry).
#[derive(Debug, Clone)]
pub struct NamesTable {
    /// Index into the analyzed file list.
    pub file: usize,
    /// 1-based line of the `NAMES` token.
    pub line: u32,
    /// Entries as `(string value, line, col)`.
    pub entries: Vec<(String, u32, u32)>,
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
    /// Every `emit!`/`span!` invocation.
    pub macros: Vec<MacroSite>,
    /// Every enum declaration.
    pub enums: Vec<EnumDef>,
    /// Every `const NAMES` table.
    pub names_tables: Vec<NamesTable>,
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
            extract_enums(toks, idx, &mut m.enums);
            extract_names_tables(toks, idx, &mut m.names_tables);
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
        // Macro sites need fn spans, so they come after the fn pass.
        for (idx, toks) in files.iter().enumerate() {
            extract_macros(toks, idx, &m.fns, &mut m.macros);
        }
        m
    }

    /// The innermost fn in `file` whose declaration sits on `line`
    /// (targeted by a `hot` mark).
    pub fn fn_on_line(&self, file: usize, line: u32) -> Option<usize> {
        self.fns
            .iter()
            .position(|f| f.file == file && f.line == line)
    }

    /// Fns named `write_state`/`read_state` provided by any impl of
    /// `type_name` in `file`'s crate (`crate_key` groups files; see
    /// [`crate::scope`]). Returns indices into [`Model::fns`].
    pub fn snapshot_fns(
        &self,
        type_name: &str,
        crate_key: &str,
        file_crates: &[String],
    ) -> Vec<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                (f.name == "write_state" || f.name == "read_state")
                    && f.owner.as_deref() == Some(type_name)
                    && file_crates[f.file] == crate_key
            })
            .map(|(i, _)| i)
            .collect()
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
        let name_tok = &toks[i + 1];
        let mut j = skip_generics(toks, i + 2);
        // Scan past an optional `where` clause to the body opener. The
        // clause can contain `Fn(..)` parens, so a `(` only means
        // "tuple struct" when no `where` has been seen.
        let mut saw_where = false;
        let mut def: Option<StructDef> = None;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "where" if toks[j].kind == TokKind::Ident => saw_where = true,
                "{" => {
                    let close = match_bracket(toks, j);
                    def = Some(StructDef {
                        name: name.to_string(),
                        file,
                        line: name_tok.line,
                        col: name_tok.col,
                        fields: parse_fields(&toks[j + 1..close]),
                        tuple: false,
                    });
                    j = close;
                    break;
                }
                "(" if !saw_where => {
                    j = match_bracket(toks, j);
                    def = Some(StructDef {
                        name: name.to_string(),
                        file,
                        line: name_tok.line,
                        col: name_tok.col,
                        fields: Vec::new(),
                        tuple: true,
                    });
                    break;
                }
                ";" => {
                    def = Some(StructDef {
                        name: name.to_string(),
                        file,
                        line: name_tok.line,
                        col: name_tok.col,
                        fields: Vec::new(),
                        tuple: false,
                    });
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        if let Some(d) = def {
            out.push(d);
        }
        i = j.max(i + 1);
    }
}

/// Parses the named fields between a struct body's braces (exclusive).
fn parse_fields(body: &[Tok]) -> Vec<FieldDef> {
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
        let name_tok = &body[i];
        // Type runs to the next top-level comma.
        let mut depth = 0i32;
        let mut angle = 0i32;
        let mut j = i + 2;
        let mut ty = Vec::new();
        while j < body.len() {
            let t = &body[j];
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "<" => angle += 1,
                ">" => angle -= 1,
                "," if depth == 0 && angle <= 0 => break,
                _ => {}
            }
            ty.push(t.text.clone());
            j += 1;
        }
        fields.push(FieldDef {
            name: name.to_string(),
            ty,
            line: name_tok.line,
            col: name_tok.col,
        });
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
        let (trait_name, type_name) = if in_second {
            (last_segment(&first), last_segment(&second))
        } else {
            (None, last_segment(&first))
        };
        if let Some(type_name) = type_name {
            out.push(ImplDef {
                trait_name,
                type_name,
                file,
                body: (open, close),
            });
        }
        i = open + 1;
    }
}

fn extract_fns(toks: &[Tok], file: usize, out: &mut Vec<FnDef>) {
    let mut i = 0usize;
    while i < toks.len() {
        if ident_at(toks, i) != Some("fn") {
            i += 1;
            continue;
        }
        // `fn` in a fn-pointer type has no name after it.
        let Some(name) = ident_at(toks, i + 1) else {
            i += 1;
            continue;
        };
        let mut j = skip_generics(toks, i + 2);
        if punct_at(toks, j) != Some("(") {
            i += 1;
            continue;
        }
        let params_close = match_bracket(toks, j);
        let params = parse_params(&toks[j + 1..params_close]);
        // Return type / where clause run to the body or `;`.
        j = params_close + 1;
        let mut body = None;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "{" => {
                    body = Some((j, match_bracket(toks, j)));
                    break;
                }
                ";" => break,
                // `-> impl Fn(..)` and friends: skip bracket groups so
                // a paren in the return type can't be mistaken for a
                // body.
                "(" | "[" => j = match_bracket(toks, j),
                _ => {}
            }
            j += 1;
        }
        let locals = body.map_or_else(Vec::new, |(a, b)| parse_locals(&toks[a..=b]));
        out.push(FnDef {
            name: name.to_string(),
            file,
            line: toks[i].line,
            sig_tok: i,
            body,
            params,
            locals,
            owner: None,
            hot: false,
        });
        // Continue *inside* the body too: nested fns are modeled.
        i = match body {
            Some((open, _)) => open + 1,
            None => j.max(i + 1),
        };
    }
}

/// Parses a parameter list's tokens into `(name, type)` pairs; `self`
/// receivers are skipped.
fn parse_params(param_toks: &[Tok]) -> Vec<(String, Vec<String>)> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut angle = 0i32;
    let mut start = 0usize;
    let mut i = 0usize;
    loop {
        let at_end = i >= param_toks.len();
        let splits = at_end
            || (param_toks[i].text == ","
                && param_toks[i].kind == TokKind::Punct
                && depth == 0
                && angle <= 0);
        if splits {
            let p = &param_toks[start..i.min(param_toks.len())];
            if let Some(pair) = parse_one_param(p) {
                out.push(pair);
            }
            if at_end {
                break;
            }
            start = i + 1;
        } else {
            match param_toks[i].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "<" => angle += 1,
                ">" => angle -= 1,
                _ => {}
            }
        }
        i += 1;
    }
    out
}

fn parse_one_param(p: &[Tok]) -> Option<(String, Vec<String>)> {
    let mut angle = 0i32;
    let mut colon = None;
    for (i, t) in p.iter().enumerate() {
        match t.text.as_str() {
            "<" => angle += 1,
            ">" => angle -= 1,
            ":" if angle <= 0 && t.kind == TokKind::Punct => {
                colon = Some(i);
                break;
            }
            _ => {}
        }
    }
    let colon = colon?;
    let name = p[..colon]
        .iter()
        .rev()
        .find(|t| t.kind == TokKind::Ident && t.text != "mut")?;
    if name.text == "self" {
        return None;
    }
    let ty = p[colon + 1..].iter().map(|t| t.text.clone()).collect();
    Some((name.text.clone(), ty))
}

/// Finds explicitly-typed `let` bindings (`let [mut] x: Ty = ...`) in a
/// body's tokens.
fn parse_locals(body: &[Tok]) -> Vec<(String, Vec<String>)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < body.len() {
        if ident_at(body, i) != Some("let") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if ident_at(body, j) == Some("mut") {
            j += 1;
        }
        let Some(name) = ident_at(body, j) else {
            i += 1;
            continue;
        };
        if punct_at(body, j + 1) != Some(":") {
            i += 1;
            continue;
        }
        let mut depth = 0i32;
        let mut angle = 0i32;
        let mut k = j + 2;
        let mut ty = Vec::new();
        while k < body.len() {
            let t = &body[k];
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "<" => angle += 1,
                ">" => angle -= 1,
                "=" | ";" if depth == 0 && angle <= 0 => break,
                _ => {}
            }
            ty.push(t.text.clone());
            k += 1;
        }
        out.push((name.to_string(), ty));
        i = k;
    }
    out
}

fn extract_enums(toks: &[Tok], file: usize, out: &mut Vec<EnumDef>) {
    let mut i = 0usize;
    while i < toks.len() {
        if ident_at(toks, i) != Some("enum") {
            i += 1;
            continue;
        }
        let Some(name) = ident_at(toks, i + 1) else {
            i += 1;
            continue;
        };
        let name_tok = &toks[i + 1];
        let mut j = skip_generics(toks, i + 2);
        while j < toks.len() && toks[j].text != "{" {
            j += 1;
        }
        if j >= toks.len() {
            break;
        }
        let close = match_bracket(toks, j);
        let body = &toks[j + 1..close];
        let mut variants = Vec::new();
        let mut k = 0usize;
        while k < body.len() {
            // Skip attributes and any variant payload.
            if punct_at(body, k) == Some("#") && punct_at(body, k + 1) == Some("[") {
                k = match_bracket(body, k + 1) + 1;
                continue;
            }
            let Some(v) = ident_at(body, k) else {
                k += 1;
                continue;
            };
            variants.push((v.to_string(), body[k].line, body[k].col));
            k += 1;
            // Payload (`(..)`/`{..}`) or discriminant (`= n`).
            match body.get(k).map(|t| t.text.as_str()) {
                Some("(") | Some("{") => k = match_bracket(body, k) + 1,
                Some("=") => {
                    while k < body.len() && body[k].text != "," {
                        k += 1;
                    }
                }
                _ => {}
            }
            // Trailing comma.
            if punct_at(body, k) == Some(",") {
                k += 1;
            }
        }
        out.push(EnumDef {
            name: name.to_string(),
            file,
            line: name_tok.line,
            variants,
        });
        i = close + 1;
    }
}

fn extract_names_tables(toks: &[Tok], file: usize, out: &mut Vec<NamesTable>) {
    let mut i = 0usize;
    while i < toks.len() {
        if !(ident_at(toks, i) == Some("const") && ident_at(toks, i + 1) == Some("NAMES")) {
            i += 1;
            continue;
        }
        let line = toks[i + 1].line;
        // Skip the type annotation (`: [&str; N]` — its `;` would end the
        // scan early) to the initializer.
        let mut j = i + 2;
        while j < toks.len() && toks[j].text != "=" {
            j += 1;
        }
        let mut entries = Vec::new();
        while j < toks.len() && toks[j].text != ";" {
            let t = &toks[j];
            if t.kind == TokKind::Literal && t.text.starts_with('"') {
                let value = t.text.trim_matches('"').to_string();
                entries.push((value, t.line, t.col));
            }
            j += 1;
        }
        out.push(NamesTable {
            file,
            line,
            entries,
        });
        i = j;
    }
}

fn extract_macros(toks: &[Tok], file: usize, fns: &[FnDef], out: &mut Vec<MacroSite>) {
    let mut i = 0usize;
    while i < toks.len() {
        let delim = match toks[i].text.as_str() {
            "emit" | "span" => "(",
            "snapshot" => "{",
            _ => "",
        };
        let is_site = toks[i].kind == TokKind::Ident
            && !delim.is_empty()
            && punct_at(toks, i + 1) == Some("!")
            && punct_at(toks, i + 2) == Some(delim);
        if !is_site {
            i += 1;
            continue;
        }
        // Macro *definitions* (`macro_rules! emit`) don't match: the
        // name there follows `macro_rules !`, so `emit` is not directly
        // followed by `!` `(` — but the expansion arms inside a
        // definition could. Skip sites inside a macro_rules body by
        // checking the nearest preceding `macro_rules` ident at lower
        // brace depth... cheaper: skip when `$` appears immediately
        // inside the args (expansion arms interpolate `$rec`).
        let open = i + 2;
        let close_idx = {
            let c = match_bracket(toks, open);
            if c > open && toks[c].text == if delim == "(" { ")" } else { "}" } {
                Some(c)
            } else {
                None
            }
        };
        let mut args = Vec::new();
        if let Some(close) = close_idx {
            let mut depth = 0i32;
            let mut start = open + 1;
            for (j, tok) in toks.iter().enumerate().take(close).skip(open + 1) {
                match tok.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "," if depth == 0 => {
                        args.push((start, j.saturating_sub(1)));
                        start = j + 1;
                    }
                    _ => {}
                }
            }
            if start < close {
                args.push((start, close - 1));
            }
        }
        let dollar_args = args
            .iter()
            .any(|&(a, b)| toks[a..=b].iter().any(|t| t.text == "$"));
        if dollar_args {
            i = open + 1;
            continue;
        }
        let enclosing_fn = fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.file == file && f.body.is_some_and(|(a, b)| a < i && i < b))
            .max_by_key(|(_, f)| f.body.map(|(a, _)| a))
            .map(|(idx, _)| idx);
        out.push(MacroSite {
            name: toks[i].text.clone(),
            file,
            tok: i,
            line: toks[i].line,
            col: toks[i].col,
            args,
            close: close_idx,
            enclosing_fn,
        });
        i = open + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn model_of(src: &str) -> (Model, Vec<Tok>) {
        let lexed = lex(src);
        let toks = lexed.tokens;
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
        let names: Vec<_> = meter.fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["watts", "samples"]);
        assert_eq!(meter.fields[0].ty, ["Watts"]);
        assert!(meter.fields[1].ty.contains(&"Vec".to_string()));
        assert!(m.structs[2].tuple);
    }

    #[test]
    fn impls_resolve_trait_and_type() {
        let (m, _) = model_of(
            "impl powadapt_snap::Snapshot for EventLog { fn write_state(&self) {} }\n\
             impl<E: Clone> EventQueue<E> { fn read_state(&mut self) {} }\n\
             impl Device for Ssd where Ssd: Sized { fn tick(&self) {} }\n",
        );
        assert_eq!(m.impls.len(), 3);
        assert_eq!(m.impls[0].trait_name.as_deref(), Some("Snapshot"));
        assert_eq!(m.impls[0].type_name, "EventLog");
        assert_eq!(m.impls[1].trait_name, None);
        assert_eq!(m.impls[1].type_name, "EventQueue");
        assert_eq!(m.impls[2].trait_name.as_deref(), Some("Device"));
        assert_eq!(m.impls[2].type_name, "Ssd");
        // Fn -> impl attachment.
        assert_eq!(m.fns[0].owner.as_deref(), Some("EventLog"));
        assert_eq!(m.fns[1].owner.as_deref(), Some("EventQueue"));
        let crates = vec![String::new()];
        assert_eq!(m.snapshot_fns("EventLog", "", &crates).len(), 1);
        assert_eq!(m.snapshot_fns("EventQueue", "", &crates).len(), 1);
        assert!(m.snapshot_fns("Ssd", "", &crates).is_empty());
    }

    #[test]
    fn fns_params_locals_and_bodies() {
        let (m, toks) = model_of(
            "fn free(a: Watts, mut b: &mut Joules) -> f64 {\n    let mut acc: Joules = Joules::new(0.0);\n    acc.get()\n}\nfn sig_only(x: u8);\n",
        );
        assert_eq!(m.fns.len(), 2);
        let f = &m.fns[0];
        assert_eq!(f.name, "free");
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0], ("a".to_string(), vec!["Watts".to_string()]));
        assert_eq!(f.params[1].0, "b");
        assert_eq!(f.locals.len(), 1);
        assert_eq!(f.locals[0].0, "acc");
        assert_eq!(f.locals[0].1, ["Joules"]);
        let (open, close) = f.body.unwrap();
        assert_eq!(toks[open].text, "{");
        assert_eq!(toks[close].text, "}");
        assert!(m.fns[1].body.is_none());
    }

    #[test]
    fn enums_and_names_tables() {
        let (m, _) = model_of(
            "pub enum EventKind {\n    IoStart,\n    IoDone(u32),\n    #[doc(hidden)]\n    ModeSwitch { from: u8 },\n}\nimpl EventKind {\n    pub const NAMES: [&'static str; 3] = [\"io_start\", \"io_done\", \"mode_switch\"];\n}\n",
        );
        assert_eq!(m.enums.len(), 1);
        let vs: Vec<_> = m.enums[0].variants.iter().map(|v| v.0.as_str()).collect();
        assert_eq!(vs, ["IoStart", "IoDone", "ModeSwitch"]);
        assert_eq!(m.names_tables.len(), 1);
        let ns: Vec<_> = m.names_tables[0]
            .entries
            .iter()
            .map(|e| e.0.as_str())
            .collect();
        assert_eq!(ns, ["io_start", "io_done", "mode_switch"]);
    }

    #[test]
    fn macro_sites_and_enclosing_fn() {
        let (m, _) = model_of(
            "fn tick(&mut self) {\n    emit!(self.rec, t, track, EventKind::IoStart);\n    span!(self.rec, t0, track, \"svc\", dur);\n}\n",
        );
        assert_eq!(m.macros.len(), 2);
        assert_eq!(m.macros[0].name, "emit");
        assert_eq!(m.macros[0].args.len(), 4);
        assert_eq!(m.macros[1].name, "span");
        assert_eq!(m.macros[1].args.len(), 5);
        assert_eq!(m.macros[0].enclosing_fn, Some(0));
        assert!(m.macros[0].close.is_some());
    }

    #[test]
    fn macro_definition_arms_are_skipped() {
        let (m, _) = model_of(
            "macro_rules! emit {\n    ($rec:expr, $at:expr) => {\n        if $rec.is_enabled() { emit!($rec, $at) }\n    };\n}\n",
        );
        assert!(m.macros.is_empty());
    }

    #[test]
    fn snapshot_sites_name_their_component() {
        let (m, toks) = model_of(
            "struct A { x: u64 }\nstruct B { y: u64 }\n\
             powadapt_snap::snapshot! { A { x } }\n\
             snapshot! {\n    value B { y }\n}\n\
             macro_rules! snapshot {\n    (value $ty:ident) => { $crate::snapshot! { value $ty } };\n}\n",
        );
        let names: Vec<_> = m.macros.iter().map(|s| s.snapshot_type(&toks)).collect();
        assert_eq!(names, [Some("A"), Some("B")]);
        assert!(m.macros.iter().all(|s| !s.is_obs() && s.close.is_some()));
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
            m.macros[0].snapshot_entries(&toks).unwrap(),
            [
                "now",
                "events: with(ReadIds, reads)",
                "rolling: state",
                "tree: with(a::Tree)"
            ]
        );
        assert_eq!(m.macros[1].snapshot_entries(&toks), None);
    }
}
