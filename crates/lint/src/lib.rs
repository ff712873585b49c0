//! `powadapt-lint` — workspace-wide unit-safety analyzer.
//!
//! The golden-figure fixtures prove every figure is bit-identical across
//! worker counts, but only *after the fact*. The invariants that make the
//! guarantee hold *by construction* are enforced by the compiler, by
//! runtime tests, and by two lint engines:
//!
//! - **clippy** enforces determinism and panic-freedom. The root
//!   `clippy.toml` bans the host clock, OS entropy, environment reads and
//!   hash collections by path; `unwrap_used`, `float_cmp` and (in the
//!   library crates that own typed errors) `expect_used`/`panic` sit in
//!   the lint tables. Exemptions are reasoned `#[expect]` attributes.
//! - **this crate** checks what clippy cannot express:
//!   - **D4** — unit quantities (`*_watts`, `*_joules`, `*_ms`, `*_us`) in
//!     public APIs must use the typed newtypes, never raw `f64`,
//!   - **D7** — unit newtypes must not mix dimensions,
//!
//!   plus the snapshot ABI lock ([`abi`]).
//!
//! What rustc or a test proves needs no rule here: a `.0` escape from a
//! unit newtype is a private-field error, `emit!`/`span!` arity and
//! undeclared event kinds fail to compile, the `EventKind` name table
//! and the silence of restore paths have runtime tests, and
//! `tests/hot_path_allocs.rs` counts the allocations of every hot-path
//! primitive under a counting global allocator.
//!
//! Violations that are genuinely fine carry an inline, *reasoned*
//! suppression — `// powadapt-lint: allow(D7, reason = "...")` — and the
//! suppression mechanism is itself policed (missing reason and unknown
//! rule ids are diagnostics, as is a suppression that matches nothing).
//!
//! The analyzer is `syn`-free by design: the workspace builds fully
//! offline, so the lexer in [`lexer`] implements exactly the slice of
//! Rust the rules need. See `DESIGN.md` § "Determinism & unit-safety
//! invariants" for the rationale behind each rule.
//!
//! # Examples
//!
//! ```
//! use powadapt_lint::{analyze_source, AnalysisMode};
//!
//! let findings = analyze_source(
//!     "crates/model/src/lib.rs",
//!     "pub fn cap(limit_watts: f64) {}\n",
//!     AnalysisMode::Scoped,
//! );
//! assert_eq!(findings.diagnostics.len(), 1);
//! assert_eq!(findings.diagnostics[0].rule.as_str(), "D4");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::float_cmp,
        reason = "tests assert on exact expected values"
    )
)]

pub mod abi;
pub mod diag;
pub mod lexer;
pub mod model;
pub mod rules;
pub mod sarif;
pub mod scope;
pub mod semantic;
pub mod suppress;

use std::fs;
use std::path::{Path, PathBuf};

pub use diag::{Diagnostic, Report, RuleId, UsedSuppression};

/// How rule scoping is applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalysisMode {
    /// Normal operation: each rule applies only to the crates/paths in
    /// [`scope::rule_applies`], minus test regions.
    Scoped,
    /// Fixture mode: every rule applies to every line (still minus
    /// nothing — fixtures are plain snippets). Used by the ui self-tests
    /// and `--all-rules`.
    AllRules,
}

/// Result of analyzing one file.
#[derive(Debug)]
pub struct FileAnalysis {
    /// Active findings, in source order.
    pub diagnostics: Vec<Diagnostic>,
    /// Suppressions that fired, for the report's audit trail.
    pub suppressions_used: Vec<UsedSuppression>,
}

/// Analyzes one file's source text.
///
/// `path` must be workspace-relative with `/` separators — it drives the
/// per-rule scoping in [`AnalysisMode::Scoped`]. The file is treated as
/// a one-file workspace, so the cross-file rule D7 runs with whatever
/// the single file declares (which is exactly what the ui fixtures
/// exercise). For true cross-file analysis use [`analyze_files`].
pub fn analyze_source(path: &str, src: &str, mode: AnalysisMode) -> FileAnalysis {
    analyze_files(&[(path.to_string(), src.to_string())], mode)
}

/// Analyzes a set of files as one workspace: pass 1 lexes every file and
/// builds the shared symbol [`model::Model`]; pass 2 runs the per-file
/// token rule (D4) and the cross-file semantic rule (D7) over it.
/// Suppressions are merged workspace-wide but keyed on (rule, file), so
/// an allow in one file never covers — or masks the audit of — the same
/// rule elsewhere.
pub fn analyze_files(files: &[(String, String)], mode: AnalysisMode) -> FileAnalysis {
    // Pass 1: lex, per-file scaffolding, merged suppressions, model.
    let lexed: Vec<lexer::Lexed> = files.iter().map(|(_, src)| lexer::lex(src)).collect();
    let lines: Vec<Vec<&str>> = files.iter().map(|(_, src)| src.lines().collect()).collect();
    let regions: Vec<scope::TestRegions> = lexed.iter().map(scope::find_test_regions).collect();
    let mut suppressions = suppress::SuppressionSet::default();
    for ((path, _), lx) in files.iter().zip(&lexed) {
        suppressions.merge(suppress::scan(&lx.comments, path));
    }
    let slices: Vec<&[lexer::Tok]> = lexed.iter().map(|l| &l.tokens[..]).collect();
    let model = model::Model::build(&slices);
    let ctxs: Vec<semantic::FileCtx<'_>> = files
        .iter()
        .zip(&slices)
        .map(|((path, _), toks)| semantic::FileCtx { path, toks })
        .collect();

    let mut diagnostics: Vec<Diagnostic> = Vec::new();

    // Pass 2a: the per-file token rule.
    for (fi, (path, _)) in files.iter().enumerate() {
        for finding in rules::d4_unit_newtypes(&lexed[fi].tokens) {
            if mode == AnalysisMode::Scoped && !scope::rule_applies(finding.rule, path) {
                continue;
            }
            let anchor_line = lexed[fi].tokens[finding.tok].line;
            if mode == AnalysisMode::Scoped && regions[fi].contains(anchor_line) {
                continue;
            }
            if suppressions.try_suppress(finding.rule, path, anchor_line) {
                continue;
            }
            diagnostics.push(rules::to_diagnostic(
                &finding,
                &lexed[fi].tokens,
                path,
                &lines[fi],
            ));
        }
    }

    // Pass 2b: the cross-file semantic rule over the model.
    for f in semantic::run(&model, &ctxs) {
        let path = &files[f.file].0;
        if mode == AnalysisMode::Scoped && !scope::rule_applies(f.rule, path) {
            continue;
        }
        if mode == AnalysisMode::Scoped && regions[f.file].contains(f.line) {
            continue;
        }
        if suppressions.try_suppress(f.rule, path, f.line) {
            continue;
        }
        let snippet = lines[f.file]
            .get(f.line as usize - 1)
            .map_or(String::new(), |l| (*l).to_string());
        diagnostics.push(Diagnostic {
            rule: f.rule,
            path: path.clone(),
            line: f.line,
            col: f.col,
            message: f.message,
            snippet,
            span_len: f.span_len,
        });
    }

    // Suppression hygiene: malformed comments, then unused ones — per
    // (rule, file).
    diagnostics.extend(suppressions.errors.iter().cloned());
    let path_index: std::collections::BTreeMap<&str, usize> = files
        .iter()
        .enumerate()
        .map(|(i, (p, _))| (p.as_str(), i))
        .collect();
    diagnostics.extend(suppressions.unused(|path, line| {
        path_index
            .get(path)
            .and_then(|&i| lines[i].get(line as usize - 1))
            .map_or(String::new(), |l| (*l).to_string())
    }));

    diagnostics.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });
    let suppressions_used = suppressions
        .entries
        .iter()
        .filter(|e| e.used)
        .map(|e| UsedSuppression {
            rules: e.rules.clone(),
            reason: e.reason.clone(),
            path: e.path.clone(),
            line: e.comment_line,
        })
        .collect();
    FileAnalysis {
        diagnostics,
        suppressions_used,
    }
}

/// Directories under the workspace root that are scanned for `.rs` files.
const SCAN_ROOTS: &[&str] = &["crates", "src", "examples", "tests"];

/// Paths (workspace-relative prefixes) that are never scanned: vendored
/// third-party stand-ins, build output, and the analyzer's own
/// intentionally-bad ui fixtures.
const SKIP_PREFIXES: &[&str] = &["vendor/", "target/", "crates/lint/fixtures/"];

/// Collects every scannable `.rs` file under `root`, workspace-relative,
/// sorted for deterministic report order.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for scan in SCAN_ROOTS {
        let dir = root.join(scan);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    let mut rel: Vec<PathBuf> = files
        .into_iter()
        .filter_map(|f| f.strip_prefix(root).ok().map(Path::to_path_buf))
        .filter(|f| {
            let s = path_str(f);
            !SKIP_PREFIXES.iter().any(|p| s.starts_with(p))
        })
        .collect();
    rel.sort();
    Ok(rel)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// A path rendered with `/` separators regardless of host OS.
pub fn path_str(p: &Path) -> String {
    p.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Analyzes the whole workspace rooted at `root` in one two-pass run, so
/// the cross-file rules see every crate's symbols at once.
pub fn analyze_workspace(root: &Path) -> std::io::Result<Report> {
    let files = workspace_files(root)?;
    let mut sources = Vec::with_capacity(files.len());
    for rel in &files {
        sources.push((path_str(rel), fs::read_to_string(root.join(rel))?));
    }
    let analysis = analyze_files(&sources, AnalysisMode::Scoped);
    Ok(Report {
        root: path_str(root),
        files_scanned: files.len(),
        diagnostics: analysis.diagnostics,
        suppressions_used: analysis.suppressions_used,
    })
}

/// Computes the canonical `crates/snap/ABI.lock` text for the workspace
/// at `root`: reads every scannable source, builds the pass-1 symbol
/// model, and stamps the snapshot-struct inventory with the current
/// `FORMAT_VERSION` from `crates/snap/src/lib.rs`.
pub fn compute_abi_lock(root: &Path) -> Result<String, String> {
    let files = workspace_files(root).map_err(|e| e.to_string())?;
    let mut sources = Vec::with_capacity(files.len());
    for rel in &files {
        sources.push((
            path_str(rel),
            fs::read_to_string(root.join(rel)).map_err(|e| format!("{}: {e}", rel.display()))?,
        ));
    }
    let version_src = fs::read_to_string(root.join(abi::VERSION_PATH))
        .map_err(|e| format!("{}: {e}", abi::VERSION_PATH))?;
    let fv = abi::parse_format_version(&version_src)
        .ok_or_else(|| format!("no FORMAT_VERSION found in {}", abi::VERSION_PATH))?;
    let lexed: Vec<lexer::Lexed> = sources.iter().map(|(_, src)| lexer::lex(src)).collect();
    let slices: Vec<&[lexer::Tok]> = lexed.iter().map(|l| &l.tokens[..]).collect();
    let model = model::Model::build(&slices);
    let ctxs: Vec<semantic::FileCtx<'_>> = sources
        .iter()
        .zip(&slices)
        .map(|((path, _), toks)| semantic::FileCtx { path, toks })
        .collect();
    Ok(abi::lock_text(&model, &ctxs, fv))
}

/// Walks up from `start` to the directory containing the workspace's
/// top-level `Cargo.toml` (the one with a `[workspace]` table).
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
