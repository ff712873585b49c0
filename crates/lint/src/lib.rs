//! `powadapt-lint` — the snapshot ABI lock.
//!
//! A checkpoint written by one build must decode under the next, so the
//! byte layout of every snapshot struct is pinned in the committed
//! `crates/snap/ABI.lock`. This crate derives that layout from the
//! workspace's source ([`compute_abi_lock`]) and compares it with the
//! lock ([`abi::check`]); a layout change without a `FORMAT_VERSION`
//! bump is a failure.
//!
//! Everything else that keeps the figures bit-identical is checked
//! elsewhere: clippy bans the host clock, OS entropy, environment reads,
//! hash collections and panics (`clippy.toml` and the workspace lint
//! tables), and rustc and runtime tests prove the rest (DESIGN.md
//! § "Determinism & unit-safety invariants").
//!
//! The crate is `syn`-free by design: the workspace builds fully
//! offline, so the lexer in [`lexer`] implements exactly the slice of
//! Rust the lock reads, and [`model`] extracts struct fields, the impl
//! owners of `write_state`/`read_state`, and `snapshot!` sites from it.
//!
//! # Examples
//!
//! ```
//! use powadapt_lint::abi::{check, AbiStatus};
//!
//! let lock = "format_version = 5\nhash = 0x1\n";
//! assert_eq!(check(lock, Some(lock)), AbiStatus::Clean);
//! let drifted = "format_version = 5\nhash = 0x2\n";
//! assert_eq!(check(drifted, Some(lock)), AbiStatus::ChangedWithoutBump);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, reason = "tests assert on exact expected values")
)]

pub mod abi;
pub mod lexer;
pub mod model;

use std::fs;
use std::path::{Path, PathBuf};

/// Directories under the workspace root that are scanned for `.rs` files.
const SCAN_ROOTS: &[&str] = &["crates", "src", "examples", "tests"];

/// Paths (workspace-relative prefixes) that are never scanned: vendored
/// third-party stand-ins and build output.
const SKIP_PREFIXES: &[&str] = &["vendor/", "target/"];

/// Collects every scannable `.rs` file under `root`, workspace-relative,
/// sorted so the model's file indices are deterministic.
fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
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
fn path_str(p: &Path) -> String {
    p.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Computes the canonical `crates/snap/ABI.lock` text for the workspace
/// at `root`: reads every scannable source, builds the symbol
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
    let lexed: Vec<Vec<lexer::Tok>> = sources.iter().map(|(_, src)| lexer::lex(src)).collect();
    let slices: Vec<&[lexer::Tok]> = lexed.iter().map(Vec::as_slice).collect();
    let model = model::Model::build(&slices);
    let ctxs: Vec<abi::FileCtx<'_>> = sources
        .iter()
        .zip(&slices)
        .map(|((path, _), toks)| abi::FileCtx { path, toks })
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
