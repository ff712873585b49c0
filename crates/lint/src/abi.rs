//! Snapshot ABI lock: a committed fingerprint of the byte layout of
//! every `Snapshot`-implementing struct.
//!
//! A payload-layout change that ships without a `FORMAT_VERSION` bump
//! makes old checkpoints mis-decode instead of being rejected. This
//! module catches it: `powadapt-lint --abi-update` derives the layout of
//! all snapshot-active structs from the symbol [`Model`] and writes it
//! (plus an FNV-1a fingerprint and the current `FORMAT_VERSION`) into
//! `crates/snap/ABI.lock`; `--abi-check` recomputes and fails CI when
//! the ABI drifted while `FORMAT_VERSION` stayed put.
//!
//! A `snapshot!` field list is the byte order, so a struct declared by
//! one is fingerprinted by its entries — name and mode, in list order.
//! Its `skip` fields write no bytes and are left out: adding a derived
//! index is not an ABI change, reordering the list is. A struct with
//! hand-written `write_state`/`read_state` is fingerprinted by its
//! declared fields.
//!
//! The lock file is intentionally human-diffable: the struct inventory
//! is spelled out line by line, so the PR diff *is* the ABI review.

use std::collections::BTreeMap;

use crate::lexer::{lex, Tok, TokKind};
use crate::model::Model;

/// One analyzed file: its workspace-relative path and token stream,
/// indexed like the [`Model`] built over the same file list.
#[derive(Debug, Clone, Copy)]
pub struct FileCtx<'a> {
    /// Workspace-relative path.
    pub path: &'a str,
    /// The file's token stream.
    pub toks: &'a [Tok],
}

/// Workspace-relative path of the lock file.
pub const LOCK_PATH: &str = "crates/snap/ABI.lock";

/// Workspace-relative path of the file declaring `FORMAT_VERSION`.
pub const VERSION_PATH: &str = "crates/snap/src/lib.rs";

/// FNV-1a 64, the lock's fingerprint. The analyzer keeps zero
/// dependencies, so it carries its own copy.
fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Extracts `FORMAT_VERSION` from `crates/snap/src/lib.rs` source text
/// at token level (`const FORMAT_VERSION : u32 = <int> ;`).
pub fn parse_format_version(snap_lib_src: &str) -> Option<u32> {
    let toks = lex(snap_lib_src);
    for i in 0..toks.len() {
        if toks[i].text == "FORMAT_VERSION" && toks[i].kind == TokKind::Ident {
            for t in toks.iter().skip(i + 1).take(8) {
                if t.kind == TokKind::Int {
                    return t.text.parse().ok();
                }
                if t.text == ";" {
                    break;
                }
            }
        }
    }
    None
}

/// The canonical lock-file text for the given model: a header, the
/// format version, the fingerprint, then one line per snapshot-active
/// struct (`crate/Struct: entry, entry, ...`), sorted. Entries are the
/// `snapshot!` list (`name` or `name: mode`) when the struct has one,
/// else its declared field names.
pub fn lock_text(model: &Model, files: &[FileCtx<'_>], format_version: u32) -> String {
    let crate_key = |path: &str| -> String {
        path.strip_prefix("crates/")
            .and_then(|rest| rest.split('/').next())
            .unwrap_or("")
            .to_string()
    };
    // Snapshot-active: a `snapshot!` site names the struct, or some
    // impl-owned write_state/read_state fn exists for it, in the same
    // crate. The value is the site's field list, if it has one.
    let mut active: BTreeMap<(String, String), Option<Vec<String>>> = BTreeMap::new();
    for f in &model.fns {
        if f.name != "write_state" && f.name != "read_state" {
            continue;
        }
        if let Some(owner) = &f.owner {
            active
                .entry((crate_key(files[f.file].path), owner.clone()))
                .or_default();
        }
    }
    for site in &model.snapshots {
        let toks = files[site.file].toks;
        if let Some(ty) = site.snapshot_type(toks) {
            let key = (crate_key(files[site.file].path), ty.to_string());
            *active.entry(key).or_default() = site.snapshot_entries(toks);
        }
    }
    let mut entries: Vec<String> = Vec::new();
    for s in &model.structs {
        let key = (crate_key(files[s.file].path), s.name.clone());
        let Some(list) = active.get(&key) else {
            continue;
        };
        let fields = list.as_ref().unwrap_or(&s.fields);
        entries.push(format!("{}/{}: {}", key.0, key.1, fields.join(", ")));
    }
    entries.sort();
    entries.dedup();

    let mut inventory = String::new();
    for e in &entries {
        inventory.push_str(e);
        inventory.push('\n');
    }
    let hash = fnv1a_64(inventory.as_bytes());
    format!(
        "# powadapt snapshot ABI lock — generated by `powadapt-lint --abi-update`.\n\
         # Changing any Snapshot struct's byte layout (a snapshot! list's entries,\n\
         # modes or order; a hand-written codec's fields) changes the hash; CI\n\
         # requires a FORMAT_VERSION bump (crates/snap/src/lib.rs) to ride along.\n\
         format_version = {format_version}\n\
         hash = {hash:#018x}\n\
         \n\
         {inventory}"
    )
}

/// One parsed lock file: the recorded version and fingerprint.
#[derive(Debug, PartialEq, Eq)]
pub struct Lock {
    /// `format_version = N` as recorded.
    pub format_version: u32,
    /// `hash = 0x...` as recorded.
    pub hash: u64,
}

/// Parses the two key lines out of a lock file's text.
pub fn parse_lock(text: &str) -> Option<Lock> {
    let mut format_version = None;
    let mut hash = None;
    for line in text.lines() {
        if let Some(v) = line.strip_prefix("format_version = ") {
            format_version = v.trim().parse().ok();
        } else if let Some(v) = line.strip_prefix("hash = ") {
            hash = u64::from_str_radix(v.trim().trim_start_matches("0x"), 16).ok();
        }
    }
    Some(Lock {
        format_version: format_version?,
        hash: hash?,
    })
}

/// Outcome of `--abi-check`.
#[derive(Debug, PartialEq, Eq)]
pub enum AbiStatus {
    /// Lock matches the current ABI and version.
    Clean,
    /// The ABI fingerprint changed but `FORMAT_VERSION` did not — the PR
    /// 7 bug class, and a hard CI failure.
    ChangedWithoutBump,
    /// Lock is stale (version bumped, or lock predates an ABI change
    /// that *did* bump) — regenerate with `--abi-update`.
    Stale,
    /// Lock file missing or unparseable.
    Missing,
}

/// Compares the freshly computed lock text against the on-disk one.
pub fn check(current: &str, on_disk: Option<&str>) -> AbiStatus {
    let Some(disk) = on_disk else {
        return AbiStatus::Missing;
    };
    if current == disk {
        return AbiStatus::Clean;
    }
    let (Some(cur), Some(old)) = (parse_lock(current), parse_lock(disk)) else {
        return AbiStatus::Missing;
    };
    if cur.hash != old.hash && cur.format_version == old.format_version {
        AbiStatus::ChangedWithoutBump
    } else {
        AbiStatus::Stale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lock_for(srcs: &[(&str, &str)], fv: u32) -> String {
        let lexed: Vec<_> = srcs.iter().map(|(_, s)| lex(s)).collect();
        let slices: Vec<&[Tok]> = lexed.iter().map(Vec::as_slice).collect();
        let model = Model::build(&slices);
        let ctxs: Vec<FileCtx<'_>> = srcs
            .iter()
            .zip(&slices)
            .map(|((p, _), toks)| FileCtx { path: p, toks })
            .collect();
        lock_text(&model, &ctxs, fv)
    }

    const BASE: &str = "struct SimRng { s0: u64, s1: u64 }\n\
        impl Snapshot for SimRng { fn write_state(&self, w: &mut W) { w.u64(self.s0); w.u64(self.s1); } }\n";

    const METER: &str = "struct Meter { window: u64, samples: Vec<f64>, label: &'static str }\n\
        struct Other { x: u64 }\n\
        powadapt_snap::snapshot! {\n    Meter { window, samples: seq }\n    \
        skip { label: \"telemetry label\" }\n}\n";

    #[test]
    fn lock_lists_snapshot_structs_with_fields() {
        let text = lock_for(&[("crates/sim/src/rng.rs", BASE)], 2);
        assert!(text.contains("format_version = 2"));
        assert!(text.contains("sim/SimRng: s0, s1"));
        assert!(parse_lock(&text).is_some());
    }

    #[test]
    fn macro_declared_struct_is_snapshot_active() {
        let text = lock_for(&[("crates/obs/src/meter.rs", METER)], 4);
        assert!(text.contains("obs/Meter: window, samples: seq\n"), "{text}");
        assert!(!text.contains("Other"));
        let grown = METER
            .replace("label: &'static str", "label: &'static str, peak: u64")
            .replace("samples: seq }", "samples: seq, peak }");
        let new = lock_for(&[("crates/obs/src/meter.rs", &grown)], 4);
        assert_eq!(check(&new, Some(&text)), AbiStatus::ChangedWithoutBump);
    }

    #[test]
    fn list_reorder_or_mode_change_without_bump_is_flagged() {
        let old = lock_for(&[("crates/obs/src/meter.rs", METER)], 4);
        let swapped = METER.replace("window, samples: seq", "samples: seq, window");
        let new = lock_for(&[("crates/obs/src/meter.rs", &swapped)], 4);
        assert_eq!(check(&new, Some(&old)), AbiStatus::ChangedWithoutBump);
        let remoded = METER.replace("samples: seq", "samples");
        let new = lock_for(&[("crates/obs/src/meter.rs", &remoded)], 4);
        assert_eq!(check(&new, Some(&old)), AbiStatus::ChangedWithoutBump);
    }

    #[test]
    fn new_skip_entry_is_clean() {
        let old = lock_for(&[("crates/obs/src/meter.rs", METER)], 4);
        let skipped = METER
            .replace(
                "label: &'static str",
                "label: &'static str, index: Vec<u64>",
            )
            .replace(
                "label: \"telemetry label\"",
                "label: \"telemetry label\", index: \"derived\"",
            );
        let new = lock_for(&[("crates/obs/src/meter.rs", &skipped)], 4);
        assert_eq!(check(&new, Some(&old)), AbiStatus::Clean);
    }

    #[test]
    fn field_change_without_bump_is_flagged() {
        let old = lock_for(&[("crates/sim/src/rng.rs", BASE)], 2);
        let changed = BASE.replace("s1: u64", "s1: u64, extra: u64");
        let new = lock_for(&[("crates/sim/src/rng.rs", &changed)], 2);
        assert_eq!(check(&new, Some(&old)), AbiStatus::ChangedWithoutBump);
    }

    #[test]
    fn field_change_with_bump_is_stale_not_hard_fail() {
        let old = lock_for(&[("crates/sim/src/rng.rs", BASE)], 2);
        let changed = BASE.replace("s1: u64", "s1: u64, extra: u64");
        let new = lock_for(&[("crates/sim/src/rng.rs", &changed)], 3);
        assert_eq!(check(&new, Some(&old)), AbiStatus::Stale);
        assert_eq!(check(&new, None), AbiStatus::Missing);
        assert_eq!(check(&new, Some(&new)), AbiStatus::Clean);
    }

    #[test]
    fn parses_format_version_from_source() {
        assert_eq!(
            parse_format_version("/// docs\npub const FORMAT_VERSION: u32 = 7;\n"),
            Some(7)
        );
        assert_eq!(parse_format_version("fn main() {}\n"), None);
    }
}
