//! Cross-file behavior of the two-pass analyzer: the symbol model spans
//! files, rules see it whole, and suppressions stay keyed to the file
//! that declares them. Plus the snapshot-ABI lock lifecycle end to end
//! against a real (temporary) workspace tree.

#![allow(clippy::unwrap_used, reason = "tests assert on exact expected values")]

use std::path::PathBuf;

use powadapt_lint::{abi, analyze_files, compute_abi_lock, AnalysisMode};

fn files(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(p, s)| ((*p).to_string(), (*s).to_string()))
        .collect()
}

#[test]
fn d9_propagates_one_level_across_files() {
    let analysis = analyze_files(
        &files(&[
            (
                "crates/sim/src/queue.rs",
                "impl Queue {\n\
                 // powadapt-lint: hot\n\
                 fn pop(&mut self) { Arena::refill(); }\n\
                 }\n",
            ),
            (
                "crates/sim/src/slab.rs",
                "impl Arena {\n    fn refill() { let v = Vec::new(); }\n}\n",
            ),
        ]),
        AnalysisMode::Scoped,
    );
    let d9: Vec<_> = analysis
        .diagnostics
        .iter()
        .filter(|d| d.rule.as_str() == "D9")
        .collect();
    assert_eq!(d9.len(), 1, "{:?}", analysis.diagnostics);
    // The finding sits at the call site in queue.rs but names the
    // allocating callee's own file.
    assert_eq!(d9[0].path, "crates/sim/src/queue.rs");
    assert!(d9[0].message.contains("crates/sim/src/slab.rs"));
    assert!(d9[0].message.contains("`refill`"));
}

#[test]
fn suppressions_are_keyed_per_file() {
    // Identical D4 violations in two files of one crate; only the file
    // that carries the allow is excused, and an allow that matches
    // nothing in ITS file is S1 even though the same rule fired (and was
    // suppressed) elsewhere in the workspace.
    let analysis = analyze_files(
        &files(&[
            (
                "crates/model/src/a.rs",
                "// powadapt-lint: allow(D4, reason = \"config-file boundary\")\n\
                 pub fn cap(cap_watts: f64) {}\n",
            ),
            ("crates/model/src/b.rs", "pub fn cap(cap_watts: f64) {}\n"),
            (
                "crates/model/src/c.rs",
                "// powadapt-lint: allow(D4, reason = \"nothing here matches\")\n\
                 fn quiet() {}\n",
            ),
        ]),
        AnalysisMode::Scoped,
    );
    let rules_by_path: Vec<(&str, &str)> = analysis
        .diagnostics
        .iter()
        .map(|d| (d.path.as_str(), d.rule.as_str()))
        .collect();
    assert_eq!(
        rules_by_path,
        [
            ("crates/model/src/b.rs", "D4"),
            ("crates/model/src/c.rs", "S1"),
        ],
        "{:?}",
        analysis.diagnostics
    );
    assert_eq!(analysis.suppressions_used.len(), 1);
    assert_eq!(analysis.suppressions_used[0].path, "crates/model/src/a.rs");
}

/// Builds a throwaway workspace on disk for the ABI-lock lifecycle.
struct TempWs {
    root: PathBuf,
}

impl TempWs {
    fn new(name: &str, snap_lib: &str) -> Self {
        let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("crates/snap/src")).unwrap();
        std::fs::write(root.join("Cargo.toml"), "[workspace]\n").unwrap();
        std::fs::write(root.join("crates/snap/src/lib.rs"), snap_lib).unwrap();
        TempWs { root }
    }
}

impl Drop for TempWs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

const SNAP_V2: &str = "pub const FORMAT_VERSION: u32 = 2;\n\
    pub struct SimRng { s0: u64, s1: u64 }\n\
    impl Snapshot for SimRng {\n\
    fn write_state(&self, w: &mut W) { w.u64(self.s0); w.u64(self.s1); }\n\
    fn read_state(&mut self, r: &mut R) { self.s0 = r.u64(); self.s1 = r.u64(); }\n\
    }\n";

#[test]
fn abi_lock_lifecycle_catches_unbumped_field_changes() {
    let ws = TempWs::new("abi_ws", SNAP_V2);

    // Fresh workspace: no lock yet.
    let current = compute_abi_lock(&ws.root).unwrap();
    assert!(current.contains("format_version = 2"));
    assert!(current.contains("snap/SimRng: s0, s1"));
    assert_eq!(abi::check(&current, None), abi::AbiStatus::Missing);

    // `--abi-update` writes the lock; the very next check is clean.
    let lock_path = ws.root.join(abi::LOCK_PATH);
    std::fs::create_dir_all(lock_path.parent().unwrap()).unwrap();
    std::fs::write(&lock_path, &current).unwrap();
    let on_disk = std::fs::read_to_string(&lock_path).unwrap();
    assert_eq!(
        abi::check(&compute_abi_lock(&ws.root).unwrap(), Some(&on_disk)),
        abi::AbiStatus::Clean
    );

    // Grow the struct without touching FORMAT_VERSION: hard failure.
    std::fs::write(
        ws.root.join("crates/snap/src/lib.rs"),
        SNAP_V2.replace("s1: u64 }", "s1: u64, s2: u64 }"),
    )
    .unwrap();
    assert_eq!(
        abi::check(&compute_abi_lock(&ws.root).unwrap(), Some(&on_disk)),
        abi::AbiStatus::ChangedWithoutBump
    );

    // Same change WITH a version bump: stale, i.e. "regenerate", not a
    // layout bug.
    std::fs::write(
        ws.root.join("crates/snap/src/lib.rs"),
        SNAP_V2
            .replace("s1: u64 }", "s1: u64, s2: u64 }")
            .replace("FORMAT_VERSION: u32 = 2", "FORMAT_VERSION: u32 = 3"),
    )
    .unwrap();
    assert_eq!(
        abi::check(&compute_abi_lock(&ws.root).unwrap(), Some(&on_disk)),
        abi::AbiStatus::Stale
    );
}
