//! The snapshot ABI lock end to end: the committed `crates/snap/ABI.lock`
//! matches this workspace, and the check/update lifecycle catches an
//! unbumped layout change in a real (temporary) workspace tree.

#![allow(clippy::unwrap_used, reason = "tests assert on exact expected values")]

use std::path::{Path, PathBuf};

use powadapt_lint::{abi, compute_abi_lock, find_workspace_root};

/// The self-hosting check: `cargo test` fails the moment a snapshot
/// struct's layout changes without `ABI.lock` (and, for a real layout
/// change, `FORMAT_VERSION`) moving with it.
#[test]
fn committed_lock_matches_the_workspace() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above crates/lint");
    let committed = std::fs::read_to_string(root.join(abi::LOCK_PATH)).unwrap();
    let current = compute_abi_lock(&root).unwrap();
    assert!(
        current == committed,
        "{:?}: {} does not match the workspace; bump FORMAT_VERSION in {} \
         if the layout changed, then run `cargo run -p powadapt-lint -- --abi-update`",
        abi::check(&current, Some(&committed)),
        abi::LOCK_PATH,
        abi::VERSION_PATH,
    );
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
