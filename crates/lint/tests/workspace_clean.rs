//! The workspace itself must pass its own analyzer.
//!
//! This is the self-hosting check: `cargo test -p powadapt-lint` fails
//! the moment anyone reintroduces a raw-`f64` unit parameter, a
//! mixed-unit expression, an unregistered event kind, or an allocation
//! in a `hot` function — without needing the CI lint job to run.

#![allow(
    clippy::unwrap_used,
    clippy::float_cmp,
    reason = "tests assert on exact expected values"
)]

use std::path::Path;

use powadapt_lint::{analyze_workspace, find_workspace_root};

#[test]
fn workspace_has_zero_diagnostics() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above crates/lint");
    let report = analyze_workspace(&root).expect("workspace readable");

    assert!(
        report.diagnostics.is_empty(),
        "workspace lint is not clean:\n{}",
        report
            .diagnostics
            .iter()
            .map(powadapt_lint::Diagnostic::render)
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Sanity that the walk actually visited the workspace (a wrong root
    // would vacuously pass with zero files).
    assert!(
        report.files_scanned > 50,
        "only {} files scanned — wrong root?",
        report.files_scanned
    );
    // Every suppression in the tree fired (S1 enforces the converse).
    assert!(
        !report.suppressions_used.is_empty(),
        "expected the documented allows (e.g. the hot-path D9 ones) to be in use"
    );
    // The report serializes: spot-check the JSON envelope.
    let json = report.to_json();
    assert!(json.contains("\"files_scanned\""));
    assert!(json.contains("\"suppressions_used\""));
}

/// The telemetry layer added with the observability overhaul — the
/// quantile sketch, the interner, the energy ledger, and the overhead
/// bench — is scanned like any other source, and each file is
/// individually clean. Guards against these modules silently dropping
/// out of the walk (a path typo in the scan roots would do it) and against
/// new diagnostics hiding behind the workspace-level aggregate.
#[test]
fn telemetry_modules_are_scanned_and_clean() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above crates/lint");
    for rel in [
        "crates/obs/src/sketch.rs",
        "crates/obs/src/intern.rs",
        "crates/cluster/src/ledger.rs",
        "crates/bench/src/bin/obs_bench.rs",
        "crates/bench/src/bin/trace_query.rs",
    ] {
        let path = root.join(rel);
        let src = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("telemetry module {rel} missing: {e}"));
        let analysis =
            powadapt_lint::analyze_source(rel, &src, powadapt_lint::AnalysisMode::Scoped);
        assert!(
            analysis.diagnostics.is_empty(),
            "{rel} is not lint-clean:\n{}",
            analysis
                .diagnostics
                .iter()
                .map(powadapt_lint::Diagnostic::render)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
