//! The workspace itself must pass its own analyzer.
//!
//! This is the self-hosting check: `cargo test -p powadapt-lint` fails
//! the moment anyone reintroduces a wall-clock read, a `HashMap` in a
//! result path, a NaN-unsafe sort, a raw-`f64` unit parameter, or an
//! unreasoned panic — without needing the CI lint job to run.

// Tests and examples assert on exact expected values; unwraps and
// bit-exact float comparisons are deliberate here (see workspace lints).
#![allow(clippy::unwrap_used, clippy::float_cmp)]

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
        "expected the documented allows (e.g. parallel executor D1) to be in use"
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
/// out of the walk (a path typo in an allowlist would do it) and against
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

/// The D1 (wall-clock) allowlist entry for the overhead bench is scoped
/// to exactly that file: obs_bench may read `Instant` (host time is its
/// measurand), every other telemetry file may not.
#[test]
fn obs_bench_wall_clock_allowlist_is_file_scoped() {
    use powadapt_lint::diag::RuleId;
    use powadapt_lint::scope::rule_applies;

    assert!(!rule_applies(
        RuleId::D1,
        "crates/bench/src/bin/obs_bench.rs"
    ));
    // The exemption must not leak to neighbors in the same directory,
    // nor to the modules whose overhead the bench measures.
    for rel in [
        "crates/bench/src/bin/trace_query.rs",
        "crates/obs/src/sketch.rs",
        "crates/obs/src/intern.rs",
        "crates/cluster/src/ledger.rs",
    ] {
        assert!(rule_applies(RuleId::D1, rel), "D1 must apply to {rel}");
    }
}
