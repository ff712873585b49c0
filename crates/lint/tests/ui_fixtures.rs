//! UI fixture self-tests.
//!
//! Every file under `fixtures/ui/` is a bad snippet annotated with the
//! diagnostics it must produce: a trailing `//~ R1 [R2 ...]` expects
//! those rules on its own line, a standalone `//~v R1 [R2 ...]` expects
//! them on the next line (used when the diagnostic anchors on a comment,
//! as S0/S1 do). Each fixture must match its annotations *exactly* —
//! no missing and no extra diagnostics — both through the library API
//! and through the installed binary's exit code. Files under
//! `fixtures/ok/` must produce zero diagnostics even with every rule
//! enabled.

#![allow(
    clippy::unwrap_used,
    clippy::float_cmp,
    reason = "tests assert on exact expected values"
)]

use std::path::{Path, PathBuf};
use std::process::Command;

use powadapt_lint::{analyze_source, AnalysisMode};

fn fixture_dir(kind: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(kind)
}

fn fixture_files(kind: &str) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(fixture_dir(kind))
        .expect("fixture dir exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no fixtures found under fixtures/{kind}");
    files
}

/// Parses `//~` annotations into a sorted list of `(line, rule)` pairs.
fn expectations(src: &str) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for (idx, line) in src.lines().enumerate() {
        let lineno = idx as u32 + 1;
        let Some(pos) = line.find("//~") else {
            continue;
        };
        let rest = &line[pos + 3..];
        let (target, rules) = match rest.strip_prefix('v') {
            Some(r) => (lineno + 1, r),
            None => (lineno, rest),
        };
        for rule in rules.split_whitespace() {
            out.push((target, rule.to_string()));
        }
    }
    out.sort();
    out
}

#[test]
fn every_ui_fixture_matches_its_annotations_exactly() {
    for path in fixture_files("ui") {
        let src = std::fs::read_to_string(&path).expect("fixture readable");
        let expected = expectations(&src);
        assert!(
            !expected.is_empty(),
            "{}: ui fixture has no //~ annotations",
            path.display()
        );

        let analysis = analyze_source(
            &path.file_name().unwrap().to_string_lossy(),
            &src,
            AnalysisMode::AllRules,
        );
        let mut actual: Vec<(u32, String)> = analysis
            .diagnostics
            .iter()
            .map(|d| (d.line, d.rule.as_str().to_string()))
            .collect();
        actual.sort();
        assert_eq!(
            actual,
            expected,
            "{}: diagnostics (left) do not match //~ annotations (right)",
            path.display()
        );

        // Span sanity: every diagnostic points inside its line and
        // renders with its rule id.
        let lines: Vec<&str> = src.lines().collect();
        for d in &analysis.diagnostics {
            let line = lines[d.line as usize - 1];
            assert!(
                d.col >= 1 && (d.col as usize - 1) <= line.chars().count(),
                "{}: col {} outside line {}",
                path.display(),
                d.col,
                d.line
            );
            assert!(d.span_len >= 1);
            let rendered = d.render();
            assert!(rendered.contains(&format!("error[{}]", d.rule.as_str())));
            assert!(rendered.contains(&format!(":{}:{}", d.line, d.col)));
        }
    }
}

#[test]
fn ui_fixture_spans_underline_the_offending_token() {
    // Spot-check that columns land on the construct the rule names.
    let cases: &[(&str, &str, &str)] = &[("d4_unit_newtypes.rs", "D4", "true_power_watts")];
    for (file, rule, token) in cases {
        let path = fixture_dir("ui").join(file);
        let src = std::fs::read_to_string(&path).expect("fixture readable");
        let analysis = analyze_source(file, &src, AnalysisMode::AllRules);
        let first = analysis
            .diagnostics
            .iter()
            .find(|d| d.rule.as_str() == *rule)
            .unwrap_or_else(|| panic!("{file}: no {rule} diagnostic"));
        let line = src.lines().nth(first.line as usize - 1).expect("line");
        let at_span: String = line.chars().skip(first.col as usize - 1).collect();
        assert!(
            at_span.starts_with(token),
            "{file}: {rule} span at {}:{} points at {at_span:?}, expected {token:?}",
            first.line,
            first.col
        );
    }
}

#[test]
fn ok_fixtures_are_clean_under_all_rules() {
    for path in fixture_files("ok") {
        let src = std::fs::read_to_string(&path).expect("fixture readable");
        let analysis = analyze_source(
            &path.file_name().unwrap().to_string_lossy(),
            &src,
            AnalysisMode::AllRules,
        );
        assert!(
            analysis.diagnostics.is_empty(),
            "{}: expected clean, got:\n{}",
            path.display(),
            analysis
                .diagnostics
                .iter()
                .map(powadapt_lint::Diagnostic::render)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
    // The suppressed fixture must actually exercise the audit trail.
    let src = std::fs::read_to_string(fixture_dir("ok").join("suppressed.rs")).expect("readable");
    let analysis = analyze_source("suppressed.rs", &src, AnalysisMode::AllRules);
    assert!(
        analysis.suppressions_used.len() >= 4,
        "expected every allow in suppressed.rs to fire, got {}",
        analysis.suppressions_used.len()
    );
}

#[test]
fn binary_exits_nonzero_on_every_ui_fixture_and_zero_on_ok() {
    let bin = env!("CARGO_BIN_EXE_powadapt-lint");
    for path in fixture_files("ui") {
        let status = Command::new(bin)
            .args(["--all-rules", "--quiet"])
            .arg(&path)
            .status()
            .expect("binary runs");
        assert_eq!(
            status.code(),
            Some(1),
            "{}: expected exit 1 (diagnostics found)",
            path.display()
        );
    }
    for path in fixture_files("ok") {
        let status = Command::new(bin)
            .args(["--all-rules", "--quiet"])
            .arg(&path)
            .status()
            .expect("binary runs");
        assert_eq!(
            status.code(),
            Some(0),
            "{}: expected exit 0 (clean)",
            path.display()
        );
    }
}

#[test]
fn suppression_fixture_messages_name_the_defect() {
    // Satellite: the three suppression-hygiene failure modes carry
    // actionable messages end to end, not just the right rule id.
    let read = |name: &str| {
        let src = std::fs::read_to_string(fixture_dir("ui").join(name)).expect("readable");
        analyze_source(name, &src, AnalysisMode::AllRules)
    };

    let missing = read("suppress_missing_reason.rs");
    let s0 = missing
        .diagnostics
        .iter()
        .find(|d| d.rule.as_str() == "S0")
        .expect("S0 present");
    assert!(s0.message.contains("reason"), "got: {}", s0.message);

    let unknown = read("suppress_unknown_rule.rs");
    let s0 = unknown
        .diagnostics
        .iter()
        .find(|d| d.rule.as_str() == "S0")
        .expect("S0 present");
    assert!(
        s0.message.contains("unknown rule `D2`"),
        "got: {}",
        s0.message
    );

    let unused = read("suppress_unused.rs");
    let s1 = unused
        .diagnostics
        .iter()
        .find(|d| d.rule.as_str() == "S1")
        .expect("S1 present");
    assert!(s1.message.contains("nothing"), "got: {}", s1.message);
}
