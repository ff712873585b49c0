//! SARIF 2.1.0 output (`--format sarif`).
//!
//! Hand-rolled like the JSON report in [`crate::diag`] — the workspace
//! builds offline, so no serde. The document carries one run with the
//! full rule table (so viewers can show titles/help without the source)
//! and one `result` per active diagnostic, which is what GitHub code
//! scanning needs to annotate PR diffs.

use crate::diag::{json_escape, Report, RuleId};

const SCHEMA: &str =
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json";

/// Serializes the report as a SARIF 2.1.0 document.
pub fn to_sarif(report: &Report) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"$schema\": \"{SCHEMA}\",\n"));
    s.push_str("  \"version\": \"2.1.0\",\n");
    s.push_str("  \"runs\": [\n");
    s.push_str("    {\n");
    s.push_str("      \"tool\": {\n");
    s.push_str("        \"driver\": {\n");
    s.push_str("          \"name\": \"powadapt-lint\",\n");
    s.push_str("          \"informationUri\": \"DESIGN.md\",\n");
    s.push_str("          \"rules\": [\n");
    for (i, rule) in RuleId::ALL.iter().enumerate() {
        s.push_str(&format!(
            "            {{\"id\": \"{id}\", \"shortDescription\": {{\"text\": \"{title}\"}}, \
             \"help\": {{\"text\": \"{help}\"}}}}{comma}\n",
            id = rule,
            title = json_escape(rule.title()),
            help = json_escape(rule.help()),
            comma = if i + 1 == RuleId::ALL.len() { "" } else { "," },
        ));
    }
    s.push_str("          ]\n");
    s.push_str("        }\n");
    s.push_str("      },\n");
    s.push_str("      \"results\": [\n");
    for (i, d) in report.diagnostics.iter().enumerate() {
        s.push_str(&format!(
            "        {{\"ruleId\": \"{rule}\", \"level\": \"error\", \
             \"message\": {{\"text\": \"{msg}\"}}, \"locations\": [{{\
             \"physicalLocation\": {{\"artifactLocation\": {{\"uri\": \"{uri}\"}}, \
             \"region\": {{\"startLine\": {line}, \"startColumn\": {col}}}}}}}]}}{comma}\n",
            rule = d.rule,
            msg = json_escape(&d.message),
            uri = json_escape(&d.path),
            line = d.line,
            col = d.col,
            comma = if i + 1 == report.diagnostics.len() {
                ""
            } else {
                ","
            },
        ));
    }
    s.push_str("      ]\n");
    s.push_str("    }\n");
    s.push_str("  ]\n");
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Diagnostic;

    #[test]
    fn sarif_envelope_and_result_shape() {
        let report = Report {
            root: "/ws".into(),
            files_scanned: 1,
            diagnostics: vec![Diagnostic {
                rule: RuleId::D4,
                path: "crates/sim/src/rng.rs".into(),
                line: 12,
                col: 12,
                message: "public API takes `cap_watts: f64`".into(),
                snippet: "pub fn cap(cap_watts: f64) {}".into(),
                span_len: 7,
            }],
            suppressions_used: vec![],
        };
        let sarif = to_sarif(&report);
        assert!(sarif.contains("\"version\": \"2.1.0\""));
        assert!(sarif.contains("sarif-schema-2.1.0.json"));
        assert!(sarif.contains("\"name\": \"powadapt-lint\""));
        assert!(sarif.contains("\"ruleId\": \"D4\""));
        assert!(sarif.contains("\"startLine\": 12"));
        assert!(sarif.contains("\"uri\": \"crates/sim/src/rng.rs\""));
        // Every rule is described in the driver table.
        for rule in RuleId::ALL {
            assert!(sarif.contains(&format!("\"id\": \"{rule}\"")));
        }
    }

    #[test]
    fn empty_report_is_valid() {
        let report = Report {
            root: "/ws".into(),
            files_scanned: 0,
            diagnostics: vec![],
            suppressions_used: vec![],
        };
        let sarif = to_sarif(&report);
        assert!(sarif.contains("\"results\": [\n      ]"));
    }
}
