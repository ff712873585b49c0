//! Diagnostics: rule identifiers, findings, rustc-style rendering, and the
//! machine-readable JSON report.
//!
//! JSON is hand-rolled (the workspace builds offline, so no `serde`), in
//! the same exact-escaping style as the golden-figure fixtures in
//! `powadapt-bench`.

use std::fmt;

/// Identifier of an analyzer rule.
///
/// `D4` is the per-file token rule, `D7` the cross-file semantic rule
/// over the pass-1 symbol model; `S0`/`S1` police the suppression
/// mechanism itself so the escape hatch cannot rot. The ids keep their
/// historical numbers: D1-D3 and D5 moved to clippy (`clippy.toml`), D6
/// left with the hand-written snapshot codecs, D8 and D9 became rustc
/// checks and runtime tests, and a reused number would silently change
/// what an old suppression comment means.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// Raw `f64` where a unit newtype is required in a public API.
    D4,
    /// Unit-dimension flow: no mixed-unit arithmetic outside the
    /// declared conversions in `units.rs`.
    D7,
    /// Malformed suppression comment (missing reason, unknown rule, bad
    /// syntax).
    S0,
    /// Suppression comment that suppressed nothing.
    S1,
}

impl RuleId {
    /// Every rule, in report order.
    pub const ALL: [RuleId; 4] = [RuleId::D4, RuleId::D7, RuleId::S0, RuleId::S1];

    /// The identifier as written in suppressions and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::D4 => "D4",
            RuleId::D7 => "D7",
            RuleId::S0 => "S0",
            RuleId::S1 => "S1",
        }
    }

    /// Parses a rule name as written in an `allow(...)` suppression.
    /// Only the domain rules are suppressible; `S0`/`S1` are not (a
    /// suppression that suppresses the suppression checker defeats it).
    /// Lowercase ids (`d7`) are accepted — there is no ambiguity.
    pub fn parse_suppressible(name: &str) -> Option<RuleId> {
        match name {
            "D4" | "d4" => Some(RuleId::D4),
            "D7" | "d7" => Some(RuleId::D7),
            _ => None,
        }
    }

    /// One-line summary used in reports and docs.
    pub fn title(self) -> &'static str {
        match self {
            RuleId::D4 => "unit quantities in public APIs must use typed newtypes",
            RuleId::D7 => "unit newtypes must not mix dimensions",
            RuleId::S0 => "malformed powadapt-lint suppression",
            RuleId::S1 => "unused powadapt-lint suppression",
        }
    }

    /// The `help:` line rendered under a diagnostic.
    pub fn help(self) -> &'static str {
        match self {
            RuleId::D4 => {
                "wrap the value in its unit newtype (powadapt_sim::units::\
                 {Watts, Joules, Micros, Millis}) instead of a raw f64"
            }
            RuleId::D7 => {
                "convert through the declared unit operations in \
                 powadapt_sim::units (as_millis/as_micros, Watts * duration, \
                 Joules / duration) instead of mixing raw .get() values"
            }
            RuleId::S0 => {
                "write `// powadapt-lint: allow(D<n>, reason = \"...\")` \
                 with a non-empty reason and a known rule id"
            }
            RuleId::S1 => {
                "remove the suppression: nothing on its target line \
                 triggers the allowed rule(s)"
            }
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding: a rule violation at a source location.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The violated rule.
    pub rule: RuleId,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line of the finding.
    pub line: u32,
    /// 1-based column of the finding.
    pub col: u32,
    /// Human message specific to this finding.
    pub message: String,
    /// The source line the finding sits on, for rendering.
    pub snippet: String,
    /// Length in characters of the underlined span.
    pub span_len: u32,
}

impl Diagnostic {
    /// Renders in rustc's error format, with the offending line and a
    /// caret span, followed by the rule's help text.
    pub fn render(&self) -> String {
        let gutter = self.line.to_string();
        let pad = " ".repeat(gutter.len());
        let mut carets = "^".repeat(self.span_len.max(1) as usize);
        if self.snippet.is_empty() {
            carets.clear();
        }
        let underline_pad = " ".repeat(self.col.saturating_sub(1) as usize);
        format!(
            "error[{rule}]: {msg}\n\
             {pad} --> {path}:{line}:{col}\n\
             {pad}  |\n\
             {gutter}  | {snippet}\n\
             {pad}  | {underline_pad}{carets}\n\
             {pad}  = help: {help}\n",
            rule = self.rule,
            msg = self.message,
            path = self.path,
            line = self.line,
            col = self.col,
            snippet = self.snippet,
            help = self.rule.help(),
        )
    }
}

/// A suppression that matched at least one finding, recorded in the JSON
/// report so reviewers can audit the allowlist without grepping.
#[derive(Debug, Clone)]
pub struct UsedSuppression {
    /// Rules the comment allowed.
    pub rules: Vec<RuleId>,
    /// The mandatory reason string.
    pub reason: String,
    /// Workspace-relative path of the suppression comment.
    pub path: String,
    /// 1-based line of the comment.
    pub line: u32,
}

/// Escapes a string for inclusion in a JSON document.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// The full machine-readable report.
#[derive(Debug)]
pub struct Report {
    /// Workspace root the analysis ran over.
    pub root: String,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Every active (non-suppressed) finding, sorted by path/line/col.
    pub diagnostics: Vec<Diagnostic>,
    /// Every suppression that actually fired.
    pub suppressions_used: Vec<UsedSuppression>,
}

impl Report {
    /// Serializes the report as a stable, human-diffable JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"tool\": \"powadapt-lint\",\n");
        s.push_str(&format!("  \"root\": \"{}\",\n", json_escape(&self.root)));
        s.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        s.push_str("  \"summary\": {");
        let mut first = true;
        for rule in RuleId::ALL {
            let n = self.diagnostics.iter().filter(|d| d.rule == rule).count();
            if !first {
                s.push_str(", ");
            }
            first = false;
            s.push_str(&format!("\"{rule}\": {n}"));
        }
        s.push_str("},\n");
        s.push_str("  \"diagnostics\": [\n");
        for (i, d) in self.diagnostics.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \
                 \"col\": {}, \"message\": \"{}\", \"snippet\": \"{}\"}}{}\n",
                d.rule,
                json_escape(&d.path),
                d.line,
                d.col,
                json_escape(&d.message),
                json_escape(&d.snippet),
                if i + 1 == self.diagnostics.len() {
                    ""
                } else {
                    ","
                },
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"suppressions_used\": [\n");
        for (i, u) in self.suppressions_used.iter().enumerate() {
            let rules: Vec<String> = u.rules.iter().map(|r| format!("\"{r}\"")).collect();
            s.push_str(&format!(
                "    {{\"rules\": [{}], \"reason\": \"{}\", \"path\": \"{}\", \"line\": {}}}{}\n",
                rules.join(", "),
                json_escape(&u.reason),
                json_escape(&u.path),
                u.line,
                if i + 1 == self.suppressions_used.len() {
                    ""
                } else {
                    ","
                },
            ));
        }
        s.push_str("  ]\n");
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_matches_rustc_shape() {
        let d = Diagnostic {
            rule: RuleId::D4,
            path: "crates/x/src/lib.rs".into(),
            line: 7,
            col: 12,
            message: "public API takes `cap_watts: f64`".into(),
            snippet: "pub fn cap(cap_watts: f64) {}".into(),
            span_len: 9,
        };
        let r = d.render();
        assert!(r.starts_with("error[D4]: "));
        assert!(r.contains("--> crates/x/src/lib.rs:7:12"));
        assert!(r.contains("^^^^^^^^^"));
        assert!(r.contains("= help:"));
    }

    #[test]
    fn json_escapes_and_counts() {
        let report = Report {
            root: "/tmp/\"ws\"".into(),
            files_scanned: 3,
            diagnostics: vec![Diagnostic {
                rule: RuleId::D7,
                path: "a.rs".into(),
                line: 1,
                col: 1,
                message: "tab\there".into(),
                snippet: "e.get() / d.get()".into(),
                span_len: 7,
            }],
            suppressions_used: vec![],
        };
        let json = report.to_json();
        assert!(json.contains("\\\"ws\\\""));
        assert!(json.contains("tab\\there"));
        assert!(json.contains("\"D7\": 1"));
        assert!(json.contains("\"D4\": 0"));
    }
}
