//! Parsing and bookkeeping for `// powadapt-lint: allow(...)` comments.
//!
//! The suppression grammar is deliberately rigid:
//!
//! ```text
//! // powadapt-lint: allow(D7, reason = "CSV boundary; the column header names the unit")
//! // powadapt-lint: allow(D4, D7, reason = "raw boundary API; the caller passes SI units")
//! ```
//!
//! - one or more known rule ids, then a **mandatory, non-empty** `reason`;
//! - a standalone comment suppresses the *next* source line, a trailing
//!   comment suppresses *its own* line;
//! - a malformed suppression is itself a diagnostic ([`RuleId::S0`]), and
//!   a suppression that matches nothing is too ([`RuleId::S1`]) — the
//!   escape hatch is audited, not free.

use crate::diag::{Diagnostic, RuleId};
use crate::lexer::LineComment;

/// The comment marker that introduces a suppression.
pub const MARKER: &str = "powadapt-lint:";

/// A successfully parsed suppression comment.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// Rules this comment allows.
    pub rules: Vec<RuleId>,
    /// The mandatory justification.
    pub reason: String,
    /// Workspace-relative path of the file the comment lives in. The
    /// unused-suppression audit keys on (rule, file): an allow firing in
    /// one file must never mask an unused allow for the same rule
    /// elsewhere.
    pub path: String,
    /// 1-based line of the comment itself.
    pub comment_line: u32,
    /// 1-based line whose findings are suppressed.
    pub target_line: u32,
    /// Set when the suppression matched at least one finding.
    pub used: bool,
}

/// Result of scanning one file's comments.
#[derive(Debug, Default)]
pub struct SuppressionSet {
    /// Well-formed suppressions, by target line.
    pub entries: Vec<Suppression>,
    /// S0 diagnostics for malformed suppressions.
    pub errors: Vec<Diagnostic>,
}

impl SuppressionSet {
    /// Attempts to suppress a finding of `rule` on `line`; returns true
    /// (and marks the entry used) when a matching suppression covers the
    /// diagnostic's line. `path` must match the entry's file — the set
    /// may be merged workspace-wide, and a suppression only ever covers
    /// its own file.
    pub fn try_suppress(&mut self, rule: RuleId, path: &str, line: u32) -> bool {
        for entry in &mut self.entries {
            if entry.target_line == line && entry.path == path && entry.rules.contains(&rule) {
                entry.used = true;
                return true;
            }
        }
        false
    }

    /// Absorbs another file's scan into this set (workspace pass).
    pub fn merge(&mut self, mut other: SuppressionSet) {
        self.entries.append(&mut other.entries);
        self.errors.append(&mut other.errors);
    }

    /// S1 diagnostics for suppressions that never fired, keyed per
    /// (rule, file): every entry is audited against its own file only.
    /// Call after all rules have run.
    pub fn unused(&self, line_text: impl Fn(&str, u32) -> String) -> Vec<Diagnostic> {
        self.entries
            .iter()
            .filter(|e| !e.used)
            .map(|e| Diagnostic {
                rule: RuleId::S1,
                path: e.path.clone(),
                line: e.comment_line,
                col: 1,
                message: format!(
                    "suppression allows {} but nothing on line {} triggers it",
                    e.rules
                        .iter()
                        .map(|r| r.as_str())
                        .collect::<Vec<_>>()
                        .join(", "),
                    e.target_line,
                ),
                snippet: line_text(&e.path, e.comment_line),
                span_len: 1,
            })
            .collect()
    }
}

/// Scans a file's line comments for suppressions.
pub fn scan(comments: &[LineComment], path: &str) -> SuppressionSet {
    let mut set = SuppressionSet::default();
    for c in comments {
        // Doc comments (`///`, `//!`) never carry suppressions — they
        // document the mechanism, including verbatim examples, without
        // engaging it.
        if c.text.starts_with("///") || c.text.starts_with("//!") {
            continue;
        }
        let Some(idx) = c.text.find(MARKER) else {
            continue;
        };
        let body = c.text[idx + MARKER.len()..].trim();
        let target_line = if c.trailing { c.line } else { c.line + 1 };
        match parse_body(body) {
            Ok((rules, reason)) => set.entries.push(Suppression {
                rules,
                reason,
                path: path.to_string(),
                comment_line: c.line,
                target_line,
                used: false,
            }),
            Err(msg) => set.errors.push(Diagnostic {
                rule: RuleId::S0,
                path: path.to_string(),
                line: c.line,
                col: c.col,
                message: msg,
                snippet: c.text.trim_start_matches('/').trim().to_string(),
                span_len: c.text.len() as u32,
            }),
        }
    }
    set
}

/// Parses `allow(D4, D7, reason = "...")` after the marker.
fn parse_body(body: &str) -> Result<(Vec<RuleId>, String), String> {
    if body == "hot" {
        return Err("the `hot` directive is retired: tests/hot_path_allocs.rs \
                    counts hot-path allocations at run time"
            .to_string());
    }
    let rest = body
        .strip_prefix("allow")
        .ok_or_else(|| format!("expected `allow(...)` after `{MARKER}`"))?
        .trim_start();
    let rest = rest
        .strip_prefix('(')
        .ok_or_else(|| "expected `(` after `allow`".to_string())?;
    let inner = rest
        .rfind(')')
        .map(|i| &rest[..i])
        .ok_or_else(|| "unclosed `allow(`".to_string())?;

    let mut rules = Vec::new();
    let mut reason: Option<String> = None;
    for part in split_args(inner) {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        if let Some(value) = part.strip_prefix("reason") {
            let value = value.trim_start();
            let value = value
                .strip_prefix('=')
                .ok_or_else(|| "expected `reason = \"...\"`".to_string())?
                .trim();
            let unquoted = value
                .strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .ok_or_else(|| "reason must be a double-quoted string".to_string())?;
            if unquoted.trim().is_empty() {
                return Err("suppression reason must not be empty".to_string());
            }
            reason = Some(unquoted.to_string());
        } else {
            let rule = RuleId::parse_suppressible(part)
                .ok_or_else(|| format!("unknown rule `{part}` (expected D4 or D7)"))?;
            rules.push(rule);
        }
    }
    if rules.is_empty() {
        return Err("suppression names no rules".to_string());
    }
    let reason = reason
        .ok_or_else(|| "suppression is missing the mandatory `reason = \"...\"`".to_string())?;
    Ok((rules, reason))
}

/// Splits on commas outside the quoted reason string.
fn split_args(s: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut depth_quote = false;
    let mut start = 0usize;
    let bytes = s.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => depth_quote = !depth_quote,
            b'\\' if depth_quote => i += 1,
            b',' if !depth_quote => {
                parts.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    parts.push(&s[start..]);
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comment(text: &str, trailing: bool) -> LineComment {
        LineComment {
            text: text.to_string(),
            line: 10,
            col: 5,
            trailing,
        }
    }

    #[test]
    fn well_formed_single_rule() {
        let set = scan(
            &[comment(
                "// powadapt-lint: allow(D7, reason = \"CSV boundary\")",
                false,
            )],
            "x.rs",
        );
        assert!(set.errors.is_empty());
        assert_eq!(set.entries.len(), 1);
        assert_eq!(set.entries[0].rules, vec![RuleId::D7]);
        assert_eq!(set.entries[0].target_line, 11);
    }

    #[test]
    fn trailing_targets_own_line() {
        let set = scan(
            &[comment(
                "// powadapt-lint: allow(D7, reason = \"CSV boundary\")",
                true,
            )],
            "x.rs",
        );
        assert_eq!(set.entries[0].target_line, 10);
    }

    #[test]
    fn multiple_rules() {
        let set = scan(
            &[comment(
                "// powadapt-lint: allow(D4, D7, reason = \"raw boundary API\")",
                false,
            )],
            "x.rs",
        );
        assert_eq!(set.entries[0].rules, vec![RuleId::D4, RuleId::D7]);
    }

    #[test]
    fn missing_reason_is_s0() {
        let set = scan(&[comment("// powadapt-lint: allow(D7)", false)], "x.rs");
        assert!(set.entries.is_empty());
        assert_eq!(set.errors.len(), 1);
        assert_eq!(set.errors[0].rule, RuleId::S0);
        assert!(set.errors[0].message.contains("reason"));
    }

    #[test]
    fn empty_reason_is_s0() {
        let set = scan(
            &[comment("// powadapt-lint: allow(D7, reason = \"\")", false)],
            "x.rs",
        );
        assert_eq!(set.errors.len(), 1);
        assert!(set.errors[0].message.contains("empty"));
    }

    #[test]
    fn unknown_rule_is_s0() {
        let set = scan(
            &[comment(
                "// powadapt-lint: allow(D42, reason = \"nope\")",
                false,
            )],
            "x.rs",
        );
        assert_eq!(set.errors.len(), 1);
        assert!(set.errors[0].message.contains("unknown rule `D42`"));
    }

    #[test]
    fn semantic_rules_parse_in_both_cases() {
        let set = scan(
            &[comment(
                "// powadapt-lint: allow(d7, d4, reason = \"static config\")",
                false,
            )],
            "x.rs",
        );
        assert!(set.errors.is_empty());
        assert_eq!(set.entries[0].rules, vec![RuleId::D7, RuleId::D4]);
    }

    #[test]
    fn retired_directives_are_s0() {
        // D8 and D9 moved to rustc and runtime tests; a leftover `hot`
        // mark or allow for either fails loudly instead of lingering.
        for (text, needle) in [
            ("// powadapt-lint: hot", "retired"),
            (
                "// powadapt-lint: allow(D8, reason = \"x\")",
                "unknown rule `D8`",
            ),
            (
                "// powadapt-lint: allow(d9, reason = \"x\")",
                "unknown rule `d9`",
            ),
        ] {
            let set = scan(&[comment(text, false)], "x.rs");
            assert!(set.entries.is_empty(), "{text}");
            assert_eq!(set.errors.len(), 1, "{text}");
            assert_eq!(set.errors[0].rule, RuleId::S0);
            assert!(set.errors[0].message.contains(needle), "{text}");
        }
    }

    #[test]
    fn suppression_only_covers_its_own_file() {
        // (rule, file) keying: an allow in a.rs must not fire for a
        // finding at the same rule/line in b.rs, and the unused audit
        // reports per file.
        let mut set = scan(
            &[comment(
                "// powadapt-lint: allow(D7, reason = \"x\")",
                false,
            )],
            "a.rs",
        );
        set.merge(scan(
            &[comment(
                "// powadapt-lint: allow(D7, reason = \"x\")",
                false,
            )],
            "b.rs",
        ));
        assert!(set.try_suppress(RuleId::D7, "a.rs", 11));
        assert!(!set.try_suppress(RuleId::D7, "c.rs", 11));
        let unused = set.unused(|_, _| String::new());
        assert_eq!(unused.len(), 1);
        assert_eq!(unused[0].path, "b.rs");
    }

    #[test]
    fn s_rules_are_not_suppressible() {
        let set = scan(
            &[comment(
                "// powadapt-lint: allow(S1, reason = \"meta\")",
                false,
            )],
            "x.rs",
        );
        assert_eq!(set.errors.len(), 1);
        assert!(set.errors[0].message.contains("unknown rule `S1`"));
    }

    #[test]
    fn comma_inside_reason() {
        let set = scan(
            &[comment(
                "// powadapt-lint: allow(D4, reason = \"a, b, and c\")",
                false,
            )],
            "x.rs",
        );
        assert!(set.errors.is_empty());
        assert_eq!(set.entries[0].reason, "a, b, and c");
    }

    #[test]
    fn unused_reports_s1() {
        let mut set = scan(
            &[comment(
                "// powadapt-lint: allow(D7, reason = \"x\")",
                false,
            )],
            "x.rs",
        );
        assert!(!set.try_suppress(RuleId::D4, "x.rs", 11));
        let unused = set.unused(|_, _| String::new());
        assert_eq!(unused.len(), 1);
        assert_eq!(unused[0].rule, RuleId::S1);
    }
}
