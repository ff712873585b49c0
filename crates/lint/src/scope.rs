//! Where each rule applies: path-level scoping and test-region detection.
//!
//! The rules are invariants about *shipped* code, so two kinds of source
//! are exempt:
//!
//! - integration tests (`tests/` directories), examples and benches —
//!   never in a figure's data path,
//! - inline `#[cfg(test)]` items and `#[test]` functions.

use crate::diag::RuleId;
use crate::lexer::{Lexed, Tok, TokKind};

/// Path predicates for one rule.
fn crate_of(path: &str) -> Option<&str> {
    let rest = path.strip_prefix("crates/")?;
    rest.split('/').next()
}

/// Is this file library/binary source (as opposed to tests or examples)?
fn is_shipped_source(path: &str) -> bool {
    !path.contains("/tests/")
        && !path.starts_with("tests/")
        && !path.contains("/examples/")
        && !path.starts_with("examples/")
        && !path.contains("/benches/")
}

/// Does `rule` apply to the file at `path` (workspace-relative, `/`
/// separated)? Test regions inside the file are handled separately by
/// [`TestRegions`].
pub fn rule_applies(rule: RuleId, path: &str) -> bool {
    if !is_shipped_source(path) {
        return false;
    }
    let in_crates = |names: &[&str]| crate_of(path).is_some_and(|c| names.contains(&c));
    match rule {
        // Unit safety on public APIs of the measurement/model/control
        // crates.
        RuleId::D4 => in_crates(&["meter", "model", "core"]),
        // Unit-dimension flow: every crate that does arithmetic on the
        // Watts/Joules/Millis/Micros newtypes.
        RuleId::D7 => in_crates(&[
            "sim", "device", "io", "meter", "model", "core", "cluster", "place",
        ]),
        // Suppression hygiene follows the file, not a crate list.
        RuleId::S0 | RuleId::S1 => true,
    }
}

/// Line ranges (inclusive) covered by `#[cfg(test)]` items or `#[test]`
/// functions; rules skip findings inside them.
#[derive(Debug, Default)]
pub struct TestRegions {
    ranges: Vec<(u32, u32)>,
}

impl TestRegions {
    /// Is `line` inside a test-only region?
    pub fn contains(&self, line: u32) -> bool {
        self.ranges.iter().any(|&(a, b)| line >= a && line <= b)
    }
}

/// Does an attribute token slice (the tokens between `#[` and `]`) gate
/// its item to test builds? Only `#[test]` and a `#[cfg(..)]` whose
/// predicate names `test` outside every `not(..)` do: `cfg(test)`,
/// `cfg(any(test, ..))`, `cfg(all(test, not(miri)))`. An item under
/// `cfg(not(test))` or `cfg_attr(test, ..)` ships, so it stays in scope.
fn attr_is_test_gate(attr: &[Tok]) -> bool {
    let is_ident = |t: &Tok, name: &str| t.kind == TokKind::Ident && t.text == name;
    match attr {
        [only] => is_ident(only, "test"),
        [cfg, pred @ ..] if is_ident(cfg, "cfg") => {
            // One entry per open paren: does that group belong to a `not`?
            let mut negated: Vec<bool> = Vec::new();
            for (i, t) in pred.iter().enumerate() {
                match t.text.as_str() {
                    "(" => negated.push(i > 0 && is_ident(&pred[i - 1], "not")),
                    ")" => {
                        negated.pop();
                    }
                    _ if is_ident(t, "test") && !negated.contains(&true) => return true,
                    _ => {}
                }
            }
            false
        }
        _ => false,
    }
}

/// Finds the test regions of a lexed file.
///
/// For every `#[test]`/`#[cfg(test)]` attribute, the region extends from
/// the attribute to the end of the annotated item: the matching `}` of
/// the item's first brace block, or the terminating `;` for brace-less
/// items (`#[cfg(test)] use ...;`).
pub fn find_test_regions(lexed: &Lexed) -> TestRegions {
    let toks = &lexed.tokens;
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !(toks[i].kind == TokKind::Punct && toks[i].text == "#") {
            i += 1;
            continue;
        }
        // `#[ ... ]` — collect the attribute's tokens.
        let Some(open) = toks.get(i + 1) else { break };
        if !(open.kind == TokKind::Punct && open.text == "[") {
            i += 1;
            continue;
        }
        let start_line = toks[i].line;
        let mut depth = 1i32;
        let mut j = i + 2;
        let attr_start = j;
        while j < toks.len() && depth > 0 {
            match toks[j].text.as_str() {
                "[" => depth += 1,
                "]" => depth -= 1,
                _ => {}
            }
            j += 1;
        }
        let attr = &toks[attr_start..j.saturating_sub(1)];
        if !attr_is_test_gate(attr) {
            i = j;
            continue;
        }
        // Walk forward to the item body: first `{` starts a brace block
        // to match; a `;` at brace depth 0 first means a brace-less item.
        let mut k = j;
        let mut end_line = start_line;
        let mut brace_depth = 0i32;
        let mut entered = false;
        while k < toks.len() {
            match toks[k].text.as_str() {
                "{" => {
                    brace_depth += 1;
                    entered = true;
                }
                "}" => {
                    brace_depth -= 1;
                    if entered && brace_depth == 0 {
                        end_line = toks[k].line;
                        k += 1;
                        break;
                    }
                }
                ";" if !entered && brace_depth == 0 => {
                    end_line = toks[k].line;
                    k += 1;
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        if k >= toks.len() {
            end_line = toks.last().map_or(start_line, |t| t.line);
        }
        regions.push((start_line, end_line));
        i = k;
    }
    TestRegions { ranges: regions }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn cfg_test_mod_is_a_region() {
        let src =
            "fn shipped() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn also_shipped() {}\n";
        let regions = find_test_regions(&lex(src));
        assert!(!regions.contains(1));
        assert!(regions.contains(2));
        assert!(regions.contains(4));
        assert!(regions.contains(5));
        assert!(!regions.contains(6));
    }

    #[test]
    fn cfg_not_test_is_not_a_region() {
        let src = "#[cfg(not(test))]\nfn shipped() {}\n";
        let regions = find_test_regions(&lex(src));
        assert!(!regions.contains(2));
    }

    #[test]
    fn braceless_item() {
        let src = "#[cfg(test)]\nuse std::collections::HashSet;\nfn shipped() {}\n";
        let regions = find_test_regions(&lex(src));
        assert!(regions.contains(2));
        assert!(!regions.contains(3));
    }

    #[test]
    fn cfg_attr_test_is_not_a_region() {
        // `cfg_attr(test, ..)` only adds attributes in test builds; the
        // item itself ships and must stay in scope.
        let src = "#[cfg_attr(test, derive(Debug))]\npub fn shipped(cap_watts: f64) {}\n";
        let regions = find_test_regions(&lex(src));
        assert!(!regions.contains(1));
        assert!(!regions.contains(2));
    }

    #[test]
    fn cfg_test_beside_a_not_is_a_region() {
        let src = "#[cfg(all(test, not(miri)))]\nmod tests {\n}\n";
        let regions = find_test_regions(&lex(src));
        assert!(regions.contains(2));
    }

    #[test]
    fn scoping_by_path() {
        // D4 covers the public APIs of the measurement, model and control
        // crates.
        for p in [
            "crates/meter/src/rig.rs",
            "crates/model/src/solver.rs",
            "crates/core/src/controller.rs",
        ] {
            assert!(rule_applies(RuleId::D4, p), "D4 must cover {p}");
        }
        for p in [
            "crates/device/src/device.rs",
            "crates/cluster/src/tree.rs",
            "crates/snap/src/lib.rs",
            "crates/place/src/tier.rs",
        ] {
            assert!(!rule_applies(RuleId::D4, p), "D4 must skip {p}");
        }
        // Test targets, examples and benches sit outside every rule's
        // perimeter.
        assert!(!rule_applies(RuleId::D4, "crates/meter/tests/chain.rs"));
        assert!(!rule_applies(RuleId::D7, "crates/sim/tests/properties.rs"));
        assert!(!rule_applies(
            RuleId::D7,
            "crates/bench/benches/device_sim.rs"
        ));
        assert!(!rule_applies(
            RuleId::D7,
            "examples/cluster_oversubscription.rs"
        ));
        // Suppression hygiene follows the file, not a crate list.
        assert!(rule_applies(RuleId::S0, "crates/lint/src/lib.rs"));
        assert!(rule_applies(RuleId::S1, "src/lib.rs"));
    }

    #[test]
    fn semantic_rule_scoping_by_path() {
        // D7 covers every crate doing unit-newtype arithmetic.
        for p in [
            "crates/sim/src/units.rs",
            "crates/device/src/hdd/mod.rs",
            "crates/io/src/fleet.rs",
            "crates/meter/src/rig.rs",
            "crates/model/src/lib.rs",
            "crates/core/src/controller.rs",
            "crates/cluster/src/tenant.rs",
            "crates/place/src/tier.rs",
        ] {
            assert!(rule_applies(RuleId::D7, p), "D7 must cover {p}");
        }
        assert!(!rule_applies(RuleId::D7, "crates/obs/src/recorder.rs"));
    }
}
