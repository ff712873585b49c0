//! Property tests for the analyzer's lexer: on arbitrary source-ish
//! input — including raw strings with hash guards, nested block
//! comments, lifetimes next to char literals, and non-ASCII text — the
//! lexer must never panic, and every token's `(line, col)` must point at
//! the exact character where its text begins. The second property pins
//! the column unit to characters: a column drift of even one cell is the
//! classic UTF-8 bytes-vs-chars bug.

#![allow(clippy::unwrap_used, reason = "tests assert on exact expected values")]

use powadapt_lint::lexer::lex;
use proptest::prelude::*;

/// Totally arbitrary Unicode text (quotes, backslashes, emoji, control
/// characters) — drawn from the full scalar range so multi-byte
/// characters are always in play.
fn arbitrary_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u32..0x0011_0000, 0..24)
        .prop_map(|cs| cs.into_iter().filter_map(char::from_u32).collect())
}

/// Fragments biased toward the constructs the lexer special-cases, with
/// arbitrary Unicode mixed in one time out of four.
fn fragments() -> impl Strategy<Value = String> {
    let table: Vec<String> = [
        "fn f<'a>(x: &'a u8) {}",
        "let s = r#\"raw \" quote\"#;",
        "let s = r##\"nested \"# inside\"##;",
        "let b = br#\"bytes\"#;",
        "/* outer /* inner */ tail */",
        "// line comment with \"quote\n",
        "let c = 'x'; let n = '\\n'; let lt: &'static str = \"s\";",
        "道 = \"多字节\"; // コメント\n",
        "let v = 1.0f64 + 2e9 - 0x1f ..= 10;",
        "\"unterminated",
        "r#\"unterminated raw",
        "/* unterminated comment",
        "'",
        "\\",
    ]
    .iter()
    .map(|s| (*s).to_string())
    .collect();
    (proptest::sample::select(table), arbitrary_text(), 0u8..4).prop_map(|(fixed, arb, pick)| {
        if pick == 0 {
            arb
        } else {
            fixed
        }
    })
}

fn sources() -> impl Strategy<Value = String> {
    proptest::collection::vec(fragments(), 0..12).prop_map(|v| v.join(" "))
}

/// Character offset of 1-based `(line, col)` within `src`, or `None` if
/// the position is out of range.
fn char_offset(src: &str, line: u32, col: u32) -> Option<usize> {
    let mut chars_before = 0usize;
    for (i, l) in src.split_inclusive('\n').enumerate() {
        if i + 1 == line as usize {
            return Some(chars_before + (col as usize - 1));
        }
        chars_before += l.chars().count();
    }
    None
}

proptest! {
    /// The lexer is total: no input panics it, and it always terminates.
    #[test]
    fn lexing_never_panics(src in sources()) {
        let _ = lex(&src);
    }

    /// Every token's `(line, col)` locates the token's own text: reading
    /// `text.chars().count()` characters from that position in the
    /// original source reproduces the token byte-for-byte. This pins the
    /// column unit to characters (not bytes) on arbitrary Unicode.
    #[test]
    fn spans_locate_their_text(src in sources()) {
        let all: Vec<char> = src.chars().collect();
        for t in &lex(&src) {
            let off = char_offset(&src, t.line, t.col)
                .unwrap_or_else(|| panic!("token {:?} at {}:{} is out of range", t.text, t.line, t.col));
            let want: Vec<char> = t.text.chars().collect();
            let got = all.get(off..off + want.len());
            prop_assert_eq!(
                got,
                Some(&want[..]),
                "token {:?} mis-spanned at {}:{}",
                &t.text,
                t.line,
                t.col
            );
        }
    }
}

/// Deterministic regression: the exact shape of the historical defect —
/// a multi-byte string literal earlier on the line used to shift every
/// later column by the extra UTF-8 bytes.
#[test]
fn non_ascii_does_not_shift_columns() {
    let src = "let s = \"héllo wörld\"; let x = 1;\n";
    let toks = lex(src);
    let x = toks.iter().find(|t| t.text == "x").unwrap();
    let char_col = src.chars().take_while(|&c| c != 'x').count() as u32 + 1;
    assert_eq!((x.line, x.col), (1, char_col));
}
