//! A minimal Rust lexer sufficient for token-level analysis.
//!
//! The ABI lock does not need a full parse tree: the symbol model in
//! [`crate::model`] works over a token stream plus a little bracket
//! matching. What the lexer *must* get right is the boundary between
//! code and non-code — string literals, raw strings, char literals,
//! lifetimes, and nested block comments — so that a `struct` or a
//! `snapshot! {` inside a doc comment or a string never reads as code.
//!
//! The workspace builds fully offline, so this is hand-rolled rather than
//! `syn`-driven; the subset of Rust it understands is exactly the subset
//! the model consumes.

/// What a token is, at the granularity the model needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `HashMap`, `r#type`, ...).
    Ident,
    /// Lifetime such as `'a` (distinguished from char literals).
    Lifetime,
    /// Integer literal, including prefixed (`0x..`) and suffixed forms.
    Int,
    /// Float literal (`1.0`, `2e9`, `3.5f64`, ...).
    Float,
    /// String, raw-string, byte-string, or char literal (content opaque).
    Literal,
    /// Punctuation. Multi-character operators the model cares about
    /// (`==`, `!=`, `::`, `->`, `=>`, `..`) are single tokens; everything
    /// else is one token per character.
    Punct,
}

/// One lexed token with its source position (1-based line and column).
#[derive(Debug, Clone)]
pub struct Tok {
    /// Classification of the token.
    pub kind: TokKind,
    /// The token's text as it appears in the source.
    pub text: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column (in characters).
    pub col: u32,
}

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek_at(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else if (b & 0xC0) != 0x80 {
            // Columns are 1-based in *characters*: UTF-8 continuation
            // bytes do not advance the column, so a token after a
            // non-ASCII doc string still points at the right caret.
            self.col += 1;
        }
        Some(b)
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Lexes `src` into its code tokens; comments are dropped.
///
/// The lexer is infallible: malformed input degrades to single-character
/// punctuation tokens rather than an error, which is the right behavior
/// for an analyzer that must never block on code `rustc` already accepts
/// or rejects.
pub fn lex(src: &str) -> Vec<Tok> {
    let mut cur = Cursor {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
    };
    let mut out = Vec::new();

    while let Some(b) = cur.peek() {
        let (line, col) = (cur.line, cur.col);
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                cur.bump();
            }
            b'/' if cur.peek_at(1) == Some(b'/') => {
                while cur.peek().is_some_and(|c| c != b'\n') {
                    cur.bump();
                }
            }
            b'/' if cur.peek_at(1) == Some(b'*') => {
                cur.bump();
                cur.bump();
                let mut depth = 1u32;
                while depth > 0 {
                    match (cur.peek(), cur.peek_at(1)) {
                        (Some(b'/'), Some(b'*')) => {
                            cur.bump();
                            cur.bump();
                            depth += 1;
                        }
                        (Some(b'*'), Some(b'/')) => {
                            cur.bump();
                            cur.bump();
                            depth -= 1;
                        }
                        (Some(_), _) => {
                            cur.bump();
                        }
                        (None, _) => break,
                    }
                }
            }
            b'r' | b'b' if is_raw_string_start(cur.src, cur.pos) => {
                let start = cur.pos;
                lex_raw_string(&mut cur);
                push_tok(&mut out, TokKind::Literal, &src[start..cur.pos], line, col);
            }
            b'b' if cur.peek_at(1) == Some(b'\'') => {
                let start = cur.pos;
                cur.bump();
                lex_char(&mut cur);
                push_tok(&mut out, TokKind::Literal, &src[start..cur.pos], line, col);
            }
            b'b' if cur.peek_at(1) == Some(b'"') => {
                let start = cur.pos;
                cur.bump();
                lex_string(&mut cur);
                push_tok(&mut out, TokKind::Literal, &src[start..cur.pos], line, col);
            }
            b'"' => {
                let start = cur.pos;
                lex_string(&mut cur);
                push_tok(&mut out, TokKind::Literal, &src[start..cur.pos], line, col);
            }
            b'\'' => {
                // Lifetime (`'a`) or char literal (`'a'`, `'\n'`).
                let start = cur.pos;
                if is_char_literal(cur.src, cur.pos) {
                    lex_char(&mut cur);
                    push_tok(&mut out, TokKind::Literal, &src[start..cur.pos], line, col);
                } else {
                    cur.bump();
                    while cur.peek().is_some_and(is_ident_continue) {
                        cur.bump();
                    }
                    push_tok(&mut out, TokKind::Lifetime, &src[start..cur.pos], line, col);
                }
            }
            _ if is_ident_start(b) => {
                let start = cur.pos;
                // `r#ident` raw identifiers.
                if b == b'r'
                    && cur.peek_at(1) == Some(b'#')
                    && cur.peek_at(2).is_some_and(is_ident_start)
                {
                    cur.bump();
                    cur.bump();
                }
                while cur.peek().is_some_and(is_ident_continue) {
                    cur.bump();
                }
                push_tok(&mut out, TokKind::Ident, &src[start..cur.pos], line, col);
            }
            _ if b.is_ascii_digit() => {
                let start = cur.pos;
                let kind = lex_number(&mut cur);
                push_tok(&mut out, kind, &src[start..cur.pos], line, col);
            }
            _ => {
                let start = cur.pos;
                cur.bump();
                // Join the handful of multi-character operators; everything
                // else stays single-char.
                let two = cur.peek().map(|n| (b, n));
                let joined = matches!(
                    two,
                    Some((b'=', b'=') | (b'!', b'=') | (b':', b':') | (b'-', b'>') | (b'=', b'>'))
                ) || matches!(two, Some((b'.', b'.')));
                if joined {
                    cur.bump();
                }
                push_tok(&mut out, TokKind::Punct, &src[start..cur.pos], line, col);
            }
        }
    }
    out
}

fn push_tok(out: &mut Vec<Tok>, kind: TokKind, text: &str, line: u32, col: u32) {
    out.push(Tok {
        kind,
        text: text.to_string(),
        line,
        col,
    });
}

/// Is `pos` the start of `r"`, `r#"`, `br"`, `br#"` etc.?
fn is_raw_string_start(src: &[u8], pos: usize) -> bool {
    let mut i = pos;
    if src.get(i) == Some(&b'b') {
        i += 1;
    }
    if src.get(i) != Some(&b'r') {
        return false;
    }
    i += 1;
    while src.get(i) == Some(&b'#') {
        i += 1;
    }
    src.get(i) == Some(&b'"')
}

fn lex_raw_string(cur: &mut Cursor<'_>) {
    if cur.peek() == Some(b'b') {
        cur.bump();
    }
    cur.bump(); // `r`
    let mut hashes = 0usize;
    while cur.peek() == Some(b'#') {
        hashes += 1;
        cur.bump();
    }
    cur.bump(); // opening quote
    loop {
        match cur.bump() {
            None => break,
            Some(b'"') => {
                let mut seen = 0usize;
                while seen < hashes && cur.peek() == Some(b'#') {
                    cur.bump();
                    seen += 1;
                }
                if seen == hashes {
                    break;
                }
            }
            Some(_) => {}
        }
    }
}

fn lex_string(cur: &mut Cursor<'_>) {
    cur.bump(); // opening quote
    loop {
        match cur.bump() {
            None | Some(b'"') => break,
            Some(b'\\') => {
                cur.bump();
            }
            Some(_) => {}
        }
    }
}

/// Disambiguates `'a'` / `'\n'` (char literal) from `'a` (lifetime).
fn is_char_literal(src: &[u8], pos: usize) -> bool {
    match src.get(pos + 1) {
        Some(b'\\') => true,
        Some(&c) if is_ident_start(c) => {
            // `'x'` is a char; `'x` followed by anything else is a
            // lifetime. Scan past the identifier-like run.
            let mut i = pos + 2;
            while src.get(i).copied().is_some_and(is_ident_continue) {
                i += 1;
            }
            src.get(i) == Some(&b'\'')
        }
        Some(_) => true,
        None => false,
    }
}

fn lex_char(cur: &mut Cursor<'_>) {
    cur.bump(); // opening quote
    loop {
        match cur.bump() {
            None | Some(b'\'') => break,
            Some(b'\\') => {
                cur.bump();
            }
            Some(_) => {}
        }
    }
}

fn lex_number(cur: &mut Cursor<'_>) -> TokKind {
    // Prefixed integers: 0x / 0o / 0b.
    if cur.peek() == Some(b'0')
        && matches!(
            cur.peek_at(1),
            Some(b'x' | b'o' | b'b' | b'X' | b'O' | b'B')
        )
    {
        cur.bump();
        cur.bump();
        while cur
            .peek()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_')
        {
            cur.bump();
        }
        return TokKind::Int;
    }
    let mut float = false;
    while cur.peek().is_some_and(|c| c.is_ascii_digit() || c == b'_') {
        cur.bump();
    }
    // A `.` makes it a float only when NOT starting a range (`0..n`) or a
    // method call on the literal (`1.min(2)`).
    if cur.peek() == Some(b'.')
        && cur.peek_at(1) != Some(b'.')
        && !cur.peek_at(1).is_some_and(is_ident_start)
    {
        float = true;
        cur.bump();
        while cur.peek().is_some_and(|c| c.is_ascii_digit() || c == b'_') {
            cur.bump();
        }
    }
    if matches!(cur.peek(), Some(b'e' | b'E'))
        && (cur.peek_at(1).is_some_and(|c| c.is_ascii_digit())
            || (matches!(cur.peek_at(1), Some(b'+' | b'-'))
                && cur.peek_at(2).is_some_and(|c| c.is_ascii_digit())))
    {
        float = true;
        cur.bump();
        if matches!(cur.peek(), Some(b'+' | b'-')) {
            cur.bump();
        }
        while cur.peek().is_some_and(|c| c.is_ascii_digit() || c == b'_') {
            cur.bump();
        }
    }
    // Type suffix: `1.0f64`, `3u32`, ...
    if cur.peek().is_some_and(is_ident_start) {
        let suffix_start = cur.pos;
        while cur.peek().is_some_and(is_ident_continue) {
            cur.bump();
        }
        let suffix = &cur.src[suffix_start..cur.pos];
        if suffix == b"f32" || suffix == b"f64" {
            float = true;
        }
    }
    if float {
        TokKind::Float
    } else {
        TokKind::Int
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn strings_and_comments_are_not_code() {
        let toks = lex("let x = \"HashMap.unwrap()\"; // HashMap here\n/* Instant */ y");
        let idents: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(idents, ["let", "x", "y"]);
    }

    #[test]
    fn raw_strings_with_hashes() {
        let toks = lex(r####"let s = r#"quote " inside"#; next"####);
        let idents: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(idents, ["let", "s", "next"]);
    }

    #[test]
    fn lifetimes_vs_chars() {
        let toks = kinds("fn f<'a>(x: &'a u8) { let c = 'x'; let n = '\\n'; }");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Lifetime && t == "'a"));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Literal && t == "'x'"));
    }

    #[test]
    fn numbers_classify() {
        let toks = kinds("1.0 2e9 3.5f64 7 0x1f 0..10 1.min(2)");
        let floats: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Float)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(floats, ["1.0", "2e9", "3.5f64"]);
        let ints: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Int)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(ints, ["7", "0x1f", "0", "10", "1", "2"]);
    }

    #[test]
    fn joined_operators() {
        let toks = kinds("a == b != c :: d -> e => f .. g");
        let puncts: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Punct)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(puncts, ["==", "!=", "::", "->", "=>", ".."]);
    }

    #[test]
    fn nested_block_comments() {
        let toks = kinds("a /* outer /* inner */ still comment */ b");
        let idents: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Ident)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(idents, ["a", "b"]);
    }
}
