//! A hand-rolled token scanner for Rust source.
//!
//! The workspace builds offline on the standard library, so `syn` is not
//! available; the conformance rules only need a token stream with line
//! numbers, with comments, strings and char literals out of the way
//! (doc-comment examples and string contents must never trigger a
//! rule). The scanner is deliberately lossy: literals keep no content,
//! numbers keep no value.

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// 1-based source line the token starts on.
    pub line: u32,
    /// What the token is.
    pub kind: TokenKind,
}

/// Token classification — just enough structure for the rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`self`, `fn`, `use`, names…).
    Ident(String),
    /// Punctuation; `::`, `->` and `=>` are fused, the rest are single
    /// characters.
    Punct(&'static str),
    /// Any single punctuation character not in the fused set.
    PunctChar(char),
    /// A string literal. Plain `"…"` literals keep their raw inner
    /// text (R4 checks telemetry *names*); raw/byte forms keep none —
    /// no rule inspects those, and their content must stay inert.
    Str(String),
    /// A character or byte literal; content dropped.
    CharLit,
    /// A numeric literal; value dropped.
    Num,
    /// A lifetime such as `'a`.
    Lifetime,
}

impl TokenKind {
    /// The identifier text, if this is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match self {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// True when the token is exactly this identifier.
    pub fn is_ident(&self, s: &str) -> bool {
        self.ident() == Some(s)
    }

    /// The raw inner text of a plain string literal (escapes kept
    /// verbatim; raw/byte literals yield the empty string).
    pub fn str_lit(&self) -> Option<&str> {
        match self {
            TokenKind::Str(s) => Some(s),
            _ => None,
        }
    }

    /// True when the token is this punctuation string (fused or single).
    pub fn is_punct(&self, s: &str) -> bool {
        match self {
            TokenKind::Punct(p) => *p == s,
            TokenKind::PunctChar(c) => {
                let mut buf = [0u8; 4];
                c.encode_utf8(&mut buf) == s
            }
            _ => false,
        }
    }
}

/// Lexes one file's source into tokens, skipping comments and
/// whitespace. Unterminated literals are tolerated (lexed to EOF): the
/// analyzer must never panic on the code it is judging.
pub fn lex(source: &str) -> Vec<Token> {
    let bytes = source.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    let mut line: u32 = 1;

    macro_rules! bump_lines {
        ($range:expr) => {
            for &b in &bytes[$range] {
                if b == b'\n' {
                    line += 1;
                }
            }
        };
    }

    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                let start = i;
                let mut depth = 1u32;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                bump_lines!(start..i);
            }
            b'"' => {
                let tok_line = line;
                let start = i;
                i = skip_string(bytes, i);
                bump_lines!(start..i);
                // Inner text between the quotes (empty if unterminated).
                let inner = if i > start + 1 && bytes[i - 1] == b'"' {
                    std::str::from_utf8(&bytes[start + 1..i - 1])
                        .unwrap_or("")
                        .to_owned()
                } else {
                    String::new()
                };
                tokens.push(Token {
                    line: tok_line,
                    kind: TokenKind::Str(inner),
                });
            }
            b'r' | b'b' if starts_raw_or_byte_literal(bytes, i) => {
                let tok_line = line;
                let start = i;
                let (next, kind) = skip_prefixed_literal(bytes, i);
                i = next;
                bump_lines!(start..i);
                tokens.push(Token {
                    line: tok_line,
                    kind,
                });
            }
            b'\'' => {
                // Lifetime or char literal.
                if is_lifetime(bytes, i) {
                    i += 1;
                    while i < bytes.len() && is_ident_byte(bytes[i]) {
                        i += 1;
                    }
                    tokens.push(Token {
                        line,
                        kind: TokenKind::Lifetime,
                    });
                } else {
                    let tok_line = line;
                    let start = i;
                    i = skip_char_literal(bytes, i);
                    bump_lines!(start..i);
                    tokens.push(Token {
                        line: tok_line,
                        kind: TokenKind::CharLit,
                    });
                }
            }
            b'0'..=b'9' => {
                while i < bytes.len() && (is_ident_byte(bytes[i])) {
                    i += 1;
                }
                tokens.push(Token {
                    line,
                    kind: TokenKind::Num,
                });
            }
            _ if is_ident_start(b) => {
                let start = i;
                while i < bytes.len() && is_ident_byte(bytes[i]) {
                    i += 1;
                }
                let text = std::str::from_utf8(&bytes[start..i])
                    .unwrap_or("")
                    .to_owned();
                tokens.push(Token {
                    line,
                    kind: TokenKind::Ident(text),
                });
            }
            b':' if i + 1 < bytes.len() && bytes[i + 1] == b':' => {
                tokens.push(Token {
                    line,
                    kind: TokenKind::Punct("::"),
                });
                i += 2;
            }
            b'-' if i + 1 < bytes.len() && bytes[i + 1] == b'>' => {
                tokens.push(Token {
                    line,
                    kind: TokenKind::Punct("->"),
                });
                i += 2;
            }
            b'=' if i + 1 < bytes.len() && bytes[i + 1] == b'>' => {
                tokens.push(Token {
                    line,
                    kind: TokenKind::Punct("=>"),
                });
                i += 2;
            }
            _ => {
                tokens.push(Token {
                    line,
                    kind: TokenKind::PunctChar(b as char),
                });
                i += 1;
            }
        }
    }
    tokens
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Is the `'` at `i` a lifetime (rather than a char literal)?
fn is_lifetime(bytes: &[u8], i: usize) -> bool {
    // 'x' / '\n' are char literals; 'a (no closing quote right after
    // one ident char) is a lifetime. 'static, '_  are lifetimes.
    match bytes.get(i + 1) {
        Some(b'\\') => false,
        Some(&c) if is_ident_start(c) => bytes.get(i + 2) != Some(&b'\''),
        _ => false,
    }
}

fn skip_char_literal(bytes: &[u8], mut i: usize) -> usize {
    i += 1; // opening '
    if i < bytes.len() && bytes[i] == b'\\' {
        i += 2;
        // \u{...}
        while i < bytes.len() && bytes[i] != b'\'' {
            i += 1;
        }
    } else if i < bytes.len() {
        i += 1;
    }
    if i < bytes.len() && bytes[i] == b'\'' {
        i += 1;
    }
    i
}

fn skip_string(bytes: &[u8], mut i: usize) -> usize {
    i += 1; // opening "
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// Does `r`/`b` at `i` begin a raw string, byte string or byte char?
fn starts_raw_or_byte_literal(bytes: &[u8], i: usize) -> bool {
    match bytes[i] {
        b'r' => matches!(bytes.get(i + 1), Some(b'"') | Some(b'#')) && raw_has_quote(bytes, i + 1),
        b'b' => {
            matches!(bytes.get(i + 1), Some(b'"') | Some(b'\''))
                || (bytes.get(i + 1) == Some(&b'r') && raw_has_quote(bytes, i + 2))
        }
        _ => false,
    }
}

/// From a position at `#`* or `"`, confirm `#`* then `"` follows (so
/// `r#macro_name` raw identifiers are not mistaken for raw strings).
fn raw_has_quote(bytes: &[u8], mut i: usize) -> bool {
    while bytes.get(i) == Some(&b'#') {
        i += 1;
    }
    bytes.get(i) == Some(&b'"')
}

fn skip_prefixed_literal(bytes: &[u8], i: usize) -> (usize, TokenKind) {
    match bytes[i] {
        b'r' => (skip_raw_string(bytes, i + 1), TokenKind::Str(String::new())),
        b'b' => match bytes.get(i + 1) {
            Some(b'"') => (skip_string(bytes, i + 1), TokenKind::Str(String::new())),
            Some(b'\'') => (skip_char_literal(bytes, i + 1), TokenKind::CharLit),
            Some(b'r') => (skip_raw_string(bytes, i + 2), TokenKind::Str(String::new())),
            _ => (i + 1, TokenKind::Ident("b".into())),
        },
        _ => (i + 1, TokenKind::Str(String::new())),
    }
}

/// `i` points at the first `#` or the `"` of a raw string.
fn skip_raw_string(bytes: &[u8], mut i: usize) -> usize {
    let mut hashes = 0usize;
    while bytes.get(i) == Some(&b'#') {
        hashes += 1;
        i += 1;
    }
    if bytes.get(i) != Some(&b'"') {
        return i;
    }
    i += 1;
    while i < bytes.len() {
        if bytes[i] == b'"' {
            let mut j = 0;
            while j < hashes && bytes.get(i + 1 + j) == Some(&b'#') {
                j += 1;
            }
            if j == hashes {
                return i + 1 + hashes;
            }
        }
        i += 1;
    }
    i
}

/// Removes token ranges belonging to `#[cfg(test)]`- and `#[test]`-
/// attributed items, so rules only see shipping code. The scan is
/// syntactic: after such an attribute (plus any further attributes) the
/// next item is skipped — to its matching `}` if a brace opens at
/// nesting depth zero first, otherwise to the terminating `;`.
pub fn strip_test_code(tokens: Vec<Token>) -> Vec<Token> {
    let mut out = Vec::with_capacity(tokens.len());
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].kind.is_punct("#")
            && matches!(tokens.get(i + 1), Some(t) if t.kind.is_punct("["))
        {
            let (attr_end, is_test) = scan_attribute(&tokens, i);
            if is_test {
                i = skip_item(&tokens, attr_end);
                continue;
            }
        }
        out.push(tokens[i].clone());
        i += 1;
    }
    out
}

/// From `#` at `i`, returns (index after `]`, whether the attribute is
/// `#[test]`, `#[cfg(test)]` or any cfg(...) mentioning `test`).
fn scan_attribute(tokens: &[Token], i: usize) -> (usize, bool) {
    let mut depth = 0i32;
    let mut j = i + 1;
    let mut saw_cfg_or_test = false;
    let mut saw_test_ident = false;
    let mut first_ident: Option<&str> = None;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.kind.is_punct("[") {
            depth += 1;
        } else if t.kind.is_punct("]") {
            depth -= 1;
            if depth == 0 {
                j += 1;
                break;
            }
        } else if let Some(id) = t.kind.ident() {
            if first_ident.is_none() {
                first_ident = Some(match id {
                    "cfg" => "cfg",
                    "test" => "test",
                    _ => "other",
                });
            }
            if id == "cfg" {
                saw_cfg_or_test = true;
            }
            if id == "test" {
                saw_test_ident = true;
            }
        }
        j += 1;
    }
    let is_test_attr = match first_ident {
        Some("test") => true,
        Some("cfg") => saw_cfg_or_test && saw_test_ident,
        _ => false,
    };
    (j, is_test_attr)
}

/// Skips one item starting at `i` (which may begin with further
/// attributes): consumes attributes, then tokens until a `{ … }` block
/// closes or a `;` terminates, whichever comes first at depth zero.
fn skip_item(tokens: &[Token], mut i: usize) -> usize {
    // Consume any further attributes on the same item.
    while i < tokens.len()
        && tokens[i].kind.is_punct("#")
        && matches!(tokens.get(i + 1), Some(t) if t.kind.is_punct("["))
    {
        let (end, _) = scan_attribute(tokens, i);
        i = end;
    }
    let mut paren = 0i32;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.kind.is_punct("(") || t.kind.is_punct("[") {
            paren += 1;
        } else if t.kind.is_punct(")") || t.kind.is_punct("]") {
            paren -= 1;
        } else if paren == 0 && t.kind.is_punct(";") {
            return i + 1;
        } else if paren == 0 && t.kind.is_punct("{") {
            // Skip the block.
            let mut braces = 1i32;
            i += 1;
            while i < tokens.len() && braces > 0 {
                if tokens[i].kind.is_punct("{") {
                    braces += 1;
                } else if tokens[i].kind.is_punct("}") {
                    braces -= 1;
                }
                i += 1;
            }
            return i;
        }
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter_map(|t| t.kind.ident().map(str::to_owned))
            .collect()
    }

    #[test]
    fn comments_and_strings_are_silent() {
        let src = r##"
            // use simnet::Evil;
            /* use simnet::Worse; /* nested */ */
            /// let x = foo.unwrap();
            let s = "use simnet::InString"; // trailing
            let r = r#"use simnet::InRaw"#;
            let c = 'x';
            real_ident();
        "##;
        let ids = idents(src);
        assert!(ids.contains(&"real_ident".to_owned()));
        assert!(!ids.iter().any(|i| i.contains("simnet")));
        assert!(!ids.iter().any(|i| i == "unwrap"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) -> &'a str { 'q' }");
        let lifetimes = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .count();
        let chars = toks.iter().filter(|t| t.kind == TokenKind::CharLit).count();
        assert_eq!(lifetimes, 3);
        assert_eq!(chars, 1);
    }

    #[test]
    fn fused_punct_and_lines() {
        let toks = lex("a::b\n->c");
        assert!(toks[1].kind.is_punct("::"));
        assert_eq!(toks[0].line, 1);
        assert!(toks[3].kind.is_punct("->"));
        assert_eq!(toks[3].line, 2);
    }

    #[test]
    fn cfg_test_modules_are_stripped() {
        let src = r#"
            fn keep() { a.unwrap(); }
            #[cfg(test)]
            mod tests {
                fn gone() { b.unwrap(); }
            }
            fn also_keep() {}
        "#;
        let toks = strip_test_code(lex(src));
        let ids: Vec<_> = toks.iter().filter_map(|t| t.kind.ident()).collect();
        assert!(ids.contains(&"keep"));
        assert!(ids.contains(&"also_keep"));
        assert!(!ids.contains(&"gone"));
        assert!(!ids.contains(&"b"));
    }

    #[test]
    fn test_attributed_fns_are_stripped() {
        let src = r#"
            #[test]
            fn gone() { x.unwrap(); }
            #[cfg(feature = "x")]
            fn keep() {}
        "#;
        let toks = strip_test_code(lex(src));
        let ids: Vec<_> = toks.iter().filter_map(|t| t.kind.ident()).collect();
        assert!(!ids.contains(&"gone"));
        assert!(ids.contains(&"keep"));
    }

    #[test]
    fn cfg_test_use_items_are_stripped() {
        let src = "#[cfg(test)] use simnet::Sim; use odp::Trader;";
        let toks = strip_test_code(lex(src));
        let ids: Vec<_> = toks.iter().filter_map(|t| t.kind.ident()).collect();
        assert!(!ids.contains(&"simnet"));
        assert!(ids.contains(&"odp"));
    }

    #[test]
    fn raw_identifiers_are_not_raw_strings() {
        // `r#type` must not be mistaken for the start of a raw string
        // (which would swallow the rest of the file); everything after
        // it still lexes.
        let ids = idents("r#type = 1; rest");
        assert!(ids.contains(&"type".to_owned()));
        assert!(ids.contains(&"rest".to_owned()));
    }
}
