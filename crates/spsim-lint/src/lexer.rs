//! A small Rust lexer: just enough to tokenize the workspace sources with
//! line numbers, keep comments separate, and never mistake the inside of a
//! string literal for code. Handles line and (nested) block comments,
//! plain / raw / byte strings, raw identifiers, char-vs-lifetime
//! disambiguation, and numeric literals. Everything else is a
//! one-character punct token. The token helpers every rule shares
//! (`ident`, `is_punct`, `matching`) live here too.

/// One lexical token (comments are reported separately).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// An identifier or keyword. A raw identifier keeps its `r#` prefix,
    /// so `r#loop` never reads as the keyword it spells.
    Ident(String),
    /// A single punctuation character (`::` arrives as two `:` tokens).
    Punct(char),
    /// A string, char, byte or numeric literal (contents dropped).
    Lit,
    /// A lifetime such as `'a` (distinct from a char literal).
    Lifetime,
}

/// A token plus the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token.
    pub tok: Tok,
    /// 1-based source line.
    pub line: u32,
}

/// The result of lexing one file.
pub struct Lexed {
    /// Code tokens in order, comments excluded.
    pub tokens: Vec<Token>,
    /// `(line, text)` of every comment, `//` markers stripped for line
    /// comments, block comments kept whole on their starting line.
    pub comments: Vec<(u32, String)>,
}

impl Lexed {
    /// Lines (1-based) whose comments contain `needle`.
    pub fn comment_lines_containing(&self, needle: &str) -> Vec<u32> {
        self.comments
            .iter()
            .filter(|(_, t)| t.contains(needle))
            .map(|(l, _)| *l)
            .collect()
    }

    /// Does a comment containing `marker` sit on `line`, or in the comment
    /// block that ends directly above it? Contiguity, not a fixed distance,
    /// so multi-line explanations stay legal.
    pub(crate) fn marks(&self, line: u32, marker: &str) -> bool {
        let commented = |l: u32| self.comments.iter().any(|(c, _)| *c == l);
        self.comments
            .iter()
            .filter(|(_, t)| t.contains(marker))
            .any(|(c, _)| *c == line || (*c < line && (*c + 1..line).all(commented)))
    }
}

/// Tokenize `src`.
pub fn lex(src: &str) -> Lexed {
    let b: Vec<char> = src.chars().collect();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut tokens = Vec::new();
    let mut comments = Vec::new();

    while i < b.len() {
        let c = b[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            ' ' | '\t' | '\r' => i += 1,
            '/' if b.get(i + 1) == Some(&'/') => {
                let start = i;
                while i < b.len() && b[i] != '\n' {
                    i += 1;
                }
                let text: String = b[start..i].iter().collect();
                let text = text.trim_start_matches('/').trim_start_matches('!');
                comments.push((line, text.trim().to_string()));
            }
            '/' if b.get(i + 1) == Some(&'*') => {
                let start_line = line;
                let start = i;
                i += 2;
                let mut depth = 1;
                while i < b.len() && depth > 0 {
                    if b[i] == '\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                let text: String = b[start..i.min(b.len())].iter().collect();
                comments.push((start_line, text));
            }
            '"' => {
                i = skip_string(&b, i, &mut line);
                tokens.push(Token {
                    tok: Tok::Lit,
                    line,
                });
            }
            'r' | 'b' if starts_raw_or_byte_string(&b, i) => {
                let tok_line = line;
                i = skip_raw_or_byte(&b, i, &mut line);
                tokens.push(Token {
                    tok: Tok::Lit,
                    line: tok_line,
                });
            }
            '\'' => {
                // Lifetime iff a label-like char follows and no close quote
                // directly after it (`'a` vs `'a'`).
                let is_lifetime = matches!(b.get(i + 1), Some(ch) if ch.is_alphabetic() || *ch == '_')
                    && b.get(i + 2) != Some(&'\'');
                if is_lifetime {
                    i += 1;
                    while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_') {
                        i += 1;
                    }
                    tokens.push(Token {
                        tok: Tok::Lifetime,
                        line,
                    });
                } else {
                    i += 1; // opening quote
                    if b.get(i) == Some(&'\\') {
                        i += 2; // escape + escaped char
                    } else {
                        i += 1;
                    }
                    while i < b.len() && b[i] != '\'' {
                        i += 1; // e.g. '\u{1F600}'
                    }
                    i += 1; // closing quote
                    tokens.push(Token {
                        tok: Tok::Lit,
                        line,
                    });
                }
            }
            _ if c.is_ascii_digit() => {
                while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_' || b[i] == '.') {
                    // Stop a range expression `0..n` from being eaten.
                    if b[i] == '.' && b.get(i + 1) == Some(&'.') {
                        break;
                    }
                    i += 1;
                }
                tokens.push(Token {
                    tok: Tok::Lit,
                    line,
                });
            }
            _ if c.is_alphabetic() || c == '_' => {
                let start = i;
                if c == 'r' && b.get(i + 1) == Some(&'#') {
                    i += 2; // raw identifier `r#name`
                }
                while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_') {
                    i += 1;
                }
                tokens.push(Token {
                    tok: Tok::Ident(b[start..i].iter().collect()),
                    line,
                });
            }
            _ => {
                tokens.push(Token {
                    tok: Tok::Punct(c),
                    line,
                });
                i += 1;
            }
        }
    }
    Lexed { tokens, comments }
}

/// `r"`, `r#"`, `b"`, `b'` or `br#"` at `i`. A raw identifier (`r#type`)
/// is not a string: after an `r`, only hashes followed by a quote open one.
fn starts_raw_or_byte_string(b: &[char], i: usize) -> bool {
    let after_r = match (b[i], b.get(i + 1)) {
        ('b', Some('"' | '\'')) => return true,
        ('b', Some('r')) => i + 2,
        ('r', _) => i + 1,
        _ => return false,
    };
    let hashes = b[after_r..].iter().take_while(|&&c| c == '#').count();
    b.get(after_r + hashes) == Some(&'"')
}

/// Skip a plain `"…"` string starting at the opening quote; returns the
/// index past the closing quote.
fn skip_string(b: &[char], mut i: usize, line: &mut u32) -> usize {
    i += 1;
    while i < b.len() {
        match b[i] {
            '\\' => {
                // A `\` line continuation still ends the physical line.
                if b.get(i + 1) == Some(&'\n') {
                    *line += 1;
                }
                i += 2;
            }
            '\n' => {
                *line += 1;
                i += 1;
            }
            '"' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// Skip `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#` or `b'…'` starting at the
/// `r`/`b`; returns the index past the end.
fn skip_raw_or_byte(b: &[char], mut i: usize, line: &mut u32) -> usize {
    if b[i] == 'b' {
        i += 1;
        if b.get(i) == Some(&'\'') {
            // byte char b'x'
            i += 1;
            if b.get(i) == Some(&'\\') {
                i += 2;
            } else {
                i += 1;
            }
            return i + 1; // closing quote
        }
        if b.get(i) == Some(&'"') {
            return skip_string(b, i, line);
        }
        // fallthrough: br…
    }
    debug_assert_eq!(b[i], 'r');
    i += 1;
    let mut hashes = 0;
    while b.get(i) == Some(&'#') {
        hashes += 1;
        i += 1;
    }
    debug_assert_eq!(b.get(i), Some(&'"'));
    i += 1;
    while i < b.len() {
        if b[i] == '\n' {
            *line += 1;
            i += 1;
        } else if b[i] == '"' {
            let mut j = i + 1;
            let mut seen = 0;
            while seen < hashes && b.get(j) == Some(&'#') {
                seen += 1;
                j += 1;
            }
            if seen == hashes {
                return j;
            }
            i += 1;
        } else {
            i += 1;
        }
    }
    i
}

/// Remove every item annotated `#[cfg(test)]` (and `#[cfg(all(test, …))]`)
/// from the token stream: attributes, the item keyword, and its braced body
/// or trailing semicolon. Rules run on the filtered stream so test code is
/// exempt by construction.
pub fn strip_test_items(tokens: &[Token]) -> Vec<Token> {
    let mut out = Vec::with_capacity(tokens.len());
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].tok == Tok::Punct('#')
            && matches!(tokens.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('[')))
        {
            let close = matching(tokens, i + 1, tokens.len(), '[', ']');
            let attr = &tokens[i + 1..close];
            let is_test = attr.iter().any(|t| t.tok == Tok::Ident("cfg".into()))
                && attr.iter().any(|t| t.tok == Tok::Ident("test".into()))
                // `#[cfg(not(test))]` is live (non-test) code.
                && !attr.iter().any(|t| t.tok == Tok::Ident("not".into()));
            if is_test {
                // Skip this attribute, any further attributes, then the item.
                i = close + 1;
                while i < tokens.len()
                    && tokens[i].tok == Tok::Punct('#')
                    && matches!(tokens.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('[')))
                {
                    i = matching(tokens, i + 1, tokens.len(), '[', ']') + 1;
                }
                i = skip_item(tokens, i);
                continue;
            }
        }
        out.push(tokens[i].clone());
        i += 1;
    }
    out
}

/// Skip one item starting at `i`: everything up to and including either a
/// top-level `;` or the brace block that opens first.
fn skip_item(tokens: &[Token], mut i: usize) -> usize {
    while i < tokens.len() {
        match tokens[i].tok {
            Tok::Punct(';') => return i + 1,
            Tok::Punct('{') => return matching(tokens, i, tokens.len(), '{', '}') + 1,
            // A nested bracket group before the body (generics use <>,
            // which we don't need to balance to find `{` or `;`).
            _ => i += 1,
        }
    }
    i
}

/// The identifier text of `t`, if it is one.
pub(crate) fn ident(t: Option<&Token>) -> Option<&str> {
    match t.map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

/// Is `t` the punctuation character `c`?
pub(crate) fn is_punct(t: Option<&Token>, c: char) -> bool {
    matches!(t.map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
}

/// Index of the token closing the `open`…`close` group opened at
/// `open_idx`, searching no further than `end` (`end - 1` if unclosed).
pub(crate) fn matching(
    tokens: &[Token],
    open_idx: usize,
    end: usize,
    open: char,
    close: char,
) -> usize {
    let mut depth = 0usize;
    let mut i = open_idx;
    while i < end {
        match tokens[i].tok {
            Tok::Punct(c) if c == open => depth += 1,
            Tok::Punct(c) if c == close => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    end.saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_hide_their_contents() {
        assert_eq!(
            idents(r#"let x = "HashMap Instant"; y"#),
            vec!["let", "x", "y"]
        );
        assert_eq!(
            idents(r##"let x = r#"Ordering::Relaxed"#; y"##),
            vec!["let", "x", "y"]
        );
    }

    #[test]
    fn raw_identifiers_are_one_identifier() {
        // `r#type` once opened a raw string that swallowed the rest of the
        // file (and tripped a debug assertion).
        assert_eq!(
            idents("fn f(r#type: u32) { HashMap } r\"s\" r#\"t\"# br#\"u\"#"),
            vec!["fn", "f", "r#type", "u32", "HashMap"]
        );
        // A raw keyword is not the keyword.
        assert_eq!(idents("let r#loop = 1;"), vec!["let", "r#loop"]);
    }

    #[test]
    fn lifetimes_are_not_chars() {
        let l = lex("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        let lifetimes = l.tokens.iter().filter(|t| t.tok == Tok::Lifetime).count();
        assert_eq!(lifetimes, 2);
        assert!(idents("let c = 'x'; done").contains(&"done".to_string()));
    }

    #[test]
    fn comments_are_captured_with_lines() {
        let l = lex("let a = 1;\n// ordering: fine\nlet b = 2; // trailing\n");
        assert_eq!(l.comment_lines_containing("ordering:"), vec![2]);
        assert_eq!(l.comment_lines_containing("trailing"), vec![3]);
    }

    #[test]
    fn nested_block_comments() {
        let ids = idents("a /* x /* y */ z */ b");
        assert_eq!(ids, vec!["a", "b"]);
    }

    #[test]
    fn test_items_are_stripped() {
        let src = "fn live() { x.unwrap(); }\n\
                   #[cfg(test)]\nmod tests { fn t() { y.unwrap(); } }\n\
                   fn also_live() {}";
        let toks = strip_test_items(&lex(src).tokens);
        let ids: Vec<_> = toks
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Ident(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert!(ids.contains(&"live"));
        assert!(ids.contains(&"also_live"));
        assert!(!ids.contains(&"tests"));
        assert!(ids.iter().filter(|s| **s == "unwrap").count() == 1);
    }

    #[test]
    fn line_numbers_survive_multiline_strings() {
        let l = lex("let a = \"one\ntwo\";\nlet b = 1;");
        let b_line = l
            .tokens
            .iter()
            .find(|t| t.tok == Tok::Ident("b".into()))
            .unwrap()
            .line;
        assert_eq!(b_line, 3);
    }
}
