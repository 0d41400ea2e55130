//! A lightweight Rust lexer: just enough tokenisation for lint rules.
//!
//! The lexer understands the parts of Rust's lexical grammar that can
//! *hide* tokens from a naive text search — line and (nested) block
//! comments, string/raw-string/char literals, lifetimes — and emits a
//! flat token stream with line numbers. It performs no parsing; the rule
//! engine matches token patterns (e.g. `.` `unwrap` `(`) over the
//! stream, which cannot be fooled by occurrences inside strings or
//! comments the way `grep` can.

/// What kind of lexeme a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`unwrap`, `fn`, `Instant`, ...).
    Ident,
    /// A numeric literal.
    Num,
    /// A string literal (plain, raw, or byte); `text` is the content
    /// without quotes or raw-string hashes.
    Str,
    /// A character literal or a lifetime (`'a'`, `'static`).
    Char,
    /// A single punctuation character (`.`, `[`, `::` is two tokens).
    Punct,
}

/// One lexed token.
#[derive(Debug, Clone)]
pub struct Token {
    /// The token's kind.
    pub kind: TokKind,
    /// The token's text (see [`TokKind`] for per-kind conventions).
    pub text: String,
    /// 1-based source line the token starts on.
    pub line: u32,
}

impl Token {
    /// True for an identifier with exactly this text.
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokKind::Ident && self.text == text
    }

    /// True for a punctuation token with exactly this character.
    pub fn is_punct(&self, ch: char) -> bool {
        self.kind == TokKind::Punct && self.text.as_bytes() == ch.to_string().as_bytes()
    }
}

/// One comment (line or block), kept out of the token stream so rules
/// never match inside it; waiver annotations are parsed from these.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// Comment text without the `//` / `/*` markers.
    pub text: String,
}

/// Lex `src` into tokens and comments.
pub fn lex(src: &str) -> (Vec<Token>, Vec<Comment>) {
    Lexer::new(src).run()
}

struct Lexer<'a> {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    tokens: Vec<Token>,
    comments: Vec<Comment>,
    _src: &'a str,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            chars: src.chars().collect(),
            pos: 0,
            line: 1,
            tokens: Vec::new(),
            comments: Vec::new(),
            _src: src,
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(ch) = c {
            self.pos += 1;
            if ch == '\n' {
                self.line += 1;
            }
        }
        c
    }

    fn push(&mut self, kind: TokKind, text: String, line: u32) {
        self.tokens.push(Token { kind, text, line });
    }

    fn run(mut self) -> (Vec<Token>, Vec<Comment>) {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(line),
                '/' if self.peek(1) == Some('*') => self.block_comment(line),
                '"' => self.string(line),
                '\'' => self.char_or_lifetime(line),
                c if c.is_ascii_digit() => self.number(line),
                c if c.is_alphanumeric() || c == '_' => self.ident(line),
                _ => {
                    self.bump();
                    self.push(TokKind::Punct, c.to_string(), line);
                }
            }
        }
        (self.tokens, self.comments)
    }

    fn line_comment(&mut self, line: u32) {
        self.bump();
        self.bump();
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.comments.push(Comment { line, text });
    }

    fn block_comment(&mut self, line: u32) {
        self.bump();
        self.bump();
        let mut depth = 1usize;
        let mut text = String::new();
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    depth += 1;
                    self.bump();
                    self.bump();
                }
                (Some('*'), Some('/')) => {
                    depth -= 1;
                    self.bump();
                    self.bump();
                }
                (Some(c), _) => {
                    text.push(c);
                    self.bump();
                }
                (None, _) => break, // unterminated; tolerate
            }
        }
        self.comments.push(Comment { line, text });
    }

    /// A plain (escaped) string literal starting at the current `"`.
    fn string(&mut self, line: u32) {
        self.bump(); // opening quote
        let mut text = String::new();
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    if let Some(esc) = self.bump() {
                        text.push('\\');
                        text.push(esc);
                    }
                }
                '"' => break,
                _ => text.push(c),
            }
        }
        self.push(TokKind::Str, text, line);
    }

    /// A raw string starting at the current `"`, terminated by `"` plus
    /// `hashes` `#` characters.
    fn raw_string(&mut self, hashes: usize, line: u32) {
        self.bump(); // opening quote
        let mut text = String::new();
        'scan: while let Some(c) = self.bump() {
            if c == '"' {
                let mut matched = 0;
                while matched < hashes && self.peek(0) == Some('#') {
                    self.bump();
                    matched += 1;
                }
                if matched == hashes {
                    break 'scan;
                }
                text.push('"');
                for _ in 0..matched {
                    text.push('#');
                }
                continue;
            }
            text.push(c);
        }
        self.push(TokKind::Str, text, line);
    }

    fn char_or_lifetime(&mut self, line: u32) {
        // Lifetime: `'` ident-start, not followed by a closing quote.
        // Char literal: everything else (`'x'`, `'\n'`, `'\u{1F600}'`).
        let next = self.peek(1);
        let is_lifetime = matches!(next, Some(c) if c.is_alphanumeric() || c == '_')
            && self.peek(2) != Some('\'');
        self.bump(); // the quote
        if is_lifetime {
            let mut text = String::from("'");
            while let Some(c) = self.peek(0) {
                if c.is_alphanumeric() || c == '_' {
                    text.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
            self.push(TokKind::Char, text, line);
            return;
        }
        let mut text = String::new();
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    if let Some(esc) = self.bump() {
                        text.push('\\');
                        text.push(esc);
                    }
                }
                '\'' => break,
                _ => text.push(c),
            }
        }
        self.push(TokKind::Char, text, line);
    }

    fn number(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_ascii_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else if c == '.' && matches!(self.peek(1), Some(d) if d.is_ascii_digit()) {
                // `1.5` continues the number; `1..n` and `1.max(2)` do not.
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokKind::Num, text, line);
    }

    fn ident(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        // Raw/byte string prefixes: `r"..."`, `r#"..."#`, `b"..."`,
        // `br#"..."#`. The prefix ident is consumed into the literal.
        if text == "r" || text == "br" {
            let mut hashes = 0usize;
            while self.peek(hashes) == Some('#') {
                hashes += 1;
            }
            if self.peek(hashes) == Some('"') {
                for _ in 0..hashes {
                    self.bump();
                }
                self.raw_string(hashes, line);
                return;
            }
        }
        if text == "b" && self.peek(0) == Some('"') {
            self.string(line);
            return;
        }
        self.push(TokKind::Ident, text, line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .0
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_their_contents() {
        let src = r##"
            // unwrap() in a comment
            /* panic! in /* a nested */ block */
            let s = "unwrap() inside a string";
            let r = r#"raw with "quotes" and unwrap"#;
            call();
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"unwrap".to_string()), "{ids:?}");
        assert!(!ids.contains(&"panic".to_string()));
        assert!(ids.contains(&"call".to_string()));
    }

    #[test]
    fn lifetimes_do_not_swallow_code() {
        let ids = idents("fn f<'a>(x: &'a str) { x.unwrap() }");
        assert!(ids.contains(&"unwrap".to_string()));
    }

    #[test]
    fn char_literals_lex_as_chars() {
        let (toks, _) = lex("let c = 'x'; let n = '\\n'; let q = '\\'';");
        let chars: Vec<_> = toks.iter().filter(|t| t.kind == TokKind::Char).collect();
        assert_eq!(chars.len(), 3);
    }

    #[test]
    fn line_numbers_track_newlines() {
        let (toks, _) = lex("a\nb\n  c");
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[2].line, 3);
    }

    #[test]
    fn numbers_do_not_eat_ranges_or_methods() {
        let (toks, _) = lex("for i in 0..10 { 1.5f64.max(2.0); }");
        let nums: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Num)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(nums, vec!["0", "10", "1.5f64", "2.0"]);
        assert!(toks.iter().any(|t| t.is_ident("max")));
    }

    #[test]
    fn comments_are_collected_with_lines() {
        let (_, comments) = lex("x();\n// cbes-analyze: allow(metric_names, reason here)\ny();");
        assert_eq!(comments.len(), 1);
        assert_eq!(comments[0].line, 2);
        assert!(comments[0].text.contains("allow(metric_names"));
    }
}
