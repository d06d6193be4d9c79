//! A hand-rolled Rust lexer, written from scratch like the workspace's
//! rand/proptest shims: the build environment is registry-free,
//! so pulling in `syn`/`proc-macro2` is not an option.
//!
//! The lexer's only job is to be *reliable about what is code and what is
//! not*: rules must never fire on the contents of a string literal, a
//! comment, or a char literal, and must not confuse a lifetime (`'a`) with
//! a char (`'a'`). It therefore handles the full literal surface the
//! workspace uses — line comments, nested block comments, cooked strings
//! with escapes, raw strings `r#".."#` with arbitrary hash fences, byte
//! and raw-byte strings, byte chars, char literals (including `'\''` and
//! `'\u{..}'`), raw identifiers — and tokenizes everything else into
//! identifiers, numbers, lifetimes and punctuation with line/column spans.
//!
//! It deliberately does **not** parse: rules pattern-match over the token
//! stream (see [`crate::rules`]), which is exactly the right altitude for
//! the determinism invariants being checked.

/// Token kind. String-like literals keep distinct kinds so lexer tests can
/// assert the classification, but rules generally only care that they are
/// *not* identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    Ident,
    Lifetime,
    CharLit,
    ByteLit,
    StrLit,
    RawStrLit,
    ByteStrLit,
    RawByteStrLit,
    NumLit,
    /// A single punctuation character.
    Punct(char),
    /// `::`, merged so rules can tell a path separator from a type
    /// ascription colon without peeking at columns.
    ColonColon,
}

/// One token with its byte span and 1-based line/column position.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub start: usize,
    pub end: usize,
    pub line: u32,
    pub col: u32,
}

/// One comment (line or block), kept out of the token stream. Waiver
/// directives and `// SAFETY:` justifications are read from here.
#[derive(Debug, Clone)]
pub struct Comment {
    pub start: usize,
    pub end: usize,
    /// Line the comment starts on (1-based).
    pub line: u32,
    /// Line the comment ends on (equal to `line` for line comments).
    pub end_line: u32,
    pub block: bool,
    /// True when the comment is the first non-whitespace content on its
    /// starting line (a "standalone" comment, as opposed to a trailing one).
    pub standalone: bool,
}

/// The result of lexing one file.
pub struct Lexed<'a> {
    pub src: &'a str,
    pub toks: Vec<Tok>,
    pub comments: Vec<Comment>,
}

impl<'a> Lexed<'a> {
    /// Source text of a token.
    pub fn text(&self, t: &Tok) -> &'a str {
        &self.src[t.start..t.end]
    }

    /// Source text of a comment.
    pub fn comment_text(&self, c: &Comment) -> &'a str {
        &self.src[c.start..c.end]
    }

    /// Identifier text at token index `i`, if that token is an identifier.
    pub fn ident(&self, i: usize) -> Option<&'a str> {
        let t = self.toks.get(i)?;
        (t.kind == TokKind::Ident).then(|| self.text(t))
    }

    /// True if token `i` is the punctuation char `c`.
    pub fn punct(&self, i: usize, c: char) -> bool {
        matches!(self.toks.get(i), Some(t) if t.kind == TokKind::Punct(c))
    }

    /// True if token `i` is a `::` path separator.
    pub fn path_sep(&self, i: usize) -> bool {
        matches!(self.toks.get(i), Some(t) if t.kind == TokKind::ColonColon)
    }
}

struct Cursor<'a> {
    src: &'a str,
    /// (byte offset, char) pairs.
    chars: Vec<(usize, char)>,
    i: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Self {
        Cursor { src, chars: src.char_indices().collect(), i: 0, line: 1, col: 1 }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).map(|&(_, c)| c)
    }

    fn cur(&self) -> Option<char> {
        self.peek(0)
    }

    fn offset(&self) -> usize {
        self.chars.get(self.i).map(|&(o, _)| o).unwrap_or(self.src.len())
    }

    fn bump(&mut self) -> Option<char> {
        let &(_, c) = self.chars.get(self.i)?;
        self.i += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lex `src` into tokens and comments. Never fails: unterminated literals
/// simply run to end of file (the compiler proper reports those; the lint
/// pass must stay total).
pub fn lex(src: &str) -> Lexed<'_> {
    let mut cur = Cursor::new(src);
    let mut toks = Vec::new();
    let mut comments = Vec::new();
    // Whether anything other than whitespace has appeared on the current
    // line yet — used to classify standalone vs trailing comments.
    let mut line_has_content = false;
    let mut content_line = 0u32;

    while let Some(c) = cur.cur() {
        if cur.line != content_line {
            line_has_content = false;
        }
        if c.is_whitespace() {
            cur.bump();
            continue;
        }
        let start = cur.offset();
        let (line, col) = (cur.line, cur.col);
        let standalone = !line_has_content;
        line_has_content = true;
        content_line = line;

        // Comments.
        if c == '/' && cur.peek(1) == Some('/') {
            while let Some(ch) = cur.cur() {
                if ch == '\n' {
                    break;
                }
                cur.bump();
            }
            comments.push(Comment {
                start,
                end: cur.offset(),
                line,
                end_line: line,
                block: false,
                standalone,
            });
            continue;
        }
        if c == '/' && cur.peek(1) == Some('*') {
            cur.bump();
            cur.bump();
            let mut depth = 1usize;
            while depth > 0 {
                match (cur.cur(), cur.peek(1)) {
                    (Some('/'), Some('*')) => {
                        depth += 1;
                        cur.bump();
                        cur.bump();
                    }
                    (Some('*'), Some('/')) => {
                        depth -= 1;
                        cur.bump();
                        cur.bump();
                    }
                    (Some(_), _) => {
                        cur.bump();
                    }
                    (None, _) => break,
                }
            }
            comments.push(Comment {
                start,
                end: cur.offset(),
                line,
                end_line: cur.line,
                block: true,
                standalone,
            });
            continue;
        }

        // Raw strings / raw identifiers: r"..", r#".."#, r#ident.
        if c == 'r' && matches!(cur.peek(1), Some('"') | Some('#')) {
            let mut hashes = 0usize;
            while cur.peek(1 + hashes) == Some('#') {
                hashes += 1;
            }
            if cur.peek(1 + hashes) == Some('"') {
                cur.bump(); // r
                for _ in 0..hashes {
                    cur.bump();
                }
                cur.bump(); // opening quote
                eat_raw_string_body(&mut cur, hashes);
                toks.push(Tok { kind: TokKind::RawStrLit, start, end: cur.offset(), line, col });
                continue;
            }
            if hashes == 1 && cur.peek(2).map(is_ident_start).unwrap_or(false) {
                // Raw identifier r#ident: skip the fence, lex as Ident.
                cur.bump();
                cur.bump();
                while cur.cur().map(is_ident_continue).unwrap_or(false) {
                    cur.bump();
                }
                toks.push(Tok { kind: TokKind::Ident, start, end: cur.offset(), line, col });
                continue;
            }
            // Fall through: bare `r` ident or `#` punct handled below.
        }

        // Byte strings / byte chars: b"..", br#".."#, b'.'.
        if c == 'b' {
            match cur.peek(1) {
                Some('"') => {
                    cur.bump();
                    cur.bump();
                    eat_cooked_string_body(&mut cur, '"');
                    toks.push(Tok {
                        kind: TokKind::ByteStrLit,
                        start,
                        end: cur.offset(),
                        line,
                        col,
                    });
                    continue;
                }
                Some('r') if matches!(cur.peek(2), Some('"') | Some('#')) => {
                    let mut hashes = 0usize;
                    while cur.peek(2 + hashes) == Some('#') {
                        hashes += 1;
                    }
                    if cur.peek(2 + hashes) == Some('"') {
                        cur.bump(); // b
                        cur.bump(); // r
                        for _ in 0..hashes {
                            cur.bump();
                        }
                        cur.bump(); // opening quote
                        eat_raw_string_body(&mut cur, hashes);
                        toks.push(Tok {
                            kind: TokKind::RawByteStrLit,
                            start,
                            end: cur.offset(),
                            line,
                            col,
                        });
                        continue;
                    }
                }
                Some('\'') => {
                    cur.bump(); // b
                    cur.bump(); // opening quote
                    eat_char_body(&mut cur);
                    toks.push(Tok { kind: TokKind::ByteLit, start, end: cur.offset(), line, col });
                    continue;
                }
                _ => {}
            }
        }

        // Cooked strings.
        if c == '"' {
            cur.bump();
            eat_cooked_string_body(&mut cur, '"');
            toks.push(Tok { kind: TokKind::StrLit, start, end: cur.offset(), line, col });
            continue;
        }

        // `'`: lifetime or char literal. `'a` followed by ident chars and
        // no closing quote is a lifetime; `'a'` is a char. `'\...'` is
        // always a char.
        if c == '\'' {
            let next = cur.peek(1);
            let is_lifetime = match next {
                Some(n) if is_ident_start(n) => {
                    // Find where the ident run ends; a quote right after a
                    // single ident char means a char literal like 'a'.
                    let mut k = 2;
                    while cur.peek(k).map(is_ident_continue).unwrap_or(false) {
                        k += 1;
                    }
                    cur.peek(k) != Some('\'')
                }
                _ => false,
            };
            if is_lifetime {
                cur.bump(); // '
                while cur.cur().map(is_ident_continue).unwrap_or(false) {
                    cur.bump();
                }
                toks.push(Tok { kind: TokKind::Lifetime, start, end: cur.offset(), line, col });
            } else {
                cur.bump(); // opening quote
                eat_char_body(&mut cur);
                toks.push(Tok { kind: TokKind::CharLit, start, end: cur.offset(), line, col });
            }
            continue;
        }

        // Identifiers and keywords.
        if is_ident_start(c) {
            while cur.cur().map(is_ident_continue).unwrap_or(false) {
                cur.bump();
            }
            toks.push(Tok { kind: TokKind::Ident, start, end: cur.offset(), line, col });
            continue;
        }

        // Numbers (good enough for spans: `0x1F`, `1_000u64`, `1.5e-9`;
        // a trailing `.` as in `0..5` is left to the range operator).
        if c.is_ascii_digit() {
            eat_number(&mut cur);
            toks.push(Tok { kind: TokKind::NumLit, start, end: cur.offset(), line, col });
            continue;
        }

        // `::` path separator, merged.
        if c == ':' && cur.peek(1) == Some(':') {
            cur.bump();
            cur.bump();
            toks.push(Tok { kind: TokKind::ColonColon, start, end: cur.offset(), line, col });
            continue;
        }

        // Everything else: single-char punctuation.
        cur.bump();
        toks.push(Tok { kind: TokKind::Punct(c), start, end: cur.offset(), line, col });
    }

    Lexed { src, toks, comments }
}

/// Consume a raw-string body after the opening quote, up to and including
/// the closing `"` followed by `hashes` `#`s.
fn eat_raw_string_body(cur: &mut Cursor<'_>, hashes: usize) {
    while let Some(ch) = cur.cur() {
        if ch == '"' {
            let mut ok = true;
            for k in 0..hashes {
                if cur.peek(1 + k) != Some('#') {
                    ok = false;
                    break;
                }
            }
            if ok {
                cur.bump();
                for _ in 0..hashes {
                    cur.bump();
                }
                return;
            }
        }
        cur.bump();
    }
}

/// Consume a cooked-string body after the opening quote, honoring `\`
/// escapes (including escaped quotes and line continuations).
fn eat_cooked_string_body(cur: &mut Cursor<'_>, quote: char) {
    while let Some(ch) = cur.cur() {
        if ch == '\\' {
            cur.bump();
            cur.bump(); // whatever is escaped, including `"` and `\`
            continue;
        }
        cur.bump();
        if ch == quote {
            return;
        }
    }
}

/// Consume a char/byte-literal body after the opening quote, up to and
/// including the closing quote. Handles `'\''`, `'\\'`, `'\x41'`,
/// `'\u{1F600}'` and plain chars.
fn eat_char_body(cur: &mut Cursor<'_>) {
    if cur.cur() == Some('\\') {
        cur.bump();
        cur.bump(); // the escaped char (n, t, ', \, x, u, ...)
                    // \x41 / \u{...}: run to the closing quote below either way.
    }
    while let Some(ch) = cur.bump() {
        if ch == '\'' {
            return;
        }
    }
}

/// Consume a number: digit run with `_`/suffix chars, optional fraction,
/// scientific exponent with sign.
fn eat_number(cur: &mut Cursor<'_>) {
    eat_digit_run(cur);
    if cur.cur() == Some('.') && cur.peek(1).map(|c| c.is_ascii_digit()).unwrap_or(false) {
        cur.bump();
        eat_digit_run(cur);
    }
}

fn eat_digit_run(cur: &mut Cursor<'_>) {
    while let Some(c) = cur.cur() {
        if c.is_alphanumeric() || c == '_' {
            if (c == 'e' || c == 'E')
                && matches!(cur.peek(1), Some('+') | Some('-'))
                && cur.peek(2).map(|d| d.is_ascii_digit()).unwrap_or(false)
            {
                cur.bump(); // e
                cur.bump(); // sign
                continue;
            }
            cur.bump();
        } else {
            break;
        }
    }
}
