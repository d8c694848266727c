//! The byte-level term lexer shared by the Turtle and N-Triples readers.
//!
//! A [`Lexer`] is a cursor over one document (Turtle) or one line
//! (N-Triples). It scans the plain runs of IRIREFs, strings, whitespace,
//! prefixed names and blank labels and hands out `&str` slices of the
//! input; a term's text is copied only when an escape makes its value
//! differ from its source. Line and column count characters, and every
//! error is positioned just past the character that caused it, as the
//! character-at-a-time readers before it did.
//!
//! The two syntaxes differ in a few lexical rules and error messages,
//! which a [`Dialect`] carries.
//!
//! Both readers first try [`plain_statement`] where a statement starts:
//! one pass over a line of the shape data documents are written in
//! (`<s> <p> <o> .`, or a `"literal"` object), whose IRIs and strings are
//! scanned eight bytes at a time. It takes the line only when the line's
//! shape guarantees the general path would read the same terms without
//! error, and consumes nothing otherwise.

use std::borrow::Cow;

use shapefrag_govern::ErrorCode;

use crate::error::ParseError;
use crate::span::Span;
use crate::term::{Term, TermKey};

/// The lexical rules and messages that differ between the syntaxes.
pub(crate) struct Dialect {
    /// Whitespace inside `<…>` is an error (Turtle) rather than part of the
    /// IRI (N-Triples).
    iri_rejects_whitespace: bool,
    /// Blank node labels may hold inner `.`s (Turtle).
    label_dots: bool,
    bad_iri_escape: &'static str,
    short_unicode_escape: &'static str,
    bad_hex_digit: &'static str,
    bad_code_point: &'static str,
    unterminated_string: &'static str,
    unterminated_escape: &'static str,
}

pub(crate) const TURTLE: Dialect = Dialect {
    iri_rejects_whitespace: true,
    label_dots: true,
    bad_iri_escape: "invalid escape in IRI",
    short_unicode_escape: "unterminated unicode escape",
    bad_hex_digit: "invalid hex digit in unicode escape",
    bad_code_point: "invalid unicode code point",
    unterminated_string: "unterminated string literal",
    unterminated_escape: "unterminated escape sequence",
};

pub(crate) const NTRIPLES: Dialect = Dialect {
    iri_rejects_whitespace: false,
    label_dots: false,
    bad_iri_escape: "invalid IRI escape",
    short_unicode_escape: "short unicode escape",
    bad_hex_digit: "invalid hex digit",
    bad_code_point: "invalid code point",
    unterminated_string: "unterminated literal",
    unterminated_escape: "bad escape",
};

/// A lexed term: borrowed from the input unless an escape, a prefixed
/// name or a generated blank label made it owned.
#[derive(Debug, Clone)]
pub(crate) enum TermRef<'a> {
    Iri(Cow<'a, str>),
    Blank(Cow<'a, str>),
    Literal {
        lexical: Cow<'a, str>,
        /// Lower-cased.
        language: Option<Cow<'a, str>>,
        datatype: Cow<'a, str>,
    },
}

impl TermRef<'_> {
    pub(crate) fn key(&self) -> TermKey<'_> {
        match self {
            TermRef::Iri(iri) => TermKey::Iri(iri),
            TermRef::Blank(label) => TermKey::Blank(label),
            TermRef::Literal {
                lexical,
                language,
                datatype,
            } => TermKey::Literal {
                lexical,
                language: language.as_deref(),
                datatype,
            },
        }
    }

    pub(crate) fn to_term(&self) -> Term {
        self.key().to_term()
    }

    pub(crate) fn is_literal(&self) -> bool {
        matches!(self, TermRef::Literal { .. })
    }
}

/// A cursor over `input`; see the module docs.
pub(crate) struct Lexer<'a> {
    input: &'a str,
    /// Byte offset of the cursor, always on a char boundary.
    pub(crate) pos: usize,
    /// 1-based line and column of the cursor, counted in characters.
    line: usize,
    column: usize,
    dialect: &'static Dialect,
}

impl<'a> Lexer<'a> {
    /// A cursor at the start of `input`, which begins at column 1 of
    /// `line`.
    pub(crate) fn new(input: &'a str, line: usize, dialect: &'static Dialect) -> Self {
        Lexer {
            input,
            pos: 0,
            line,
            column: 1,
            dialect,
        }
    }

    pub(crate) fn here(&self) -> Span {
        Span::new(self.line, self.column)
    }

    pub(crate) fn error(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(self.line, self.column, msg)
    }

    pub(crate) fn error_code(&self, code: ErrorCode, msg: impl Into<String>) -> ParseError {
        ParseError::with_code(code, self.line, self.column, msg)
    }

    /// The input from the cursor on.
    pub(crate) fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    /// The input from byte offset `start` up to the cursor.
    pub(crate) fn since(&self, start: usize) -> &'a str {
        &self.input[start..self.pos]
    }

    /// The character starting at byte offset `at`.
    pub(crate) fn char_at(&self, at: usize) -> Option<char> {
        match *self.input.as_bytes().get(at)? {
            b if b.is_ascii() => Some(b as char),
            _ => self.input[at..].chars().next(),
        }
    }

    pub(crate) fn peek(&self) -> Option<char> {
        self.char_at(self.pos)
    }

    /// The character `offset` characters past the cursor.
    pub(crate) fn peek_at(&self, offset: usize) -> Option<char> {
        self.rest().chars().nth(offset)
    }

    pub(crate) fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        if c == '\n' {
            self.line += 1;
            self.column = 1;
        } else {
            self.column += 1;
        }
        Some(c)
    }

    pub(crate) fn expect(&mut self, c: char) -> Result<(), ParseError> {
        match self.bump() {
            Some(got) if got == c => Ok(()),
            Some(got) => Err(self.error(format!("expected '{c}', found '{got}'"))),
            None => Err(self
                .error(format!("expected '{c}', found end of input"))
                .code(ErrorCode::UnexpectedEof)),
        }
    }

    /// Consumes the ASCII keyword `kw` (case-insensitively) when it is next
    /// and followed by whitespace or a delimiter.
    pub(crate) fn eat_keyword(&mut self, kw: &str) -> bool {
        let end = self.pos + kw.len();
        let matches = self
            .input
            .as_bytes()
            .get(self.pos..end)
            .is_some_and(|next| next.eq_ignore_ascii_case(kw.as_bytes()));
        if !matches || matches!(self.char_at(end), Some(c) if c.is_alphanumeric() || c == '_') {
            return false;
        }
        self.pos = end;
        self.column += kw.len();
        true
    }

    /// Advances over the longest run of ASCII bytes that satisfy `keep`,
    /// which must reject `\n`, and returns it.
    pub(crate) fn ascii_run(&mut self, keep: impl Fn(u8) -> bool) -> &'a str {
        let start = self.pos;
        let len = self.input.as_bytes()[start..]
            .iter()
            .position(|&b| !b.is_ascii() || !keep(b))
            .unwrap_or(self.input.len() - start);
        debug_assert!(!self.input[start..start + len].contains('\n'));
        self.pos += len;
        self.column += len;
        &self.input[start..self.pos]
    }

    /// Advances over the longest run of characters that are non-ASCII or
    /// ASCII bytes satisfying `keep`, which must reject `\n`, and returns
    /// it.
    fn utf8_run(&mut self, keep: impl Fn(u8) -> bool) -> &'a str {
        let start = self.pos;
        // The run ends before an ASCII byte or at the end of the input, so
        // on a char boundary.
        let len = run_len(&self.input.as_bytes()[start..], |b| {
            !b.is_ascii() || keep(b)
        });
        let run = &self.input[start..start + len];
        debug_assert!(!run.contains('\n'));
        self.advance_in_line(len);
        run
    }

    /// Moves the cursor `len` bytes on, within its line.
    pub(crate) fn advance_in_line(&mut self, len: usize) {
        let run = &self.input[self.pos..self.pos + len];
        self.column += if run.is_ascii() {
            len
        } else {
            run.chars().count()
        };
        self.pos += len;
    }

    /// Skips whitespace, line breaks included.
    pub(crate) fn skip_spaces(&mut self) {
        loop {
            match self.input.as_bytes().get(self.pos) {
                Some(b' ' | b'\t' | b'\r' | 0x0b | 0x0c) => {
                    self.pos += 1;
                    self.column += 1;
                }
                Some(b'\n') => {
                    self.pos += 1;
                    self.line += 1;
                    self.column = 1;
                }
                Some(&b) if !b.is_ascii() && self.peek().is_some_and(char::is_whitespace) => {
                    self.bump();
                }
                _ => return,
            }
        }
    }

    /// Skips whitespace and `#` comments.
    pub(crate) fn skip_ws(&mut self) {
        loop {
            self.skip_spaces();
            if self.peek() != Some('#') {
                return;
            }
            self.utf8_run(|b| b != b'\n');
            self.bump();
        }
    }

    /// Lexes an IRIREF's body; the cursor is just past `<` and ends just
    /// past `>`.
    pub(crate) fn iri_body(&mut self) -> Result<Cow<'a, str>, ParseError> {
        let input = self.input;
        let start = self.pos;
        let mut owned: Option<String> = None;
        loop {
            let run = self.ascii_run(|b| b > b' ' && b != b'>' && b != b'\\');
            if let Some(buf) = &mut owned {
                buf.push_str(run);
            }
            let at = self.pos;
            let Some(c) = self.bump() else {
                return Err(self.error_code(ErrorCode::UnterminatedIri, "unterminated IRI"));
            };
            match c {
                '>' => return Ok(owned.map_or(Cow::Borrowed(&input[start..at]), Cow::Owned)),
                '\\' => {
                    let decoded = match self.bump() {
                        Some('u') => self.unicode_escape(4)?,
                        Some('U') => self.unicode_escape(8)?,
                        _ => {
                            return Err(self
                                .error_code(ErrorCode::InvalidEscape, self.dialect.bad_iri_escape))
                        }
                    };
                    owned
                        .get_or_insert_with(|| input[start..at].to_owned())
                        .push(decoded);
                }
                c if c.is_whitespace() && self.dialect.iri_rejects_whitespace => {
                    return Err(self.error("whitespace in IRI"))
                }
                c => {
                    if let Some(buf) = &mut owned {
                        buf.push(c);
                    }
                }
            }
        }
    }

    /// Lexes a string's body; the cursor is just past the opening `quote`
    /// (all three of them when `long`) and ends just past the closing one.
    pub(crate) fn string_body(
        &mut self,
        quote: char,
        long: bool,
    ) -> Result<Cow<'a, str>, ParseError> {
        let input = self.input;
        let q = quote as u8;
        let start = self.pos;
        let mut owned: Option<String> = None;
        loop {
            let run = self.utf8_run(|b| b != q && b != b'\\' && b != b'\n');
            if let Some(buf) = &mut owned {
                buf.push_str(run);
            }
            let at = self.pos;
            let Some(c) = self.bump() else {
                return Err(self.error_code(
                    ErrorCode::UnterminatedString,
                    self.dialect.unterminated_string,
                ));
            };
            if c == quote
                && (!long || (self.peek() == Some(quote) && self.peek_at(1) == Some(quote)))
            {
                if long {
                    self.bump();
                    self.bump();
                }
                return Ok(owned.map_or(Cow::Borrowed(&input[start..at]), Cow::Owned));
            }
            if c == '\\' {
                let Some(esc) = self.bump() else {
                    return Err(
                        self.error_code(ErrorCode::InvalidEscape, self.dialect.unterminated_escape)
                    );
                };
                let decoded = match esc {
                    't' => '\t',
                    'n' => '\n',
                    'r' => '\r',
                    'b' => '\u{8}',
                    'f' => '\u{c}',
                    '"' => '"',
                    '\'' => '\'',
                    '\\' => '\\',
                    'u' => self.unicode_escape(4)?,
                    'U' => self.unicode_escape(8)?,
                    other => {
                        return Err(self.error_code(
                            ErrorCode::InvalidEscape,
                            format!("invalid escape '\\{other}'"),
                        ))
                    }
                };
                owned
                    .get_or_insert_with(|| input[start..at].to_owned())
                    .push(decoded);
            } else if !long && c == '\n' {
                return Err(self.error_code(
                    ErrorCode::UnterminatedString,
                    "newline in short string literal",
                ));
            } else if let Some(buf) = &mut owned {
                buf.push(c);
            }
        }
    }

    /// Decodes the `digits` hex digits of a `\u` / `\U` escape.
    fn unicode_escape(&mut self, digits: usize) -> Result<char, ParseError> {
        let mut v: u32 = 0;
        for _ in 0..digits {
            let Some(c) = self.bump() else {
                return Err(
                    self.error_code(ErrorCode::InvalidEscape, self.dialect.short_unicode_escape)
                );
            };
            let d = c.to_digit(16).ok_or_else(|| {
                self.error_code(ErrorCode::InvalidEscape, self.dialect.bad_hex_digit)
            })?;
            v = v * 16 + d;
        }
        char::from_u32(v)
            .ok_or_else(|| self.error_code(ErrorCode::InvalidEscape, self.dialect.bad_code_point))
    }

    /// Lexes a blank node label; the cursor is just past `_:`.
    pub(crate) fn blank_label(&mut self) -> Result<&'a str, ParseError> {
        let start = self.pos;
        loop {
            self.ascii_run(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-');
            match self.peek() {
                // A '.' not followed by a label character ends the statement.
                Some('.')
                    if self.dialect.label_dots
                        && matches!(self.peek_at(1), Some(n) if n.is_alphanumeric() || n == '_') =>
                {
                    self.bump();
                }
                Some(c) if c.is_alphanumeric() => {
                    self.bump();
                }
                _ => break,
            }
        }
        if self.pos == start {
            return Err(self.error("empty blank node label"));
        }
        Ok(self.since(start))
    }

    /// Lexes a language tag, lower-cased; the cursor is just past `@`.
    pub(crate) fn lang_tag(&mut self) -> Result<Cow<'a, str>, ParseError> {
        let tag = self.ascii_run(|b| b.is_ascii_alphanumeric() || b == b'-');
        if tag.is_empty() {
            return Err(self.error("empty language tag"));
        }
        Ok(if tag.bytes().any(|b| b.is_ascii_uppercase()) {
            Cow::Owned(tag.to_ascii_lowercase())
        } else {
            Cow::Borrowed(tag)
        })
    }
}

/// The length of the longest prefix of `bytes` whose bytes all satisfy
/// `keep`. Whole 8-byte blocks are tested without a branch per byte, so
/// the long plain runs of IRIs and strings cost a few compares per block
/// (8 measured faster than 16 or 32 on the benchmark inputs; a run of one
/// or two bytes is cheaper to scan byte by byte).
fn run_len(bytes: &[u8], keep: impl Fn(u8) -> bool) -> usize {
    let mut len = 0;
    for block in bytes.chunks_exact(8) {
        let block: &[u8; 8] = block.try_into().expect("an 8-byte chunk");
        if !block.iter().fold(true, |all, &b| all & keep(b)) {
            break;
        }
        len += 8;
    }
    len + bytes[len..]
        .iter()
        .position(|&b| !keep(b))
        .unwrap_or(bytes.len() - len)
}

/// A statement of the plain line shape (see [`plain_statement`]), as
/// slices of the text it was lexed from.
pub(crate) struct PlainStatement<'a> {
    pub(crate) subject: &'a str,
    pub(crate) predicate: &'a str,
    /// Byte offset of the predicate's `<` in the text.
    pub(crate) predicate_at: usize,
    pub(crate) object: TermKey<'a>,
    /// Byte length of the statement and its trailing blanks: the text goes
    /// on with `\n` or ends.
    pub(crate) len: usize,
}

impl<'a> PlainStatement<'a> {
    /// Every IRI of the statement, the datatype included.
    pub(crate) fn iris(&self) -> impl Iterator<Item = &'a str> {
        let object = match self.object {
            TermKey::Iri(iri) => Some(iri),
            TermKey::Literal { datatype, .. } => Some(datatype),
            TermKey::Blank(_) => None,
        };
        [self.subject, self.predicate].into_iter().chain(object)
    }
}

/// Lexes the statement `text` starts with when its line has the plain
/// shape both readers share, `<s> <p> <o> .` or `<s> <p> "lit" .` with an
/// optional `@lang` or `^^<dt>`:
///
/// - IRIs are ASCII, without whitespace or `\`;
/// - the literal has no `\` and is written with `"` (Turtle's `"""` does
///   not qualify);
/// - the language tag is lower case;
/// - terms are separated by spaces and tabs only, and nothing but spaces
///   and tabs follows the `.` on the line.
///
/// On such a line both readers yield exactly these terms, borrowed from
/// the text, with no error; on any other line this returns `None`, and
/// the caller lexes the line with its general path, which then reports
/// the same ids, triples and errors as if this pass did not exist.
pub(crate) fn plain_statement(text: &str) -> Option<PlainStatement<'_>> {
    let bytes = text.as_bytes();
    let blanks = |at: usize| {
        at + bytes[at..]
            .iter()
            .take_while(|&&b| b == b' ' || b == b'\t')
            .count()
    };
    let iri = |at: usize| -> Option<(&str, usize)> {
        if bytes.get(at) != Some(&b'<') {
            return None;
        }
        let len = run_len(&bytes[at + 1..], |b| {
            b > b' ' && b.is_ascii() && b != b'>' && b != b'\\'
        });
        let end = at + 1 + len;
        (bytes.get(end) == Some(&b'>')).then(|| (&text[at + 1..end], end + 1))
    };
    let (subject, at) = iri(0)?;
    let predicate_at = blanks(at);
    let (predicate, at) = iri(predicate_at)?;
    let at = blanks(at);
    let (object, at) = match bytes.get(at)? {
        b'<' => {
            let (o, end) = iri(at)?;
            (TermKey::Iri(o), end)
        }
        b'"' => {
            let len = run_len(&bytes[at + 1..], |b| b != b'"' && b != b'\\' && b != b'\n');
            let end = at + 1 + len;
            if bytes.get(end) != Some(&b'"') {
                return None;
            }
            let lexical = &text[at + 1..end];
            match bytes.get(end + 1) {
                Some(b'@') => {
                    let tag_at = end + 2;
                    let len = bytes[tag_at..]
                        .iter()
                        .take_while(|&&b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-')
                        .count();
                    if len == 0 {
                        return None;
                    }
                    let language = Some(&text[tag_at..tag_at + len]);
                    let datatype = crate::vocab::rdf::LANG_STRING;
                    (
                        TermKey::Literal {
                            lexical,
                            language,
                            datatype,
                        },
                        tag_at + len,
                    )
                }
                Some(b'^') if bytes.get(end + 2) == Some(&b'^') => {
                    let (datatype, end) = iri(end + 3)?;
                    (
                        TermKey::Literal {
                            lexical,
                            language: None,
                            datatype,
                        },
                        end,
                    )
                }
                _ => {
                    let datatype = crate::vocab::xsd::STRING;
                    (
                        TermKey::Literal {
                            lexical,
                            language: None,
                            datatype,
                        },
                        end + 1,
                    )
                }
            }
        }
        _ => return None,
    };
    let at = blanks(at);
    if bytes.get(at) != Some(&b'.') {
        return None;
    }
    let len = blanks(at + 1);
    matches!(bytes.get(len), None | Some(b'\n')).then_some(PlainStatement {
        subject,
        predicate,
        predicate_at,
        object,
        len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_terms_are_borrowed_and_escapes_owned() {
        let mut lex = Lexer::new("http://e/a> x", 1, &TURTLE);
        assert!(matches!(
            lex.iri_body().unwrap(),
            Cow::Borrowed("http://e/a")
        ));
        assert_eq!(lex.here(), Span::new(1, 12));

        let mut lex = Lexer::new("http://e/\\u00E9> x", 1, &TURTLE);
        let iri = lex.iri_body().unwrap();
        assert!(matches!(&iri, Cow::Owned(s) if s == "http://e/é"));

        let mut lex = Lexer::new("caf\u{e9} \\\"q\\\"\" .", 1, &NTRIPLES);
        let s = lex.string_body('"', false).unwrap();
        assert!(matches!(&s, Cow::Owned(s) if s == "café \"q\""));
        assert_eq!(lex.here(), Span::new(1, 12));

        let mut lex = Lexer::new("a\n\"b\"\"\"", 1, &TURTLE);
        assert!(matches!(
            lex.string_body('"', true).unwrap(),
            Cow::Borrowed("a\n\"b")
        ));
        assert_eq!(lex.here(), Span::new(2, 6));
    }

    #[test]
    fn runs_count_characters_not_bytes() {
        let mut lex = Lexer::new("# é中🦀\n  \u{a0}x", 1, &TURTLE);
        lex.skip_ws();
        assert_eq!(lex.peek(), Some('x'));
        assert_eq!(lex.here(), Span::new(2, 4));
    }

    #[test]
    fn labels_and_tags() {
        let mut lex = Lexer::new("b1.x.", 1, &TURTLE);
        assert_eq!(lex.blank_label().unwrap(), "b1.x");
        let mut lex = Lexer::new("b1.x.", 1, &NTRIPLES);
        assert_eq!(lex.blank_label().unwrap(), "b1");
        let mut lex = Lexer::new("en-GB ", 1, &NTRIPLES);
        assert_eq!(lex.lang_tag().unwrap(), "en-gb");
        let mut lex = Lexer::new("fr ", 1, &NTRIPLES);
        assert!(matches!(lex.lang_tag().unwrap(), Cow::Borrowed("fr")));
    }
}
