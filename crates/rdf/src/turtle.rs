//! Turtle parser and serializer.
//!
//! Supports the Turtle features needed for SHACL shapes graphs and data
//! graphs: `@prefix`/`PREFIX`, `@base`/`BASE` (used verbatim, no relative
//! resolution beyond simple concatenation), prefixed names, `a`,
//! predicate-object lists (`;`), object lists (`,`), blank node property
//! lists (`[...]`), collections (`(...)`), numeric / boolean / string
//! literal sugar, language tags, and datatype annotations.
//!
//! N-Triples documents are valid input too (Turtle is a superset for our
//! purposes); [`crate::ntriples`] offers a faster line-oriented reader.

use std::collections::HashMap;

use shapefrag_govern::ErrorCode;

use crate::error::{LossyLoad, ParseError};
use crate::frozen::FrozenGraph;
use crate::graph::{Graph, TripleLog};
use crate::ntriples::{write_sorted, write_term};
use crate::span::{Span, TripleSpans};
use crate::term::{BlankNode, Iri, Literal, Term};
use crate::vocab::{rdf, xsd};

/// Deepest allowed nesting of blank-node property lists `[...]` and
/// collections `(...)`. Each level costs a handful of stack frames, so the
/// guard turns adversarially nested documents into a structured
/// [`ErrorCode::DepthLimit`] error instead of a stack overflow.
const MAX_NESTING: usize = 128;

/// Parses a Turtle document into a [`Graph`].
pub fn parse(input: &str) -> Result<Graph, ParseError> {
    let mut parser = Parser::new(input);
    parser.parse_document()?;
    Ok(parser.log.into_graph())
}

/// Parses a Turtle document straight into a [`FrozenGraph`]: same triples
/// and ids as `parse(input)?.freeze()`, without building the mutable
/// indexes in between.
pub fn parse_frozen(input: &str) -> Result<FrozenGraph, ParseError> {
    let mut parser = Parser::new(input);
    parser.parse_document()?;
    Ok(parser.log.into_frozen())
}

/// [`parse`], additionally recording where each subject and each
/// `(subject, predicate)` pair first appeared. The shapes-graph parser
/// threads these positions into analyzer diagnostics.
pub fn parse_with_spans(input: &str) -> Result<(Graph, TripleSpans), ParseError> {
    let mut parser = Parser::new(input);
    parser.spans = Some(TripleSpans::default());
    parser.parse_document()?;
    Ok((parser.log.into_graph(), parser.spans.unwrap_or_default()))
}

/// Error-recovering parse: statements that fail are skipped up to the next
/// top-level `.` statement boundary (string literals, IRI refs, comments,
/// and bracket nesting are respected while scanning), one positioned
/// diagnostic is recorded per skipped region, and everything that parsed is
/// returned. Triples of the failed statement's already-parsed prefix are
/// kept — they are well-formed data even when a later object in the same
/// predicate-object list is not.
pub fn parse_lossy(input: &str) -> LossyLoad {
    let mut parser = Parser::new(input);
    let mut report = LossyLoad::default();
    loop {
        parser.skip_ws();
        if parser.peek().is_none() {
            break;
        }
        let before = parser.pos;
        match parser.parse_statement() {
            Ok(()) => report.statements_ok += 1,
            Err(e) => {
                report.diagnostics.push(e);
                report.statements_skipped += 1;
                parser.depth = 0;
                parser.recover_to_statement_boundary();
                if parser.pos == before {
                    // Guarantee progress even when recovery stalls at the
                    // very character that failed.
                    parser.bump();
                }
            }
        }
    }
    report.graph = parser.log.into_graph();
    report
}

struct Parser<'a> {
    input: &'a str,
    /// Byte offset of the cursor in `input`, always on a char boundary.
    pos: usize,
    /// 1-based line and column of the cursor, counted in characters.
    line: usize,
    column: usize,
    prefixes: HashMap<String, String>,
    base: String,
    log: TripleLog,
    blank_counter: usize,
    depth: usize,
    /// When set, subject / predicate source positions are recorded as
    /// statements parse (see [`parse_with_spans`]).
    spans: Option<TripleSpans>,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        // Pre-size the log from the document length: Turtle statements
        // average well under 100 bytes in the corpora we load, and
        // overshoot on small documents is harmless.
        Parser {
            input,
            pos: 0,
            line: 1,
            column: 1,
            prefixes: HashMap::new(),
            base: String::new(),
            log: TripleLog::with_capacity(input.len() / 100),
            blank_counter: 0,
            depth: 0,
            spans: None,
        }
    }

    fn here(&self) -> Span {
        Span::new(self.line, self.column)
    }

    fn note_subject(&mut self, subject: &Term, at: Span) {
        if let Some(spans) = &mut self.spans {
            spans.record_subject(subject, at);
        }
    }

    fn note_predicate(&mut self, subject: &Term, predicate: &Iri, at: Span) {
        if let Some(spans) = &mut self.spans {
            spans.record_predicate(subject, predicate, at);
        }
    }

    fn error(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(self.line, self.column, msg)
    }

    fn error_code(&self, code: ErrorCode, msg: impl Into<String>) -> ParseError {
        ParseError::with_code(code, self.line, self.column, msg)
    }

    fn enter_nested(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return Err(self.error_code(
                ErrorCode::DepthLimit,
                format!("nesting deeper than {MAX_NESTING} levels"),
            ));
        }
        Ok(())
    }

    /// The character starting at byte offset `at`.
    fn char_at(&self, at: usize) -> Option<char> {
        match *self.input.as_bytes().get(at)? {
            b if b.is_ascii() => Some(b as char),
            _ => self.input[at..].chars().next(),
        }
    }

    fn peek(&self) -> Option<char> {
        self.char_at(self.pos)
    }

    /// The character `offset` characters past the cursor.
    fn peek_at(&self, offset: usize) -> Option<char> {
        self.input[self.pos..].chars().nth(offset)
    }

    fn bump(&mut self) -> Option<char> {
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

    fn skip_ws(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_whitespace() => {
                    self.bump();
                }
                Some('#') => {
                    while let Some(c) = self.bump() {
                        if c == '\n' {
                            break;
                        }
                    }
                }
                _ => break,
            }
        }
    }

    fn expect(&mut self, c: char) -> Result<(), ParseError> {
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
    fn eat_keyword(&mut self, kw: &str) -> bool {
        let end = self.pos + kw.len();
        let matches = self
            .input
            .as_bytes()
            .get(self.pos..end)
            .is_some_and(|next| next.eq_ignore_ascii_case(kw.as_bytes()));
        if !matches || matches!(self.char_at(end), Some(c) if c.is_alphanumeric() || c == '_') {
            return false;
        }
        for _ in 0..kw.len() {
            self.bump();
        }
        true
    }

    fn fresh_blank(&mut self) -> BlankNode {
        self.blank_counter += 1;
        BlankNode::new(format!("gen{}", self.blank_counter))
    }

    fn parse_document(&mut self) -> Result<(), ParseError> {
        loop {
            self.skip_ws();
            if self.peek().is_none() {
                return Ok(());
            }
            self.parse_statement()?;
        }
    }

    /// Parses one statement (a directive or a triples block with its
    /// terminating `.`); the cursor must be on its first character.
    fn parse_statement(&mut self) -> Result<(), ParseError> {
        if self.peek() == Some('@') {
            self.bump();
            if self.eat_keyword("prefix") {
                self.parse_prefix_decl()?;
                self.skip_ws();
                self.expect('.')?;
            } else if self.eat_keyword("base") {
                self.parse_base_decl()?;
                self.skip_ws();
                self.expect('.')?;
            } else {
                return Err(self.error("expected @prefix or @base"));
            }
            return Ok(());
        }
        // SPARQL-style PREFIX/BASE (no trailing dot). Only treat as a
        // directive when followed by a prefixed-name/IRI declaration.
        if matches!(self.peek(), Some('P' | 'p')) && self.eat_keyword("prefix") {
            return self.parse_prefix_decl();
        }
        if matches!(self.peek(), Some('B' | 'b')) && self.eat_keyword("base") {
            return self.parse_base_decl();
        }
        self.parse_triples_block()?;
        self.skip_ws();
        self.expect('.')
    }

    /// After a statement-level error: advances to just past the next `.`
    /// that terminates a statement, skipping over comments, string
    /// literals, IRI refs, and bracketed groups so a `.` inside those does
    /// not end recovery early.
    fn recover_to_statement_boundary(&mut self) {
        let mut bracket: isize = 0;
        while let Some(c) = self.peek() {
            match c {
                '#' => {
                    while let Some(c) = self.bump() {
                        if c == '\n' {
                            break;
                        }
                    }
                }
                '"' | '\'' => self.skip_string_guts(c),
                '<' => {
                    self.bump();
                    while let Some(c2) = self.peek() {
                        if c2 == '>' {
                            self.bump();
                            break;
                        }
                        if c2 == '\n' {
                            break; // unterminated IRI: resync at the newline
                        }
                        self.bump();
                    }
                }
                '[' | '(' => {
                    bracket += 1;
                    self.bump();
                }
                ']' | ')' => {
                    bracket -= 1;
                    self.bump();
                }
                '.' if bracket <= 0 => {
                    self.bump();
                    return;
                }
                _ => {
                    self.bump();
                }
            }
        }
    }

    /// Recovery helper: cursor is on an opening quote; skips the whole
    /// short or long string form, tolerating unterminated input.
    fn skip_string_guts(&mut self, quote: char) {
        self.bump();
        let long = self.peek() == Some(quote) && self.peek_at(1) == Some(quote);
        if long {
            self.bump();
            self.bump();
        } else if self.peek() == Some(quote) {
            self.bump();
            return;
        }
        while let Some(c) = self.bump() {
            if c == '\\' {
                self.bump();
            } else if c == quote {
                if !long {
                    return;
                }
                if self.peek() == Some(quote) && self.peek_at(1) == Some(quote) {
                    self.bump();
                    self.bump();
                    return;
                }
            } else if !long && c == '\n' {
                return; // short strings cannot span lines: resync here
            }
        }
    }

    fn parse_prefix_decl(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        let mut name = String::new();
        while let Some(c) = self.peek() {
            if c == ':' {
                break;
            }
            if c.is_whitespace() {
                return Err(self.error("expected ':' in prefix declaration"));
            }
            name.push(c);
            self.bump();
        }
        self.expect(':')?;
        self.skip_ws();
        let iri = self.parse_iri_ref()?;
        self.prefixes.insert(name, iri);
        Ok(())
    }

    fn parse_base_decl(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        self.base = self.parse_iri_ref()?;
        Ok(())
    }

    fn parse_triples_block(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        let at = self.here();
        let subject = if self.peek() == Some('[') {
            // Blank node property list as subject.
            let node = self.parse_blank_node_property_list()?;
            self.skip_ws();
            // A bare "[...] ." with no following predicate list is legal.
            if self.peek() == Some('.') {
                return Ok(());
            }
            node
        } else if self.peek() == Some('(') {
            self.parse_collection()?
        } else {
            self.parse_subject()?
        };
        self.note_subject(&subject, at);
        self.parse_predicate_object_list(&subject)
    }

    fn parse_predicate_object_list(&mut self, subject: &Term) -> Result<(), ParseError> {
        loop {
            self.skip_ws();
            let at = self.here();
            let predicate = self.parse_predicate()?;
            self.note_predicate(subject, &predicate, at);
            loop {
                self.skip_ws();
                let object = self.parse_object()?;
                if subject.is_literal() {
                    return Err(self.error("literal in subject position"));
                }
                self.log.push(subject, &predicate, &object);
                self.skip_ws();
                if self.peek() == Some(',') {
                    self.bump();
                } else {
                    break;
                }
            }
            self.skip_ws();
            if self.peek() == Some(';') {
                self.bump();
                self.skip_ws();
                // Trailing semicolons before '.' or ']' are allowed.
                if matches!(self.peek(), Some('.') | Some(']')) || self.peek().is_none() {
                    return Ok(());
                }
            } else {
                return Ok(());
            }
        }
    }

    fn parse_subject(&mut self) -> Result<Term, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some('<') => Ok(Term::Iri(Iri::new(self.parse_iri_ref()?))),
            Some('_') => Ok(Term::Blank(self.parse_blank_node_label()?)),
            Some(c) if is_pname_start(c) || c == ':' => Ok(Term::Iri(self.parse_prefixed_name()?)),
            Some(c) => Err(self
                .error(format!("unexpected character '{c}' in subject position"))
                .code(ErrorCode::UnexpectedChar)),
            None => Err(self
                .error("unexpected end of input, expected subject")
                .code(ErrorCode::UnexpectedEof)),
        }
    }

    fn parse_predicate(&mut self) -> Result<Iri, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some('<') => Ok(Iri::new(self.parse_iri_ref()?)),
            Some('a') if !matches!(self.peek_at(1), Some(c) if is_pname_char(c) || c == ':') => {
                self.bump();
                Ok(rdf::type_())
            }
            Some(c) if is_pname_start(c) || c == ':' => self.parse_prefixed_name(),
            Some(c) => Err(self
                .error(format!("unexpected character '{c}' in predicate position"))
                .code(ErrorCode::UnexpectedChar)),
            None => Err(self
                .error("unexpected end of input, expected predicate")
                .code(ErrorCode::UnexpectedEof)),
        }
    }

    fn parse_object(&mut self) -> Result<Term, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some('<') => Ok(Term::Iri(Iri::new(self.parse_iri_ref()?))),
            Some('_') => Ok(Term::Blank(self.parse_blank_node_label()?)),
            Some('[') => self.parse_blank_node_property_list(),
            Some('(') => self.parse_collection(),
            Some('"') | Some('\'') => Ok(Term::Literal(self.parse_rdf_literal()?)),
            Some(c) if c.is_ascii_digit() || c == '+' || c == '-' => {
                Ok(Term::Literal(self.parse_numeric_literal()?))
            }
            Some('t') | Some('f') if self.looking_at_boolean() => {
                Ok(Term::Literal(self.parse_boolean_literal()?))
            }
            Some(c) if is_pname_start(c) || c == ':' => Ok(Term::Iri(self.parse_prefixed_name()?)),
            Some(c) => Err(self
                .error(format!("unexpected character '{c}' in object position"))
                .code(ErrorCode::UnexpectedChar)),
            None => Err(self
                .error("unexpected end of input, expected object")
                .code(ErrorCode::UnexpectedEof)),
        }
    }

    fn looking_at_boolean(&self) -> bool {
        ["true", "false"].iter().any(|kw| {
            self.input[self.pos..].starts_with(kw)
                && !matches!(self.char_at(self.pos + kw.len()), Some(c) if is_pname_char(c) || c == ':')
        })
    }

    fn parse_boolean_literal(&mut self) -> Result<Literal, ParseError> {
        if self.eat_keyword("true") {
            Ok(Literal::boolean(true))
        } else if self.eat_keyword("false") {
            Ok(Literal::boolean(false))
        } else {
            Err(self.error("expected boolean literal"))
        }
    }

    fn parse_numeric_literal(&mut self) -> Result<Literal, ParseError> {
        let mut s = String::new();
        if matches!(self.peek(), Some('+') | Some('-')) {
            if let Some(sign) = self.bump() {
                s.push(sign);
            }
        }
        let mut has_dot = false;
        let mut has_exp = false;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() {
                s.push(c);
                self.bump();
            } else if c == '.' && !has_dot && !has_exp {
                // A '.' not followed by a digit terminates the statement.
                match self.peek_at(1) {
                    Some(d) if d.is_ascii_digit() => {
                        has_dot = true;
                        s.push(c);
                        self.bump();
                    }
                    _ => break,
                }
            } else if (c == 'e' || c == 'E') && !has_exp {
                has_exp = true;
                s.push(c);
                self.bump();
                if matches!(self.peek(), Some('+') | Some('-')) {
                    if let Some(sign) = self.bump() {
                        s.push(sign);
                    }
                }
            } else {
                break;
            }
        }
        if s.is_empty() || s == "+" || s == "-" {
            return Err(self
                .error("malformed numeric literal")
                .code(ErrorCode::InvalidNumber));
        }
        let datatype = if has_exp {
            xsd::double()
        } else if has_dot {
            xsd::decimal()
        } else {
            xsd::integer()
        };
        Ok(Literal::typed(s, datatype))
    }

    fn parse_rdf_literal(&mut self) -> Result<Literal, ParseError> {
        let lexical = self.parse_string()?;
        match self.peek() {
            Some('@') => {
                self.bump();
                let mut lang = String::new();
                while let Some(c) = self.peek() {
                    if c.is_ascii_alphanumeric() || c == '-' {
                        lang.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
                if lang.is_empty() {
                    return Err(self.error("empty language tag"));
                }
                Ok(Literal::lang_string(lexical, &lang))
            }
            Some('^') => {
                self.bump();
                self.expect('^')?;
                let datatype = match self.peek() {
                    Some('<') => Iri::new(self.parse_iri_ref()?),
                    _ => self.parse_prefixed_name()?,
                };
                Ok(Literal::typed(lexical, datatype))
            }
            _ => Ok(Literal::string(lexical)),
        }
    }

    fn parse_string(&mut self) -> Result<String, ParseError> {
        let quote = self.bump().ok_or_else(|| self.error("expected string"))?;
        debug_assert!(quote == '"' || quote == '\'');
        // Long string form """...""" / '''...'''
        let long = self.peek() == Some(quote) && self.peek_at(1) == Some(quote);
        if long {
            self.bump();
            self.bump();
        } else if self.peek() == Some(quote) {
            // Empty short string.
            self.bump();
            return Ok(String::new());
        }
        let mut out = String::new();
        loop {
            let Some(c) = self.bump() else {
                return Err(self
                    .error("unterminated string literal")
                    .code(ErrorCode::UnterminatedString));
            };
            if c == quote {
                if !long {
                    return Ok(out);
                }
                if self.peek() == Some(quote) && self.peek_at(1) == Some(quote) {
                    self.bump();
                    self.bump();
                    return Ok(out);
                }
                out.push(c);
            } else if c == '\\' {
                let Some(esc) = self.bump() else {
                    return Err(self
                        .error("unterminated escape sequence")
                        .code(ErrorCode::InvalidEscape));
                };
                out.push(match esc {
                    't' => '\t',
                    'n' => '\n',
                    'r' => '\r',
                    'b' => '\u{8}',
                    'f' => '\u{c}',
                    '"' => '"',
                    '\'' => '\'',
                    '\\' => '\\',
                    'u' => self.parse_unicode_escape(4)?,
                    'U' => self.parse_unicode_escape(8)?,
                    other => {
                        return Err(self
                            .error(format!("invalid escape '\\{other}'"))
                            .code(ErrorCode::InvalidEscape))
                    }
                });
            } else if !long && c == '\n' {
                return Err(self
                    .error("newline in short string literal")
                    .code(ErrorCode::UnterminatedString));
            } else {
                out.push(c);
            }
        }
    }

    fn parse_unicode_escape(&mut self, digits: usize) -> Result<char, ParseError> {
        let mut v: u32 = 0;
        for _ in 0..digits {
            let Some(c) = self.bump() else {
                return Err(self
                    .error("unterminated unicode escape")
                    .code(ErrorCode::InvalidEscape));
            };
            let d = c.to_digit(16).ok_or_else(|| {
                self.error("invalid hex digit in unicode escape")
                    .code(ErrorCode::InvalidEscape)
            })?;
            v = v * 16 + d;
        }
        char::from_u32(v).ok_or_else(|| {
            self.error("invalid unicode code point")
                .code(ErrorCode::InvalidEscape)
        })
    }

    fn parse_iri_ref(&mut self) -> Result<String, ParseError> {
        self.expect('<')?;
        let mut iri = String::new();
        loop {
            let Some(c) = self.bump() else {
                return Err(self
                    .error("unterminated IRI")
                    .code(ErrorCode::UnterminatedIri));
            };
            match c {
                '>' => break,
                '\\' => match self.bump() {
                    Some('u') => iri.push(self.parse_unicode_escape(4)?),
                    Some('U') => iri.push(self.parse_unicode_escape(8)?),
                    _ => {
                        return Err(self
                            .error("invalid escape in IRI")
                            .code(ErrorCode::InvalidEscape))
                    }
                },
                c if c.is_whitespace() => return Err(self.error("whitespace in IRI")),
                c => iri.push(c),
            }
        }
        // Simple relative-reference handling: concatenate with base.
        if !self.base.is_empty() && !iri.contains(':') {
            Ok(format!("{}{}", self.base, iri))
        } else {
            Ok(iri)
        }
    }

    fn parse_blank_node_label(&mut self) -> Result<BlankNode, ParseError> {
        self.expect('_')?;
        self.expect(':')?;
        let mut label = String::new();
        while let Some(c) = self.peek() {
            if c.is_alphanumeric() || c == '_' || c == '-' || c == '.' {
                // A '.' may be the statement terminator.
                if c == '.'
                    && !matches!(self.peek_at(1), Some(n) if n.is_alphanumeric() || n == '_')
                {
                    break;
                }
                label.push(c);
                self.bump();
            } else {
                break;
            }
        }
        if label.is_empty() {
            return Err(self.error("empty blank node label"));
        }
        Ok(BlankNode::new(label))
    }

    fn parse_prefixed_name(&mut self) -> Result<Iri, ParseError> {
        let mut prefix = String::new();
        while let Some(c) = self.peek() {
            if c == ':' {
                break;
            }
            if is_pname_char(c) {
                prefix.push(c);
                self.bump();
            } else {
                return Err(self.error(format!("unexpected character '{c}' in prefixed name")));
            }
        }
        self.expect(':')?;
        let mut local = String::new();
        while let Some(c) = self.peek() {
            if is_pname_char(c) || c == '%' {
                local.push(c);
                self.bump();
            } else if c == '.' {
                // '.' is permitted inside a local name only if followed by
                // more name characters; otherwise it ends the statement.
                match self.peek_at(1) {
                    Some(n) if is_pname_char(n) => {
                        local.push(c);
                        self.bump();
                    }
                    _ => break,
                }
            } else if c == '\\' {
                self.bump();
                let Some(esc) = self.bump() else {
                    return Err(self.error("unterminated local name escape"));
                };
                local.push(esc);
            } else {
                break;
            }
        }
        let ns = self.prefixes.get(&prefix).ok_or_else(|| {
            self.error(format!("undeclared prefix '{prefix}:'"))
                .code(ErrorCode::UndeclaredPrefix)
        })?;
        Ok(Iri::new(format!("{ns}{local}")))
    }

    fn parse_blank_node_property_list(&mut self) -> Result<Term, ParseError> {
        self.enter_nested()?;
        let at = self.here();
        self.expect('[')?;
        let node = Term::Blank(self.fresh_blank());
        self.note_subject(&node, at);
        self.skip_ws();
        if self.peek() == Some(']') {
            self.bump();
            self.depth -= 1;
            return Ok(node);
        }
        self.parse_predicate_object_list(&node)?;
        self.skip_ws();
        self.expect(']')?;
        self.depth -= 1;
        Ok(node)
    }

    fn parse_collection(&mut self) -> Result<Term, ParseError> {
        self.enter_nested()?;
        self.expect('(')?;
        let mut items = Vec::new();
        loop {
            self.skip_ws();
            if self.peek() == Some(')') {
                self.bump();
                break;
            }
            items.push(self.parse_object()?);
        }
        self.depth -= 1;
        // Encode as an rdf:List.
        let mut tail = Term::Iri(rdf::nil());
        for item in items.into_iter().rev() {
            let cell = Term::Blank(self.fresh_blank());
            self.log.push(&cell, &rdf::first(), &item);
            self.log.push(&cell, &rdf::rest(), &tail);
            tail = cell;
        }
        Ok(tail)
    }
}

fn is_pname_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_pname_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_' || c == '-'
}

/// Reads an `rdf:first`/`rdf:rest` list starting at `head` from a graph.
/// Returns `None` if the list is malformed (missing links or cycles).
pub fn read_list(graph: &Graph, head: &Term) -> Option<Vec<Term>> {
    let nil = Term::Iri(rdf::nil());
    let mut items = Vec::new();
    let mut current = head.clone();
    let mut steps = 0usize;
    while current != nil {
        steps += 1;
        if steps > graph.len() + 1 {
            return None; // cycle
        }
        let firsts = graph.objects_for(&current, &rdf::first());
        let rests = graph.objects_for(&current, &rdf::rest());
        if firsts.len() != 1 || rests.len() != 1 {
            return None;
        }
        items.push(firsts[0].clone());
        current = rests[0].clone();
    }
    Some(items)
}

/// Serializes a graph as Turtle with the given prefix map
/// (`prefix name → namespace IRI`), one sorted statement per line. Unknown
/// namespaces fall back to full IRIs, written by the N-Triples term writer.
pub fn serialize(graph: &Graph, prefixes: &[(&str, &str)]) -> String {
    let mut out = String::new();
    for (name, ns) in prefixes {
        out.push_str(&format!("@prefix {name}: <{ns}> .\n"));
    }
    if !prefixes.is_empty() {
        out.push('\n');
    }
    let write_node = |out: &mut String, t: &Term| {
        if let Term::Iri(iri) = t {
            for (name, ns) in prefixes {
                if let Some(local) = iri.as_str().strip_prefix(ns) {
                    if !local.is_empty()
                        && local
                            .chars()
                            .all(|c| c.is_alphanumeric() || c == '_' || c == '-')
                    {
                        out.push_str(name);
                        out.push(':');
                        out.push_str(local);
                        return;
                    }
                }
            }
        }
        write_term(out, t);
    };
    write_sorted(&mut out, graph, graph.iter_ids(), write_node);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Triple;

    #[test]
    fn basic_triples() {
        let g = parse("<http://e/a> <http://e/p> <http://e/b> .").unwrap();
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn lossy_skips_bad_statement_keeps_rest() {
        let report = parse_lossy(
            "@prefix ex: <http://e/> .\n\
             ex:a ex:p ex:b .\n\
             ex:bad @@@nonsense@@@ .\n\
             ex:c ex:p \"a . dot inside\" .\n\
             ex:d ex:p ex:e .",
        );
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.statements_skipped, 1);
        assert_eq!(report.statements_ok, 4);
        assert_eq!(report.graph.len(), 3);
        assert_eq!(report.diagnostics[0].line, 3);
    }

    #[test]
    fn lossy_on_clean_input_matches_strict() {
        let doc = "@prefix ex: <http://e/> .\nex:a ex:p ex:b , ex:c ; ex:q [ ex:r ex:s ] .";
        let strict = parse(doc).unwrap();
        let report = parse_lossy(doc);
        assert!(report.is_clean());
        assert_eq!(report.graph, strict);
    }

    #[test]
    fn lossy_recovers_after_unterminated_string() {
        let report = parse_lossy(
            "@prefix ex: <http://e/> .\n\
             ex:a ex:p \"never closed\nex:b ex:p ex:c .\n\
             ex:d ex:p ex:e .",
        );
        // The unterminated string swallows up to the next resync point, but
        // later statements still load.
        assert!(!report.diagnostics.is_empty());
        assert!(!report.graph.is_empty());
        assert_eq!(report.diagnostics[0].code, ErrorCode::UnterminatedString);
    }

    #[test]
    fn deep_nesting_is_a_structured_error() {
        let mut doc = String::from("@prefix ex: <http://e/> .\nex:a ex:p ");
        for _ in 0..(MAX_NESTING + 10) {
            doc.push_str("[ ex:p ");
        }
        doc.push_str("ex:b ");
        for _ in 0..(MAX_NESTING + 10) {
            doc.push_str("] ");
        }
        doc.push('.');
        let err = parse(&doc).unwrap_err();
        assert_eq!(err.code, ErrorCode::DepthLimit);
    }

    #[test]
    fn deep_collection_nesting_is_a_structured_error() {
        let mut doc = String::from("@prefix ex: <http://e/> .\nex:a ex:p ");
        for _ in 0..(MAX_NESTING + 10) {
            doc.push_str("( ");
        }
        doc.push_str("ex:b ");
        for _ in 0..(MAX_NESTING + 10) {
            doc.push_str(") ");
        }
        doc.push('.');
        let err = parse(&doc).unwrap_err();
        assert_eq!(err.code, ErrorCode::DepthLimit);
    }

    #[test]
    fn prefixes_and_a() {
        let g = parse(
            "@prefix ex: <http://e/> .\n@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\nex:a a ex:Paper ; ex:author ex:b , ex:c .",
        )
        .unwrap();
        assert_eq!(g.len(), 3);
        assert!(g.contains(&Triple::new(
            Term::iri("http://e/a"),
            rdf::type_(),
            Term::iri("http://e/Paper")
        )));
    }

    #[test]
    fn sparql_style_prefix() {
        let g = parse("PREFIX ex: <http://e/>\nex:a ex:p ex:b .").unwrap();
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn literals_all_forms() {
        let g = parse(
            r#"@prefix ex: <http://e/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:a ex:str "hello" ;
     ex:lang "bonjour"@fr ;
     ex:int 42 ;
     ex:dec 3.14 ;
     ex:dbl 1.0e3 ;
     ex:neg -7 ;
     ex:bool true ;
     ex:typed "2020-01-01"^^xsd:date ;
     ex:esc "line1\nline2\"q\"" .
"#,
        )
        .unwrap();
        assert_eq!(g.len(), 9);
        let objs = g.objects_for(&Term::iri("http://e/a"), &Iri::new("http://e/int"));
        assert_eq!(objs[0].as_literal().unwrap().datatype(), &xsd::integer());
        let objs = g.objects_for(&Term::iri("http://e/a"), &Iri::new("http://e/dec"));
        assert_eq!(objs[0].as_literal().unwrap().datatype(), &xsd::decimal());
        let objs = g.objects_for(&Term::iri("http://e/a"), &Iri::new("http://e/lang"));
        assert_eq!(objs[0].as_literal().unwrap().language(), Some("fr"));
    }

    #[test]
    fn blank_node_property_lists() {
        let g = parse(
            r#"@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix ex: <http://e/> .
ex:Shape sh:property [ sh:path ex:author ; sh:minCount 1 ] ."#,
        )
        .unwrap();
        assert_eq!(g.len(), 3);
        let props = g.objects_for(
            &Term::iri("http://e/Shape"),
            &Iri::new("http://www.w3.org/ns/shacl#property"),
        );
        assert_eq!(props.len(), 1);
        assert!(props[0].is_blank());
    }

    #[test]
    fn nested_blank_nodes() {
        let g = parse(
            r#"@prefix ex: <http://e/> .
ex:s ex:p [ ex:q [ ex:r ex:o ] ] ."#,
        )
        .unwrap();
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn collections_become_rdf_lists() {
        let g = parse(
            r#"@prefix ex: <http://e/> .
ex:s ex:langs ( "en" "fr" "de" ) ."#,
        )
        .unwrap();
        // 1 root triple + 3 first + 3 rest
        assert_eq!(g.len(), 7);
        let head = &g.objects_for(&Term::iri("http://e/s"), &Iri::new("http://e/langs"))[0];
        let items = read_list(&g, &Term::clone(head)).unwrap();
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].as_literal().unwrap().lexical(), "en");
    }

    #[test]
    fn empty_collection_is_nil() {
        let g = parse("@prefix ex: <http://e/> .\nex:s ex:p ( ) .").unwrap();
        let objs = g.objects_for(&Term::iri("http://e/s"), &Iri::new("http://e/p"));
        assert_eq!(objs[0], &Term::Iri(rdf::nil()));
        assert_eq!(read_list(&g, objs[0]).unwrap().len(), 0);
    }

    #[test]
    fn comments_are_skipped() {
        let g = parse("# header\n<http://e/a> <http://e/p> <http://e/b> . # trailing\n").unwrap();
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn blank_node_labels() {
        let g = parse("_:x <http://e/p> _:y .").unwrap();
        assert_eq!(g.len(), 1);
        let t: Vec<_> = g.iter().collect();
        assert!(t[0].subject.is_blank());
        assert!(t[0].object.is_blank());
    }

    #[test]
    fn long_strings() {
        let g =
            parse("@prefix ex: <http://e/> .\nex:s ex:p \"\"\"multi\nline \"quoted\" text\"\"\" .")
                .unwrap();
        let objs = g.objects_for(&Term::iri("http://e/s"), &Iri::new("http://e/p"));
        assert!(objs[0].as_literal().unwrap().lexical().contains('\n'));
    }

    #[test]
    fn unicode_escapes() {
        let g = parse("@prefix ex: <http://e/> .\nex:s ex:p \"caf\\u00e9\" .").unwrap();
        let objs = g.objects_for(&Term::iri("http://e/s"), &Iri::new("http://e/p"));
        assert_eq!(objs[0].as_literal().unwrap().lexical(), "café");
    }

    #[test]
    fn undeclared_prefix_errors() {
        let err = parse("ex:a ex:p ex:b .").unwrap_err();
        assert!(err.message.contains("undeclared prefix"));
    }

    #[test]
    fn error_carries_position() {
        let err = parse("<http://e/a> <http://e/p>\n  @@@ .").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn error_positions_count_characters_on_non_ascii_input() {
        // Columns count characters, not bytes: multi-byte characters before
        // the error (and inside a multi-line long string) move it by one.
        let cases = [
            (
                "@prefix ex: <http://e/> .\nex:café ex:naïve \"ünïcödé 中文 🦀\" ; ex:p @ .",
                (2, 40, ErrorCode::UnexpectedChar),
            ),
            (
                "@prefix ex: <http://e/> .\nex:s ex:p \"\"\"λ\n中🦀 ü\"\"\" ; ex:q ex:ö ; ~ .",
                (3, 23, ErrorCode::UnexpectedChar),
            ),
            (
                "<http://e/ä> <http://e/p> <http://e/ö",
                (1, 38, ErrorCode::UnterminatedIri),
            ),
            (
                "@prefix ex: <http://e/> .\nex:s ex:p \"é\\q\" .",
                (2, 15, ErrorCode::InvalidEscape),
            ),
            ("@préfix ex: <http://e/> .", (1, 2, ErrorCode::Syntax)),
            (
                "@prefix ex: <http://e/> .\nex:日本 ex:p truex .",
                (2, 17, ErrorCode::Syntax),
            ),
        ];
        for (input, expected) in cases {
            let err = parse(input).unwrap_err();
            assert_eq!((err.line, err.column, err.code), expected, "{input}");
        }
    }

    #[test]
    fn serialize_round_trip() {
        let input = r#"@prefix ex: <http://e/> .
ex:a ex:p ex:b .
ex:a ex:q "v"@en .
ex:b ex:p 3 .
"#;
        let g = parse(input).unwrap();
        let out = serialize(&g, &[("ex", "http://e/")]);
        let g2 = parse(&out).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn base_resolution() {
        let g = parse("@base <http://e/> .\n<a> <p> <b> .").unwrap();
        assert!(g.contains(&Triple::new(
            Term::iri("http://e/a"),
            Iri::new("http://e/p"),
            Term::iri("http://e/b")
        )));
    }

    #[test]
    fn decimal_then_end_of_statement() {
        // `2.` must parse as integer 2 followed by the terminating dot.
        let g = parse("@prefix ex: <http://e/> .\nex:s ex:p 2.").unwrap();
        let objs = g.objects_for(&Term::iri("http://e/s"), &Iri::new("http://e/p"));
        assert_eq!(objs[0].as_literal().unwrap().lexical(), "2");
    }
}
