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
//! purposes); [`crate::ntriples`] reads them line by line with the same
//! term lexer.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt::Write;
use std::sync::Arc;

use shapefrag_govern::ErrorCode;

use crate::error::{LossyLoad, ParseError};
use crate::frozen::FrozenGraph;
use crate::graph::{Graph, TripleLog};
use crate::lex::{plain_statement, Lexer, TermRef, TURTLE};
use crate::ntriples::{write_sorted, write_term};
use crate::span::{Span, SpanLog, TripleSpans};
use crate::term::{Term, TermKey};
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

/// [`parse_frozen`], additionally recording where each subject and each
/// `(subject, predicate)` pair first appeared. The shapes-graph parser
/// threads these positions into analyzer diagnostics.
pub fn parse_with_spans(input: &str) -> Result<(FrozenGraph, TripleSpans), ParseError> {
    let mut parser = Parser::new(input);
    parser.spans = Some(SpanLog::default());
    parser.parse_document()?;
    let spans = parser.spans.take().unwrap_or_default();
    let graph = parser.log.into_frozen();
    let spans = spans.finish(Arc::clone(graph.interner()));
    Ok((graph, spans))
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
        parser.lex.skip_ws();
        if parser.lex.peek().is_none() {
            break;
        }
        let before = parser.lex.pos;
        match parser.parse_statement() {
            Ok(()) => report.statements_ok += 1,
            Err(e) => {
                report.diagnostics.push(e);
                report.statements_skipped += 1;
                parser.depth = 0;
                parser.recover_to_statement_boundary();
                if parser.lex.pos == before {
                    // Guarantee progress even when recovery stalls at the
                    // very character that failed.
                    parser.lex.bump();
                }
            }
        }
    }
    report.graph = parser.log.into_graph();
    report
}

struct Parser<'a> {
    lex: Lexer<'a>,
    prefixes: HashMap<String, String>,
    base: String,
    log: TripleLog,
    blank_counter: usize,
    depth: usize,
    /// When set, subject / predicate source positions are recorded as
    /// statements parse (see [`parse_with_spans`]).
    spans: Option<SpanLog>,
    /// Buffers of dropped terms, reused for the next expanded prefixed
    /// name, `@base`-relative IRI or generated blank label.
    spare: Vec<String>,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        // Pre-size the log from the document length: Turtle statements
        // average well under 100 bytes in the corpora we load, and
        // overshoot on small documents is harmless.
        Parser {
            lex: Lexer::new(input, 1, &TURTLE),
            prefixes: HashMap::new(),
            base: String::new(),
            log: TripleLog::with_capacity(input.len() / 100),
            blank_counter: 0,
            depth: 0,
            spans: None,
            spare: Vec::new(),
        }
    }

    /// Notes a subject or predicate occurrence at `at` when spans are
    /// recorded; the caller binds the note to ids once they are interned.
    fn note(&mut self, at: Span) -> Option<usize> {
        self.spans.as_mut().map(|spans| spans.open(at))
    }

    /// An empty buffer, reused when one is spare.
    fn buffer(&mut self) -> String {
        let mut buf = self.spare.pop().unwrap_or_default();
        buf.clear();
        buf
    }

    /// Keeps the buffer of a text the parser is done with.
    fn recycle(&mut self, text: Cow<'a, str>) {
        if let Cow::Owned(buf) = text {
            self.spare.push(buf);
        }
    }

    /// [`Parser::recycle`] for every text of a term.
    fn recycle_term(&mut self, term: TermRef<'a>) {
        match term {
            TermRef::Iri(text) | TermRef::Blank(text) => self.recycle(text),
            TermRef::Literal {
                lexical,
                language,
                datatype,
            } => {
                self.recycle(lexical);
                if let Some(language) = language {
                    self.recycle(language);
                }
                self.recycle(datatype);
            }
        }
    }

    fn enter_nested(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return Err(self.lex.error_code(
                ErrorCode::DepthLimit,
                format!("nesting deeper than {MAX_NESTING} levels"),
            ));
        }
        Ok(())
    }

    fn fresh_blank(&mut self) -> TermRef<'a> {
        self.blank_counter += 1;
        let mut label = self.buffer();
        write!(label, "gen{}", self.blank_counter).expect("writing to a String");
        TermRef::Blank(Cow::Owned(label))
    }

    fn parse_document(&mut self) -> Result<(), ParseError> {
        loop {
            self.lex.skip_ws();
            if self.lex.peek().is_none() {
                return Ok(());
            }
            self.parse_statement()?;
        }
    }

    /// Parses one statement (a directive or a triples block with its
    /// terminating `.`); the cursor must be on its first character.
    fn parse_statement(&mut self) -> Result<(), ParseError> {
        if self.lex.peek() == Some('<') && self.plain_statement() {
            return Ok(());
        }
        if self.lex.peek() == Some('@') {
            self.lex.bump();
            if self.lex.eat_keyword("prefix") {
                self.parse_prefix_decl()?;
                self.lex.skip_ws();
                self.lex.expect('.')?;
            } else if self.lex.eat_keyword("base") {
                self.parse_base_decl()?;
                self.lex.skip_ws();
                self.lex.expect('.')?;
            } else {
                return Err(self.lex.error("expected @prefix or @base"));
            }
            return Ok(());
        }
        // SPARQL-style PREFIX/BASE (no trailing dot). Only treat as a
        // directive when followed by a prefixed-name/IRI declaration.
        if matches!(self.lex.peek(), Some('P' | 'p')) && self.lex.eat_keyword("prefix") {
            return self.parse_prefix_decl();
        }
        if matches!(self.lex.peek(), Some('B' | 'b')) && self.lex.eat_keyword("base") {
            return self.parse_base_decl();
        }
        self.parse_triples_block()?;
        self.lex.skip_ws();
        self.lex.expect('.')
    }

    /// Takes the statement at the cursor when its line has the plain shape
    /// the N-Triples reader shares ([`plain_statement`]) and none of its
    /// IRIs is relative to a declared `@base`; otherwise consumes nothing
    /// and returns `false`, leaving the statement to the general path.
    fn plain_statement(&mut self) -> bool {
        let Some(st) = plain_statement(self.lex.rest()) else {
            return false;
        };
        if !self.base.is_empty() && st.iris().any(|iri| !iri.contains(':')) {
            return false;
        }
        let (s, p, _) = self
            .log
            .push(TermKey::Iri(st.subject), st.predicate, st.object);
        if let Some(spans) = &mut self.spans {
            // The subject and the blanks before the predicate are ASCII,
            // so its byte offset is its column offset.
            let at = self.lex.here();
            let subject = spans.open(at);
            spans.bind_subject(subject, s);
            let predicate = spans.open(Span::new(at.line, at.column + st.predicate_at));
            spans.bind_predicate(predicate, s, p);
        }
        self.lex.advance_in_line(st.len);
        true
    }

    /// After a statement-level error: advances to just past the next `.`
    /// that terminates a statement, skipping over comments, string
    /// literals, IRI refs, and bracketed groups so a `.` inside those does
    /// not end recovery early.
    fn recover_to_statement_boundary(&mut self) {
        let mut bracket: isize = 0;
        while let Some(c) = self.lex.peek() {
            match c {
                '#' => {
                    while let Some(c) = self.lex.bump() {
                        if c == '\n' {
                            break;
                        }
                    }
                }
                '"' | '\'' => self.skip_string_guts(c),
                '<' => {
                    self.lex.bump();
                    while let Some(c2) = self.lex.peek() {
                        if c2 == '>' {
                            self.lex.bump();
                            break;
                        }
                        if c2 == '\n' {
                            break; // unterminated IRI: resync at the newline
                        }
                        self.lex.bump();
                    }
                }
                '[' | '(' => {
                    bracket += 1;
                    self.lex.bump();
                }
                ']' | ')' => {
                    bracket -= 1;
                    self.lex.bump();
                }
                '.' if bracket <= 0 => {
                    self.lex.bump();
                    return;
                }
                _ => {
                    self.lex.bump();
                }
            }
        }
    }

    /// Recovery helper: cursor is on an opening quote; skips the whole
    /// short or long string form, tolerating unterminated input.
    fn skip_string_guts(&mut self, quote: char) {
        self.lex.bump();
        let long = self.lex.peek() == Some(quote) && self.lex.peek_at(1) == Some(quote);
        if long {
            self.lex.bump();
            self.lex.bump();
        } else if self.lex.peek() == Some(quote) {
            self.lex.bump();
            return;
        }
        while let Some(c) = self.lex.bump() {
            if c == '\\' {
                self.lex.bump();
            } else if c == quote {
                if !long {
                    return;
                }
                if self.lex.peek() == Some(quote) && self.lex.peek_at(1) == Some(quote) {
                    self.lex.bump();
                    self.lex.bump();
                    return;
                }
            } else if !long && c == '\n' {
                return; // short strings cannot span lines: resync here
            }
        }
    }

    fn parse_prefix_decl(&mut self) -> Result<(), ParseError> {
        self.lex.skip_ws();
        let start = self.lex.pos;
        while let Some(c) = self.lex.peek() {
            if c == ':' {
                break;
            }
            if c.is_whitespace() {
                return Err(self.lex.error("expected ':' in prefix declaration"));
            }
            self.lex.bump();
        }
        let name = self.lex.since(start).to_owned();
        self.lex.expect(':')?;
        self.lex.skip_ws();
        let iri = self.parse_iri_ref()?.into_owned();
        self.prefixes.insert(name, iri);
        Ok(())
    }

    fn parse_base_decl(&mut self) -> Result<(), ParseError> {
        self.lex.skip_ws();
        self.base = self.parse_iri_ref()?.into_owned();
        Ok(())
    }

    fn parse_triples_block(&mut self) -> Result<(), ParseError> {
        self.lex.skip_ws();
        let at = self.lex.here();
        let subject = if self.lex.peek() == Some('[') {
            // Blank node property list as subject.
            let node = self.parse_blank_node_property_list()?;
            self.lex.skip_ws();
            // A bare "[...] ." with no following predicate list is legal.
            if self.lex.peek() == Some('.') {
                return Ok(());
            }
            node
        } else if self.lex.peek() == Some('(') {
            self.parse_collection()?
        } else {
            self.parse_subject()?
        };
        let note = self.note(at);
        self.parse_predicate_object_list(&subject, note)?;
        self.recycle_term(subject);
        Ok(())
    }

    /// The predicate-object list of `subject`, whose span note (if any) is
    /// `subject_note`.
    fn parse_predicate_object_list(
        &mut self,
        subject: &TermRef<'_>,
        subject_note: Option<usize>,
    ) -> Result<(), ParseError> {
        loop {
            self.lex.skip_ws();
            let at = self.lex.here();
            let predicate = self.parse_predicate()?;
            let predicate_note = self.note(at);
            loop {
                self.lex.skip_ws();
                let object = self.parse_object()?;
                let (s, p, _) = self.log.push(subject.key(), &predicate, object.key());
                if let (Some(spans), Some(sn), Some(pn)) =
                    (&mut self.spans, subject_note, predicate_note)
                {
                    spans.bind_subject(sn, s);
                    spans.bind_predicate(pn, s, p);
                }
                self.recycle_term(object);
                self.lex.skip_ws();
                if self.lex.peek() == Some(',') {
                    self.lex.bump();
                } else {
                    break;
                }
            }
            self.recycle(predicate);
            self.lex.skip_ws();
            if self.lex.peek() == Some(';') {
                self.lex.bump();
                self.lex.skip_ws();
                // Trailing semicolons before '.' or ']' are allowed.
                if matches!(self.lex.peek(), Some('.') | Some(']')) || self.lex.peek().is_none() {
                    return Ok(());
                }
            } else {
                return Ok(());
            }
        }
    }

    fn parse_subject(&mut self) -> Result<TermRef<'a>, ParseError> {
        self.lex.skip_ws();
        match self.lex.peek() {
            Some('<') => Ok(TermRef::Iri(self.parse_iri_ref()?)),
            Some('_') => Ok(TermRef::Blank(self.parse_blank_node_label()?)),
            Some(c) if is_pname_start(c) || c == ':' => {
                Ok(TermRef::Iri(self.parse_prefixed_name()?))
            }
            Some(c) => Err(self
                .lex
                .error(format!("unexpected character '{c}' in subject position"))
                .code(ErrorCode::UnexpectedChar)),
            None => Err(self
                .lex
                .error("unexpected end of input, expected subject")
                .code(ErrorCode::UnexpectedEof)),
        }
    }

    fn parse_predicate(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.lex.skip_ws();
        match self.lex.peek() {
            Some('<') => self.parse_iri_ref(),
            Some('a') if !matches!(self.lex.peek_at(1), Some(c) if is_pname_char(c) || c == ':') => {
                self.lex.bump();
                Ok(Cow::Borrowed(rdf::TYPE))
            }
            Some(c) if is_pname_start(c) || c == ':' => self.parse_prefixed_name(),
            Some(c) => Err(self
                .lex
                .error(format!("unexpected character '{c}' in predicate position"))
                .code(ErrorCode::UnexpectedChar)),
            None => Err(self
                .lex
                .error("unexpected end of input, expected predicate")
                .code(ErrorCode::UnexpectedEof)),
        }
    }

    fn parse_object(&mut self) -> Result<TermRef<'a>, ParseError> {
        self.lex.skip_ws();
        match self.lex.peek() {
            Some('<') => Ok(TermRef::Iri(self.parse_iri_ref()?)),
            Some('_') => Ok(TermRef::Blank(self.parse_blank_node_label()?)),
            Some('[') => self.parse_blank_node_property_list(),
            Some('(') => self.parse_collection(),
            Some('"') | Some('\'') => self.parse_rdf_literal(),
            Some(c) if c.is_ascii_digit() || c == '+' || c == '-' => self.parse_numeric_literal(),
            Some('t') | Some('f') if self.looking_at_boolean() => self.parse_boolean_literal(),
            Some(c) if is_pname_start(c) || c == ':' => {
                Ok(TermRef::Iri(self.parse_prefixed_name()?))
            }
            Some(c) => Err(self
                .lex
                .error(format!("unexpected character '{c}' in object position"))
                .code(ErrorCode::UnexpectedChar)),
            None => Err(self
                .lex
                .error("unexpected end of input, expected object")
                .code(ErrorCode::UnexpectedEof)),
        }
    }

    fn looking_at_boolean(&self) -> bool {
        ["true", "false"].iter().any(|kw| {
            self.lex.rest().starts_with(kw)
                && !matches!(self.lex.char_at(self.lex.pos + kw.len()), Some(c) if is_pname_char(c) || c == ':')
        })
    }

    fn parse_boolean_literal(&mut self) -> Result<TermRef<'a>, ParseError> {
        let lexical = if self.lex.eat_keyword("true") {
            "true"
        } else if self.lex.eat_keyword("false") {
            "false"
        } else {
            return Err(self.lex.error("expected boolean literal"));
        };
        Ok(typed(Cow::Borrowed(lexical), xsd::BOOLEAN))
    }

    fn parse_numeric_literal(&mut self) -> Result<TermRef<'a>, ParseError> {
        let start = self.lex.pos;
        if matches!(self.lex.peek(), Some('+') | Some('-')) {
            self.lex.bump();
        }
        let mut has_dot = false;
        let mut has_exp = false;
        while let Some(c) = self.lex.peek() {
            if c.is_ascii_digit() {
                self.lex.bump();
            } else if c == '.' && !has_dot && !has_exp {
                // A '.' not followed by a digit terminates the statement.
                match self.lex.peek_at(1) {
                    Some(d) if d.is_ascii_digit() => {
                        has_dot = true;
                        self.lex.bump();
                    }
                    _ => break,
                }
            } else if (c == 'e' || c == 'E') && !has_exp {
                has_exp = true;
                self.lex.bump();
                if matches!(self.lex.peek(), Some('+') | Some('-')) {
                    self.lex.bump();
                }
            } else {
                break;
            }
        }
        let lexical = self.lex.since(start);
        if lexical.is_empty() || lexical == "+" || lexical == "-" {
            return Err(self
                .lex
                .error("malformed numeric literal")
                .code(ErrorCode::InvalidNumber));
        }
        let datatype = if has_exp {
            xsd::DOUBLE
        } else if has_dot {
            xsd::DECIMAL
        } else {
            xsd::INTEGER
        };
        Ok(typed(Cow::Borrowed(lexical), datatype))
    }

    fn parse_rdf_literal(&mut self) -> Result<TermRef<'a>, ParseError> {
        let lexical = self.parse_string()?;
        match self.lex.peek() {
            Some('@') => {
                self.lex.bump();
                Ok(TermRef::Literal {
                    lexical,
                    language: Some(self.lex.lang_tag()?),
                    datatype: Cow::Borrowed(rdf::LANG_STRING),
                })
            }
            Some('^') => {
                self.lex.bump();
                self.lex.expect('^')?;
                let datatype = match self.lex.peek() {
                    Some('<') => self.parse_iri_ref()?,
                    _ => self.parse_prefixed_name()?,
                };
                Ok(TermRef::Literal {
                    lexical,
                    language: None,
                    datatype,
                })
            }
            _ => Ok(typed(lexical, xsd::STRING)),
        }
    }

    fn parse_string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        let quote = self
            .lex
            .bump()
            .ok_or_else(|| self.lex.error("expected string"))?;
        debug_assert!(quote == '"' || quote == '\'');
        // Long string form """...""" / '''...'''
        let long = self.lex.peek() == Some(quote) && self.lex.peek_at(1) == Some(quote);
        if long {
            self.lex.bump();
            self.lex.bump();
        }
        self.lex.string_body(quote, long)
    }

    fn parse_iri_ref(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.lex.expect('<')?;
        let iri = self.lex.iri_body()?;
        // Simple relative-reference handling: concatenate with base.
        if !self.base.is_empty() && !iri.contains(':') {
            let mut buf = self.buffer();
            buf.push_str(&self.base);
            buf.push_str(&iri);
            self.recycle(iri);
            Ok(Cow::Owned(buf))
        } else {
            Ok(iri)
        }
    }

    fn parse_blank_node_label(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.lex.expect('_')?;
        self.lex.expect(':')?;
        Ok(Cow::Borrowed(self.lex.blank_label()?))
    }

    fn parse_prefixed_name(&mut self) -> Result<Cow<'a, str>, ParseError> {
        let start = self.lex.pos;
        loop {
            self.lex.ascii_run(is_pname_byte);
            match self.lex.peek() {
                Some(':') | None => break,
                Some(c) if is_pname_char(c) => {
                    self.lex.bump();
                }
                Some(c) => {
                    return Err(self
                        .lex
                        .error(format!("unexpected character '{c}' in prefixed name")))
                }
            }
        }
        let prefix = self.lex.since(start);
        self.lex.expect(':')?;
        let local = self.parse_local_name()?;
        let Some(ns) = self.prefixes.get(prefix) else {
            return Err(self
                .lex
                .error(format!("undeclared prefix '{prefix}:'"))
                .code(ErrorCode::UndeclaredPrefix));
        };
        let mut iri = self.spare.pop().unwrap_or_default();
        iri.clear();
        iri.push_str(ns);
        iri.push_str(&local);
        self.recycle(local);
        Ok(Cow::Owned(iri))
    }

    /// The local part of a prefixed name, with `\`-escapes decoded.
    fn parse_local_name(&mut self) -> Result<Cow<'a, str>, ParseError> {
        let start = self.lex.pos;
        let mut owned: Option<String> = None;
        loop {
            let run = self.lex.ascii_run(|b| is_pname_byte(b) || b == b'%');
            if let Some(buf) = &mut owned {
                buf.push_str(run);
            }
            match self.lex.peek() {
                // '.' is permitted inside a local name only if followed by
                // more name characters; otherwise it ends the statement.
                Some(c)
                    if is_pname_char(c)
                        || (c == '.'
                            && matches!(self.lex.peek_at(1), Some(n) if is_pname_char(n))) =>
                {
                    self.lex.bump();
                    if let Some(buf) = &mut owned {
                        buf.push(c);
                    }
                }
                Some('\\') => {
                    let before = self.lex.since(start);
                    self.lex.bump();
                    let Some(esc) = self.lex.bump() else {
                        return Err(self.lex.error("unterminated local name escape"));
                    };
                    owned.get_or_insert_with(|| before.to_owned()).push(esc);
                }
                _ => break,
            }
        }
        Ok(owned.map_or_else(|| Cow::Borrowed(self.lex.since(start)), Cow::Owned))
    }

    fn parse_blank_node_property_list(&mut self) -> Result<TermRef<'a>, ParseError> {
        self.enter_nested()?;
        let at = self.lex.here();
        self.lex.expect('[')?;
        let node = self.fresh_blank();
        let note = self.note(at);
        self.lex.skip_ws();
        if self.lex.peek() == Some(']') {
            self.lex.bump();
            if let (Some(spans), Some(note), TermRef::Blank(label)) = (&mut self.spans, note, &node)
            {
                spans.bind_blank(note, label);
            }
            self.depth -= 1;
            return Ok(node);
        }
        self.parse_predicate_object_list(&node, note)?;
        self.lex.skip_ws();
        self.lex.expect(']')?;
        self.depth -= 1;
        Ok(node)
    }

    fn parse_collection(&mut self) -> Result<TermRef<'a>, ParseError> {
        self.enter_nested()?;
        self.lex.expect('(')?;
        let mut items = Vec::new();
        loop {
            self.lex.skip_ws();
            if self.lex.peek() == Some(')') {
                self.lex.bump();
                break;
            }
            items.push(self.parse_object()?);
        }
        self.depth -= 1;
        // Encode as an rdf:List.
        let mut tail = TermRef::Iri(Cow::Borrowed(rdf::NIL));
        for item in items.into_iter().rev() {
            let cell = self.fresh_blank();
            self.log.push(cell.key(), rdf::FIRST, item.key());
            self.log.push(cell.key(), rdf::REST, tail.key());
            self.recycle_term(item);
            let used = std::mem::replace(&mut tail, cell);
            self.recycle_term(used);
        }
        Ok(tail)
    }
}

/// A literal without a language tag.
fn typed<'a>(lexical: Cow<'a, str>, datatype: &'static str) -> TermRef<'a> {
    TermRef::Literal {
        lexical,
        language: None,
        datatype: Cow::Borrowed(datatype),
    }
}

fn is_pname_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_pname_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_' || c == '-'
}

/// [`is_pname_char`] on ASCII bytes.
fn is_pname_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b == b'-'
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
    use crate::access::GraphAccess;
    use crate::term::{Iri, Triple};
    use crate::vocab::xsd;

    /// The items of the `rdf:first`/`rdf:rest` list at `head`.
    fn list_items(g: &Graph, head: &Term) -> Vec<Term> {
        let mut items = Vec::new();
        let mut cell = head.clone();
        while cell != Term::Iri(rdf::nil()) {
            items.push(g.objects_for(&cell, &rdf::first())[0].clone());
            cell = g.objects_for(&cell, &rdf::rest())[0].clone();
        }
        items
    }

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
        let items = list_items(&g, head);
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].as_literal().unwrap().lexical(), "en");
    }

    #[test]
    fn empty_collection_is_nil() {
        let g = parse("@prefix ex: <http://e/> .\nex:s ex:p ( ) .").unwrap();
        let objs = g.objects_for(&Term::iri("http://e/s"), &Iri::new("http://e/p"));
        assert_eq!(objs[0], &Term::Iri(rdf::nil()));
        assert!(list_items(&g, objs[0]).is_empty());
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
