//! Typed literal values and the partial order `<` on literals.
//!
//! The paper (§2) assumes a strict partial order `<` on *L* abstracting
//! comparisons between numeric values, strings, dateTime values, etc. This
//! module realizes that order: values of the same *value category* compare;
//! values of different categories (or unparseable values) are incomparable.

use std::cmp::Ordering;

use crate::term::Iri;
use crate::vocab::{rdf, XSD_NS, XSD_STRING};

/// The parsed value of a literal's lexical form under its datatype.
#[derive(Debug, Clone, PartialEq)]
pub enum LiteralValue {
    /// Any `xsd` numeric type (`integer`, `int`, `long`, `decimal`,
    /// `double`, `float`, `nonNegativeInteger`). Integers are preserved
    /// exactly; fractional values fall back to `f64`.
    Integer(i64),
    /// Fractional numerics.
    Double(f64),
    /// `xsd:string` and `rdf:langString` (string comparison is codepoint
    /// order of the lexical form).
    String(String),
    /// `xsd:boolean` (false < true).
    Boolean(bool),
    /// `xsd:dateTime` / `xsd:date`, normalized to a comparable key
    /// (seconds-since-epoch-like lexicographic tuple).
    DateTime(DateTimeValue),
    /// Unrecognized datatype or ill-formed lexical form: incomparable.
    Other,
}

/// A parsed `xsd:dateTime` or `xsd:date`, comparable componentwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct DateTimeValue {
    pub year: i32,
    pub month: u8,
    pub day: u8,
    pub hour: u8,
    pub minute: u8,
    /// Seconds scaled by 1000 to keep millisecond precision without floats.
    pub millisecond_of_minute: u32,
}

impl LiteralValue {
    /// Parses a lexical form according to a datatype IRI.
    pub fn parse(lexical: &str, datatype: &Iri) -> LiteralValue {
        let dt = datatype.as_str();
        if dt == XSD_STRING || dt == rdf::LANG_STRING {
            return LiteralValue::String(lexical.to_owned());
        }
        let Some(local) = dt.strip_prefix(XSD_NS) else {
            return LiteralValue::Other;
        };
        match local {
            "integer" | "int" | "long" | "short" | "byte" | "nonNegativeInteger"
            | "positiveInteger" | "negativeInteger" | "nonPositiveInteger" | "unsignedInt"
            | "unsignedLong" => lexical
                .trim()
                .parse::<i64>()
                .map(LiteralValue::Integer)
                .unwrap_or(LiteralValue::Other),
            "decimal" | "double" | "float" => {
                let t = lexical.trim();
                if let Ok(i) = t.parse::<i64>() {
                    LiteralValue::Integer(i)
                } else {
                    t.parse::<f64>()
                        .map(LiteralValue::Double)
                        .unwrap_or(LiteralValue::Other)
                }
            }
            "boolean" => match lexical.trim() {
                "true" | "1" => LiteralValue::Boolean(true),
                "false" | "0" => LiteralValue::Boolean(false),
                _ => LiteralValue::Other,
            },
            "dateTime" => parse_date_time(lexical)
                .map(LiteralValue::DateTime)
                .unwrap_or(LiteralValue::Other),
            "date" => parse_date(lexical)
                .map(LiteralValue::DateTime)
                .unwrap_or(LiteralValue::Other),
            "anyURI" => LiteralValue::String(lexical.to_owned()),
            _ => LiteralValue::Other,
        }
    }

    /// True iff the value belongs to a numeric category.
    pub fn is_numeric(&self) -> bool {
        matches!(self, LiteralValue::Integer(_) | LiteralValue::Double(_))
    }

    /// The numeric value as `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            LiteralValue::Integer(i) => Some(*i as f64),
            LiteralValue::Double(d) => Some(*d),
            _ => None,
        }
    }

    /// The paper's strict partial order `<` on literals: defined within a
    /// value category, undefined (`None`) across categories and for
    /// [`LiteralValue::Other`].
    pub fn partial_cmp_value(&self, other: &LiteralValue) -> Option<Ordering> {
        use LiteralValue::*;
        match (self, other) {
            (Integer(a), Integer(b)) => Some(a.cmp(b)),
            (Integer(a), Double(b)) => (*a as f64).partial_cmp(b),
            (Double(a), Integer(b)) => a.partial_cmp(&(*b as f64)),
            (Double(a), Double(b)) => a.partial_cmp(b),
            (String(a), String(b)) => Some(a.cmp(b)),
            (Boolean(a), Boolean(b)) => Some(a.cmp(b)),
            (DateTime(a), DateTime(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// SPARQL-style equality of values (numeric promotion, same-category).
    pub fn value_eq(&self, other: &LiteralValue) -> bool {
        self.partial_cmp_value(other) == Some(Ordering::Equal)
    }
}

fn split2(s: &str, sep: char) -> Option<(&str, &str)> {
    let i = s.find(sep)?;
    Some((&s[..i], &s[i + 1..]))
}

fn parse_date(lexical: &str) -> Option<DateTimeValue> {
    let t = lexical.trim();
    // [-]YYYY-MM-DD with optional timezone (ignored for ordering purposes).
    let (neg, rest) = match t.strip_prefix('-') {
        Some(r) => (true, r),
        None => (false, t),
    };
    let (y, rest) = split2(rest, '-')?;
    let (m, rest) = split2(rest, '-')?;
    let d: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    let year: i32 = y.parse().ok()?;
    let year = if neg { -year } else { year };
    let month: u8 = m.parse().ok()?;
    let day: u8 = d.parse().ok()?;
    if !(1..=12).contains(&month) || !(1..=31).contains(&day) {
        return None;
    }
    Some(DateTimeValue {
        year,
        month,
        day,
        hour: 0,
        minute: 0,
        millisecond_of_minute: 0,
    })
}

fn parse_date_time(lexical: &str) -> Option<DateTimeValue> {
    let t = lexical.trim();
    let (date_part, time_part) = split2(t, 'T')?;
    let mut dt = parse_date(date_part)?;
    // HH:MM:SS(.fff)? with optional timezone suffix Z or ±HH:MM.
    let time_part = time_part
        .trim_end_matches('Z')
        .split(['+'])
        .next()
        .unwrap_or(time_part);
    // A negative timezone offset also starts with '-', but '-' appears in
    // the time only as an offset separator after seconds.
    let time_core = match time_part.rfind('-') {
        Some(i) if i > 7 => &time_part[..i],
        _ => time_part,
    };
    let (h, rest) = split2(time_core, ':')?;
    let (m, s) = split2(rest, ':')?;
    dt.hour = h.parse().ok()?;
    dt.minute = m.parse().ok()?;
    let secs: f64 = s.parse().ok()?;
    if dt.hour > 24 || dt.minute > 59 || !(0.0..61.0).contains(&secs) {
        return None;
    }
    dt.millisecond_of_minute = (secs * 1000.0) as u32;
    Some(dt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Literal;
    use crate::vocab::xsd;

    fn cmp(a: &Literal, b: &Literal) -> Option<Ordering> {
        a.value().partial_cmp_value(&b.value())
    }

    #[test]
    fn integer_ordering() {
        assert_eq!(
            cmp(&Literal::integer(3), &Literal::integer(5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            cmp(&Literal::integer(5), &Literal::integer(5)),
            Some(Ordering::Equal)
        );
    }

    #[test]
    fn mixed_numeric_ordering() {
        let i = Literal::integer(3);
        let d = Literal::typed("3.5", xsd::decimal());
        assert_eq!(cmp(&i, &d), Some(Ordering::Less));
        let f = Literal::typed("2.5e0", xsd::double());
        assert_eq!(cmp(&f, &i), Some(Ordering::Less));
    }

    #[test]
    fn string_ordering_is_codepoint() {
        let a = Literal::string("abc");
        let b = Literal::string("abd");
        assert_eq!(cmp(&a, &b), Some(Ordering::Less));
    }

    #[test]
    fn cross_category_incomparable() {
        let s = Literal::string("10");
        let i = Literal::integer(10);
        assert_eq!(cmp(&s, &i), None);
        let o = Literal::typed("x", Iri::new("http://example.org/custom"));
        assert_eq!(cmp(&o, &o), None);
    }

    #[test]
    fn boolean_ordering() {
        assert_eq!(
            cmp(&Literal::boolean(false), &Literal::boolean(true)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn date_time_parsing_and_ordering() {
        let a = Literal::typed("2020-01-15T10:30:00Z", xsd::date_time());
        let b = Literal::typed("2020-01-15T10:30:01Z", xsd::date_time());
        let c = Literal::typed("2021-01-01T00:00:00Z", xsd::date_time());
        assert_eq!(cmp(&a, &b), Some(Ordering::Less));
        assert_eq!(cmp(&b, &c), Some(Ordering::Less));
    }

    #[test]
    fn date_parsing() {
        let a = Literal::typed("2020-01-15", xsd::date());
        let b = Literal::typed("2020-02-01", xsd::date());
        assert_eq!(cmp(&a, &b), Some(Ordering::Less));
    }

    #[test]
    fn date_time_with_offset() {
        let a = Literal::typed("2020-01-15T10:30:00.250-05:00", xsd::date_time());
        match a.value() {
            LiteralValue::DateTime(dt) => {
                assert_eq!(dt.hour, 10);
                assert_eq!(dt.millisecond_of_minute, 250);
            }
            other => panic!("expected dateTime, got {other:?}"),
        }
    }

    #[test]
    fn malformed_values_are_other() {
        assert_eq!(
            LiteralValue::parse("not-a-number", &xsd::integer()),
            LiteralValue::Other
        );
        assert_eq!(
            LiteralValue::parse("2020-13-99", &xsd::date()),
            LiteralValue::Other
        );
    }

    #[test]
    fn value_eq_promotes_numerics() {
        let i = Literal::integer(2);
        let d = Literal::typed("2.0", xsd::double());
        assert!(i.value().value_eq(&d.value()));
    }
}
