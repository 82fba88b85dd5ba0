//! A small text format for database instances.
//!
//! One fact per line, optionally annotated with a weight after `@`
//! (interpreted per problem: a probability for PQE, ignored elsewhere):
//!
//! ```text
//! # comments and blank lines are skipped
//! R(1, 5)
//! S(1, alice) @ 0.9
//! T(1, 2, 4)
//! ```
//!
//! Values parse as `i64` when possible and are interned as strings
//! otherwise. The CLI and the examples load instances through this
//! module.

use crate::database::{Database, Fact};
use crate::tuple::Tuple;
use crate::value::{Interner, Sym, Value};
use std::collections::BTreeMap;
use std::fmt;

/// A parse failure with its 1-based line number.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// The result of parsing a database text: the instance plus any
/// per-fact weights that appeared after `@`.
#[derive(Debug, Clone, Default)]
pub struct ParsedDatabase {
    /// The parsed set database.
    pub database: Database,
    /// Facts that carried an `@ weight` annotation, in file order.
    pub weights: Vec<(Fact, f64)>,
}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Parses one value: integer if possible, otherwise interned string.
fn parse_value(token: &str, interner: &mut Interner) -> Value {
    match token.parse::<i64>() {
        Ok(i) => Value::Int(i),
        Err(_) => interner.value(token),
    }
}

/// Parses a single fact line `R(v1, …) [@ weight]`.
///
/// # Errors
/// Returns a [`ParseError`] describing the malformed syntax.
pub fn parse_fact_line(
    line: &str,
    lineno: usize,
    interner: &mut Interner,
) -> Result<(Fact, Option<f64>), ParseError> {
    let (fact_part, weight_part) = match line.split_once('@') {
        Some((f, w)) => (f.trim(), Some(w.trim())),
        None => (line.trim(), None),
    };
    let open = fact_part
        .find('(')
        .ok_or_else(|| err(lineno, "expected '(' in fact"))?;
    if !fact_part.ends_with(')') {
        return Err(err(lineno, "expected fact to end with ')'"));
    }
    let name = fact_part[..open].trim();
    if name.is_empty() {
        return Err(err(lineno, "empty relation name"));
    }
    let args = &fact_part[open + 1..fact_part.len() - 1];
    let values: Vec<Value> = if args.trim().is_empty() {
        Vec::new()
    } else {
        args.split(',')
            .map(|tok| parse_value(tok.trim(), interner))
            .collect()
    };
    let rel = interner.intern(name);
    let weight = match weight_part {
        None => None,
        Some(w) => Some(
            w.parse::<f64>()
                .map_err(|_| err(lineno, format!("invalid weight '{w}'")))?,
        ),
    };
    Ok((Fact::new(rel, Tuple::from(values)), weight))
}

/// Parses a whole database text (facts, comments, blank lines). The
/// tuples are grouped by relation while reading, and each relation is
/// then built with one batch insert, so loading is `O(n log n)`.
///
/// # Errors
/// Returns the first [`ParseError`] encountered, including a fact whose
/// arity differs from earlier facts of the same relation.
pub fn parse_database(text: &str, interner: &mut Interner) -> Result<ParsedDatabase, ParseError> {
    let mut out = ParsedDatabase::default();
    let mut by_rel: BTreeMap<Sym, Vec<Tuple>> = BTreeMap::new();
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = match raw.split_once('#') {
            Some((before, _)) => before.trim(),
            None => raw.trim(),
        };
        if line.is_empty() {
            continue;
        }
        let (fact, weight) = parse_fact_line(line, lineno, interner)?;
        let tuples = by_rel.entry(fact.rel).or_default();
        if let Some(first) = tuples.first().filter(|t| t.arity() != fact.tuple.arity()) {
            return Err(err(
                lineno,
                format!(
                    "relation {} has arity {} here but arity {} on earlier facts",
                    interner.resolve(fact.rel),
                    fact.tuple.arity(),
                    first.arity()
                ),
            ));
        }
        if let Some(w) = weight {
            out.weights.push((fact.clone(), w));
        }
        tuples.push(fact.tuple);
    }
    for (rel, tuples) in by_rel {
        out.database.insert_tuples(rel, tuples);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_plain_facts() {
        let mut i = Interner::new();
        let parsed = parse_database("R(1, 5)\nS(1, 2)\nS(1, 1)\n", &mut i).unwrap();
        assert_eq!(parsed.database.fact_count(), 3);
        assert!(parsed.weights.is_empty());
        let r = i.get("R").unwrap();
        assert!(parsed
            .database
            .contains(&Fact::new(r, Tuple::ints(&[1, 5]))));
    }

    #[test]
    fn parses_weights_and_strings() {
        let mut i = Interner::new();
        let parsed = parse_database("Obs(sensor_a, 42) @ 0.75\n", &mut i).unwrap();
        assert_eq!(parsed.weights.len(), 1);
        assert_eq!(parsed.weights[0].1, 0.75);
        let rel = i.get("Obs").unwrap();
        let sensor = i.get("sensor_a").unwrap();
        assert!(parsed.database.contains(&Fact::new(
            rel,
            Tuple::from(vec![Value::Str(sensor), Value::Int(42)])
        )));
    }

    #[test]
    fn skips_comments_and_blanks() {
        let mut i = Interner::new();
        let text = "# header\n\nR(1) # trailing comment\n   \n";
        let parsed = parse_database(text, &mut i).unwrap();
        assert_eq!(parsed.database.fact_count(), 1);
    }

    #[test]
    fn nullary_facts_parse() {
        let mut i = Interner::new();
        let parsed = parse_database("Unit()\n", &mut i).unwrap();
        assert_eq!(parsed.database.fact_count(), 1);
        let rel = i.get("Unit").unwrap();
        assert!(parsed.database.contains(&Fact::new(rel, Tuple::empty())));
    }

    #[test]
    fn reports_errors_with_line_numbers() {
        let mut i = Interner::new();
        let e = parse_database("R(1)\nbroken line\n", &mut i).unwrap_err();
        assert_eq!(e.line, 2);
        let e = parse_database("R(1) @ nan-ish-but-not\n", &mut i);
        // "nan-ish-but-not" is not a float
        assert!(e.is_err());
        let e = parse_database("(1, 2)\n", &mut i).unwrap_err();
        assert!(e.message.contains("empty relation name"));
        let e = parse_database("R(1, 2\n", &mut i).unwrap_err();
        assert!(e.message.contains("')'"));
        // A relation keeps the arity of its first fact.
        let e = parse_database("R(1, 2)\nR(1)\n", &mut i).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("arity"), "{e}");
        let e = parse_database("R()\nS(1)\n# gap\nR(3, 4)\n", &mut i).unwrap_err();
        assert_eq!(e.line, 4);
    }

    #[test]
    fn roundtrip_display_parse() {
        let mut i = Interner::new();
        let parsed = parse_database("R(1, 5)\nS(1, 1)\nS(1, 2)\nT(1, 2, 4)\n", &mut i).unwrap();
        let text = parsed.database.display(&i).to_string();
        let mut i2 = Interner::new();
        let reparsed = parse_database(&text, &mut i2).unwrap();
        assert_eq!(reparsed.database.fact_count(), parsed.database.fact_count());
    }
}
