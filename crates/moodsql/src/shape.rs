//! Statement shapes: the one scan a statement's text gets before the plan
//! cache is consulted.
//!
//! [`Shape::scan`] folds layout (whitespace runs, `--` comments) and lifts
//! every numeric or string literal that is, by itself, one operand of a
//! bare `=` (`a = 5`, `'x' = a`; not the `5` of `a = 5 * b`) out of the
//! text into a parameter vector, leaving `$1, $2, …` behind. Two
//! statements that differ only in such literals therefore have one shape,
//! and — because §8's selectivity for `A = c` is `1/dist(A, C)` whatever
//! `c` is — one plan. Literals under `<`, `<=`, `>`, `>=` and `BETWEEN`
//! stay in the text: their selectivity `(max − c)/(max − min)` reads the
//! constant, so each bound keeps its own plan.
//!
//! The scanner mirrors the lexer's token boundaries ([`crate::token::lex`])
//! without building tokens: on a cache hit nothing else ever looks at the
//! text.

use std::fmt::Write;

use mood_datamodel::Value;

use crate::ast::Lit;
use crate::error::{Result, SqlError};
use crate::exec::lit_value;

/// A scanned statement. Its buffers outlive the scan: a session scans every
/// statement into the one `Shape`, which allocates once it has seen its
/// longest text.
#[derive(Default)]
pub(crate) struct Shape {
    /// Plan-cache and statement-stats key: the shape text, then — when
    /// anything was lifted — ` -- ` and one class letter per parameter
    /// (`i`nteger, `f`loat, `s`tring). `5`, `5.0` and `'5'` bind different
    /// [`Value`] variants, which index probes, arithmetic and the compiled
    /// programs' type checks tell apart, so they must not share a plan.
    pub key: String,
    text_len: usize,
    /// The lifted literals, in text order: `$n` is `params[n - 1]`.
    pub params: Vec<Value>,
    /// The statement was `EXPLAIN ANALYZE …`. The prefix is not part of the
    /// key, so the instrumented and plain forms share one cached plan.
    pub analyze: bool,
    /// The parameter classes, in text order, before they join the key.
    tags: String,
}

impl Shape {
    /// The shape text: what gets parsed when the cache has no plan for it.
    pub fn text(&self) -> &str {
        &self.key[..self.text_len]
    }

    /// Is this a (possibly `EXPLAIN ANALYZE`d) SELECT — the statements the
    /// plan cache holds and the only ones parsed from the shape text?
    pub fn is_select(&self) -> bool {
        starts_with_word(self.text(), "select")
    }

    /// Is this a `SHOW …` introspection statement?
    pub fn is_show(&self) -> bool {
        starts_with_word(self.text(), "show")
    }

    /// Scan `sql` into this shape, replacing what it held. The only error
    /// is a `$` outside a string literal: parameters are written by this
    /// scanner, never typed.
    pub fn scan(&mut self, sql: &str) -> Result<()> {
        let b = sql.as_bytes();
        let Shape { key: out, params, tags, .. } = self;
        out.clear();
        out.reserve(sql.len() + 8);
        tags.clear();
        params.clear();
        let mut pending_space = false;
        // The last token was a bare `=`: a literal here starts its operand.
        let mut after_eq = false;
        // The last token was an arithmetic operator: a literal here is that
        // operator's operand (or, after `-`, possibly a negated constant).
        let mut after_arith = false;
        let mut i = 0usize;
        while i < b.len() {
            let c = b[i];
            if c.is_ascii_whitespace() {
                pending_space = !out.is_empty();
                i += 1;
                continue;
            }
            if c == b'-' && b.get(i + 1) == Some(&b'-') {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                pending_space = !out.is_empty();
                continue;
            }
            if pending_space {
                out.push(' ');
                pending_space = false;
            }
            let start = i;
            let mut lifted: Option<(Value, char)> = None;
            match c {
                b'\'' | b'"' => {
                    let Some(end) = string_end(b, i) else {
                        // Unterminated: the lexer reports it.
                        out.push_str(&sql[i..]);
                        break;
                    };
                    i = end;
                    if is_eq_operand(b, end, after_eq, after_arith) {
                        // A doubled quote stands for one.
                        let (doubled, single) = if c == b'"' {
                            ("\"\"", "\"")
                        } else {
                            ("''", "'")
                        };
                        let text = sql[start + 1..end - 1].replace(doubled, single);
                        lifted = Some((Value::String(text), 's'));
                    }
                }
                b'0'..=b'9' => {
                    i = number_end(b, i);
                    if is_eq_operand(b, i, after_eq, after_arith) {
                        lifted = number(&sql[start..i], false);
                    }
                }
                b'-' if after_eq && b.get(i + 1).is_some_and(u8::is_ascii_digit) => {
                    i = number_end(b, i + 1);
                    if is_eq_operand(b, i, true, false) {
                        lifted = number(&sql[start + 1..i], true);
                    }
                }
                b'$' => {
                    return Err(SqlError::Lex {
                        position: i,
                        message: "unexpected character '$'".into(),
                    })
                }
                _ if c.is_ascii_alphabetic() || c == b'_' || !c.is_ascii() => {
                    while i < b.len()
                        && (b[i].is_ascii_alphanumeric() || b[i] == b'_' || !b[i].is_ascii())
                    {
                        i += 1;
                    }
                }
                _ => i += 1,
            }
            match lifted {
                Some((value, tag)) if params.len() < u16::MAX as usize => {
                    params.push(value);
                    tags.push(tag);
                    let _ = write!(out, "${}", params.len());
                }
                _ => out.push_str(&sql[start..i]),
            }
            // `<=` and `>=` are one token only when adjacent.
            after_eq = c == b'=' && !(start > 0 && matches!(b[start - 1], b'<' | b'>'));
            after_arith = i == start + 1 && is_arith(c);
        }
        const ANALYZE: &str = "explain analyze ";
        let analyze = out
            .get(..ANALYZE.len())
            .is_some_and(|p| p.eq_ignore_ascii_case(ANALYZE));
        if analyze {
            out.drain(..ANALYZE.len());
        }
        self.text_len = out.len();
        if !tags.is_empty() {
            out.push_str(" -- ");
            out.push_str(tags);
        }
        self.analyze = analyze;
        Ok(())
    }
}

fn starts_with_word(text: &str, word: &str) -> bool {
    text.get(..word.len())
        .is_some_and(|p| p.eq_ignore_ascii_case(word))
        && text.as_bytes().get(word.len()) == Some(&b' ')
}

/// The index just past the closing quote of the string literal opening at
/// `b[at]` (a doubled quote does not close it), or `None` if it never closes.
fn string_end(b: &[u8], at: usize) -> Option<usize> {
    let quote = b[at];
    let mut i = at + 1;
    while i < b.len() {
        if b[i] != quote {
            i += 1;
        } else if b.get(i + 1) == Some(&quote) {
            i += 2;
        } else {
            return Some(i + 1);
        }
    }
    None
}

/// The end of the number starting at `b[at]` (a digit), by the lexer's rule:
/// digits, then at most one `.` that a digit follows, then digits.
fn number_end(b: &[u8], at: usize) -> usize {
    let mut i = at;
    let mut seen_dot = false;
    while i < b.len()
        && (b[i].is_ascii_digit()
            || (b[i] == b'.' && !seen_dot && b.get(i + 1).is_some_and(u8::is_ascii_digit)))
    {
        seen_dot |= b[i] == b'.';
        i += 1;
    }
    i
}

/// The value and class of a numeric literal — the parser's `Lit`, then the
/// executor's reading of it; `None` where the lexer would reject it (too
/// large).
fn number(digits: &str, negative: bool) -> Option<(Value, char)> {
    if digits.contains('.') {
        let x: f64 = digits.parse().ok()?;
        return Some((lit_value(&Lit::Float(if negative { -x } else { x })), 'f'));
    }
    let i: i64 = digits.parse().ok()?;
    Some((lit_value(&Lit::Int(if negative { -i } else { i })), 'i'))
}

fn is_arith(c: u8) -> bool {
    matches!(c, b'+' | b'-' | b'*' | b'/' | b'%')
}

/// Is the literal ending at `b[end]` one whole side of a bare `=`? After
/// one, nothing arithmetic may follow it; before one, nothing arithmetic
/// may precede it (that also leaves `-5 = a` alone, where lifting the `5`
/// would turn the constant `-5` into the expression `-$1`). The `=` after
/// a literal cannot be the tail of `<=` or `>=`.
fn is_eq_operand(b: &[u8], end: usize, after_eq: bool, after_arith: bool) -> bool {
    let next = b[end..].iter().find(|c| !c.is_ascii_whitespace());
    if after_eq {
        !next.is_some_and(|c| is_arith(*c))
    } else {
        !after_arith && next == Some(&b'=')
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Statement;
    use crate::parser::parse;

    fn scan(sql: &str) -> Shape {
        let mut shape = Shape::default();
        shape.scan(sql).unwrap();
        shape
    }

    #[test]
    fn eq_operands_are_lifted_with_their_class() {
        let s = scan("SELECT v FROM V v WHERE v.id = 17 AND v.name = 'it''s' AND v.w = -2.5");
        assert_eq!(
            s.text(),
            "SELECT v FROM V v WHERE v.id = $1 AND v.name = $2 AND v.w = $3"
        );
        assert_eq!(s.key, format!("{} -- isf", s.text()));
        assert_eq!(
            s.params,
            vec![
                Value::Integer(17),
                Value::String("it's".into()),
                Value::Float(-2.5)
            ]
        );
        // The shape text parses, and to the literal statement's structure.
        assert!(matches!(parse(s.text()), Ok(Statement::Select(_))));
    }

    #[test]
    fn differing_keys_share_a_shape_and_classes_do_not() {
        let a = scan("SELECT v FROM V v WHERE v.id = 17");
        let b = scan("SELECT  v\nFROM V v -- point\n WHERE v.id =   18 ");
        assert_eq!(a.key, b.key);
        assert_ne!(a.params, b.params);
        let keys: Vec<String> = ["5", "5.0", "'5'", "5000000000"]
            .iter()
            .map(|c| scan(&format!("SELECT v FROM V v WHERE v.id = {c}")).key)
            .collect();
        assert_ne!(keys[0], keys[1]);
        assert_ne!(keys[0], keys[2]);
        assert_ne!(keys[1], keys[2]);
        assert_eq!(keys[0], keys[3], "integer width is a value, not a class");
        assert_eq!(
            scan("SELECT v FROM V v WHERE v.id = 5000000000").params,
            vec![Value::LongInteger(5_000_000_000)]
        );
    }

    #[test]
    fn only_bare_eq_lifts() {
        for sql in [
            "SELECT v FROM V v WHERE v.w < 5",
            "SELECT v FROM V v WHERE v.w <= 5",
            "SELECT v FROM V v WHERE v.w >= 5",
            "SELECT v FROM V v WHERE v.w > 5",
            "SELECT v FROM V v WHERE v.w <> 5",
            "SELECT v FROM V v WHERE v.w BETWEEN 1 AND 5",
            "SELECT v FROM V v WHERE v.w = TRUE",
            "SELECT v FROM V v WHERE v.w = NULL",
            "SELECT v FROM V v WHERE v.w = v.x",
            "SELECT v FROM V2 v WHERE v.a1 > 3",
            "SELECT v FROM V v WHERE v.w + 5 = v.x - 5",
            "SELECT v FROM V v WHERE v.w = 5 * v.x",
            "SELECT v FROM V v WHERE v.w = -5 * v.x",
            "UPDATE A a SET b = 1000 / (a.b - 200)",
            "new V <1, 'x', 2.5>",
        ] {
            let s = scan(sql);
            assert!(s.params.is_empty(), "{sql}");
            assert_eq!(s.key, sql);
        }
        // Mixed: the range bound stays, the key is lifted.
        let s = scan("SELECT v FROM V v WHERE v.w > 1000 AND v.id = 7");
        assert_eq!(s.text(), "SELECT v FROM V v WHERE v.w > 1000 AND v.id = $1");
    }

    #[test]
    fn literal_on_the_left_lifts_unless_negated() {
        let s = scan("SELECT v FROM V v WHERE 5 = v.id AND 'x' = v.name");
        assert_eq!(
            s.text(),
            "SELECT v FROM V v WHERE $1 = v.id AND $2 = v.name"
        );
        let s = scan("SELECT v FROM V v WHERE -5 = v.id");
        assert!(s.params.is_empty());
        assert!(scan("SELECT v FROM V v WHERE (5) = v.id").params.is_empty());
    }

    #[test]
    fn quoted_text_is_opaque() {
        let s = scan("SELECT v FROM V v WHERE v.name = 'a = 5 -- $1' AND v.note > 'x = 1'");
        assert_eq!(
            s.text(),
            "SELECT v FROM V v WHERE v.name = $1 AND v.note > 'x = 1'"
        );
        assert_eq!(s.params, vec![Value::String("a = 5 -- $1".into())]);
        let s = scan("DEFINE METHOD V::m() RETURNS Float AS 'w  =  2'");
        assert_eq!(s.key, "DEFINE METHOD V::m() RETURNS Float AS 'w  =  2'");
    }

    #[test]
    fn typed_parameters_and_lexer_rejects_are_left_to_fail() {
        assert!(matches!(
            Shape::default().scan("SELECT v FROM V v WHERE v.id = $1"),
            Err(SqlError::Lex { position: 31, .. })
        ));
        // Out-of-range integer and unterminated string: copied through so
        // the lexer reports them as it always did.
        let s = scan("SELECT v FROM V v WHERE v.id = 99999999999999999999");
        assert!(s.params.is_empty());
        assert!(parse(s.text()).is_err());
        let s = scan("SELECT v FROM V v WHERE v.name = 'open");
        assert!(s.params.is_empty());
        assert!(parse(s.text()).is_err());
    }

    #[test]
    fn statement_kinds_and_the_analyze_prefix() {
        let plain = scan("SELECT v FROM V v WHERE v.id = 1");
        let analyzed = scan("explain  ANALYZE SELECT v FROM V v WHERE v.id = 2");
        assert!(analyzed.analyze && !plain.analyze);
        assert_eq!(plain.key, analyzed.key);
        assert!(plain.is_select() && analyzed.is_select());
        assert!(!scan("EXPLAIN SELECT v FROM V v").is_select());
        assert!(!scan("SELECTED").is_select());
        assert!(scan("show  statements").is_show());
        assert!(!scan("UPDATE V v SET w = 1 WHERE v.id = 2").is_select());
    }
}
