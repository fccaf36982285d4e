//! MOODSQL lexer.

use crate::error::{Result, SqlError};

/// Token kinds. Keywords are case-insensitive and lexed as [`Tok::Kw`].
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    Kw(Kw),
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    /// `$n` — the n-th (1-based) bound parameter. Only the session's shape
    /// scanner writes these; statement text typed by a user never reaches
    /// the lexer with one.
    Param(u16),
    Sym(&'static str),
}

/// MOODSQL keywords.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kw {
    Select,
    From,
    Where,
    Group,
    By,
    Having,
    Order,
    Every,
    And,
    Or,
    Not,
    Between,
    Create,
    Drop,
    Class,
    Tuple,
    Methods,
    Inherits,
    New,
    Index,
    On,
    Unique,
    Btree,
    Reference,
    Set,
    List,
    Define,
    Method,
    Returns,
    As,
    True,
    False,
    Null,
    Asc,
    Desc,
    Distinct,
    Delete,
    Update,
    Explain,
    Analyze,
    Show,
    Metrics,
    Begin,
    Transaction,
    Commit,
    Rollback,
}

impl Kw {
    fn parse(word: &str) -> Option<Kw> {
        Some(match word.to_ascii_uppercase().as_str() {
            "SELECT" => Kw::Select,
            "FROM" => Kw::From,
            "WHERE" => Kw::Where,
            "GROUP" => Kw::Group,
            "BY" => Kw::By,
            "HAVING" => Kw::Having,
            "ORDER" => Kw::Order,
            "EVERY" => Kw::Every,
            "AND" => Kw::And,
            "OR" => Kw::Or,
            "NOT" => Kw::Not,
            "BETWEEN" => Kw::Between,
            "CREATE" => Kw::Create,
            "DROP" => Kw::Drop,
            "CLASS" => Kw::Class,
            "TUPLE" => Kw::Tuple,
            "METHODS" => Kw::Methods,
            "INHERITS" => Kw::Inherits,
            "NEW" => Kw::New,
            "INDEX" => Kw::Index,
            "ON" => Kw::On,
            "UNIQUE" => Kw::Unique,
            "BTREE" => Kw::Btree,
            "REFERENCE" => Kw::Reference,
            "SET" => Kw::Set,
            "LIST" => Kw::List,
            "DEFINE" => Kw::Define,
            "METHOD" => Kw::Method,
            "RETURNS" => Kw::Returns,
            "AS" => Kw::As,
            "TRUE" => Kw::True,
            "FALSE" => Kw::False,
            "NULL" => Kw::Null,
            "ASC" => Kw::Asc,
            "DESC" => Kw::Desc,
            "DISTINCT" => Kw::Distinct,
            "DELETE" => Kw::Delete,
            "UPDATE" => Kw::Update,
            "EXPLAIN" => Kw::Explain,
            "ANALYZE" => Kw::Analyze,
            "SHOW" => Kw::Show,
            "METRICS" => Kw::Metrics,
            "BEGIN" => Kw::Begin,
            "TRANSACTION" => Kw::Transaction,
            "COMMIT" => Kw::Commit,
            "ROLLBACK" => Kw::Rollback,
            _ => return None,
        })
    }
}

/// Tokenize a statement.
pub fn lex(src: &str) -> Result<Vec<Tok>> {
    let chars: Vec<char> = src.chars().collect();
    let mut toks = Vec::new();
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // -- line comments
        if c == '-' && chars.get(i + 1) == Some(&'-') {
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            let mut is_float = false;
            while i < chars.len()
                && (chars[i].is_ascii_digit()
                    || (chars[i] == '.'
                        && !is_float
                        && chars.get(i + 1).is_some_and(|d| d.is_ascii_digit())))
            {
                if chars[i] == '.' {
                    is_float = true;
                }
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            if is_float {
                toks.push(Tok::Float(text.parse().map_err(|e| SqlError::Lex {
                    position: start,
                    message: format!("bad float {text}: {e}"),
                })?));
            } else {
                toks.push(Tok::Int(text.parse().map_err(|e| SqlError::Lex {
                    position: start,
                    message: format!("bad integer {text}: {e}"),
                })?));
            }
            continue;
        }
        if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            let word: String = chars[start..i].iter().collect();
            match Kw::parse(&word) {
                Some(kw) => toks.push(Tok::Kw(kw)),
                None => toks.push(Tok::Ident(word)),
            }
            continue;
        }
        if c == '$' {
            let start = i;
            i += 1;
            while i < chars.len() && chars[i].is_ascii_digit() {
                i += 1;
            }
            let text: String = chars[start + 1..i].iter().collect();
            toks.push(Tok::Param(text.parse().map_err(|_| SqlError::Lex {
                position: start,
                message: format!("bad parameter ${text}"),
            })?));
            continue;
        }
        if c == '\'' || c == '"' {
            let quote = c;
            i += 1;
            let mut out = String::new();
            loop {
                match chars.get(i) {
                    None => {
                        return Err(SqlError::Lex {
                            position: i,
                            message: "unterminated string literal".into(),
                        })
                    }
                    Some(&ch) if ch == quote => {
                        // Doubled quote escapes itself.
                        if chars.get(i + 1) == Some(&quote) {
                            out.push(quote);
                            i += 2;
                        } else {
                            i += 1;
                            break;
                        }
                    }
                    Some(&ch) => {
                        out.push(ch);
                        i += 1;
                    }
                }
            }
            toks.push(Tok::Str(out));
            continue;
        }
        let two: String = chars[i..(i + 2).min(chars.len())].iter().collect();
        let sym: &'static str = match two.as_str() {
            "<>" | "<=" | ">=" | "::" => {
                i += 2;
                match two.as_str() {
                    "<>" => "<>",
                    "<=" => "<=",
                    ">=" => ">=",
                    _ => "::",
                }
            }
            _ => {
                i += 1;
                match c {
                    ':' => ":",
                    '(' => "(",
                    ')' => ")",
                    ',' => ",",
                    '.' => ".",
                    ';' => ";",
                    '=' => "=",
                    '<' => "<",
                    '>' => ">",
                    '*' => "*",
                    '+' => "+",
                    '-' => "-",
                    '/' => "/",
                    '%' => "%",
                    '{' => "{",
                    '}' => "}",
                    other => {
                        return Err(SqlError::Lex {
                            position: i - 1,
                            message: format!("unexpected character '{other}'"),
                        })
                    }
                }
            }
        };
        toks.push(Tok::Sym(sym));
    }
    Ok(toks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_are_case_insensitive() {
        let toks = lex("select FROM WhErE").unwrap();
        assert_eq!(
            toks,
            vec![Tok::Kw(Kw::Select), Tok::Kw(Kw::From), Tok::Kw(Kw::Where)]
        );
    }

    #[test]
    fn paper_query_lexes() {
        let toks = lex(
            "SELECT c FROM EVERY Automobile - JapaneseAuto c, VehicleEngine v \
             WHERE c.drivetrain.transmission = 'AUTOMATIC' AND \
             c.drivetrain.engine = v AND v.cylinders > 4",
        )
        .unwrap();
        assert!(toks.contains(&Tok::Kw(Kw::Every)));
        assert!(toks.contains(&Tok::Sym("-")));
        assert!(toks.contains(&Tok::Str("AUTOMATIC".into())));
        assert!(toks.contains(&Tok::Int(4)));
    }

    #[test]
    fn numbers_and_floats() {
        let toks = lex("42 3.25 2.").unwrap();
        // "2." lexes as Int(2) then Sym(".") — dots only join digits.
        assert_eq!(
            toks,
            vec![Tok::Int(42), Tok::Float(3.25), Tok::Int(2), Tok::Sym(".")]
        );
    }

    #[test]
    fn string_escapes_and_both_quotes() {
        let toks = lex("'it''s' \"double\"").unwrap();
        assert_eq!(
            toks,
            vec![Tok::Str("it's".into()), Tok::Str("double".into())]
        );
        assert!(lex("'unterminated").is_err());
    }

    #[test]
    fn comments_are_skipped() {
        let toks = lex("SELECT -- the projection\n c").unwrap();
        assert_eq!(toks.len(), 2);
    }

    #[test]
    fn two_char_symbols() {
        let toks = lex("<> <= >= :: <").unwrap();
        assert_eq!(
            toks,
            vec![
                Tok::Sym("<>"),
                Tok::Sym("<="),
                Tok::Sym(">="),
                Tok::Sym("::"),
                Tok::Sym("<")
            ]
        );
    }

    #[test]
    fn parameters_lex_as_one_token() {
        assert_eq!(lex("v.id = $12").unwrap().last(), Some(&Tok::Param(12)));
        assert!(matches!(lex("$"), Err(SqlError::Lex { .. })));
        assert!(matches!(lex("$x"), Err(SqlError::Lex { .. })));
        assert!(matches!(lex("$99999999"), Err(SqlError::Lex { .. })));
    }

    #[test]
    fn unknown_character_errors() {
        assert!(matches!(lex("SELECT @"), Err(SqlError::Lex { .. })));
    }
}
