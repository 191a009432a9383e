//! A small SQL-ish text parser for the query layer.
//!
//! Grammar (case-insensitive keywords):
//!
//! ```text
//! query     := (EXPLAIN ANALYZE?)? SELECT agg (',' agg)* FROM ident (WHERE orexpr)?
//! agg       := COUNT '(' '*' ')'
//!            | (SUM|AVG|MIN|MAX|MEDIAN) '(' ident ')'
//!            | (KTH_LARGEST|KTH_SMALLEST) '(' ident ',' int ')'
//!            | PERCENTILE '(' ident ',' float ')'
//! orexpr    := andexpr (OR andexpr)*
//! andexpr   := notexpr (AND notexpr)*
//! notexpr   := NOT notexpr | atom
//! atom      := '(' orexpr ')'
//!            | ident BETWEEN int AND int
//!            | ident IN '(' int (',' int)* ')'
//!            | ident cmp (int | ident)
//! cmp       := '=' | '<>' | '!=' | '<' | '<=' | '>' | '>='
//! ```
//!
//! `ident cmp ident` parses to a column–column comparison (the paper's
//! `ai op aj` predicates, planned as semi-linear queries).

use crate::error::{EngineError, EngineResult};
use crate::query::ast::{Aggregate, BoolExpr, Query};
use gpudb_sim::CompareFunc;

/// A parsed statement: the query plus the table name it targets.
#[derive(Debug, Clone, PartialEq)]
pub struct Statement {
    /// Target table name.
    pub table: String,
    /// The query.
    pub query: Query,
    /// Whether the statement was prefixed with EXPLAIN (describe the plan
    /// instead of executing).
    pub explain: bool,
    /// Whether the statement was prefixed with EXPLAIN ANALYZE (execute
    /// for real and annotate the plan tree with measured modeled times).
    /// Implies [`Statement::explain`].
    pub analyze: bool,
}

/// Parse a SQL-ish statement.
pub fn parse(input: &str) -> EngineResult<Statement> {
    let tokens = tokenize(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.statement()?;
    if p.pos != p.tokens.len() {
        return Err(err(format!("unexpected trailing input at {:?}", p.peek())));
    }
    Ok(stmt)
}

fn err(msg: impl Into<String>) -> EngineError {
    EngineError::InvalidQuery(msg.into())
}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Int(u64),
    Float(f64),
    Symbol(&'static str),
}

impl Token {
    fn keyword_eq(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
}

fn tokenize(input: &str) -> EngineResult<Vec<Token>> {
    let mut tokens = Vec::new();
    let bytes: Vec<char> = input.chars().collect();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            c if c.is_whitespace() => i += 1,
            '(' | ')' | ',' | '*' => {
                tokens.push(Token::Symbol(match c {
                    '(' => "(",
                    ')' => ")",
                    ',' => ",",
                    _ => "*",
                }));
                i += 1;
            }
            '<' => {
                if bytes.get(i + 1) == Some(&'=') {
                    tokens.push(Token::Symbol("<="));
                    i += 2;
                } else if bytes.get(i + 1) == Some(&'>') {
                    tokens.push(Token::Symbol("<>"));
                    i += 2;
                } else {
                    tokens.push(Token::Symbol("<"));
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&'=') {
                    tokens.push(Token::Symbol(">="));
                    i += 2;
                } else {
                    tokens.push(Token::Symbol(">"));
                    i += 1;
                }
            }
            '=' => {
                tokens.push(Token::Symbol("="));
                i += 1;
            }
            '!' => {
                if bytes.get(i + 1) == Some(&'=') {
                    tokens.push(Token::Symbol("!="));
                    i += 2;
                } else {
                    return Err(err("stray '!'"));
                }
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == '.') {
                    i += 1;
                }
                let text: String = bytes[start..i].iter().collect();
                if text.contains('.') {
                    tokens.push(Token::Float(
                        text.parse()
                            .map_err(|_| err(format!("bad number {text:?}")))?,
                    ));
                } else {
                    tokens.push(Token::Int(
                        text.parse()
                            .map_err(|_| err(format!("bad number {text:?}")))?,
                    ));
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == '_') {
                    i += 1;
                }
                tokens.push(Token::Ident(bytes[start..i].iter().collect()));
            }
            other => return Err(err(format!("unexpected character {other:?}"))),
        }
    }
    Ok(tokens)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> EngineResult<&Token> {
        let tok = self
            .tokens
            .get(self.pos)
            .ok_or_else(|| err("unexpected end of input"))?;
        self.pos += 1;
        Ok(tok)
    }

    fn expect_symbol(&mut self, sym: &str) -> EngineResult<()> {
        match self.next()? {
            Token::Symbol(s) if *s == sym => Ok(()),
            other => Err(err(format!("expected {sym:?}, got {other:?}"))),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> EngineResult<()> {
        let tok = self.next()?;
        if tok.keyword_eq(kw) {
            Ok(())
        } else {
            Err(err(format!("expected {kw}, got {tok:?}")))
        }
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        self.peek().is_some_and(|t| t.keyword_eq(kw))
    }

    fn ident(&mut self) -> EngineResult<String> {
        match self.next()? {
            Token::Ident(s) => Ok(s.clone()),
            other => Err(err(format!("expected identifier, got {other:?}"))),
        }
    }

    fn int(&mut self) -> EngineResult<u64> {
        match self.next()? {
            Token::Int(v) => Ok(*v),
            other => Err(err(format!("expected integer, got {other:?}"))),
        }
    }

    /// An integer literal compared against an attribute.
    fn constant(&mut self) -> EngineResult<u32> {
        u32::try_from(self.int()?).map_err(|_| err("constant exceeds 32 bits"))
    }

    fn statement(&mut self) -> EngineResult<Statement> {
        let explain = if self.peek_keyword("EXPLAIN") {
            self.pos += 1;
            true
        } else {
            false
        };
        let analyze = if explain && self.peek_keyword("ANALYZE") {
            self.pos += 1;
            true
        } else {
            false
        };
        self.expect_keyword("SELECT")?;
        let mut aggregates = vec![self.aggregate()?];
        while self.peek() == Some(&Token::Symbol(",")) {
            self.pos += 1;
            aggregates.push(self.aggregate()?);
        }
        self.expect_keyword("FROM")?;
        let table = self.ident()?;
        let filter = if self.peek_keyword("WHERE") {
            self.pos += 1;
            Some(self.or_expr()?)
        } else {
            None
        };
        Ok(Statement {
            table,
            query: Query { aggregates, filter },
            explain,
            analyze,
        })
    }

    fn aggregate(&mut self) -> EngineResult<Aggregate> {
        let name = self.ident()?.to_ascii_uppercase();
        self.expect_symbol("(")?;
        let agg = match name.as_str() {
            "COUNT" => {
                self.expect_symbol("*")?;
                Aggregate::Count
            }
            "SUM" => Aggregate::Sum(self.ident()?),
            "AVG" => Aggregate::Avg(self.ident()?),
            "MIN" => Aggregate::Min(self.ident()?),
            "MAX" => Aggregate::Max(self.ident()?),
            "MEDIAN" => Aggregate::Median(self.ident()?),
            "PERCENTILE" => {
                let col = self.ident()?;
                self.expect_symbol(",")?;
                let p = match self.next()? {
                    Token::Float(v) => *v,
                    Token::Int(v) => *v as f64,
                    other => return Err(err(format!("expected fraction, got {other:?}"))),
                };
                if !(0.0..=1.0).contains(&p) {
                    return Err(err(format!("percentile {p} outside [0, 1]")));
                }
                Aggregate::Percentile(col, p)
            }
            "KTH_LARGEST" | "KTH_SMALLEST" => {
                let col = self.ident()?;
                self.expect_symbol(",")?;
                let k = self.int()? as usize;
                if name == "KTH_LARGEST" {
                    Aggregate::KthLargest(col, k)
                } else {
                    Aggregate::KthSmallest(col, k)
                }
            }
            other => return Err(err(format!("unknown aggregate {other}"))),
        };
        self.expect_symbol(")")?;
        Ok(agg)
    }

    fn or_expr(&mut self) -> EngineResult<BoolExpr> {
        let mut lhs = self.and_expr()?;
        while self.peek_keyword("OR") {
            self.pos += 1;
            lhs = lhs.or(self.and_expr()?);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> EngineResult<BoolExpr> {
        let mut lhs = self.not_expr()?;
        while self.peek_keyword("AND") {
            self.pos += 1;
            lhs = lhs.and(self.not_expr()?);
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> EngineResult<BoolExpr> {
        if self.peek_keyword("NOT") {
            self.pos += 1;
            return Ok(self.not_expr()?.not());
        }
        self.atom()
    }

    fn atom(&mut self) -> EngineResult<BoolExpr> {
        if self.peek() == Some(&Token::Symbol("(")) {
            self.pos += 1;
            let inner = self.or_expr()?;
            self.expect_symbol(")")?;
            return Ok(inner);
        }
        let column = self.ident()?;
        if self.peek_keyword("IN") {
            self.pos += 1;
            self.expect_symbol("(")?;
            let mut values =
                vec![u32::try_from(self.int()?).map_err(|_| err("IN value exceeds 32 bits"))?];
            while self.peek() == Some(&Token::Symbol(",")) {
                self.pos += 1;
                values
                    .push(u32::try_from(self.int()?).map_err(|_| err("IN value exceeds 32 bits"))?);
            }
            self.expect_symbol(")")?;
            return Ok(BoolExpr::InList { column, values });
        }
        if self.peek_keyword("BETWEEN") {
            self.pos += 1;
            let low = self.constant()?;
            self.expect_keyword("AND")?;
            let high = self.constant()?;
            return Ok(BoolExpr::Between { column, low, high });
        }
        let op = self.comparison_op()?;
        match self.next()? {
            Token::Int(v) => Ok(BoolExpr::Pred {
                column,
                op,
                constant: u32::try_from(*v).map_err(|_| err("constant exceeds 32 bits"))?,
            }),
            Token::Ident(right) => Ok(BoolExpr::CompareColumns {
                left: column,
                op,
                right: right.clone(),
            }),
            other => Err(err(format!("expected constant or column, got {other:?}"))),
        }
    }

    fn comparison_op(&mut self) -> EngineResult<CompareFunc> {
        match self.next()? {
            Token::Symbol("<") => Ok(CompareFunc::Less),
            Token::Symbol("<=") => Ok(CompareFunc::LessEqual),
            Token::Symbol(">") => Ok(CompareFunc::Greater),
            Token::Symbol(">=") => Ok(CompareFunc::GreaterEqual),
            Token::Symbol("=") => Ok(CompareFunc::Equal),
            Token::Symbol("<>") | Token::Symbol("!=") => Ok(CompareFunc::NotEqual),
            other => Err(err(format!("expected comparison operator, got {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpudb_sim::CompareFunc::*;

    #[test]
    fn parses_simple_count() {
        let stmt = parse("SELECT COUNT(*) FROM flows").unwrap();
        assert_eq!(stmt.table, "flows");
        assert_eq!(stmt.query.aggregates, vec![Aggregate::Count]);
        assert_eq!(stmt.query.filter, None);
    }

    #[test]
    fn parses_full_statement() {
        let stmt = parse(
            "SELECT COUNT(*), SUM(bytes), MEDIAN(rate), KTH_LARGEST(rate, 10) \
             FROM flows WHERE bytes >= 1000 AND (rate < 50 OR NOT loss = 0)",
        )
        .unwrap();
        assert_eq!(stmt.table, "flows");
        assert_eq!(stmt.query.aggregates.len(), 4);
        assert_eq!(
            stmt.query.aggregates[3],
            Aggregate::KthLargest("rate".into(), 10)
        );
        let filter = stmt.query.filter.unwrap();
        match filter {
            BoolExpr::And(lhs, rhs) => {
                assert_eq!(*lhs, BoolExpr::pred("bytes", GreaterEqual, 1000));
                assert!(matches!(*rhs, BoolExpr::Or(_, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn keywords_case_insensitive() {
        let stmt = parse("select count(*) from t where a between 1 and 5").unwrap();
        assert_eq!(
            stmt.query.filter,
            Some(BoolExpr::Between {
                column: "a".into(),
                low: 1,
                high: 5
            })
        );
    }

    #[test]
    fn between_binds_tighter_than_and() {
        let stmt = parse("SELECT COUNT(*) FROM t WHERE a BETWEEN 1 AND 5 AND b > 3").unwrap();
        match stmt.query.filter.unwrap() {
            BoolExpr::And(lhs, rhs) => {
                assert!(matches!(*lhs, BoolExpr::Between { .. }));
                assert_eq!(*rhs, BoolExpr::pred("b", Greater, 3));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// `parse(sql)` fails as `a <= 4294967296` does.
    fn assert_constant_too_wide(sql: &str) {
        match parse(sql) {
            Err(EngineError::InvalidQuery(msg)) => assert_eq!(msg, "constant exceeds 32 bits"),
            other => panic!("{sql}: {other:?}"),
        }
    }

    #[test]
    fn between_low_bound_wider_than_32_bits_rejected() {
        assert_constant_too_wide("SELECT COUNT(*) FROM t WHERE a BETWEEN 4294967296 AND 5");
        let stmt = parse("SELECT COUNT(*) FROM t WHERE a BETWEEN 4294967295 AND 5").unwrap();
        assert!(matches!(
            stmt.query.filter,
            Some(BoolExpr::Between { low: u32::MAX, .. })
        ));
    }

    #[test]
    fn between_high_bound_wider_than_32_bits_rejected() {
        assert_constant_too_wide("SELECT COUNT(*) FROM t WHERE a BETWEEN 0 AND 4294967296");
        assert_constant_too_wide("SELECT COUNT(*) FROM t WHERE a <= 4294967296");
        let stmt = parse("SELECT COUNT(*) FROM t WHERE a BETWEEN 0 AND 4294967295").unwrap();
        assert!(matches!(
            stmt.query.filter,
            Some(BoolExpr::Between { high: u32::MAX, .. })
        ));
    }

    #[test]
    fn column_comparison_atom() {
        let stmt = parse("SELECT COUNT(*) FROM t WHERE sent > received").unwrap();
        assert_eq!(
            stmt.query.filter,
            Some(BoolExpr::CompareColumns {
                left: "sent".into(),
                op: Greater,
                right: "received".into()
            })
        );
    }

    #[test]
    fn all_comparison_operators() {
        for (text, op) in [
            ("<", Less),
            ("<=", LessEqual),
            (">", Greater),
            (">=", GreaterEqual),
            ("=", Equal),
            ("<>", NotEqual),
            ("!=", NotEqual),
        ] {
            let stmt = parse(&format!("SELECT COUNT(*) FROM t WHERE a {text} 7")).unwrap();
            assert_eq!(
                stmt.query.filter,
                Some(BoolExpr::pred("a", op, 7)),
                "{text}"
            );
        }
    }

    #[test]
    fn operator_precedence_and_over_or() {
        let stmt = parse("SELECT COUNT(*) FROM t WHERE a < 1 OR b < 2 AND c < 3").unwrap();
        match stmt.query.filter.unwrap() {
            BoolExpr::Or(lhs, rhs) => {
                assert_eq!(*lhs, BoolExpr::pred("a", Less, 1));
                assert!(matches!(*rhs, BoolExpr::And(_, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parenthesized_grouping() {
        let stmt = parse("SELECT COUNT(*) FROM t WHERE (a < 1 OR b < 2) AND c < 3").unwrap();
        assert!(matches!(stmt.query.filter.unwrap(), BoolExpr::And(_, _)));
    }

    #[test]
    fn rejects_malformed_statements() {
        assert!(parse("").is_err());
        assert!(parse("SELECT").is_err());
        assert!(parse("SELECT COUNT(*) WHERE a < 1").is_err());
        assert!(parse("SELECT COUNT(*) FROM t WHERE").is_err());
        assert!(parse("SELECT COUNT(*) FROM t WHERE a <").is_err());
        assert!(parse("SELECT COUNT(*) FROM t trailing").is_err());
        assert!(parse("SELECT FROB(a) FROM t").is_err());
        assert!(parse("SELECT COUNT(a) FROM t").is_err(), "COUNT takes *");
        assert!(parse("SELECT COUNT(*) FROM t WHERE a ! 1").is_err());
        assert!(parse("SELECT COUNT(*) FROM t WHERE a < 99999999999").is_err());
    }

    #[test]
    fn numbers_with_dots_rejected_in_int_position() {
        assert!(parse("SELECT KTH_LARGEST(a, 1.5) FROM t").is_err());
    }

    #[test]
    fn in_list_atom() {
        let stmt = parse("SELECT COUNT(*) FROM t WHERE a IN (1, 5, 9)").unwrap();
        assert_eq!(
            stmt.query.filter,
            Some(BoolExpr::InList {
                column: "a".into(),
                values: vec![1, 5, 9]
            })
        );
        // Single-element list and NOT IN.
        let stmt = parse("SELECT COUNT(*) FROM t WHERE NOT a IN (7)").unwrap();
        assert!(matches!(stmt.query.filter, Some(BoolExpr::Not(_))));
        // Malformed lists.
        assert!(parse("SELECT COUNT(*) FROM t WHERE a IN ()").is_err());
        assert!(parse("SELECT COUNT(*) FROM t WHERE a IN (1,)").is_err());
        assert!(parse("SELECT COUNT(*) FROM t WHERE a IN (1 2)").is_err());
    }

    #[test]
    fn percentile_aggregate() {
        let stmt = parse("SELECT PERCENTILE(income, 0.95) FROM t").unwrap();
        assert_eq!(
            stmt.query.aggregates[0],
            Aggregate::Percentile("income".into(), 0.95)
        );
        // Integer 1 accepted (p = 1.0); out-of-range rejected.
        assert!(parse("SELECT PERCENTILE(x, 1) FROM t").is_ok());
        assert!(parse("SELECT PERCENTILE(x, 1.5) FROM t").is_err());
    }

    #[test]
    fn explain_prefix() {
        let stmt = parse("EXPLAIN SELECT COUNT(*) FROM t WHERE a < 5").unwrap();
        assert!(stmt.explain);
        assert!(!stmt.analyze);
        let stmt = parse("SELECT COUNT(*) FROM t").unwrap();
        assert!(!stmt.explain);
        assert!(!stmt.analyze);
        assert!(parse("EXPLAIN EXPLAIN SELECT COUNT(*) FROM t").is_err());
    }

    #[test]
    fn explain_analyze_prefix() {
        let stmt = parse("EXPLAIN ANALYZE SELECT COUNT(*) FROM t WHERE a < 5").unwrap();
        assert!(stmt.explain);
        assert!(stmt.analyze);
        // ANALYZE without EXPLAIN is not a prefix, and double ANALYZE fails.
        assert!(parse("ANALYZE SELECT COUNT(*) FROM t").is_err());
        assert!(parse("EXPLAIN ANALYZE ANALYZE SELECT COUNT(*) FROM t").is_err());
    }
}
