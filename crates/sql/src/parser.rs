//! Recursive-descent parser for the HiveQL subset used by the paper's
//! workloads: `SELECT`/`FROM`/`JOIN ... ON`/`WHERE`/`GROUP BY`/`HAVING`/
//! `ORDER BY`/`LIMIT`, `CREATE TABLE ... TBLPROPERTIES (...) AS SELECT ...
//! DISTRIBUTE BY col`, and `DROP TABLE`.

use shark_common::{Result, SharkError, Value};

use crate::ast::{BinaryOp, Expr, JoinClause, SelectItem, SelectStmt, Statement, TableRef};
use crate::lexer::{tokenize, Token};

/// Parse one SQL statement.
pub fn parse(sql: &str) -> Result<Statement> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.parse_statement()?;
    // Allow a trailing semicolon.
    if p.peek_is(&Token::Semicolon) {
        p.advance();
    }
    if p.pos != p.tokens.len() {
        return Err(SharkError::Parse(format!(
            "unexpected trailing tokens starting at {:?}",
            p.tokens[p.pos]
        )));
    }
    Ok(stmt)
}

/// Parse a SQL string that must be a `SELECT`.
pub fn parse_select(sql: &str) -> Result<SelectStmt> {
    parse(sql)?.as_select().cloned()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek_is(&self, t: &Token) -> bool {
        self.peek() == Some(t)
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn advance(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        self.pos += 1;
        t
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        if self.peek_keyword(kw) {
            self.advance();
            Ok(())
        } else {
            Err(SharkError::Parse(format!(
                "expected keyword {kw}, found {:?}",
                self.peek()
            )))
        }
    }

    fn consume_keyword(&mut self, kw: &str) -> bool {
        if self.peek_keyword(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Token) -> Result<()> {
        if self.peek_is(t) {
            self.advance();
            Ok(())
        } else {
            Err(SharkError::Parse(format!(
                "expected {t:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn parse_identifier(&mut self) -> Result<String> {
        match self.advance() {
            Some(Token::Ident(s)) => Ok(s.to_lowercase()),
            Some(Token::StringLit(s)) => Ok(s),
            other => Err(SharkError::Parse(format!(
                "expected an identifier, found {other:?}"
            ))),
        }
    }

    fn parse_statement(&mut self) -> Result<Statement> {
        if self.peek_keyword("select") {
            return Ok(Statement::Select(self.parse_select()?));
        }
        if self.consume_keyword("explain") {
            let analyze = self.consume_keyword("analyze");
            if !self.peek_keyword("select") {
                return Err(SharkError::Parse(
                    "EXPLAIN supports only SELECT queries".into(),
                ));
            }
            let query = self.parse_select()?;
            return Ok(Statement::Explain { analyze, query });
        }
        if self.consume_keyword("drop") {
            self.expect_keyword("table")?;
            let name = self.parse_identifier()?;
            return Ok(Statement::DropTable { name });
        }
        if self.consume_keyword("create") {
            self.expect_keyword("table")?;
            let name = self.parse_identifier()?;
            let mut properties = Vec::new();
            if self.consume_keyword("tblproperties") {
                self.expect(&Token::LParen)?;
                loop {
                    let key = self.parse_identifier()?;
                    self.expect(&Token::Eq)?;
                    let value = match self.advance() {
                        Some(Token::StringLit(s)) => s,
                        Some(Token::Ident(s)) => s,
                        Some(Token::Number(s)) => s,
                        other => {
                            return Err(SharkError::Parse(format!(
                                "expected a property value, found {other:?}"
                            )))
                        }
                    };
                    properties.push((key.to_lowercase(), value));
                    if self.peek_is(&Token::Comma) {
                        self.advance();
                    } else {
                        break;
                    }
                }
                self.expect(&Token::RParen)?;
            }
            self.expect_keyword("as")?;
            let query = self.parse_select()?;
            return Ok(Statement::CreateTableAs {
                name,
                properties,
                query,
            });
        }
        Err(SharkError::Parse(format!(
            "unsupported statement starting with {:?}",
            self.peek()
        )))
    }

    fn parse_select(&mut self) -> Result<SelectStmt> {
        self.expect_keyword("select")?;
        let mut stmt = SelectStmt::default();

        // Projection list.
        loop {
            if self.peek_is(&Token::Star) {
                self.advance();
                stmt.projections.push(SelectItem::Wildcard);
            } else {
                let expr = self.parse_expr()?;
                let alias = if self.consume_keyword("as")
                    || matches!(self.peek(), Some(Token::Ident(s)) if !is_reserved(s))
                {
                    Some(self.parse_identifier()?)
                } else {
                    None
                };
                stmt.projections.push(SelectItem::Expr { expr, alias });
            }
            if self.peek_is(&Token::Comma) {
                self.advance();
            } else {
                break;
            }
        }

        // FROM + JOINs.
        if self.consume_keyword("from") {
            stmt.from = Some(self.parse_table_ref()?);
            loop {
                let inner = self.consume_keyword("inner");
                if self.consume_keyword("join") {
                    let table = self.parse_table_ref()?;
                    self.expect_keyword("on")?;
                    let on = self.parse_expr()?;
                    stmt.joins.push(JoinClause { table, on });
                } else if inner {
                    return Err(SharkError::Parse("expected JOIN after INNER".into()));
                } else if self.peek_is(&Token::Comma) {
                    // Implicit cross-join syntax `FROM a, b` — the join
                    // condition must appear in WHERE; record the table and a
                    // TRUE condition, the planner rewrites equi-conditions.
                    self.advance();
                    let table = self.parse_table_ref()?;
                    stmt.joins.push(JoinClause {
                        table,
                        on: Expr::Literal(Value::Bool(true)),
                    });
                } else {
                    break;
                }
            }
        }

        if self.consume_keyword("where") {
            stmt.selection = Some(self.parse_expr()?);
        }
        if self.consume_keyword("group") {
            self.expect_keyword("by")?;
            loop {
                stmt.group_by.push(self.parse_expr()?);
                if self.peek_is(&Token::Comma) {
                    self.advance();
                } else {
                    break;
                }
            }
        }
        if self.consume_keyword("having") {
            stmt.having = Some(self.parse_expr()?);
        }
        if self.consume_keyword("distribute") {
            self.expect_keyword("by")?;
            stmt.distribute_by = Some(self.parse_identifier()?);
        }
        if self.consume_keyword("order") {
            self.expect_keyword("by")?;
            loop {
                let e = self.parse_expr()?;
                let desc = if self.consume_keyword("desc") {
                    true
                } else {
                    self.consume_keyword("asc");
                    false
                };
                stmt.order_by.push((e, desc));
                if self.peek_is(&Token::Comma) {
                    self.advance();
                } else {
                    break;
                }
            }
        }
        if self.consume_keyword("limit") {
            match self.advance() {
                Some(Token::Number(n)) => {
                    stmt.limit = Some(
                        n.parse::<usize>()
                            .map_err(|_| SharkError::Parse(format!("invalid LIMIT value '{n}'")))?,
                    )
                }
                other => {
                    return Err(SharkError::Parse(format!(
                        "expected a number after LIMIT, found {other:?}"
                    )))
                }
            }
        }
        // DISTRIBUTE BY may also come last (Hive allows either position).
        if self.consume_keyword("distribute") {
            self.expect_keyword("by")?;
            stmt.distribute_by = Some(self.parse_identifier()?);
        }
        Ok(stmt)
    }

    fn parse_table_ref(&mut self) -> Result<TableRef> {
        let name = self.parse_identifier()?;
        let alias = if self.consume_keyword("as")
            || matches!(self.peek(), Some(Token::Ident(s)) if !is_reserved(s))
        {
            Some(self.parse_identifier()?)
        } else {
            None
        };
        Ok(TableRef { name, alias })
    }

    // ----- expressions, by precedence ----------------------------------------

    fn parse_expr(&mut self) -> Result<Expr> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr> {
        let mut left = self.parse_and()?;
        while self.consume_keyword("or") {
            let right = self.parse_and()?;
            left = Expr::binary(left, BinaryOp::Or, right);
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr> {
        let mut left = self.parse_not()?;
        while self.consume_keyword("and") {
            let right = self.parse_not()?;
            left = Expr::binary(left, BinaryOp::And, right);
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<Expr> {
        if self.consume_keyword("not") {
            Ok(Expr::Not(Box::new(self.parse_not()?)))
        } else {
            self.parse_comparison()
        }
    }

    fn parse_comparison(&mut self) -> Result<Expr> {
        let left = self.parse_additive()?;

        // IS [NOT] NULL
        if self.peek_keyword("is") {
            self.advance();
            let negated = self.consume_keyword("not");
            self.expect_keyword("null")?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        // [NOT] BETWEEN a AND b / [NOT] IN (...)
        let negated = if self.peek_keyword("not") {
            // Look ahead for BETWEEN / IN.
            let next = self.tokens.get(self.pos + 1);
            match next {
                Some(Token::Ident(s))
                    if s.eq_ignore_ascii_case("between") || s.eq_ignore_ascii_case("in") =>
                {
                    self.advance();
                    true
                }
                _ => false,
            }
        } else {
            false
        };
        if self.consume_keyword("between") {
            let low = self.parse_additive()?;
            self.expect_keyword("and")?;
            let high = self.parse_additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.consume_keyword("in") {
            self.expect(&Token::LParen)?;
            let mut list = Vec::new();
            loop {
                list.push(self.parse_expr()?);
                if self.peek_is(&Token::Comma) {
                    self.advance();
                } else {
                    break;
                }
            }
            self.expect(&Token::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }

        let op = match self.peek() {
            Some(Token::Eq) => Some(BinaryOp::Eq),
            Some(Token::NotEq) => Some(BinaryOp::NotEq),
            Some(Token::Lt) => Some(BinaryOp::Lt),
            Some(Token::LtEq) => Some(BinaryOp::LtEq),
            Some(Token::Gt) => Some(BinaryOp::Gt),
            Some(Token::GtEq) => Some(BinaryOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.advance();
            let right = self.parse_additive()?;
            return Ok(Expr::binary(left, op, right));
        }
        Ok(left)
    }

    fn parse_additive(&mut self) -> Result<Expr> {
        let mut left = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinaryOp::Plus,
                Some(Token::Minus) => BinaryOp::Minus,
                _ => break,
            };
            self.advance();
            let right = self.parse_multiplicative()?;
            left = Expr::binary(left, op, right);
        }
        Ok(left)
    }

    fn parse_multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinaryOp::Multiply,
                Some(Token::Slash) => BinaryOp::Divide,
                Some(Token::Percent) => BinaryOp::Modulo,
                _ => break,
            };
            self.advance();
            let right = self.parse_unary()?;
            left = Expr::binary(left, op, right);
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        if self.peek_is(&Token::Minus) {
            self.advance();
            let inner = self.parse_unary()?;
            return Ok(Expr::binary(Expr::lit(0i64), BinaryOp::Minus, inner));
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        match self.advance() {
            Some(Token::Number(n)) => {
                if n.contains('.') {
                    n.parse::<f64>()
                        .map(Expr::lit)
                        .map_err(|_| SharkError::Parse(format!("invalid number '{n}'")))
                } else {
                    n.parse::<i64>()
                        .map(Expr::lit)
                        .map_err(|_| SharkError::Parse(format!("invalid number '{n}'")))
                }
            }
            Some(Token::StringLit(s)) => Ok(Expr::lit(s)),
            Some(Token::LParen) => {
                let e = self.parse_expr()?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Some(Token::Star) => Ok(Expr::Star),
            Some(Token::Ident(id)) => {
                let lower = id.to_lowercase();
                match lower.as_str() {
                    "true" => return Ok(Expr::Literal(Value::Bool(true))),
                    "false" => return Ok(Expr::Literal(Value::Bool(false))),
                    "null" => return Ok(Expr::Literal(Value::Null)),
                    _ => {}
                }
                if is_reserved(&lower) {
                    return Err(SharkError::Parse(format!(
                        "unexpected keyword '{id}' in expression"
                    )));
                }
                // Function call?
                if self.peek_is(&Token::LParen) {
                    self.advance();
                    let distinct = self.consume_keyword("distinct");
                    let mut args = Vec::new();
                    if !self.peek_is(&Token::RParen) {
                        loop {
                            if self.peek_is(&Token::Star) {
                                self.advance();
                                args.push(Expr::Star);
                            } else {
                                args.push(self.parse_expr()?);
                            }
                            if self.peek_is(&Token::Comma) {
                                self.advance();
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect(&Token::RParen)?;
                    return Ok(Expr::Function {
                        name: lower,
                        args,
                        distinct,
                    });
                }
                // Qualified column `alias.col`?
                if self.peek_is(&Token::Dot) {
                    self.advance();
                    let col = self.parse_identifier()?;
                    return Ok(Expr::Column(format!("{lower}.{col}")));
                }
                Ok(Expr::Column(lower))
            }
            other => Err(SharkError::Parse(format!(
                "unexpected token {other:?} in expression"
            ))),
        }
    }
}

/// Keywords that terminate an implicit alias.
fn is_reserved(word: &str) -> bool {
    const RESERVED: &[&str] = &[
        "select",
        "from",
        "where",
        "group",
        "by",
        "having",
        "order",
        "limit",
        "join",
        "inner",
        "on",
        "and",
        "or",
        "not",
        "as",
        "between",
        "in",
        "is",
        "null",
        "desc",
        "asc",
        "distribute",
        "create",
        "table",
        "tblproperties",
        "drop",
        "union",
    ];
    RESERVED.contains(&word.to_lowercase().as_str())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_pavlo_selection_query() {
        let s =
            parse_select("SELECT pageURL, pageRank FROM rankings WHERE pageRank > 300").unwrap();
        assert_eq!(s.projections.len(), 2);
        assert_eq!(
            s.from,
            Some(TableRef {
                name: "rankings".into(),
                alias: None
            })
        );
        assert!(s.selection.is_some());
    }

    #[test]
    fn parses_aggregation_with_substr_and_group_by() {
        let s = parse_select(
            "SELECT SUBSTR(sourceIP, 1, 7), SUM(adRevenue) FROM uservisits GROUP BY SUBSTR(sourceIP, 1, 7)",
        )
        .unwrap();
        assert_eq!(s.group_by.len(), 1);
        match &s.projections[1] {
            SelectItem::Expr { expr, .. } => assert!(expr.contains_aggregate()),
            _ => panic!("expected expression"),
        }
    }

    #[test]
    fn parses_the_pavlo_join_query() {
        let s = parse_select(
            "SELECT sourceIP, AVG(pageRank), SUM(adRevenue) as totalRevenue \
             FROM rankings AS R, uservisits AS UV \
             WHERE R.pageURL = UV.destURL \
             AND UV.visitDate BETWEEN 10971 AND 10978 \
             GROUP BY UV.sourceIP",
        )
        .unwrap();
        assert_eq!(s.joins.len(), 1);
        assert_eq!(s.joins[0].table.alias.as_deref(), Some("uv"));
        assert_eq!(s.group_by.len(), 1);
        match &s.projections[2] {
            SelectItem::Expr { alias, .. } => assert_eq!(alias.as_deref(), Some("totalrevenue")),
            _ => panic!(),
        }
    }

    #[test]
    fn parses_create_table_as_with_properties_and_distribute_by() {
        let stmt = parse(
            "CREATE TABLE l_mem TBLPROPERTIES (\"shark.cache\" = \"true\", \"copartition\" = \"o_mem\") \
             AS SELECT * FROM lineitem DISTRIBUTE BY l_orderkey",
        )
        .unwrap();
        match stmt {
            Statement::CreateTableAs {
                name,
                properties,
                query,
            } => {
                assert_eq!(name, "l_mem");
                assert_eq!(properties.len(), 2);
                assert_eq!(properties[0].0, "shark.cache");
                assert_eq!(query.distribute_by.as_deref(), Some("l_orderkey"));
            }
            _ => panic!("expected CTAS"),
        }
    }

    #[test]
    fn parses_explicit_join_order_by_and_limit() {
        let s = parse_select(
            "SELECT l.l_orderkey, s.s_name FROM lineitem l JOIN supplier s ON l.l_suppkey = s.s_suppkey \
             WHERE s.s_acctbal >= 0 ORDER BY l.l_orderkey DESC LIMIT 10",
        )
        .unwrap();
        assert_eq!(s.joins.len(), 1);
        assert_eq!(s.limit, Some(10));
        assert_eq!(s.order_by.len(), 1);
        assert!(s.order_by[0].1, "DESC flag");
    }

    #[test]
    fn parses_count_star_count_distinct_in_and_not() {
        let s = parse_select(
            "SELECT country, COUNT(*), COUNT(DISTINCT customer_id) FROM sessions \
             WHERE country NOT IN ('US', 'CA') AND NOT exit_early GROUP BY country",
        )
        .unwrap();
        assert_eq!(s.projections.len(), 3);
        match &s.projections[2] {
            SelectItem::Expr {
                expr: Expr::Function { distinct, .. },
                ..
            } => assert!(*distinct),
            _ => panic!(),
        }
        match s.selection.unwrap() {
            Expr::Binary { op, .. } => assert_eq!(op, BinaryOp::And),
            _ => panic!(),
        }
    }

    #[test]
    fn parses_drop_table_and_rejects_garbage() {
        assert_eq!(
            parse("DROP TABLE logs").unwrap(),
            Statement::DropTable {
                name: "logs".into()
            }
        );
        assert!(parse("DELETE FROM t").is_err());
        assert!(parse("SELECT FROM").is_err());
        assert!(parse("SELECT a FROM t WHERE").is_err());
        assert!(parse("SELECT a FROM t extra garbage tokens ???").is_err());
    }

    #[test]
    fn arithmetic_precedence() {
        let s = parse_select("SELECT a + b * 2 FROM t").unwrap();
        match &s.projections[0] {
            SelectItem::Expr {
                expr: Expr::Binary { op, right, .. },
                ..
            } => {
                assert_eq!(*op, BinaryOp::Plus);
                assert!(matches!(
                    right.as_ref(),
                    Expr::Binary {
                        op: BinaryOp::Multiply,
                        ..
                    }
                ));
            }
            _ => panic!(),
        }
    }
}
