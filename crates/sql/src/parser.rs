//! Recursive-descent parser for OpenMLDB SQL.
//!
//! Grammar summary (paper Table 1):
//!
//! ```text
//! statement   := select | create_table | insert | deploy
//! select      := SELECT items FROM table_ref (LAST JOIN ...)* [WHERE expr]
//!                [WINDOW window_def (, window_def)*] [LIMIT n]
//! window_def  := name AS ( [UNION table (, table)*]
//!                PARTITION BY cols ORDER BY col [DESC]
//!                (ROWS|ROWS_RANGE) BETWEEN bound PRECEDING AND CURRENT ROW
//!                [MAXSIZE n] [EXCLUDE CURRENT_ROW] [INSTANCE_NOT_IN_WINDOW] )
//! last_join   := LAST JOIN table [ORDER BY col] ON expr
//! deploy      := DEPLOY name [OPTIONS(k="v", ...)] AS select
//! ```

use openmldb_types::{DataType, Error, Result};

use crate::ast::*;
use crate::interval;
use crate::token::{tokenize, Token, TokenKind};

/// How deep expressions may nest — parentheses, `NOT`s, unary minuses,
/// `CASE`s and call arguments, each one level. The parser recurses once per
/// level; past the bound a statement is a typed [`Error::Parse`], never a
/// stack overflow.
const MAX_EXPR_DEPTH: usize = 128;

/// Parse a single SQL statement (a trailing `;` is allowed).
pub fn parse_statement(sql: &str) -> Result<Statement> {
    let mut p = Parser::new(sql)?;
    let stmt = p.statement()?;
    p.eat(&TokenKind::Semicolon);
    p.expect_eof()?;
    Ok(stmt)
}

/// Parse a SELECT, rejecting other statement kinds.
pub fn parse_select(sql: &str) -> Result<SelectStatement> {
    match parse_statement(sql)? {
        Statement::Select(s) => Ok(s),
        other => Err(Error::Parse {
            message: format!("expected SELECT, found {other:?}"),
            position: 0,
        }),
    }
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Expression levels entered and not yet left.
    depth: usize,
}

impl Parser {
    fn new(sql: &str) -> Result<Self> {
        Ok(Parser {
            tokens: tokenize(sql)?,
            pos: 0,
            depth: 0,
        })
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_at(&self, n: usize) -> &TokenKind {
        let i = (self.pos + n).min(self.tokens.len() - 1);
        &self.tokens[i].kind
    }

    fn bump(&mut self) -> TokenKind {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn here(&self) -> usize {
        self.tokens[self.pos].pos
    }

    fn err(&self, message: impl Into<String>) -> Error {
        Error::Parse {
            message: message.into(),
            position: self.here(),
        }
    }

    /// Consume the token if it matches; return whether it did.
    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), TokenKind::Keyword(k) if k == kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<()> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(self.err(format!("expected {kind:?}, found {:?}", self.peek())))
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected keyword {kw}, found {:?}", self.peek())))
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        if matches!(self.peek(), TokenKind::Eof) {
            Ok(())
        } else {
            Err(self.err(format!("unexpected trailing input: {:?}", self.peek())))
        }
    }

    /// An identifier; keywords that commonly double as identifiers (KEY, TS,
    /// ROW) are accepted too.
    fn ident(&mut self) -> Result<String> {
        match self.bump() {
            TokenKind::Ident(s) => Ok(s),
            TokenKind::Keyword(k)
                if matches!(
                    k.as_str(),
                    "KEY" | "TS" | "ROW" | "INDEX" | "TTL" | "TTL_TYPE"
                ) =>
            {
                Ok(k.to_lowercase())
            }
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        match self.peek() {
            TokenKind::Keyword(k) if k == "SELECT" => Ok(Statement::Select(self.select()?)),
            TokenKind::Keyword(k) if k == "CREATE" => self.create_table(),
            TokenKind::Keyword(k) if k == "INSERT" => self.insert(),
            TokenKind::Keyword(k) if k == "DEPLOY" => self.deploy(),
            TokenKind::Keyword(k) if k == "EXPLAIN" => {
                self.bump();
                Ok(Statement::Explain(Box::new(self.select()?)))
            }
            other => Err(self.err(format!("expected a statement, found {other:?}"))),
        }
    }

    // ---------------------------------------------------------- SELECT ----

    fn select(&mut self) -> Result<SelectStatement> {
        self.expect_kw("SELECT")?;
        let items = self.select_items()?;
        self.expect_kw("FROM")?;
        let from = self.table_ref()?;
        let mut joins = Vec::new();
        while self.eat_kw("LAST") {
            self.expect_kw("JOIN")?;
            joins.push(self.last_join()?);
        }
        let where_clause = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut windows = Vec::new();
        if self.eat_kw("WINDOW") {
            loop {
                windows.push(self.window_def()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("LIMIT") {
            match self.bump() {
                TokenKind::Int(n) if n >= 0 => Some(n as usize),
                other => return Err(self.err(format!("expected LIMIT count, found {other:?}"))),
            }
        } else {
            None
        };
        Ok(SelectStatement {
            items,
            from,
            joins,
            where_clause,
            windows,
            limit,
        })
    }

    fn select_items(&mut self) -> Result<Vec<SelectItem>> {
        let mut items = Vec::new();
        loop {
            items.push(self.select_item()?);
            if !self.eat(&TokenKind::Comma) {
                return Ok(items);
            }
        }
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if self.eat(&TokenKind::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // `table.*`
        if let (TokenKind::Ident(name), TokenKind::Dot, TokenKind::Star) = (
            self.peek().clone(),
            self.peek_at(1).clone(),
            self.peek_at(2).clone(),
        ) {
            self.bump();
            self.bump();
            self.bump();
            return Ok(SelectItem::QualifiedWildcard(name));
        }
        let expr = self.expr()?;
        let alias = if self.eat_kw("AS") {
            Some(self.ident()?)
        } else if let TokenKind::Ident(_) = self.peek() {
            // Bare alias: `expr alias`
            Some(self.ident()?)
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        let name = self.ident()?;
        // `AS` is optional before a table alias: consume it if present, then
        // an identifier (with or without it) is the alias.
        let explicit_as = self.eat_kw("AS");
        let alias = if explicit_as || matches!(self.peek(), TokenKind::Ident(_)) {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(TableRef { name, alias })
    }

    fn last_join(&mut self) -> Result<LastJoin> {
        let right = self.table_ref()?;
        let order_by = if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            Some(self.column_ref()?)
        } else {
            None
        };
        self.expect_kw("ON")?;
        let condition = self.expr()?;
        Ok(LastJoin {
            right,
            order_by,
            condition,
        })
    }

    fn column_ref(&mut self) -> Result<ColumnRef> {
        let first = self.ident()?;
        if self.eat(&TokenKind::Dot) {
            let col = self.ident()?;
            Ok(ColumnRef {
                table: Some(first),
                column: col,
            })
        } else {
            Ok(ColumnRef {
                table: None,
                column: first,
            })
        }
    }

    // ---------------------------------------------------------- WINDOW ----

    fn window_def(&mut self) -> Result<WindowDef> {
        let name = self.ident()?;
        self.expect_kw("AS")?;
        self.expect(&TokenKind::LParen)?;

        let mut union_tables = Vec::new();
        if self.eat_kw("UNION") {
            loop {
                union_tables.push(self.table_ref()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }

        self.expect_kw("PARTITION")?;
        self.expect_kw("BY")?;
        let mut partition_by = Vec::new();
        loop {
            partition_by.push(self.column_ref()?);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }

        self.expect_kw("ORDER")?;
        self.expect_kw("BY")?;
        let order_by = self.column_ref()?;
        let order_desc = if self.eat_kw("DESC") {
            true
        } else {
            self.eat_kw("ASC");
            false
        };

        let frame = self.frame()?;

        let mut maxsize = None;
        let mut exclude_current_row = false;
        let mut instance_not_in_window = false;
        loop {
            if self.eat_kw("MAXSIZE") {
                match self.bump() {
                    TokenKind::Int(n) if n > 0 => maxsize = Some(n as usize),
                    other => {
                        return Err(self.err(format!("expected MAXSIZE count, found {other:?}")))
                    }
                }
            } else if self.eat_kw("EXCLUDE") {
                self.expect_kw("CURRENT_ROW")?;
                exclude_current_row = true;
            } else if self.eat_kw("INSTANCE_NOT_IN_WINDOW") {
                instance_not_in_window = true;
            } else {
                break;
            }
        }

        self.expect(&TokenKind::RParen)?;
        Ok(WindowDef {
            name,
            spec: WindowSpec {
                union_tables,
                partition_by,
                order_by,
                order_desc,
                frame,
                maxsize,
                exclude_current_row,
                instance_not_in_window,
            },
        })
    }

    fn frame(&mut self) -> Result<Frame> {
        let range_based = if self.eat_kw("ROWS_RANGE") {
            true
        } else {
            self.expect_kw("ROWS")?;
            false
        };
        self.expect_kw("BETWEEN")?;
        let frame = match self.bump() {
            TokenKind::Keyword(k) if k == "UNBOUNDED" => Frame::Unbounded,
            TokenKind::Int(n) if n >= 0 => {
                if range_based {
                    // Bare number in ROWS_RANGE means milliseconds.
                    Frame::RowsRange { preceding_ms: n }
                } else {
                    Frame::Rows {
                        preceding: n as u64,
                    }
                }
            }
            TokenKind::Interval { value, unit } => {
                if !range_based {
                    return Err(self.err("time intervals require ROWS_RANGE frames"));
                }
                Frame::RowsRange {
                    preceding_ms: interval::to_ms(value, unit)?,
                }
            }
            other => return Err(self.err(format!("expected frame bound, found {other:?}"))),
        };
        self.expect_kw("PRECEDING")?;
        self.expect_kw("AND")?;
        // CURRENT ROW (two tokens).
        self.expect_kw("CURRENT")?;
        self.expect_kw("ROW")?;
        Ok(frame)
    }

    // ------------------------------------------------------ EXPRESSIONS ---

    fn expr(&mut self) -> Result<Expr> {
        self.nested(Self::or_expr)
    }

    /// Run `level` one expression level deeper, refusing past
    /// [`MAX_EXPR_DEPTH`].
    fn nested(&mut self, level: fn(&mut Self) -> Result<Expr>) -> Result<Expr> {
        if self.depth >= MAX_EXPR_DEPTH {
            return Err(self.err(format!(
                "expression nested deeper than {MAX_EXPR_DEPTH} levels"
            )));
        }
        self.depth += 1;
        let e = level(self);
        self.depth -= 1;
        e
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut left = self.and_expr()?;
        while self.eat_kw("OR") {
            let right = self.and_expr()?;
            left = Expr::Binary {
                op: BinaryOp::Or,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut left = self.not_expr()?;
        while self.eat_kw("AND") {
            let right = self.not_expr()?;
            left = Expr::Binary {
                op: BinaryOp::And,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_kw("NOT") {
            Ok(Expr::Not(Box::new(self.nested(Self::not_expr)?)))
        } else {
            self.comparison()
        }
    }

    fn comparison(&mut self) -> Result<Expr> {
        let left = self.additive()?;
        let op = match self.peek() {
            TokenKind::Eq => BinaryOp::Eq,
            TokenKind::NotEq => BinaryOp::NotEq,
            TokenKind::Lt => BinaryOp::Lt,
            TokenKind::LtEq => BinaryOp::LtEq,
            TokenKind::Gt => BinaryOp::Gt,
            TokenKind::GtEq => BinaryOp::GtEq,
            TokenKind::Keyword(k) if k == "IS" => {
                self.bump();
                let negated = self.eat_kw("NOT");
                self.expect_kw("NULL")?;
                return Ok(Expr::IsNull {
                    expr: Box::new(left),
                    negated,
                });
            }
            _ => return Ok(left),
        };
        self.bump();
        let right = self.additive()?;
        Ok(Expr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        })
    }

    fn additive(&mut self) -> Result<Expr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinaryOp::Add,
                TokenKind::Minus => BinaryOp::Sub,
                _ => return Ok(left),
            };
            self.bump();
            let right = self.multiplicative()?;
            left = Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
    }

    fn multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.unary()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinaryOp::Mul,
                TokenKind::Slash => BinaryOp::Div,
                TokenKind::Percent => BinaryOp::Mod,
                _ => return Ok(left),
            };
            self.bump();
            let right = self.unary()?;
            left = Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
    }

    fn unary(&mut self) -> Result<Expr> {
        if self.eat(&TokenKind::Minus) {
            let inner = self.nested(Self::unary)?;
            return Ok(match inner {
                Expr::Literal(Literal::Int(n)) => Expr::Literal(Literal::Int(-n)),
                Expr::Literal(Literal::Float(f)) => Expr::Literal(Literal::Float(-f)),
                other => Expr::Binary {
                    op: BinaryOp::Sub,
                    left: Box::new(Expr::Literal(Literal::Int(0))),
                    right: Box::new(other),
                },
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.bump() {
            TokenKind::Int(n) => Ok(Expr::Literal(Literal::Int(n))),
            TokenKind::Float(f) => Ok(Expr::Literal(Literal::Float(f))),
            TokenKind::Str(s) => Ok(Expr::Literal(Literal::Str(s))),
            TokenKind::Interval { value, unit } => {
                // Intervals in scalar position evaluate to milliseconds.
                Ok(Expr::Literal(Literal::Int(interval::to_ms(value, unit)?)))
            }
            TokenKind::Keyword(k) if k == "NULL" => Ok(Expr::Literal(Literal::Null)),
            TokenKind::Keyword(k) if k == "TRUE" => Ok(Expr::Literal(Literal::Bool(true))),
            TokenKind::Keyword(k) if k == "FALSE" => Ok(Expr::Literal(Literal::Bool(false))),
            TokenKind::Keyword(k) if k == "CASE" => self.case_expr(),
            TokenKind::LParen => {
                let e = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(name) => self.ident_or_call(name),
            TokenKind::Keyword(k) if matches!(k.as_str(), "KEY" | "TS" | "ROW" | "IF") => {
                self.ident_or_call(k.to_lowercase())
            }
            other => Err(self.err(format!("expected expression, found {other:?}"))),
        }
    }

    fn ident_or_call(&mut self, name: String) -> Result<Expr> {
        // Function call?
        if self.eat(&TokenKind::LParen) {
            let mut args = Vec::new();
            if !self.eat(&TokenKind::RParen) {
                loop {
                    // `count(*)` sugar.
                    if matches!(self.peek(), TokenKind::Star) {
                        self.bump();
                        args.push(Expr::Literal(Literal::Int(1)));
                    } else {
                        args.push(self.expr()?);
                    }
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
                self.expect(&TokenKind::RParen)?;
            }
            let over = if self.eat_kw("OVER") {
                Some(self.ident()?)
            } else {
                None
            };
            return Ok(Expr::Call {
                name: name.to_lowercase(),
                args,
                over,
            });
        }
        // Qualified column?
        if self.eat(&TokenKind::Dot) {
            let col = self.ident()?;
            return Ok(Expr::Column(ColumnRef {
                table: Some(name),
                column: col,
            }));
        }
        Ok(Expr::Column(ColumnRef {
            table: None,
            column: name,
        }))
    }

    fn case_expr(&mut self) -> Result<Expr> {
        let mut branches = Vec::new();
        while self.eat_kw("WHEN") {
            let cond = self.expr()?;
            self.expect_kw("THEN")?;
            let value = self.expr()?;
            branches.push((cond, value));
        }
        if branches.is_empty() {
            return Err(self.err("CASE requires at least one WHEN branch"));
        }
        let else_expr = if self.eat_kw("ELSE") {
            Some(Box::new(self.expr()?))
        } else {
            None
        };
        self.expect_kw("END")?;
        Ok(Expr::Case {
            branches,
            else_expr,
        })
    }

    // -------------------------------------------------------------- DDL ---

    fn create_table(&mut self) -> Result<Statement> {
        self.expect_kw("CREATE")?;
        self.expect_kw("TABLE")?;
        let name = self.ident()?;
        self.expect(&TokenKind::LParen)?;
        let mut columns = Vec::new();
        let mut indexes = Vec::new();
        loop {
            if self.eat_kw("INDEX") {
                indexes.push(self.index_def()?);
            } else {
                let col = self.ident()?;
                let dt = self.data_type()?;
                let mut nullable = true;
                if self.eat_kw("NOT") {
                    self.expect_kw("NULL")?;
                    nullable = false;
                }
                columns.push((col, dt, nullable));
            }
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::RParen)?;
        Ok(Statement::CreateTable(CreateTableStatement {
            name,
            columns,
            indexes,
        }))
    }

    fn data_type(&mut self) -> Result<DataType> {
        let name = self.ident()?;
        match name.to_ascii_lowercase().as_str() {
            "bool" | "boolean" => Ok(DataType::Bool),
            "int" | "int32" | "integer" | "smallint" => Ok(DataType::Int),
            "bigint" | "int64" | "long" => Ok(DataType::Bigint),
            "float" => Ok(DataType::Float),
            "double" => Ok(DataType::Double),
            "timestamp" => Ok(DataType::Timestamp),
            "string" | "varchar" => Ok(DataType::String),
            other => Err(self.err(format!("unknown data type `{other}`"))),
        }
    }

    /// `INDEX(KEY=col|（col,col), TS=col, TTL=3d|100, TTL_TYPE=latest|absolute|absorlat|absandlat)`
    fn index_def(&mut self) -> Result<IndexDef> {
        self.expect(&TokenKind::LParen)?;
        let mut key_columns = Vec::new();
        let mut ts_column = None;
        let mut ttl_value: Option<TokenKind> = None;
        let mut ttl_type: Option<String> = None;
        loop {
            let field = self.ident()?.to_ascii_lowercase();
            self.expect(&TokenKind::Eq)?;
            match field.as_str() {
                "key" => {
                    if self.eat(&TokenKind::LParen) {
                        loop {
                            key_columns.push(self.ident()?);
                            if !self.eat(&TokenKind::Comma) {
                                break;
                            }
                        }
                        self.expect(&TokenKind::RParen)?;
                    } else {
                        key_columns.push(self.ident()?);
                    }
                }
                "ts" => ts_column = Some(self.ident()?),
                "ttl" => ttl_value = Some(self.bump()),
                "ttl_type" => ttl_type = Some(self.ident()?.to_ascii_lowercase()),
                other => return Err(self.err(format!("unknown INDEX field `{other}`"))),
            }
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::RParen)?;
        if key_columns.is_empty() {
            return Err(self.err("INDEX requires KEY="));
        }
        let ttl = self.resolve_ttl(ttl_value, ttl_type)?;
        Ok(IndexDef {
            key_columns,
            ts_column,
            ttl,
        })
    }

    fn resolve_ttl(&self, value: Option<TokenKind>, ttl_type: Option<String>) -> Result<TtlSpec> {
        let kind = ttl_type.as_deref().unwrap_or("absolute");
        let spec = match (kind, value) {
            (_, None) => TtlSpec::Unlimited,
            ("latest", Some(TokenKind::Int(n))) if n >= 0 => TtlSpec::Latest(n as u64),
            ("absolute", Some(TokenKind::Int(ms))) if ms >= 0 => TtlSpec::AbsoluteMs(ms),
            ("absolute", Some(TokenKind::Interval { value, unit })) => {
                TtlSpec::AbsoluteMs(interval::to_ms(value, unit)?)
            }
            ("absorlat" | "absandlat", Some(TokenKind::Int(n))) if n >= 0 => {
                // Single value: interpret as latest bound with no time bound.
                if kind == "absorlat" {
                    TtlSpec::AbsOrLat {
                        ms: i64::MAX,
                        latest: n as u64,
                    }
                } else {
                    TtlSpec::AbsAndLat {
                        ms: i64::MAX,
                        latest: n as u64,
                    }
                }
            }
            (k, v) => return Err(self.err(format!("unsupported TTL combination {k:?} / {v:?}"))),
        };
        Ok(spec)
    }

    // -------------------------------------------------------------- DML ---

    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw("INSERT")?;
        self.expect_kw("INTO")?;
        let table = self.ident()?;
        self.expect_kw("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect(&TokenKind::LParen)?;
            let mut row = Vec::new();
            loop {
                row.push(self.literal()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
            rows.push(row);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        Ok(Statement::Insert(InsertStatement { table, rows }))
    }

    fn literal(&mut self) -> Result<Literal> {
        let neg = self.eat(&TokenKind::Minus);
        let lit = match self.bump() {
            TokenKind::Int(n) => Literal::Int(if neg { -n } else { n }),
            TokenKind::Float(f) => Literal::Float(if neg { -f } else { f }),
            TokenKind::Str(s) if !neg => Literal::Str(s),
            TokenKind::Keyword(k) if k == "NULL" && !neg => Literal::Null,
            TokenKind::Keyword(k) if k == "TRUE" && !neg => Literal::Bool(true),
            TokenKind::Keyword(k) if k == "FALSE" && !neg => Literal::Bool(false),
            other => return Err(self.err(format!("expected literal, found {other:?}"))),
        };
        Ok(lit)
    }

    // ----------------------------------------------------------- DEPLOY ---

    fn deploy(&mut self) -> Result<Statement> {
        self.expect_kw("DEPLOY")?;
        let name = self.ident()?;
        let mut options = Vec::new();
        if self.eat_kw("OPTIONS") {
            self.expect(&TokenKind::LParen)?;
            loop {
                let key = self.ident()?;
                self.expect(&TokenKind::Eq)?;
                let value = match self.bump() {
                    TokenKind::Str(s) => s,
                    TokenKind::Int(n) => n.to_string(),
                    TokenKind::Ident(s) => s,
                    other => {
                        return Err(self.err(format!("expected option value, found {other:?}")))
                    }
                };
                options.push((key, value));
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
        }
        // `AS` is optional before the SELECT for convenience.
        self.eat_kw("AS");
        let select = self.select()?;
        Ok(Statement::Deploy(DeployStatement {
            name,
            options,
            select,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_example_query() {
        // The Section 4.1 example, lightly adapted to the grammar.
        let sql = r#"
            SELECT actions.*,
                   distinct_count(type) OVER w_union_3s AS product_count,
                   avg_cate_where(price, quantity > 1, category) OVER w_union_3s AS product_prices
            FROM actions
            WINDOW w_union_3s AS (
                UNION orders
                PARTITION BY userid ORDER BY ts
                ROWS_RANGE BETWEEN 3s PRECEDING AND CURRENT ROW),
            w_action_100d AS (
                PARTITION BY userid ORDER BY ts
                ROWS_RANGE BETWEEN 100d PRECEDING AND CURRENT ROW)
        "#;
        let s = parse_select(sql).unwrap();
        assert_eq!(s.items.len(), 3);
        assert!(matches!(&s.items[0], SelectItem::QualifiedWildcard(t) if t == "actions"));
        assert_eq!(s.windows.len(), 2);
        let w = &s.windows[0];
        assert_eq!(w.name, "w_union_3s");
        assert_eq!(w.spec.union_tables.len(), 1);
        assert_eq!(w.spec.union_tables[0].name, "orders");
        assert_eq!(
            w.spec.frame,
            Frame::RowsRange {
                preceding_ms: 3_000
            }
        );
        assert_eq!(
            s.windows[1].spec.frame,
            Frame::RowsRange {
                preceding_ms: 100 * 86_400_000
            }
        );
    }

    #[test]
    fn parses_last_join_chain() {
        let sql = "SELECT t1.a, t2.b FROM t1 \
                   LAST JOIN t2 ORDER BY t2.ts ON t1.k = t2.k \
                   LAST JOIN t3 ON t1.k = t3.k";
        let s = parse_select(sql).unwrap();
        assert_eq!(s.joins.len(), 2);
        assert_eq!(s.joins[0].right.name, "t2");
        assert!(s.joins[0].order_by.is_some());
        assert!(s.joins[1].order_by.is_none());
    }

    #[test]
    fn parses_rows_frame_and_attrs() {
        let sql = "SELECT sum(v) OVER w AS s FROM t WINDOW w AS (\
                   PARTITION BY k ORDER BY ts DESC \
                   ROWS BETWEEN 100 PRECEDING AND CURRENT ROW \
                   MAXSIZE 50 EXCLUDE CURRENT_ROW INSTANCE_NOT_IN_WINDOW)";
        let s = parse_select(sql).unwrap();
        let spec = &s.windows[0].spec;
        assert_eq!(spec.frame, Frame::Rows { preceding: 100 });
        assert!(spec.order_desc);
        assert_eq!(spec.maxsize, Some(50));
        assert!(spec.exclude_current_row);
        assert!(spec.instance_not_in_window);
    }

    #[test]
    fn parses_create_table_with_index() {
        let sql = "CREATE TABLE actions (userid BIGINT NOT NULL, price DOUBLE, ts TIMESTAMP, \
                   INDEX(KEY=userid, TS=ts, TTL=100d, TTL_TYPE=absolute))";
        let Statement::CreateTable(ct) = parse_statement(sql).unwrap() else {
            panic!("wrong statement")
        };
        assert_eq!(ct.name, "actions");
        assert_eq!(ct.columns.len(), 3);
        assert!(!ct.columns[0].2, "NOT NULL respected");
        assert_eq!(ct.indexes.len(), 1);
        assert_eq!(ct.indexes[0].key_columns, vec!["userid"]);
        assert_eq!(ct.indexes[0].ts_column.as_deref(), Some("ts"));
        assert_eq!(ct.indexes[0].ttl, TtlSpec::AbsoluteMs(100 * 86_400_000));
    }

    #[test]
    fn parses_insert_multi_row() {
        let sql = "INSERT INTO t VALUES (1, 'a', 2.5, NULL), (-2, 'b', -0.5, TRUE)";
        let Statement::Insert(ins) = parse_statement(sql).unwrap() else {
            panic!()
        };
        assert_eq!(ins.rows.len(), 2);
        assert_eq!(ins.rows[0][0], Literal::Int(1));
        assert_eq!(ins.rows[1][0], Literal::Int(-2));
        assert_eq!(ins.rows[1][3], Literal::Bool(true));
    }

    #[test]
    fn parses_deploy_with_long_windows() {
        let sql = r#"DEPLOY demo OPTIONS(long_windows="w1:1d") AS
                     SELECT sum(v) OVER w1 AS s FROM t
                     WINDOW w1 AS (PARTITION BY k ORDER BY ts
                     ROWS_RANGE BETWEEN 365d PRECEDING AND CURRENT ROW)"#;
        let Statement::Deploy(d) = parse_statement(sql).unwrap() else {
            panic!()
        };
        assert_eq!(d.name, "demo");
        assert_eq!(d.long_windows(), vec![("w1".to_string(), "1d".to_string())]);
    }

    #[test]
    fn parses_case_and_is_null() {
        let sql = "SELECT CASE WHEN a > 1 THEN 'hi' ELSE 'lo' END AS c, b IS NOT NULL AS n FROM t";
        let s = parse_select(sql).unwrap();
        assert_eq!(s.items.len(), 2);
        match &s.items[0] {
            SelectItem::Expr {
                expr:
                    Expr::Case {
                        branches,
                        else_expr,
                    },
                ..
            } => {
                assert_eq!(branches.len(), 1);
                assert!(else_expr.is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn error_on_interval_in_rows_frame() {
        let sql = "SELECT sum(v) OVER w AS s FROM t WINDOW w AS (\
                   PARTITION BY k ORDER BY ts ROWS BETWEEN 3s PRECEDING AND CURRENT ROW)";
        assert!(parse_select(sql).is_err());
    }

    #[test]
    fn error_messages_carry_position() {
        let err = parse_select("SELECT FROM t").unwrap_err();
        assert!(matches!(err, Error::Parse { .. }));
    }

    #[test]
    fn count_star_sugar() {
        let s = parse_select("SELECT count(*) OVER w AS c FROM t WINDOW w AS (PARTITION BY k ORDER BY ts ROWS BETWEEN 5 PRECEDING AND CURRENT ROW)").unwrap();
        match &s.items[0] {
            SelectItem::Expr {
                expr: Expr::Call { name, args, over },
                ..
            } => {
                assert_eq!(name, "count");
                assert_eq!(args.len(), 1);
                assert_eq!(over.as_deref(), Some("w"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn where_and_limit() {
        let s = parse_select("SELECT a FROM t WHERE a >= 3 AND b != 'x' LIMIT 10").unwrap();
        assert!(s.where_clause.is_some());
        assert_eq!(s.limit, Some(10));
    }

    /// Depth past the bound is a typed error at the token that crossed it,
    /// whichever construct nests: parentheses, `NOT`, unary minus, call
    /// arguments, `CASE`. At the bound the statement still parses.
    #[test]
    fn nesting_past_the_depth_bound_is_a_typed_error() {
        let deep = |open: &str, close: &str, n: usize| {
            format!("SELECT {}1{} FROM t", open.repeat(n), close.repeat(n))
        };
        for sql in [
            deep("(", ")", 100_000),
            format!("SELECT a FROM t WHERE {}a", "NOT ".repeat(100_000)),
            deep("- ", "", 100_000),
            deep("abs(", ")", 100_000),
            deep("CASE WHEN a THEN ", " END", 100_000),
        ] {
            match parse_statement(&sql) {
                Err(Error::Parse { message, position }) => {
                    assert!(message.contains("nested deeper"), "{message}");
                    assert!(position > 0 && position < sql.len());
                }
                other => panic!("expected a depth error, got {other:?}"),
            }
        }
        // The select item is one level, each parenthesis one more.
        assert!(parse_statement(&deep("(", ")", MAX_EXPR_DEPTH - 1)).is_ok());
        assert!(parse_statement(&deep("(", ")", MAX_EXPR_DEPTH)).is_err());
    }
}
