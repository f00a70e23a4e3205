"""Recursive-descent SQL parser producing :mod:`repro.sql.ast` trees.

The accepted grammar is the vendor-neutral core the system issues and
every dialect can emit: SELECT (joins, grouping, ordering, limits) and
UNION [ALL], INSERT … VALUES, CREATE TABLE, CREATE VIEW and ALTER TABLE
… ADD COLUMN. MS-SQL
``SELECT TOP n`` is accepted and normalized into ``limit`` so that text
produced by the MSSQL dialect re-parses.
"""

from __future__ import annotations

from dataclasses import replace

from repro.common.errors import SQLSyntaxError
from repro.common.types import SQLType, TypeKind
from repro.sql import ast
from repro.sql.lexer import Token, TokenType, tokenize

# Vendor type-name spellings normalized to logical kinds.
_TYPE_KEYWORDS = {
    "INT": TypeKind.INTEGER,
    "INTEGER": TypeKind.INTEGER,
    "SMALLINT": TypeKind.INTEGER,
    "BIGINT": TypeKind.BIGINT,
    "FLOAT": TypeKind.FLOAT,
    "REAL": TypeKind.FLOAT,
    "DOUBLE": TypeKind.DOUBLE,
    "DECIMAL": TypeKind.DECIMAL,
    "NUMERIC": TypeKind.DECIMAL,
    "NUMBER": TypeKind.DECIMAL,
    "VARCHAR": TypeKind.VARCHAR,
    "VARCHAR2": TypeKind.VARCHAR,
    "NVARCHAR": TypeKind.VARCHAR,
    "CHAR": TypeKind.CHAR,
    "TEXT": TypeKind.TEXT,
    "CLOB": TypeKind.TEXT,
    "BOOLEAN": TypeKind.BOOLEAN,
    "BOOL": TypeKind.BOOLEAN,
    "DATE": TypeKind.DATE,
    "DATETIME": TypeKind.TIMESTAMP,
    "TIMESTAMP": TypeKind.TIMESTAMP,
    "BLOB": TypeKind.BLOB,
}

_COMPARISON_OPS = {"=", "<>", "!=", "<", "<=", ">", ">="}
_LITERAL_KEYWORDS = {"NULL": None, "TRUE": True, "FALSE": False}


class _Parser:
    def __init__(self, sql: str):
        self.sql = sql
        self.tokens = tokenize(sql)
        self.pos = 0
        self.param_count = 0

    # Token plumbing -----------------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.type is not TokenType.EOF:
            self.pos += 1
        return tok

    def check_keyword(self, *words: str) -> bool:
        return self.current.type is TokenType.KEYWORD and self.current.value in words

    def accept_keyword(self, *words: str) -> bool:
        if self.check_keyword(*words):
            self.advance()
            return True
        return False

    def expect_keyword(self, word: str) -> Token:
        if not self.check_keyword(word):
            raise SQLSyntaxError(
                f"expected {word}, found {self.current.value!r}", self.current.position, self.sql
            )
        return self.advance()

    def accept_punct(self, value: str) -> bool:
        if self.current.matches(TokenType.PUNCT, value):
            self.advance()
            return True
        return False

    def expect_punct(self, value: str) -> Token:
        if not self.current.matches(TokenType.PUNCT, value):
            raise SQLSyntaxError(
                f"expected {value!r}, found {self.current.value!r}",
                self.current.position,
                self.sql,
            )
        return self.advance()

    def accept_operator(self, value: str) -> bool:
        if self.current.matches(TokenType.OPERATOR, value):
            self.advance()
            return True
        return False

    def expect_identifier(self) -> str:
        tok = self.current
        # Unreserved keywords used as identifiers are common (e.g. a column
        # named "date"); allow a small safe subset.
        if tok.type is TokenType.IDENT:
            self.advance()
            return tok.value
        if tok.type is TokenType.KEYWORD and tok.value in ("DATE", "KEY", "INDEX", "COLUMN"):
            self.advance()
            return tok.value.lower()
        raise SQLSyntaxError(
            f"expected identifier, found {tok.value!r}", tok.position, self.sql
        )

    def expect_integer(self) -> int:
        tok = self.current
        if tok.type is not TokenType.NUMBER or not tok.value.isdigit():
            raise SQLSyntaxError(
                f"expected integer, found {tok.value!r}", tok.position, self.sql
            )
        return self.parse_number()

    def parse_number(self) -> int | float:
        """Consume a NUMBER token: an int when it is all digits, else a float."""
        tok = self.advance()
        try:
            return int(tok.value) if tok.value.isdigit() else float(tok.value)
        except ValueError as exc:  # e.g. an int longer than int() converts
            raise SQLSyntaxError("malformed number", tok.position, self.sql) from exc

    # Statements ---------------------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        if self.check_keyword("SELECT"):
            return self.parse_select_chain()
        if self.check_keyword("INSERT"):
            return self.parse_insert()
        if self.check_keyword("CREATE"):
            return self.parse_create()
        if self.check_keyword("ALTER"):
            return self.parse_alter()
        raise SQLSyntaxError(
            f"unsupported statement starting with {self.current.value!r}",
            self.current.position,
            self.sql,
        )

    def parse_select_chain(self) -> ast.Statement:
        """A SELECT, or a UNION [ALL] chain of SELECTs."""
        first = self.parse_select()
        if not self.check_keyword("UNION"):
            return first
        selects = [first]
        all_flags: set[bool] = set()
        while self.accept_keyword("UNION"):
            all_flags.add(self.accept_keyword("ALL"))
            selects.append(self.parse_select())
        if len(all_flags) > 1:
            raise SQLSyntaxError(
                "mixing UNION and UNION ALL in one chain is not supported",
                self.current.position,
                self.sql,
            )
        for branch in selects[:-1]:
            if branch.order_by or branch.limit is not None or branch.offset is not None:
                raise SQLSyntaxError(
                    "ORDER BY/LIMIT are only allowed after the last UNION branch",
                    self.current.position,
                    self.sql,
                )
        # the trailing ORDER BY/LIMIT the last branch swallowed belong to
        # the whole union
        last = selects[-1]
        selects[-1] = replace(last, order_by=(), limit=None, offset=None)
        return ast.Union(
            selects=tuple(selects),
            all=all_flags.pop(),
            order_by=last.order_by,
            limit=last.limit,
            offset=last.offset,
        )

    def parse_select(self) -> ast.Select:
        self.expect_keyword("SELECT")
        limit: int | None = None
        distinct = False
        if self.accept_keyword("DISTINCT"):
            distinct = True
        elif self.accept_keyword("ALL"):
            pass
        if self.accept_keyword("TOP"):  # MS-SQL spelling, normalized to limit
            limit = self.expect_integer()

        items = [self.parse_select_item()]
        while self.accept_punct(","):
            items.append(self.parse_select_item())

        from_: list[ast.TableRef] = []
        joins: list[ast.Join] = []
        if self.accept_keyword("FROM"):
            from_.append(self.parse_table_ref())
            while True:
                if self.accept_punct(","):
                    from_.append(self.parse_table_ref())
                    continue
                join = self.try_parse_join()
                if join is None:
                    break
                joins.append(join)

        where = self.parse_expression() if self.accept_keyword("WHERE") else None

        group_by: list[ast.Expr] = []
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            group_by.append(self.parse_expression())
            while self.accept_punct(","):
                group_by.append(self.parse_expression())

        having = self.parse_expression() if self.accept_keyword("HAVING") else None

        order_by: list[ast.OrderItem] = []
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            order_by.append(self.parse_order_item())
            while self.accept_punct(","):
                order_by.append(self.parse_order_item())

        offset: int | None = None
        if self.accept_keyword("LIMIT"):
            limit = self.expect_integer()
        if self.accept_keyword("OFFSET"):
            offset = self.expect_integer()

        return ast.Select(
            items=tuple(items),
            from_=tuple(from_),
            joins=tuple(joins),
            where=where,
            group_by=tuple(group_by),
            having=having,
            order_by=tuple(order_by),
            limit=limit,
            offset=offset,
            distinct=distinct,
        )

    def parse_select_item(self) -> ast.SelectItem:
        expr = self.parse_expression()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_identifier()
        elif self.current.type is TokenType.IDENT:
            alias = self.advance().value
        return ast.SelectItem(expr=expr, alias=alias)

    def parse_order_item(self) -> ast.OrderItem:
        expr = self.parse_expression()
        ascending = True
        if self.accept_keyword("DESC"):
            ascending = False
        else:
            self.accept_keyword("ASC")
        return ast.OrderItem(expr=expr, ascending=ascending)

    def parse_table_ref(self) -> ast.TableRef:
        name = self.expect_identifier()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_identifier()
        elif self.current.type is TokenType.IDENT:
            alias = self.advance().value
        return ast.TableRef(name=name, alias=alias)

    def try_parse_join(self) -> ast.Join | None:
        kind: str | None = None
        if self.accept_keyword("JOIN") or (
            self.check_keyword("INNER") and self._accept_join_prefix("INNER")
        ):
            kind = "INNER"
        elif self.check_keyword("LEFT") and self._accept_join_prefix("LEFT"):
            kind = "LEFT"
        elif self.check_keyword("CROSS") and self._accept_join_prefix("CROSS"):
            kind = "CROSS"
        if kind is None:
            return None
        table = self.parse_table_ref()
        on = None
        if kind != "CROSS":
            self.expect_keyword("ON")
            on = self.parse_expression()
        return ast.Join(kind=kind, table=table, on=on)

    def _accept_join_prefix(self, word: str) -> bool:
        self.expect_keyword(word)
        self.accept_keyword("OUTER")
        self.expect_keyword("JOIN")
        return True

    def parse_insert(self) -> ast.Insert:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table = self.expect_identifier()
        columns: list[str] = []
        if self.accept_punct("("):
            columns.append(self.expect_identifier())
            while self.accept_punct(","):
                columns.append(self.expect_identifier())
            self.expect_punct(")")
        self.expect_keyword("VALUES")
        rows: list[tuple[ast.Expr, ...]] = []
        while True:
            self.expect_punct("(")
            values = [self.parse_expression()]
            while self.accept_punct(","):
                values.append(self.parse_expression())
            self.expect_punct(")")
            rows.append(tuple(values))
            if not self.accept_punct(","):
                break
        return ast.Insert(table=table, columns=tuple(columns), rows=tuple(rows))

    def parse_create(self) -> ast.Statement:
        self.expect_keyword("CREATE")
        if self.accept_keyword("TABLE"):
            name = self.expect_identifier()
            self.expect_punct("(")
            columns: list[ast.ColumnDef] = []
            pk_names: list[str] = []
            while True:
                if self.accept_keyword("PRIMARY"):
                    self.expect_keyword("KEY")
                    self.expect_punct("(")
                    pk_names.append(self.expect_identifier())
                    while self.accept_punct(","):
                        pk_names.append(self.expect_identifier())
                    self.expect_punct(")")
                else:
                    columns.append(self.parse_column_def())
                if not self.accept_punct(","):
                    break
            self.expect_punct(")")
            if pk_names:
                columns = [
                    replace(
                        c,
                        not_null=c.not_null or c.name in pk_names,
                        primary_key=c.primary_key or c.name in pk_names,
                    )
                    for c in columns
                ]
            return ast.CreateTable(name=name, columns=tuple(columns))
        if self.accept_keyword("VIEW"):
            name = self.expect_identifier()
            self.expect_keyword("AS")
            select = self.parse_select()
            return ast.CreateView(name=name, select=select)
        raise SQLSyntaxError(
            "expected TABLE or VIEW after CREATE", self.current.position, self.sql
        )

    def parse_column_def(self) -> ast.ColumnDef:
        name = self.expect_identifier()
        ctype = self.parse_type()
        not_null = False
        primary_key = False
        default: object = None
        has_default = False
        while True:
            if self.accept_keyword("PRIMARY"):
                self.expect_keyword("KEY")
                primary_key = True
                not_null = True
            elif self.accept_keyword("NOT"):
                self.expect_keyword("NULL")
                not_null = True
            elif self.accept_keyword("NULL"):
                pass
            elif self.accept_keyword("UNIQUE"):
                pass
            elif self.accept_keyword("DEFAULT"):
                expr = self.parse_primary()
                if not isinstance(expr, ast.Literal):
                    raise SQLSyntaxError(
                        "DEFAULT must be a literal", self.current.position, self.sql
                    )
                default = expr.value
                has_default = True
            else:
                break
        return ast.ColumnDef(
            name=name,
            type=ctype,
            not_null=not_null,
            primary_key=primary_key,
            default=default,
            has_default=has_default,
        )

    def parse_type(self) -> SQLType:
        tok = self.current
        word = tok.value.upper() if tok.type in (TokenType.KEYWORD, TokenType.IDENT) else ""
        if word not in _TYPE_KEYWORDS:
            raise SQLSyntaxError(f"unknown type name {tok.value!r}", tok.position, self.sql)
        self.advance()
        kind = _TYPE_KEYWORDS[word]
        if word == "DOUBLE":
            self.accept_keyword("PRECISION")
        length = precision = scale = None
        if self.accept_punct("("):
            first = self.expect_integer()
            if self.accept_punct(","):
                second = self.expect_integer()
                precision, scale = first, second
            elif kind is TypeKind.DECIMAL:
                precision = first
            else:
                length = first
            self.expect_punct(")")
        if kind is TypeKind.DECIMAL and precision is not None and scale is None:
            scale = 0
        # NUMBER(p,0)/DECIMAL(p,0) with no fraction behaves as an integer type.
        return SQLType(kind, length=length, precision=precision, scale=scale)

    def parse_alter(self) -> ast.AlterTable:
        self.expect_keyword("ALTER")
        self.expect_keyword("TABLE")
        table = self.expect_identifier()
        self.expect_keyword("ADD")
        self.accept_keyword("COLUMN")
        return ast.AlterTable(table=table, column=self.parse_column_def())

    # Expressions (precedence climbing) ----------------------------------------

    def fold(self, operand, ttype: TokenType, ops: tuple[str, ...]) -> ast.Expr:
        """A left-associative chain of ``operand``s joined by ``ttype`` tokens in ``ops``."""
        left = operand()
        while self.current.type is ttype and self.current.value in ops:
            left = ast.BinaryOp(self.advance().value, left, operand())
        return left

    def parse_expression(self) -> ast.Expr:
        return self.fold(self.parse_and, TokenType.KEYWORD, ("OR",))

    def parse_and(self) -> ast.Expr:
        return self.fold(self.parse_not, TokenType.KEYWORD, ("AND",))

    def parse_not(self) -> ast.Expr:
        if self.accept_keyword("NOT"):
            return ast.UnaryOp("NOT", self.parse_not())
        return self.parse_comparison()

    def parse_comparison(self) -> ast.Expr:
        left = self.parse_additive()
        tok = self.current
        if tok.type is TokenType.OPERATOR and tok.value in _COMPARISON_OPS:
            self.advance()
            op = "<>" if tok.value == "!=" else tok.value
            return ast.BinaryOp(op, left, self.parse_additive())
        negated = False
        if self.check_keyword("NOT"):
            # lookahead for NOT IN / NOT BETWEEN / NOT LIKE
            nxt = self.tokens[self.pos + 1]
            if nxt.type is TokenType.KEYWORD and nxt.value in ("IN", "BETWEEN", "LIKE"):
                self.advance()
                negated = True
        if self.accept_keyword("IS"):
            is_not = self.accept_keyword("NOT")
            self.expect_keyword("NULL")
            return ast.IsNull(left, negated=is_not)
        if self.accept_keyword("IN"):
            self.expect_punct("(")
            if self.check_keyword("SELECT"):
                subselect = self.parse_select()
                self.expect_punct(")")
                return ast.InSubquery(left, subselect, negated=negated)
            items = [self.parse_expression()]
            while self.accept_punct(","):
                items.append(self.parse_expression())
            self.expect_punct(")")
            return ast.InList(left, tuple(items), negated=negated)
        if self.accept_keyword("BETWEEN"):
            low = self.parse_additive()
            self.expect_keyword("AND")
            high = self.parse_additive()
            return ast.Between(left, low, high, negated=negated)
        if self.accept_keyword("LIKE"):
            return ast.Like(left, self.parse_additive(), negated=negated)
        return left

    def parse_additive(self) -> ast.Expr:
        return self.fold(self.parse_multiplicative, TokenType.OPERATOR, ("+", "-", "||"))

    def parse_multiplicative(self) -> ast.Expr:
        return self.fold(self.parse_unary, TokenType.OPERATOR, ("*", "/", "%"))

    def parse_unary(self) -> ast.Expr:
        if self.accept_operator("-"):
            operand = self.parse_unary()
            if isinstance(operand, ast.Literal) and isinstance(operand.value, (int, float)):
                return ast.Literal(-operand.value)
            return ast.UnaryOp("-", operand)
        if self.accept_operator("+"):
            return self.parse_unary()
        return self.parse_primary()

    def parse_primary(self) -> ast.Expr:
        tok = self.current
        if tok.type is TokenType.NUMBER:
            return ast.Literal(self.parse_number())
        if tok.type is TokenType.STRING:
            self.advance()
            return ast.Literal(tok.value)
        if tok.type is TokenType.PARAM:
            self.advance()
            param = ast.Param(self.param_count)
            self.param_count += 1
            return param
        if tok.type is TokenType.KEYWORD:
            if tok.value in _LITERAL_KEYWORDS:
                self.advance()
                return ast.Literal(_LITERAL_KEYWORDS[tok.value])
            if tok.value == "CASE":
                return self.parse_case()
            if tok.value == "CAST":
                self.advance()
                self.expect_punct("(")
                operand = self.parse_expression()
                self.expect_keyword("AS")
                target = self.parse_type()
                self.expect_punct(")")
                return ast.Cast(operand, target)
            if tok.value in ("COUNT", "SUM", "AVG", "MIN", "MAX"):
                self.advance()
                return self.parse_function_call(tok.value)
        if tok.matches(TokenType.OPERATOR, "*"):
            self.advance()
            return ast.Star()
        if tok.type is TokenType.KEYWORD and tok.value == "EXISTS":
            self.advance()
            self.expect_punct("(")
            subselect = self.parse_select()
            self.expect_punct(")")
            return ast.Exists(subselect)
        if self.accept_punct("("):
            if self.check_keyword("SELECT"):
                subselect = self.parse_select()
                self.expect_punct(")")
                return ast.ScalarSubquery(subselect)
            expr = self.parse_expression()
            self.expect_punct(")")
            return expr
        if tok.type is TokenType.IDENT or (
            tok.type is TokenType.KEYWORD and tok.value in ("DATE", "KEY")
        ):
            name = self.expect_identifier()
            # function call?
            if self.current.matches(TokenType.PUNCT, "("):
                return self.parse_function_call(name.upper())
            # qualified reference table.column or table.*
            if self.accept_punct("."):
                if self.current.matches(TokenType.OPERATOR, "*"):
                    self.advance()
                    return ast.Star(table=name)
                column = self.expect_identifier()
                return ast.ColumnRef(column=column, table=name)
            return ast.ColumnRef(column=name)
        raise SQLSyntaxError(
            f"unexpected token {tok.value!r} in expression", tok.position, self.sql
        )

    def parse_function_call(self, name: str) -> ast.Expr:
        self.expect_punct("(")
        distinct = self.accept_keyword("DISTINCT")
        args: list[ast.Expr] = []
        if not self.current.matches(TokenType.PUNCT, ")"):
            args.append(self.parse_expression())
            while self.accept_punct(","):
                args.append(self.parse_expression())
        self.expect_punct(")")
        return ast.FunctionCall(name=name, args=tuple(args), distinct=distinct)

    def parse_case(self) -> ast.Expr:
        self.expect_keyword("CASE")
        whens: list[tuple[ast.Expr, ast.Expr]] = []
        while self.accept_keyword("WHEN"):
            cond = self.parse_expression()
            self.expect_keyword("THEN")
            result = self.parse_expression()
            whens.append((cond, result))
        else_ = self.parse_expression() if self.accept_keyword("ELSE") else None
        self.expect_keyword("END")
        if not whens:
            raise SQLSyntaxError("CASE requires at least one WHEN", self.current.position, self.sql)
        return ast.Case(tuple(whens), else_)


def parse_statement(sql: str) -> ast.Statement:
    """Parse a single SQL statement; trailing semicolon allowed."""
    parser = _Parser(sql)
    stmt = parser.parse_statement()
    parser.accept_punct(";")
    if parser.current.type is not TokenType.EOF:
        raise SQLSyntaxError(
            f"unexpected trailing input {parser.current.value!r}",
            parser.current.position,
            sql,
        )
    return stmt


def parse_select(sql: str) -> ast.Select:
    """Parse a statement and require it to be a SELECT."""
    stmt = parse_statement(sql)
    if not isinstance(stmt, ast.Select):
        raise SQLSyntaxError("expected a SELECT statement")
    return stmt


def parse_expression(sql: str) -> ast.Expr:
    """Parse a standalone scalar/boolean expression."""
    parser = _Parser(sql)
    expr = parser.parse_expression()
    if parser.current.type is not TokenType.EOF:
        raise SQLSyntaxError(
            f"unexpected trailing input {parser.current.value!r}",
            parser.current.position,
            sql,
        )
    return expr
