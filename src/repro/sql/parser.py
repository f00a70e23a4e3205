"""Recursive-descent SQL parser producing :mod:`repro.sql.ast` trees.

The accepted grammar is the vendor-neutral core the system issues and
every dialect can emit: SELECT (joins, grouping, ordering, limits),
INSERT … VALUES, CREATE TABLE, CREATE VIEW and ALTER TABLE … ADD
COLUMN. MS-SQL ``SELECT TOP n`` is accepted and normalized into
``limit`` so that text produced by the MSSQL dialect re-parses.

Binary operators are parsed by two precedence-climbing loops, each
building left-associative ``BinaryOp`` chains from a binding table: OR
and AND over NOT-terms, and ``+ - ||`` and ``* / %`` over unary terms.
Comparisons, IS/IN/BETWEEN/LIKE and unary NOT sit between the two.
"""

from __future__ import annotations

from dataclasses import replace

from repro.common.errors import SQLSyntaxError
from repro.common.types import SQLType, TypeKind
from repro.sql import ast
from repro.sql.lexer import Token, TokenType, tokenize

# Vendor type-name spellings normalized to logical kinds.
_TYPE_KEYWORDS = {
    **dict.fromkeys(("INT", "INTEGER", "SMALLINT"), TypeKind.INTEGER),
    "BIGINT": TypeKind.BIGINT,
    **dict.fromkeys(("FLOAT", "REAL"), TypeKind.FLOAT),
    "DOUBLE": TypeKind.DOUBLE,
    **dict.fromkeys(("DECIMAL", "NUMERIC", "NUMBER"), TypeKind.DECIMAL),
    **dict.fromkeys(("VARCHAR", "VARCHAR2", "NVARCHAR"), TypeKind.VARCHAR),
    "CHAR": TypeKind.CHAR,
    **dict.fromkeys(("TEXT", "CLOB"), TypeKind.TEXT),
    **dict.fromkeys(("BOOLEAN", "BOOL"), TypeKind.BOOLEAN),
    "DATE": TypeKind.DATE,
    **dict.fromkeys(("DATETIME", "TIMESTAMP"), TypeKind.TIMESTAMP),
    "BLOB": TypeKind.BLOB,
}

_COMPARISON_OPS = {"=", "<>", "!=", "<", "<=", ">", ">="}
_LITERAL_KEYWORDS = {"NULL": None, "TRUE": True, "FALSE": False}
_AGGREGATES = ("COUNT", "SUM", "AVG", "MIN", "MAX")
# Keywords that also name columns and tables, wherever an identifier may
# stand (sqlite3 takes these three as names, and refuses INDEX).
_KEYWORD_NAMES = ("COLUMN", "DATE", "KEY")
# Binding strength of the binary operators, one table per climbing loop.
_LOGICAL = {"OR": 1, "AND": 2}
_ARITHMETIC = {"+": 1, "-": 1, "||": 1, "*": 2, "/": 2, "%": 2}

_KEYWORD, _IDENT, _OPERATOR, _PUNCT = (
    TokenType.KEYWORD, TokenType.IDENT, TokenType.OPERATOR, TokenType.PUNCT
)


class _Parser:
    def __init__(self, sql: str):
        self.sql = sql
        self.tokens = tokenize(sql)
        self.pos = 0
        self.current = self.tokens[0]
        self.param_count = 0

    # Token plumbing -----------------------------------------------------------
    # ``current`` is ``tokens[pos]``, kept as a plain attribute: advance moves
    # both, and the one-word checks inline it past a token known not to be EOF.

    def advance(self) -> Token:
        tok = self.current
        if tok.type is not TokenType.EOF:
            self.pos += 1
            self.current = self.tokens[self.pos]
        return tok

    def check_keyword(self, word: str) -> bool:
        tok = self.current
        return tok.value == word and tok.type is _KEYWORD

    def accept_keyword(self, word: str) -> bool:
        tok = self.current
        if tok.value == word and tok.type is _KEYWORD:
            self.pos += 1
            self.current = self.tokens[self.pos]
            return True
        return False

    def error(self, message: str, tok: Token | None = None) -> SQLSyntaxError:
        """``message`` at ``tok``'s position (the current token by default)."""
        return SQLSyntaxError(message, (tok or self.current).position, self.sql)

    def expect_keyword(self, word: str) -> None:
        tok = self.current
        if tok.value != word or tok.type is not _KEYWORD:
            raise self.error(f"expected {word}, found {tok.value!r}")
        self.pos += 1
        self.current = self.tokens[self.pos]

    def accept_punct(self, value: str) -> bool:
        tok = self.current
        if tok.value == value and tok.type is _PUNCT:
            self.pos += 1
            self.current = self.tokens[self.pos]
            return True
        return False

    def expect_punct(self, value: str) -> None:
        tok = self.current
        if tok.value != value or tok.type is not _PUNCT:
            raise self.error(f"expected {value!r}, found {tok.value!r}")
        self.pos += 1
        self.current = self.tokens[self.pos]

    def comma_list(self, parse_one) -> list:
        """One or more ``parse_one()`` results separated by commas."""
        items = [parse_one()]
        while self.accept_punct(","):
            items.append(parse_one())
        return items

    def expect_end(self) -> None:
        if self.current.type is not TokenType.EOF:
            raise self.error(f"unexpected trailing input {self.current.value!r}")

    def expect_identifier(self) -> str:
        tok = self.current
        if tok.type is _IDENT:
            self.advance()
            return tok.value
        if tok.type is _KEYWORD and tok.value in _KEYWORD_NAMES:
            self.advance()
            return tok.value.lower()
        raise self.error(f"expected identifier, found {tok.value!r}")

    def expect_integer(self) -> int:
        tok = self.current
        if tok.type is not TokenType.NUMBER or not tok.value.isdigit():
            raise self.error(f"expected integer, found {tok.value!r}")
        return self.parse_number()

    def parse_number(self) -> int | float:
        """Consume a NUMBER token: an int when it is all digits, else a float."""
        tok = self.advance()
        try:
            return int(tok.value) if tok.value.isdigit() else float(tok.value)
        except ValueError as exc:  # e.g. an int longer than int() converts
            raise self.error("malformed number", tok) from exc

    # Statements ---------------------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        tok = self.current
        parse = {
            "SELECT": self.parse_select,
            "INSERT": self.parse_insert,
            "CREATE": self.parse_create,
            "ALTER": self.parse_alter,
        }.get(tok.value) if tok.type is _KEYWORD else None
        if parse is None:
            raise self.error(f"unsupported statement starting with {tok.value!r}")
        return parse()

    def parse_select(self) -> ast.Select:
        self.expect_keyword("SELECT")
        limit: int | None = None
        distinct = self.accept_keyword("DISTINCT")
        if not distinct:
            self.accept_keyword("ALL")
        if self.accept_keyword("TOP"):  # MS-SQL spelling, normalized to limit
            limit = self.expect_integer()

        items = self.comma_list(self.parse_select_item)

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
            group_by = self.comma_list(self.parse_expression)

        having = self.parse_expression() if self.accept_keyword("HAVING") else None

        order_by: list[ast.OrderItem] = []
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            order_by = self.comma_list(self.parse_order_item)

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
        elif self.current.type is _IDENT:
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
        elif self.current.type is _IDENT:
            alias = self.advance().value
        return ast.TableRef(name=name, alias=alias)

    def try_parse_join(self) -> ast.Join | None:
        tok = self.current
        if tok.type is not _KEYWORD or tok.value not in ("JOIN", "INNER", "LEFT", "CROSS"):
            return None
        self.advance()
        if tok.value == "JOIN":
            kind = "INNER"
        else:  # INNER, LEFT or CROSS [OUTER] JOIN
            kind = tok.value
            self.accept_keyword("OUTER")
            self.expect_keyword("JOIN")
        table = self.parse_table_ref()
        on = None
        if kind != "CROSS":
            self.expect_keyword("ON")
            on = self.parse_expression()
        return ast.Join(kind=kind, table=table, on=on)

    def parse_insert(self) -> ast.Insert:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table = self.expect_identifier()
        columns: list[str] = []
        if self.accept_punct("("):
            columns = self.comma_list(self.expect_identifier)
            self.expect_punct(")")
        self.expect_keyword("VALUES")
        rows = self.comma_list(self.parse_row)
        return ast.Insert(table=table, columns=tuple(columns), rows=tuple(rows))

    def parse_row(self) -> tuple[ast.Expr, ...]:
        self.expect_punct("(")
        values = self.comma_list(self.parse_expression)
        self.expect_punct(")")
        return tuple(values)

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
                    pk_names += self.comma_list(self.expect_identifier)
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
        raise self.error("expected TABLE or VIEW after CREATE")

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
            elif self.accept_keyword("NULL") or self.accept_keyword("UNIQUE"):
                pass
            elif self.accept_keyword("DEFAULT"):
                expr = self.parse_primary()
                if not isinstance(expr, ast.Literal):
                    raise self.error("DEFAULT must be a literal")
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
        word = tok.value.upper() if tok.type in (_KEYWORD, _IDENT) else ""
        if word not in _TYPE_KEYWORDS:
            raise self.error(f"unknown type name {tok.value!r}")
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

    def parse_expression(self) -> ast.Expr:
        return self.parse_logical(1)

    def parse_logical(self, min_binding: int) -> ast.Expr:
        """Left-associative OR/AND chains over NOT-terms; AND binds tighter."""
        left = self.parse_not()
        tok = self.current
        while tok.type is _KEYWORD:
            binding = _LOGICAL.get(tok.value, 0)
            if binding < min_binding:
                break
            self.advance()
            left = ast.BinaryOp(tok.value, left, self.parse_logical(binding + 1))
            tok = self.current
        return left

    def parse_not(self) -> ast.Expr:
        if self.accept_keyword("NOT"):
            return ast.UnaryOp("NOT", self.parse_not())
        return self.parse_comparison()

    def parse_comparison(self) -> ast.Expr:
        left = self.parse_arithmetic(1)
        tok = self.current
        if tok.type is _OPERATOR and tok.value in _COMPARISON_OPS:
            self.advance()
            op = "<>" if tok.value == "!=" else tok.value
            return ast.BinaryOp(op, left, self.parse_arithmetic(1))
        if tok.type is not _KEYWORD:
            return left
        word = tok.value
        negated = False
        if word == "NOT":
            # lookahead for NOT IN / NOT BETWEEN / NOT LIKE
            nxt = self.tokens[self.pos + 1]
            if nxt.type is not _KEYWORD or nxt.value not in ("IN", "BETWEEN", "LIKE"):
                return left
            self.advance()
            word, negated = nxt.value, True
        if word == "IS":
            self.advance()
            is_not = self.accept_keyword("NOT")
            self.expect_keyword("NULL")
            return ast.IsNull(left, negated=is_not)
        if word == "IN":
            self.advance()
            self.expect_punct("(")
            if self.check_keyword("SELECT"):
                subselect = self.parse_select()
                self.expect_punct(")")
                return ast.InSubquery(left, subselect, negated=negated)
            items = self.comma_list(self.parse_expression)
            self.expect_punct(")")
            return ast.InList(left, tuple(items), negated=negated)
        if word == "BETWEEN":
            self.advance()
            low = self.parse_arithmetic(1)
            self.expect_keyword("AND")
            high = self.parse_arithmetic(1)
            return ast.Between(left, low, high, negated=negated)
        if word == "LIKE":
            self.advance()
            return ast.Like(left, self.parse_arithmetic(1), negated=negated)
        return left

    def parse_arithmetic(self, min_binding: int) -> ast.Expr:
        """Left-associative ``+ - ||`` / ``* / %`` chains over unary terms."""
        left = self.parse_unary()
        tok = self.current
        while tok.type is _OPERATOR:
            binding = _ARITHMETIC.get(tok.value, 0)
            if binding < min_binding:
                break
            self.advance()
            left = ast.BinaryOp(tok.value, left, self.parse_arithmetic(binding + 1))
            tok = self.current
        return left

    def parse_unary(self) -> ast.Expr:
        tok = self.current
        if tok.type is not _OPERATOR or tok.value not in ("-", "+"):
            return self.parse_primary()
        self.advance()
        operand = self.parse_unary()
        if tok.value == "+":
            return operand
        if isinstance(operand, ast.Literal) and isinstance(operand.value, (int, float)):
            return ast.Literal(-operand.value)
        return ast.UnaryOp("-", operand)

    def parse_primary(self) -> ast.Expr:
        tok = self.current
        ttype = tok.type
        if ttype is _IDENT:
            self.advance()
            return self.parse_name(tok.value)
        if ttype is TokenType.NUMBER:
            return ast.Literal(self.parse_number())
        if ttype is TokenType.STRING:
            self.advance()
            return ast.Literal(tok.value)
        if ttype is TokenType.PARAM:
            self.advance()
            param = ast.Param(self.param_count)
            self.param_count += 1
            return param
        if ttype is _KEYWORD:
            word = tok.value
            if word in _LITERAL_KEYWORDS:
                self.advance()
                return ast.Literal(_LITERAL_KEYWORDS[word])
            if word == "CASE":
                return self.parse_case()
            if word == "CAST":
                self.advance()
                self.expect_punct("(")
                operand = self.parse_expression()
                self.expect_keyword("AS")
                target = self.parse_type()
                self.expect_punct(")")
                return ast.Cast(operand, target)
            if word in _AGGREGATES:
                self.advance()
                return self.parse_function_call(word)
            if word == "EXISTS":
                self.advance()
                self.expect_punct("(")
                subselect = self.parse_select()
                self.expect_punct(")")
                return ast.Exists(subselect)
            if word in _KEYWORD_NAMES:
                self.advance()
                return self.parse_name(word.lower())
        elif ttype is _OPERATOR and tok.value == "*":
            self.advance()
            return ast.Star()
        elif self.accept_punct("("):
            if self.check_keyword("SELECT"):
                subselect = self.parse_select()
                self.expect_punct(")")
                return ast.ScalarSubquery(subselect)
            expr = self.parse_expression()
            self.expect_punct(")")
            return expr
        raise self.error(f"unexpected token {tok.value!r} in expression")

    def parse_name(self, name: str) -> ast.Expr:
        """What follows a name: a function call, ``name.column``, ``name.*`` or nothing."""
        tok = self.current
        if tok.type is _PUNCT:
            if tok.value == "(":
                return self.parse_function_call(name.upper())
            if tok.value == ".":
                self.advance()
                if self.current.matches(_OPERATOR, "*"):
                    self.advance()
                    return ast.Star(table=name)
                return ast.ColumnRef(column=self.expect_identifier(), table=name)
        return ast.ColumnRef(column=name)

    def parse_function_call(self, name: str) -> ast.Expr:
        self.expect_punct("(")
        distinct = self.accept_keyword("DISTINCT")
        args: list[ast.Expr] = []
        if not self.current.matches(_PUNCT, ")"):
            args = self.comma_list(self.parse_expression)
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
            raise self.error("CASE requires at least one WHEN")
        return ast.Case(tuple(whens), else_)


def parse_statement(sql: str) -> ast.Statement:
    """Parse a single SQL statement; trailing semicolon allowed."""
    parser = _Parser(sql)
    stmt = parser.parse_statement()
    parser.accept_punct(";")
    parser.expect_end()
    return stmt


def parse_each(*texts: str) -> tuple[tuple[str, ast.Statement], ...]:
    """Each text with its parse. The system's own SQL is built this way
    once per process, behind ``functools.cache`` on the inputs that shape
    the text, and run with ``Database.execute_statement(stmt,
    sql_text=text)``; the trees are immutable, so databases share them."""
    return tuple((text, parse_statement(text)) for text in texts)


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
    parser.expect_end()
    return expr
