"""Expression compilation and evaluation.

Expressions are compiled *once* against a :class:`RowSchema` into plain
Python callables that take a row tuple — column references resolve to a
tuple index at compile time, not per row (hoisting the lookup out of the
inner loop, per the HPC guides), and compile to an ``itemgetter``. SQL
three-valued logic is implemented: ``None`` propagates through
comparisons and arithmetic, and AND/OR follow the Kleene truth tables.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass
from typing import Callable

from repro.common.errors import ColumnNotFoundError, SQLTypeError
from repro.common.types import SQLType, coerce_value
from repro.sql import ast

Row = tuple
RowFn = Callable[[Row], object]


@dataclass(frozen=True)
class SchemaColumn:
    """One column visible during evaluation: qualifier, name, type."""

    qualifier: str | None
    name: str
    type: SQLType


class RowSchema:
    """Maps (qualifier, column) references onto row-tuple indexes.

    Lookups are case-insensitive, matching the behaviour of all four
    vendor dialects for unquoted identifiers.
    """

    def __init__(self, columns: list[SchemaColumn]):
        self.columns = list(columns)
        self._by_qualified: dict[tuple[str, str], int] = {}
        self._by_name: dict[str, list[int]] = {}
        for idx, col in enumerate(self.columns):
            key = col.name.lower()
            self._by_name.setdefault(key, []).append(idx)
            if col.qualifier is not None:
                self._by_qualified[(col.qualifier.lower(), key)] = idx

    def __len__(self) -> int:
        return len(self.columns)

    def find(self, ref: ast.ColumnRef) -> int | None:
        """Index of the column referenced by ``ref``; None on a miss or
        an ambiguous bare name."""
        name = ref.column.lower()
        if ref.table is not None:
            return self._by_qualified.get((ref.table.lower(), name))
        candidates = self._by_name.get(name)
        return candidates[0] if candidates is not None and len(candidates) == 1 else None

    def resolve(self, ref: ast.ColumnRef) -> int:
        """Index of the column referenced by ``ref``; raises on miss/ambiguity."""
        name = ref.column.lower()
        if ref.table is not None:
            idx = self._by_qualified.get((ref.table.lower(), name))
            if idx is None:
                raise ColumnNotFoundError(ref.column, ref.table)
            return idx
        candidates = self._by_name.get(name, [])
        if not candidates:
            raise ColumnNotFoundError(ref.column)
        if len(candidates) > 1:
            quals = [self.columns[i].qualifier for i in candidates]
            raise ColumnNotFoundError(
                f"{ref.column} (ambiguous across {quals})"
            )
        return candidates[0]

    def indexes_for_star(self, qualifier: str | None) -> list[int]:
        """Column indexes selected by ``*`` or ``qualifier.*``."""
        if qualifier is None:
            return list(range(len(self.columns)))
        out = [
            i
            for i, col in enumerate(self.columns)
            if col.qualifier is not None and col.qualifier.lower() == qualifier.lower()
        ]
        if not out:
            raise ColumnNotFoundError("*", qualifier)
        return out

    def concat(self, other: "RowSchema") -> "RowSchema":
        return RowSchema(self.columns + other.columns)


def _like_to_regex(pattern: str) -> re.Pattern:
    """A regex for ``fullmatch``: ``%`` and ``_`` span newlines too."""
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("".join(out), re.IGNORECASE | re.DOTALL)


def _and3(a, b):
    if a is False or b is False:
        return False
    if a is None or b is None:
        return None
    return True


def _or3(a, b):
    if a is True or b is True:
        return True
    if a is None or b is None:
        return None
    return False


def _cmp(op: str, left, right):
    if left is None or right is None:
        return None
    # Allow numeric/boolean cross-comparison; otherwise require same family.
    if isinstance(left, bool):
        left = int(left)
    if isinstance(right, bool):
        right = int(right)
    lnum = isinstance(left, (int, float))
    rnum = isinstance(right, (int, float))
    if lnum != rnum:
        raise SQLTypeError(f"cannot compare {type(left).__name__} with {type(right).__name__}")
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise SQLTypeError(f"unknown comparison operator {op!r}")


#: comparison operator -> the Python comparison it compiles to
_COMPARATORS: dict[str, Callable] = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
#: exact operand type -> the exact types it compares with directly: the
#: Python comparison then equals ``_cmp``'s (no NULL, no bool, one family)
_DIRECT: dict[type, tuple[type, ...]] = {
    int: (int, float),
    float: (int, float),
    str: (str,),
}


def _compile_comparison(expr: ast.BinaryOp, left: RowFn, right: RowFn,
                        schema: RowSchema, params: tuple) -> RowFn:
    """One closure per comparison operator. Exact int/float and str/str
    operands compare directly; every other pair (NULL, bool, subclasses,
    mixed families) goes through ``_cmp``, keeping its NULL handling and
    errors. ``column op constant``, the shape of every pushed-down
    predicate, also indexes the row inline instead of calling two
    operand closures."""
    op = expr.op
    compare = _COMPARATORS[op]
    if isinstance(expr.left, ast.ColumnRef) and isinstance(
        expr.right, (ast.Literal, ast.Param)
    ):
        idx = schema.resolve(expr.left)
        # compiling ``right`` checked that a ``?`` has its parameter
        c = expr.right.value if isinstance(expr.right, ast.Literal) else params[expr.right.index]
        family = _DIRECT.get(type(c), ())

        def column_const(row):
            a = row[idx]
            if type(a) in family:
                return compare(a, c)
            return _cmp(op, a, c)

        return column_const

    def comparison(row):
        a, b = left(row), right(row)
        if type(b) in _DIRECT.get(type(a), ()):
            return compare(a, b)
        return _cmp(op, a, b)

    return comparison


def filter_columnwise(
    expr: ast.Expr, schema: RowSchema, params: tuple, rows: list[Row]
) -> list[Row] | None:
    """The rows ``expr`` keeps, one conjunct at a time in C, or None when
    ``expr`` and ``rows`` fall outside the batch rule.

    The rule: every conjunct is ``column op literal-or-?`` or ``column
    BETWEEN c1 AND c2`` (the two tests ``>= c1`` and ``<= c2``; NOT
    BETWEEN runs per row) with int, float or str constants, and every
    value in each such column, over all of ``rows``, is in each of its
    constants' ``_DIRECT`` families. Then no conjunct can raise or
    yield NULL, so filtering by each test in turn keeps the rows the
    Kleene AND keeps, though that evaluates every side.
    """

    def constant(expr: ast.Expr):
        if isinstance(expr, ast.Literal):
            return expr.value
        if isinstance(expr, ast.Param) and expr.index < len(params):
            return params[expr.index]
        return None  # no int, float or str: declines below

    tests = []
    for conj in ast.conjuncts(expr):
        if isinstance(conj, ast.BinaryOp) and conj.op in _COMPARATORS:
            column, bounds = conj.left, ((conj.op, conj.right),)
        elif isinstance(conj, ast.Between) and not conj.negated:
            column, bounds = conj.operand, ((">=", conj.low), ("<=", conj.high))
        else:
            return None
        if not isinstance(column, ast.ColumnRef):
            return None
        get = operator.itemgetter(schema.resolve(column))
        for op, bound in bounds:
            c = constant(bound)
            family = _DIRECT.get(type(c))
            if family is None:
                return None
            tests.append((get, _COMPARATORS[op], c, family))
    columns = []
    for get, _compare, _c, family in tests:
        column = list(map(get, rows))
        if not set(map(type, column)).issubset(family):
            return None
        columns.append(column)
    kept = rows
    for (get, compare, c, _family), column in zip(tests, columns):
        values = column if kept is rows else map(get, kept)
        kept = list(itertools.compress(kept, map(compare, values, itertools.repeat(c))))
    return kept


@dataclass(frozen=True)
class ScalarFunction:
    """One scalar function: how it evaluates and what static typing
    (:mod:`repro.sql.infer`) knows about it.

    ``impl`` is None for the functions ``compile_expr`` builds itself
    (variadic or lazy). The first ``numeric_args`` arguments (all of
    them when None) must be numeric at runtime. ``result`` is the rule
    giving the result type: ``"double"``, ``"integer"``, ``"text"``,
    ``"numeric"`` (the first argument's numeric type), ``"first"`` (the
    first argument's type) or ``"common"`` (the type every argument
    shares).
    """

    impl: Callable | None
    min_args: int
    max_args: int | None  # None: variadic
    numeric_args: int | None = 0
    result: str = "double"


#: Every scalar function. ``compile_expr`` returns NULL for a NULL first
#: argument before calling ``impl``, so only later arguments are checked.
SCALAR_FUNCTIONS: dict[str, ScalarFunction] = {
    # numerics
    "ABS": ScalarFunction(abs, 1, 1, None, "numeric"),
    # only x is strict: int(nd) also takes a numeric string
    "ROUND": ScalarFunction(lambda x, nd=0: round(x, int(nd)), 1, 2, 1, "numeric"),
    "FLOOR": ScalarFunction(math.floor, 1, 1, None),
    "CEIL": ScalarFunction(math.ceil, 1, 1, None),
    "SQRT": ScalarFunction(math.sqrt, 1, 1, None),
    "POWER": ScalarFunction(
        lambda x, y: None if y is None else float(x) ** float(y), 2, 2, None
    ),
    "EXP": ScalarFunction(math.exp, 1, 1, None),
    "LN": ScalarFunction(lambda x: None if x <= 0 else math.log(x), 1, 1, None),
    "LOG10": ScalarFunction(lambda x: None if x <= 0 else math.log10(x), 1, 1, None),
    "MOD": ScalarFunction(lambda x, y: None if y is None or y == 0 else x % y, 2, 2, None),
    "SIGN": ScalarFunction(lambda x: 0 if x == 0 else (1 if x > 0 else -1), 1, 1, None, "integer"),
    # strings
    "LOWER": ScalarFunction(lambda s: str(s).lower(), 1, 1, 0, "text"),
    "UPPER": ScalarFunction(lambda s: str(s).upper(), 1, 1, 0, "text"),
    "LENGTH": ScalarFunction(lambda s: len(str(s)), 1, 1, 0, "integer"),
    "TRIM": ScalarFunction(lambda s: str(s).strip(), 1, 1, 0, "text"),
    "LTRIM": ScalarFunction(lambda s: str(s).lstrip(), 1, 1, 0, "text"),
    "RTRIM": ScalarFunction(lambda s: str(s).rstrip(), 1, 1, 0, "text"),
    "REPLACE": ScalarFunction(
        lambda s, old, new: str(s).replace(str(old), str(new)), 3, 3, 0, "text"
    ),
    "INSTR": ScalarFunction(lambda s, sub: str(s).find(str(sub)) + 1, 2, 2, 0, "integer"),
    "SUBSTR": ScalarFunction(
        lambda s, start, length=None: (
            str(s)[int(start) - 1 : int(start) - 1 + int(length)]
            if length is not None
            else str(s)[int(start) - 1 :]
        ),
        2, 3, 0, "text",
    ),
    # built by compile_expr
    "CONCAT": ScalarFunction(None, 1, None, 0, "text"),  # variadic, NULL if any arg is
    "COALESCE": ScalarFunction(None, 1, None, 0, "common"),  # variadic, lazy
    "NULLIF": ScalarFunction(None, 2, 2, 0, "first"),  # lazy second-arg comparison
}


def compile_expr(
    expr: ast.Expr, schema: RowSchema, params: tuple = (), subquery_runner=None
) -> RowFn:
    """Compile ``expr`` into a closure over row tuples.

    ``params`` supplies values for positional ``?`` placeholders.
    ``subquery_runner(select) -> (columns, rows)`` evaluates embedded
    non-correlated subqueries; contexts without one (pushed-down
    predicates, standalone evaluation) reject subquery nodes.
    """
    if isinstance(expr, (ast.ScalarSubquery, ast.InSubquery, ast.Exists)):
        if subquery_runner is None:
            raise SQLTypeError("subqueries are not supported in this context")
        return _compile_subquery(expr, schema, params, subquery_runner)
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda row: value
    if isinstance(expr, ast.Param):
        if expr.index >= len(params):
            raise SQLTypeError(
                f"statement requires parameter {expr.index + 1}, got {len(params)}"
            )
        value = params[expr.index]
        return lambda row: value
    if isinstance(expr, ast.ColumnRef):
        return operator.itemgetter(schema.resolve(expr))
    if isinstance(expr, ast.Star):
        raise SQLTypeError("'*' is only valid in a select list or COUNT(*)")
    if isinstance(expr, ast.BinaryOp):
        left = compile_expr(expr.left, schema, params, subquery_runner)
        right = compile_expr(expr.right, schema, params, subquery_runner)
        op = expr.op
        if op == "AND":
            return lambda row: _and3(left(row), right(row))
        if op == "OR":
            return lambda row: _or3(left(row), right(row))
        if op in _COMPARATORS:
            return _compile_comparison(expr, left, right, schema, params)
        if op == "||":

            def concat(row):
                a, b = left(row), right(row)
                if a is None or b is None:
                    return None
                return str(a) + str(b)

            return concat
        if op in ("+", "-", "*", "/", "%"):

            def arith(row, _op=op):
                a, b = left(row), right(row)
                if a is None or b is None:
                    return None
                if not isinstance(a, (int, float)) or isinstance(a, bool):
                    if isinstance(a, bool):
                        a = int(a)
                    else:
                        raise SQLTypeError(f"non-numeric operand {a!r} for {_op}")
                if not isinstance(b, (int, float)) or isinstance(b, bool):
                    if isinstance(b, bool):
                        b = int(b)
                    else:
                        raise SQLTypeError(f"non-numeric operand {b!r} for {_op}")
                if _op == "+":
                    return a + b
                if _op == "-":
                    return a - b
                if _op == "*":
                    return a * b
                if _op == "/":
                    if b == 0:
                        return None  # SQL engines commonly yield NULL/err; we use NULL
                    result = a / b
                    if isinstance(a, int) and isinstance(b, int) and result == int(result):
                        return int(result)
                    return result
                if b == 0:
                    return None
                return a % b

            return arith
        raise SQLTypeError(f"unknown binary operator {expr.op!r}")
    if isinstance(expr, ast.UnaryOp):
        operand = compile_expr(expr.operand, schema, params, subquery_runner)
        if expr.op == "NOT":

            def neg(row):
                v = operand(row)
                if v is None:
                    return None
                return not v

            return neg
        return lambda row: None if operand(row) is None else -operand(row)
    if isinstance(expr, ast.IsNull):
        operand = compile_expr(expr.operand, schema, params, subquery_runner)
        if expr.negated:
            return lambda row: operand(row) is not None
        return lambda row: operand(row) is None
    if isinstance(expr, ast.InList):
        operand = compile_expr(expr.operand, schema, params, subquery_runner)
        items = [compile_expr(i, schema, params, subquery_runner) for i in expr.items]
        negated = expr.negated

        def in_list(row):
            v = operand(row)
            if v is None:
                return None
            saw_null = False
            for item in items:
                iv = item(row)
                if iv is None:
                    saw_null = True
                    continue
                eq = _cmp("=", v, iv)
                if eq:
                    return not negated
            if saw_null:
                return None
            return negated

        return in_list
    if isinstance(expr, ast.Between):
        operand = compile_expr(expr.operand, schema, params, subquery_runner)
        low = compile_expr(expr.low, schema, params, subquery_runner)
        high = compile_expr(expr.high, schema, params, subquery_runner)
        negated = expr.negated

        def between(row):
            v = operand(row)
            lo, hi = low(row), high(row)
            family = _DIRECT.get(type(v), ())
            if type(lo) in family and type(hi) in family:
                return (lo <= v <= hi) != negated
            ge = _cmp(">=", v, lo)
            le = _cmp("<=", v, hi)
            result = _and3(ge, le)
            if result is None:
                return None
            return result != negated

        return between
    if isinstance(expr, ast.Like):
        operand = compile_expr(expr.operand, schema, params, subquery_runner)
        negated = expr.negated
        if isinstance(expr.pattern, ast.Literal) and isinstance(expr.pattern.value, str):
            regex = _like_to_regex(expr.pattern.value)

            def like_const(row):
                v = operand(row)
                if v is None:
                    return None
                return bool(regex.fullmatch(str(v))) != negated

            return like_const
        pattern = compile_expr(expr.pattern, schema, params, subquery_runner)

        def like_dyn(row):
            v = operand(row)
            p = pattern(row)
            if v is None or p is None:
                return None
            return bool(_like_to_regex(str(p)).fullmatch(str(v))) != negated

        return like_dyn
    if isinstance(expr, ast.Case):
        whens = [
            (compile_expr(c, schema, params, subquery_runner), compile_expr(r, schema, params, subquery_runner))
            for c, r in expr.whens
        ]
        else_fn = compile_expr(expr.else_, schema, params, subquery_runner) if expr.else_ else None

        def case(row):
            for cond, result in whens:
                if cond(row) is True:
                    return result(row)
            return else_fn(row) if else_fn else None

        return case
    if isinstance(expr, ast.Cast):
        operand = compile_expr(expr.operand, schema, params, subquery_runner)
        target = expr.target
        return lambda row: coerce_value(operand(row), target)
    if isinstance(expr, ast.FunctionCall):
        name = expr.name.upper()
        if name in ast.AGGREGATE_FUNCTIONS:
            raise SQLTypeError(
                f"aggregate {name} not allowed here (only in SELECT list or HAVING)"
            )
        if name == "COALESCE":
            args = [compile_expr(a, schema, params, subquery_runner) for a in expr.args]

            def coalesce(row):
                for arg in args:
                    v = arg(row)
                    if v is not None:
                        return v
                return None

            return coalesce
        if name == "CONCAT":
            args = [compile_expr(a, schema, params, subquery_runner) for a in expr.args]

            def concat_fn(row):
                parts = [arg(row) for arg in args]
                if any(p is None for p in parts):
                    return None
                return "".join(str(p) for p in parts)

            return concat_fn
        if name == "NULLIF":
            if len(expr.args) != 2:
                raise SQLTypeError("NULLIF takes exactly two arguments")
            first = compile_expr(expr.args[0], schema, params, subquery_runner)
            second = compile_expr(expr.args[1], schema, params, subquery_runner)

            def nullif(row):
                a = first(row)
                if a is None:
                    return None
                b = second(row)
                if b is not None and _cmp("=", a, b):
                    return None
                return a

            return nullif
        spec = SCALAR_FUNCTIONS.get(name)
        if spec is None or spec.impl is None:
            raise SQLTypeError(f"unknown function {expr.name!r}")
        fn = spec.impl
        args = [compile_expr(a, schema, params, subquery_runner) for a in expr.args]

        def call(row):
            values = [a(row) for a in args]
            if values and values[0] is None:
                return None
            return fn(*values)

        return call
    raise SQLTypeError(f"cannot compile expression node {type(expr).__name__}")


def _compile_subquery(expr, schema: RowSchema, params: tuple, subquery_runner) -> RowFn:
    """Compile a non-correlated subquery node.

    The inner SELECT is executed lazily at most once per statement (it
    cannot reference the outer row) and the materialized result is
    shared by every outer-row evaluation.
    """
    memo: dict[str, object] = {}

    def run():
        if "result" not in memo:
            memo["result"] = subquery_runner(expr.select)
        return memo["result"]

    if isinstance(expr, ast.ScalarSubquery):

        def scalar(row):
            columns, rows = run()
            if len(columns) != 1:
                raise SQLTypeError(
                    f"scalar subquery must return one column, got {len(columns)}"
                )
            if not rows:
                return None
            if len(rows) > 1:
                raise SQLTypeError("scalar subquery returned more than one row")
            return rows[0][0]

        return scalar

    if isinstance(expr, ast.Exists):
        negated = expr.negated

        def exists(row):
            _columns, rows = run()
            return bool(rows) != negated

        return exists

    assert isinstance(expr, ast.InSubquery)
    operand = compile_expr(expr.operand, schema, params, subquery_runner)
    negated = expr.negated

    def in_subquery(row):
        columns, rows = run()
        if len(columns) != 1:
            raise SQLTypeError(
                f"IN subquery must return one column, got {len(columns)}"
            )
        v = operand(row)
        if v is None:
            return None
        saw_null = False
        for (candidate,) in rows:
            if candidate is None:
                saw_null = True
                continue
            if _cmp("=", v, candidate):
                return not negated
        if saw_null:
            return None
        return negated

    return in_subquery


def truthy(value: object) -> bool:
    """WHERE-clause semantics: keep the row only when the predicate is True."""
    return value is True
