"""Static expression typing, shared by the engine and lint.

:class:`ExprTyper` types an expression bottom-up from its column types,
with the evaluator's strictness (:mod:`repro.sql.eval`): it reports the
expressions the evaluator would reject on some row, and gives the type
of the values an expression yields. The engine runs it once per SELECT,
both to raise type errors before any row is read and to type its result
columns; lint runs it to emit diagnostics.

Types follow runtime semantics, not the SQL standard: ``||`` and LIKE
stringify anything, BOOLEAN compares as a number, temporal values travel
as ISO strings (text family), and ``/`` yields a float unless it divides
exactly. An expression whose values have no one type (NULL, ``?``, a
scalar subquery, CASE/COALESCE over mixed families or over an untyped
branch other than NULL) types as None.
"""

from __future__ import annotations

from repro.common.errors import SQLTypeError
from repro.common.types import SQLType, TypeKind, common_supertype, infer_literal_type
from repro.sql import ast
from repro.sql.eval import SCALAR_FUNCTIONS

_COMPARISONS = ("=", "<>", "<", "<=", ">", ">=")
_ARITHMETIC = ("+", "-", "*", "/", "%")
#: aggregates that sum or average, and therefore need numeric input
_NUMERIC_AGGREGATES = frozenset({"SUM", "AVG", "STDDEV", "VARIANCE"})


def _family(sql_type: SQLType | None) -> str | None:
    """Runtime comparison family: numeric (incl. BOOLEAN), text (incl.
    temporal, which travels as ISO strings), or None (unknown/BLOB)."""
    if sql_type is None:
        return None
    kind = sql_type.kind
    if kind.is_numeric or kind is TypeKind.BOOLEAN:
        return "numeric"
    if kind.is_textual or kind.is_temporal:
        return "text"
    return None


def _as_number(sql_type: SQLType | None) -> SQLType | None:
    """``sql_type`` as an arithmetic operand: BOOLEAN computes as
    INTEGER; None for a non-numeric or unknown type."""
    if sql_type is None:
        return None
    if sql_type.kind is TypeKind.BOOLEAN:
        return SQLType.integer()
    return sql_type if sql_type.kind.is_numeric else None


def _shared_type(exprs, types: list[SQLType | None]) -> SQLType | None:
    """The type of a value drawn from any of ``exprs`` (CASE branches,
    COALESCE arguments), given their ``types``. NULL literals are
    skipped; any other untyped entry leaves the result unknown, as do
    mixed families and booleans mixed with numbers. Text mixed with
    temporal types is plain TEXT: both travel as strings."""
    known = [t for e, t in zip(exprs, types) if not _is_null(e)]
    if not known or None in known:
        return None
    out = known[0]
    for sql_type in known[1:]:
        if _family(sql_type) != _family(out) or (
            (sql_type.kind is TypeKind.BOOLEAN) != (out.kind is TypeKind.BOOLEAN)
        ):
            return None
        try:
            out = common_supertype(out, sql_type)
        except SQLTypeError:
            return SQLType.text()
    return out


def _is_null(expr: ast.Expr) -> bool:
    return isinstance(expr, ast.Literal) and expr.value is None


class ExprTyper:
    """Bottom-up type inference that mirrors the evaluator's strictness.

    ``resolve(ref) -> SQLType | None`` supplies column types;
    ``emit(code, message, fragment)`` receives each finding under its
    lint rule code (RPR104 unknown function, RPR105 argument count,
    RPR201 type mismatch, RPR301 aggregate misuse);
    ``on_subquery(select)`` is called once per embedded SELECT.
    """

    def __init__(self, resolve, emit, on_subquery=None):
        self.resolve = resolve
        self.emit = emit
        self.on_subquery = on_subquery
        self._agg_depth = 0

    def type_of(self, expr: ast.Expr, agg_ok: bool = False) -> SQLType | None:
        if isinstance(expr, ast.Literal):
            if expr.value is None:
                return None  # NULL is typeless; never flag against it
            return infer_literal_type(expr.value)
        if isinstance(expr, ast.Param):
            return None
        if isinstance(expr, ast.ColumnRef):
            return self.resolve(expr)
        if isinstance(expr, ast.Star):
            return None  # star contexts are handled by the clause walkers
        if isinstance(expr, ast.BinaryOp):
            return self._type_binary(expr, agg_ok)
        if isinstance(expr, ast.UnaryOp):
            operand = self.type_of(expr.operand, agg_ok)
            if expr.op == "NOT":
                return SQLType.boolean()
            if _family(operand) == "text":
                self._mismatch(f"unary {expr.op} on non-numeric operand", expr)
            return _as_number(operand) or SQLType.double()
        if isinstance(expr, ast.IsNull):
            self.type_of(expr.operand, agg_ok)
            return SQLType.boolean()
        if isinstance(expr, ast.InList):
            operand = self.type_of(expr.operand, agg_ok)
            for item in expr.items:
                item_type = self.type_of(item, agg_ok)
                self._check_comparable(operand, item_type, expr)
            return SQLType.boolean()
        if isinstance(expr, ast.Between):
            operand = self.type_of(expr.operand, agg_ok)
            low = self.type_of(expr.low, agg_ok)
            high = self.type_of(expr.high, agg_ok)
            self._check_comparable(operand, low, expr)
            self._check_comparable(operand, high, expr)
            return SQLType.boolean()
        if isinstance(expr, ast.Like):
            # LIKE stringifies both sides at runtime; nothing to check.
            self.type_of(expr.operand, agg_ok)
            self.type_of(expr.pattern, agg_ok)
            return SQLType.boolean()
        if isinstance(expr, ast.Case):
            for cond, _result in expr.whens:
                self.type_of(cond, agg_ok)
            # Branches evaluate lazily at runtime, so mixed-family
            # branches are not flagged; they only leave the type unknown.
            branches = [r for _c, r in expr.whens]
            if expr.else_ is not None:
                branches.append(expr.else_)
            return _shared_type(branches, [self.type_of(r, agg_ok) for r in branches])
        if isinstance(expr, ast.Cast):
            # CAST failure depends on the value, not the type; stay quiet.
            self.type_of(expr.operand, agg_ok)
            return expr.target
        if isinstance(expr, (ast.ScalarSubquery, ast.InSubquery, ast.Exists)):
            if isinstance(expr, ast.InSubquery):
                self.type_of(expr.operand, agg_ok)
            if self.on_subquery is not None:
                self.on_subquery(expr.select)
            if isinstance(expr, ast.ScalarSubquery):
                return None
            return SQLType.boolean()
        if isinstance(expr, ast.FunctionCall):
            return self._type_call(expr, agg_ok)
        return None

    # -- node kinds --------------------------------------------------------------

    def _type_binary(self, expr: ast.BinaryOp, agg_ok: bool) -> SQLType | None:
        left = self.type_of(expr.left, agg_ok)
        right = self.type_of(expr.right, agg_ok)
        op = expr.op
        if op in ("AND", "OR"):
            return SQLType.boolean()
        if op in _COMPARISONS:
            self._check_comparable(left, right, expr)
            return SQLType.boolean()
        if op == "||":
            return SQLType.text()
        if op in _ARITHMETIC:
            for side, stype in (("left", left), ("right", right)):
                if _family(stype) == "text":
                    self._mismatch(
                        f"non-numeric {side} operand of {op!r} "
                        f"(type {stype})", expr,
                    )
            left, right = _as_number(left), _as_number(right)
            if op != "/" and left is not None and right is not None:
                return common_supertype(left, right)
            return SQLType.double()
        return None

    def _type_call(self, expr: ast.FunctionCall, agg_ok: bool) -> SQLType | None:
        name = expr.name.upper()
        if name in ast.AGGREGATE_FUNCTIONS:
            return self._type_aggregate(expr, name, agg_ok)
        spec = SCALAR_FUNCTIONS.get(name)
        if spec is None:
            self.emit(
                "RPR104", f"unknown function {expr.name!r}", expr.name
            )
            for arg in expr.args:
                self.type_of(arg, agg_ok)
            return None
        low, high = spec.min_args, spec.max_args
        n = len(expr.args)
        if n < low or (high is not None and n > high):
            expect = str(low) if high == low else (
                f"{low}+" if high is None else f"{low}-{high}"
            )
            self.emit(
                "RPR105",
                f"{name} takes {expect} argument(s), got {n}",
                expr.unparse(),
            )
        arg_types = [self.type_of(a, agg_ok) for a in expr.args]
        for arg_type in arg_types[: spec.numeric_args]:
            if _family(arg_type) == "text":
                self._mismatch(
                    f"{name} requires numeric arguments, got {arg_type}",
                    expr,
                )
        first = arg_types[0] if arg_types else None
        if spec.result == "text":
            return SQLType.text()
        if spec.result == "integer":
            return SQLType.integer()
        if spec.result == "numeric":
            return _as_number(first) or SQLType.double()
        if spec.result == "first":
            return first
        if spec.result == "common":
            return _shared_type(expr.args, arg_types)
        return SQLType.double()

    def _type_aggregate(
        self, expr: ast.FunctionCall, name: str, agg_ok: bool
    ) -> SQLType | None:
        if not agg_ok:
            self.emit(
                "RPR301",
                f"aggregate {name} is not allowed in this clause",
                expr.unparse(),
            )
        if self._agg_depth > 0:
            self.emit(
                "RPR301",
                f"aggregate {name} nested inside another aggregate",
                expr.unparse(),
            )
        if len(expr.args) > 1:
            self.emit(
                "RPR105", f"{name} takes 1 argument, got {len(expr.args)}",
                expr.unparse(),
            )
        arg_type: SQLType | None = None
        if expr.args and isinstance(expr.args[0], ast.Star):
            if name != "COUNT":
                self.emit(
                    "RPR301", f"{name}(*) is not defined; only COUNT(*)",
                    expr.unparse(),
                )
        elif expr.args:
            self._agg_depth += 1
            try:
                arg_type = self.type_of(expr.args[0], True)
                for extra in expr.args[1:]:
                    self.type_of(extra, True)
            finally:
                self._agg_depth -= 1
            if name in _NUMERIC_AGGREGATES and _family(arg_type) == "text":
                self._mismatch(
                    f"{name} over non-numeric values (type {arg_type})", expr
                )
        elif name != "COUNT":
            # COUNT() degrades to COUNT(*) at runtime; others blow up.
            self.emit(
                "RPR301", f"{name} requires an argument", expr.unparse()
            )
        if name == "COUNT":
            return SQLType.bigint()
        if name in ("MIN", "MAX"):
            return arg_type
        return SQLType.double()

    # -- helpers --------------------------------------------------------------

    def _check_comparable(
        self, left: SQLType | None, right: SQLType | None, expr: ast.Expr
    ) -> None:
        lf, rf = _family(left), _family(right)
        if lf is not None and rf is not None and lf != rf:
            self._mismatch(
                f"cannot compare {left} with {right}", expr
            )

    def _mismatch(self, message: str, expr: ast.Expr) -> None:
        self.emit("RPR201", message, expr.unparse())
