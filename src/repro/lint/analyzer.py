"""The static semantic analyzer.

Walks a parsed :mod:`repro.sql.ast` tree against a
:class:`~repro.lint.schema.SchemaProvider` and emits
:class:`~repro.lint.diagnostics.Diagnostic` findings without executing
anything. Severity is calibrated against the simulated engine: a finding
is an ERROR only when the engine (or the federated planner) would itself
reject the query, so "executes successfully" implies "lint-clean at
ERROR severity" — a tested invariant.

The analysis deliberately mirrors runtime semantics rather than the SQL
standard: ``||`` and LIKE stringify anything (no diagnostic), BOOLEAN
compares as a number, temporal values travel as ISO strings (text
family), and cross-side equi-join conjuncts hash-match without a type
check (so ``ON a.id = b.name`` is noted but never an error).
"""

from __future__ import annotations

from repro.common.errors import ColumnNotFoundError, ReproError, UnsupportedVendorError
from repro.common.types import SQLType, TypeKind, infer_literal_type
from repro.lint.diagnostics import Diagnostic, LintReport, Severity, Span
from repro.lint.rules import DEFAULT_CONFIG, RULES, LintConfig
from repro.sql import ast
from repro.sql.eval import _SCALAR_FUNCTIONS, RowSchema

#: Every function name the engine can evaluate.
SCALAR_FUNCTIONS = frozenset(_SCALAR_FUNCTIONS)
KNOWN_FUNCTIONS = SCALAR_FUNCTIONS | ast.AGGREGATE_FUNCTIONS

#: (min, max) argument counts; ``None`` max means variadic.
_FUNCTION_ARITY: dict[str, tuple[int, int | None]] = {
    "ABS": (1, 1), "ROUND": (1, 2), "FLOOR": (1, 1), "CEIL": (1, 1),
    "SQRT": (1, 1), "POWER": (2, 2), "EXP": (1, 1), "LN": (1, 1),
    "LOG10": (1, 1), "MOD": (2, 2), "SIGN": (1, 1),
    "LOWER": (1, 1), "UPPER": (1, 1), "LENGTH": (1, 1), "TRIM": (1, 1),
    "LTRIM": (1, 1), "RTRIM": (1, 1), "REPLACE": (3, 3), "INSTR": (2, 2),
    "CONCAT": (1, None), "COALESCE": (1, None), "NULLIF": (2, 2),
    "SUBSTR": (2, 3),
}

#: Functions whose arguments must be numeric at runtime. Only the first
#: argument of ROUND/SUBSTR is strict (the rest pass through int()/str()
#: conversions that accept numeric strings), so those stay unchecked.
_NUMERIC_ARG_FUNCTIONS = frozenset(
    {"ABS", "FLOOR", "CEIL", "SQRT", "EXP", "LN", "LOG10", "SIGN",
     "POWER", "MOD", "ROUND"}
)
_TEXT_RESULT_FUNCTIONS = frozenset(
    {"LOWER", "UPPER", "TRIM", "LTRIM", "RTRIM", "REPLACE", "SUBSTR", "CONCAT"}
)
_INT_RESULT_FUNCTIONS = frozenset({"LENGTH", "INSTR", "SIGN"})
#: Aggregates that sum/average and therefore need numeric input.
_NUMERIC_AGGREGATES = frozenset({"SUM", "AVG", "STDDEV", "VARIANCE"})

_COMPARISONS = ("=", "<>", "<", "<=", ">", ">=")
_ARITHMETIC = ("+", "-", "*", "/", "%")


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


class _ExprTyper:
    """Bottom-up type inference that mirrors the evaluator's strictness.

    ``resolve(ref) -> SQLType | None`` supplies column types (and emits
    its own name diagnostics); ``emit(code, message, fragment)`` records
    findings; ``on_subquery(select)`` is called once per embedded SELECT.
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
            if operand is not None and _family(operand) == "numeric":
                return operand
            return SQLType.double()
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
            return self._type_case(expr, agg_ok)
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
            if (
                left is not None and right is not None
                and _family(left) == "numeric" and _family(right) == "numeric"
            ):
                try:
                    from repro.common.types import common_supertype

                    return common_supertype(left, right)
                except ReproError:
                    return SQLType.double()
            return SQLType.double()
        return None

    def _type_case(self, expr: ast.Case, agg_ok: bool) -> SQLType | None:
        for cond, _result in expr.whens:
            self.type_of(cond, agg_ok)
        # Branches evaluate lazily at runtime, so mixed-family branches
        # are not flagged; the result type is known only when all known
        # branches agree on a family.
        branch_types = [self.type_of(r, agg_ok) for _c, r in expr.whens]
        if expr.else_ is not None:
            branch_types.append(self.type_of(expr.else_, agg_ok))
        known = [t for t in branch_types if t is not None]
        families = {_family(t) for t in known}
        if known and len(families) == 1 and None not in families:
            return known[0]
        return None

    def _type_call(self, expr: ast.FunctionCall, agg_ok: bool) -> SQLType | None:
        name = expr.name.upper()
        if name in ast.AGGREGATE_FUNCTIONS:
            return self._type_aggregate(expr, name, agg_ok)
        if name not in SCALAR_FUNCTIONS:
            self.emit(
                "RPR104", f"unknown function {expr.name!r}", expr.name
            )
            for arg in expr.args:
                self.type_of(arg, agg_ok)
            return None
        low, high = _FUNCTION_ARITY[name]
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
        if name in _NUMERIC_ARG_FUNCTIONS:
            strict = arg_types[:1] if name == "ROUND" else arg_types
            for arg_type in strict:
                if _family(arg_type) == "text":
                    self._mismatch(
                        f"{name} requires numeric arguments, got {arg_type}",
                        expr,
                    )
        if name in _TEXT_RESULT_FUNCTIONS:
            return SQLType.text()
        if name in _INT_RESULT_FUNCTIONS:
            return SQLType.integer()
        if name == "NULLIF":
            return arg_types[0] if arg_types else None
        if name == "COALESCE":
            known = [t for t in arg_types if t is not None]
            families = {_family(t) for t in known}
            if known and len(families) == 1 and None not in families:
                return known[0]
            return None
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


class _ScopeTable:
    """One FROM/JOIN entry resolved against the provider."""

    def __init__(self, ref: ast.TableRef, provider):
        self.ref = ref
        self.binding = ref.binding.lower()
        self.known = provider.has_table(ref.name)
        self.columns: dict[str, SQLType] = {}
        if self.known:
            for name, sql_type in provider.table_columns(ref.name):
                self.columns.setdefault(name.lower(), sql_type)
            self.vendor = provider.table_vendor(ref.name)
            self.site = provider.table_site(ref.name)
            self.rows = provider.table_rows(ref.name)
            self.database = provider.table_database(ref.name)
        else:
            self.vendor = self.site = self.rows = self.database = None


class _Analyzer:
    """Analyzes one SELECT (plus nested SELECTs, engine context only)."""

    def __init__(self, provider, config: LintConfig, sql_text: str | None):
        self.provider = provider
        self.config = config
        self.sql_text = sql_text
        self.federated = getattr(provider, "context", "engine") == "federated"
        self.diagnostics: list[Diagnostic] = []

    # -- diagnostics -----------------------------------------------------------

    def emit(
        self, code: str, message: str, fragment: str | None = None,
        severity: Severity | None = None,
    ) -> None:
        effective = self.config.severity_for(code)
        if effective is None:
            return
        if severity is not None and code not in self.config.severities:
            effective = severity
        span = None
        if fragment:
            start = None
            if self.sql_text:
                at = self.sql_text.lower().find(fragment.lower())
                if at >= 0:
                    start = at
            span = Span(
                fragment, start, None if start is None else start + len(fragment)
            )
        diag = Diagnostic(code, effective, message, span)
        if all(
            d.code != diag.code or d.message != diag.message
            for d in self.diagnostics
        ):
            self.diagnostics.append(diag)

    # -- entry point -----------------------------------------------------------

    def analyze(self, select: ast.Select) -> None:
        scope = self._build_scope(select)
        has_unknown = any(not st.known for st in scope)
        resolve = self._make_resolver(scope, has_unknown)
        typer = _ExprTyper(resolve, self.emit, self._on_subquery)

        scalar = not select.from_
        has_agg = not scalar and (
            bool(select.group_by)
            or any(ast.contains_aggregate(i.expr) for i in select.items)
            or select.having is not None
        )

        # Select list (aggregates allowed only when a FROM clause exists).
        output_exprs: dict[str, tuple[ast.Expr, SQLType | None]] = {}
        for ordinal, item in enumerate(select.items, start=1):
            if isinstance(item.expr, ast.Star):
                self._check_star(item.expr, scope, has_unknown)
                continue
            item_type = typer.type_of(item.expr, agg_ok=not scalar)
            output_exprs.setdefault(
                item.output_name(ordinal).lower(), (item.expr, item_type)
            )

        if select.where is not None:
            where_type = typer.type_of(select.where, agg_ok=False)
            self._check_boolean(select.where, where_type, "WHERE")

        for group in select.group_by:
            typer.type_of(group, agg_ok=False)

        self._check_joins(select, scope, typer)

        expand = self._alias_expander(select)
        expanded_having = None
        if select.having is not None:
            expanded_having = expand(select.having)
            having_type = typer.type_of(expanded_having, agg_ok=True)
            self._check_boolean(select.having, having_type, "HAVING")

        expanded_order: list[ast.Expr] = []
        for order in select.order_by:
            if has_agg:
                expr = expand(order.expr)
                expanded_order.append(expr)
                typer.type_of(expr, agg_ok=True)
            elif (
                isinstance(order.expr, ast.ColumnRef)
                and order.expr.table is None
                and order.expr.column.lower() in output_exprs
            ):
                pass  # resolves against the output columns, like the engine
            else:
                typer.type_of(order.expr, agg_ok=False)

        if has_agg:
            self._check_grouped(select, expanded_having, expanded_order)

        if self.federated:
            self._check_federated(select, scope, has_unknown, has_agg)

    # -- scope / resolution -----------------------------------------------------

    def _build_scope(self, select: ast.Select) -> list[_ScopeTable]:
        scope: list[_ScopeTable] = []
        seen: set[str] = set()
        for ref in select.referenced_tables():
            st = _ScopeTable(ref, self.provider)
            if st.binding in seen:
                # The engine shadows duplicates (last qualified ref wins)
                # but the federated planner refuses to decompose them.
                self.emit(
                    "RPR106",
                    f"duplicate table binding {ref.binding!r}",
                    ref.binding,
                    severity=Severity.ERROR if self.federated else None,
                )
            seen.add(st.binding)
            if not st.known:
                self.emit(
                    "RPR101",
                    f"unknown table {ref.name!r}",
                    ref.name,
                )
            scope.append(st)
        return scope

    def _make_resolver(self, scope: list[_ScopeTable], has_unknown: bool):
        by_binding = {st.binding: st for st in scope}

        def resolve(ref: ast.ColumnRef) -> SQLType | None:
            name = ref.column.lower()
            if ref.table is not None:
                st = by_binding.get(ref.table.lower())
                if st is None:
                    if not has_unknown:
                        self.emit(
                            "RPR102",
                            f"qualifier {ref.table!r} does not match any "
                            f"table in the query",
                            ref.unparse(),
                        )
                    return None
                if not st.known:
                    return None
                sql_type = st.columns.get(name)
                if sql_type is None:
                    self.emit(
                        "RPR102",
                        f"table {st.ref.name!r} has no column {ref.column!r}",
                        ref.unparse(),
                    )
                return sql_type
            owners = [st for st in scope if st.known and name in st.columns]
            if len(owners) == 1:
                return owners[0].columns[name]
            if has_unknown:
                return None  # RPR101 is the canonical finding
            if not owners:
                self.emit(
                    "RPR102", f"unknown column {ref.column!r}", ref.column
                )
                return None
            self.emit(
                "RPR103",
                f"column {ref.column!r} is ambiguous across "
                f"{sorted(st.ref.binding for st in owners)}",
                ref.column,
            )
            return None

        return resolve

    def _check_star(
        self, star: ast.Star, scope: list[_ScopeTable], has_unknown: bool
    ) -> None:
        if star.table is None:
            return
        if any(st.binding == star.table.lower() for st in scope):
            return
        if not has_unknown:
            self.emit(
                "RPR102",
                f"qualifier {star.table!r} in '*' does not match any table",
                star.unparse(),
            )

    def _on_subquery(self, select: ast.Select) -> None:
        if self.federated:
            self.emit(
                "RPR302",
                "subqueries cannot be decomposed by the federated planner; "
                "run them directly on one database",
                select.unparse(),
            )
            return
        # Engine subqueries are non-correlated: lint them independently.
        self.analyze(select)

    # -- clause checks ----------------------------------------------------------

    def _check_boolean(
        self, expr: ast.Expr, expr_type: SQLType | None, clause: str
    ) -> None:
        if expr_type is not None and expr_type.kind is not TypeKind.BOOLEAN:
            self.emit(
                "RPR202",
                f"{clause} predicate has type {expr_type}, not BOOLEAN "
                f"(rows only match on boolean TRUE)",
                expr.unparse(),
            )

    def _check_joins(
        self, select: ast.Select, scope: list[_ScopeTable], typer: _ExprTyper
    ) -> None:
        """Type join ON clauses, skipping the family check on cross-side
        equi conjuncts — the hash join matches those without comparing."""
        prior = {t.binding.lower() for t in select.from_}
        for join in select.joins:
            right = join.table.binding.lower()
            if join.on is not None:
                for conj in ast.conjuncts(join.on):
                    if self._is_cross_side_equi(conj, prior, right):
                        typer.resolve(conj.left)
                        typer.resolve(conj.right)
                    else:
                        typer.type_of(conj, agg_ok=False)
            prior.add(right)

    @staticmethod
    def _is_cross_side_equi(
        conj: ast.Expr, prior: set[str], right: str
    ) -> bool:
        if not (isinstance(conj, ast.BinaryOp) and conj.op == "="):
            return False
        a, b = conj.left, conj.right
        if not (isinstance(a, ast.ColumnRef) and isinstance(b, ast.ColumnRef)):
            return False
        if a.table is None or b.table is None:
            # Unqualified refs may still hash-join; be conservative and
            # treat single-column equality as a potential equi pair.
            return True
        sides = {a.table.lower() == right, b.table.lower() == right}
        return sides == {True, False} and (
            a.table.lower() in prior | {right}
            and b.table.lower() in prior | {right}
        )

    def _alias_expander(self, select: ast.Select):
        """Mirror the engine's HAVING/ORDER BY output-name expansion
        (only the node kinds the engine recurses into)."""
        alias_map: dict[str, ast.Expr] = {}
        for ordinal, item in enumerate(select.items, start=1):
            if isinstance(item.expr, ast.Star):
                continue
            alias_map.setdefault(item.output_name(ordinal).lower(), item.expr)

        def expand(expr: ast.Expr) -> ast.Expr:
            if isinstance(expr, ast.ColumnRef) and expr.table is None:
                return alias_map.get(expr.column.lower(), expr)
            if isinstance(expr, ast.BinaryOp):
                return ast.BinaryOp(expr.op, expand(expr.left), expand(expr.right))
            if isinstance(expr, ast.UnaryOp):
                return ast.UnaryOp(expr.op, expand(expr.operand))
            if isinstance(expr, ast.IsNull):
                return ast.IsNull(expand(expr.operand), expr.negated)
            if isinstance(expr, ast.Between):
                return ast.Between(
                    expand(expr.operand), expand(expr.low), expand(expr.high),
                    expr.negated,
                )
            return expr

        return expand

    def _check_grouped(
        self,
        select: ast.Select,
        expanded_having: ast.Expr | None,
        expanded_order: list[ast.Expr],
    ) -> None:
        """Every output/HAVING/ORDER BY column must be a group key (by
        canonical text, exactly like the engine's rewrite) or aggregated."""
        group_keys = {g.unparse() for g in select.group_by}

        def check(expr: ast.Expr) -> None:
            if expr.unparse() in group_keys:
                return
            if isinstance(expr, ast.FunctionCall) and (
                expr.name.upper() in ast.AGGREGATE_FUNCTIONS
            ):
                return
            if isinstance(
                expr, (ast.Star, ast.ScalarSubquery, ast.InSubquery, ast.Exists)
            ):
                return
            if isinstance(expr, ast.ColumnRef):
                self.emit(
                    "RPR301",
                    f"column {expr.unparse()!r} must appear in GROUP BY "
                    f"or inside an aggregate",
                    expr.unparse(),
                )
                return
            for child in ast._children(expr):
                check(child)

        for item in select.items:
            check(item.expr)
        if expanded_having is not None:
            check(expanded_having)
        for expr in expanded_order:
            check(expr)

    # -- federated-only analysis -------------------------------------------------

    def _check_federated(
        self,
        select: ast.Select,
        scope: list[_ScopeTable],
        has_unknown: bool,
        has_agg: bool,
    ) -> None:
        if has_unknown or not scope:
            return
        bindings = {st.binding for st in scope}
        if len(bindings) != len(scope):
            return  # duplicate bindings already reported as errors
        if any(
            ast.contains_subquery(clause) for clause in self._all_clauses(select)
        ):
            return  # RPR302 already reported; the planner stops there

        sites = {st.site for st in scope}
        if len(sites) == 1:
            # Whole-query pushdown: every expression ships to one vendor.
            vendor = scope[0].vendor
            for clause in self._all_clauses(select):
                self._check_vendor_functions(clause, vendor, scope[0])
            return

        # Multi-site plan: mirror the decomposer's pushdown choices.
        pushed: dict[str, list[ast.Expr]] = {st.binding: [] for st in scope}
        for conj in ast.conjuncts(select.where):
            owner = self._single_binding(conj, scope)
            if owner is not None:
                pushed[owner.binding].append(conj)
        for join in select.joins:
            right = join.table.binding.lower()
            for conj in ast.conjuncts(join.on):
                owner = self._single_binding(conj, scope)
                if owner is None:
                    continue
                if join.kind == "INNER" or owner.binding == right:
                    pushed[owner.binding].append(conj)

        for st in scope:
            for conj in pushed[st.binding]:
                self._check_vendor_functions(conj, st.vendor, st)
            if not pushed[st.binding]:
                rows = f" (~{st.rows} rows)" if st.rows else ""
                self.emit(
                    "RPR501",
                    f"no predicate can be pushed down to {st.ref.name!r} "
                    f"on {st.database!r}; its sub-query ships the whole "
                    f"table{rows}",
                    st.ref.name,
                )
        if has_agg:
            self.emit(
                "RPR501",
                f"aggregation runs client-side after merging "
                f"{len(scope)} sub-results; no mart pre-aggregates",
                None,
            )

    def _single_binding(
        self, conj: ast.Expr, scope: list[_ScopeTable]
    ) -> _ScopeTable | None:
        """The one scope table this conjunct touches, mirroring the
        decomposer's ``single_binding`` (aggregates/stars/aliases bail)."""
        by_binding = {st.binding: st for st in scope}
        found: set[str] = set()
        for node in ast.walk(conj):
            if isinstance(node, ast.FunctionCall) and (
                node.name.upper() in ast.AGGREGATE_FUNCTIONS
            ):
                return None
            if isinstance(node, ast.Star):
                return None
            if isinstance(node, ast.ColumnRef):
                if node.table is not None:
                    st = by_binding.get(node.table.lower())
                    if st is None or node.column.lower() not in st.columns:
                        return None
                    found.add(st.binding)
                    continue
                owners = [
                    st for st in scope if node.column.lower() in st.columns
                ]
                if len(owners) != 1:
                    return None
                found.add(owners[0].binding)
        if len(found) == 1:
            return by_binding[found.pop()]
        return None

    def _check_vendor_functions(
        self, expr: ast.Expr, vendor: str | None, st: _ScopeTable
    ) -> None:
        if vendor is None:
            return
        from repro.dialects import get_dialect

        try:
            dialect = get_dialect(vendor)
        except UnsupportedVendorError:
            return
        for node in ast.walk(expr):
            if not isinstance(node, ast.FunctionCall):
                continue
            name = node.name.upper()
            if name not in KNOWN_FUNCTIONS:
                continue  # RPR104 owns unknown names
            if not dialect.supports_function(name):
                self.emit(
                    "RPR401",
                    f"function {name} is not supported by {vendor} "
                    f"(sub-query ships to database {st.database!r})",
                    node.unparse(),
                )

    @staticmethod
    def _all_clauses(select: ast.Select) -> list[ast.Expr]:
        clauses: list[ast.Expr] = [
            item.expr
            for item in select.items
            if not isinstance(item.expr, ast.Star)
        ]
        if select.where is not None:
            clauses.append(select.where)
        clauses.extend(select.group_by)
        if select.having is not None:
            clauses.append(select.having)
        clauses.extend(o.expr for o in select.order_by)
        clauses.extend(j.on for j in select.joins if j.on is not None)
        return clauses


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def lint_select(
    select,
    provider,
    config: LintConfig | None = None,
    sql_text: str | None = None,
) -> LintReport:
    """Lint one SELECT (an AST node or SQL text) against ``provider``."""
    config = config or DEFAULT_CONFIG
    if isinstance(select, str):
        from repro.sql.parser import parse_select

        sql_text = sql_text or select
        try:
            select = parse_select(select)
        except ReproError as exc:
            return _syntax_report(exc, config)
    analyzer = _Analyzer(provider, config, sql_text)
    analyzer.analyze(select)
    return LintReport(analyzer.diagnostics)


def lint_statement(
    statement,
    provider,
    config: LintConfig | None = None,
    sql_text: str | None = None,
) -> LintReport:
    """Lint any parsed statement; non-query DDL yields an empty report."""
    config = config or DEFAULT_CONFIG
    if isinstance(statement, ast.Select):
        return lint_select(statement, provider, config, sql_text)
    analyzer = _Analyzer(provider, config, sql_text)
    if isinstance(statement, ast.Union):
        widths = set()
        for member in statement.selects:
            analyzer.analyze(member)
            if not any(isinstance(i.expr, ast.Star) for i in member.items):
                widths.add(len(member.items))
        if len(widths) > 1:
            analyzer.emit(
                "RPR201",
                f"UNION branches select different column counts: "
                f"{sorted(widths)}",
            )
    elif isinstance(statement, (ast.CreateTableAs, ast.CreateView)):
        analyzer.analyze(statement.select)
    elif isinstance(statement, ast.Insert):
        _lint_insert(statement, analyzer)
    elif isinstance(statement, (ast.Update, ast.Delete)):
        _lint_write(statement, analyzer)
    return LintReport(analyzer.diagnostics)


def lint_sql(
    sql: str, provider, config: LintConfig | None = None
) -> LintReport:
    """Parse and lint one statement of SQL text; parse failures become
    an ``RPR001`` diagnostic instead of an exception."""
    config = config or DEFAULT_CONFIG
    from repro.sql.parser import parse_statement

    try:
        statement = parse_statement(sql)
    except ReproError as exc:
        return _syntax_report(exc, config)
    return lint_statement(statement, provider, config, sql_text=sql)


def _syntax_report(exc: Exception, config: LintConfig) -> LintReport:
    severity = config.severity_for("RPR001")
    if severity is None:
        return LintReport([])
    return LintReport([Diagnostic("RPR001", severity, str(exc))])


def _lint_insert(statement: ast.Insert, analyzer: _Analyzer) -> None:
    provider = analyzer.provider
    if not provider.has_table(statement.table):
        analyzer.emit(
            "RPR101", f"unknown table {statement.table!r}", statement.table
        )
        return
    known = {name.lower() for name, _t in provider.table_columns(statement.table)}
    for column in statement.columns:
        if column.lower() not in known:
            analyzer.emit(
                "RPR102",
                f"table {statement.table!r} has no column {column!r}",
                column,
            )
    width = len(statement.columns) or len(known)
    for row in statement.rows:
        if len(row) != width:
            analyzer.emit(
                "RPR201",
                f"INSERT row has {len(row)} values for {width} column(s)",
            )
            break
    if statement.select is not None:
        analyzer.analyze(statement.select)


def _lint_write(statement, analyzer: _Analyzer) -> None:
    """Shared UPDATE/DELETE checks: table, columns, predicate types."""
    provider = analyzer.provider
    if not provider.has_table(statement.table):
        analyzer.emit(
            "RPR101", f"unknown table {statement.table!r}", statement.table
        )
        return
    scope = [_ScopeTable(ast.TableRef(name=statement.table), provider)]
    resolve = analyzer._make_resolver(scope, has_unknown=False)
    typer = _ExprTyper(resolve, analyzer.emit, analyzer._on_subquery)
    if isinstance(statement, ast.Update):
        known = scope[0].columns
        for column, expr in statement.assignments:
            if column.lower() not in known:
                analyzer.emit(
                    "RPR102",
                    f"table {statement.table!r} has no column {column!r}",
                    column,
                )
            typer.type_of(expr, agg_ok=False)
    if statement.where is not None:
        where_type = typer.type_of(statement.where, agg_ok=False)
        analyzer._check_boolean(statement.where, where_type, "WHERE")


def typecheck_select(
    select: ast.Select, schema: RowSchema
) -> list[Diagnostic]:
    """Pre-execution type check used by the engine executor.

    Resolution happens against the executor's own :class:`RowSchema`, so
    only definite type errors (``RPR201``) and bad call arities
    (``RPR105``) are returned — name errors are the executor's own
    business, and unresolvable refs (aliases, params) are skipped.
    """
    diagnostics: list[Diagnostic] = []

    def emit(code: str, message: str, fragment: str | None = None) -> None:
        span = Span(fragment) if fragment else None
        diagnostics.append(
            Diagnostic(code, RULES[code].severity, message, span)
        )

    def resolve(ref: ast.ColumnRef) -> SQLType | None:
        try:
            return schema.columns[schema.resolve(ref)].type
        except ColumnNotFoundError:
            return None

    typer = _ExprTyper(resolve, emit, on_subquery=None)
    for item in select.items:
        if not isinstance(item.expr, ast.Star):
            typer.type_of(item.expr, agg_ok=True)
    if select.where is not None:
        typer.type_of(select.where, agg_ok=True)
    for group in select.group_by:
        typer.type_of(group, agg_ok=True)
    if select.having is not None:
        typer.type_of(select.having, agg_ok=True)
    for order in select.order_by:
        typer.type_of(order.expr, agg_ok=True)
    # Join ON clauses are deliberately skipped: cross-side equi conjuncts
    # hash-match at runtime without ever comparing values.
    return [d for d in diagnostics if d.code in ("RPR201", "RPR105")]
