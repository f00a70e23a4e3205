"""The static semantic analyzer.

Walks a parsed :mod:`repro.sql.ast` tree against a
schema provider (:mod:`repro.lint.schema`) and emits
:class:`~repro.lint.diagnostics.Diagnostic` findings without executing
anything. Severity is calibrated against the simulated engine: a finding
is an ERROR only when the engine (or the federated planner) would itself
reject the query, so "executes successfully" implies "lint-clean at
ERROR severity" — a tested invariant.

Expressions are typed by :class:`repro.sql.infer.ExprTyper`, the
inferencer the engine itself runs, so the analysis mirrors runtime
semantics rather than the SQL standard (``||`` and LIKE stringify
anything, BOOLEAN compares as a number); cross-side equi-join conjuncts
hash-match without a type check (so ``ON a.id = b.name`` is noted but
never an error). In the federated context the vendor-function (RPR401)
and whole-table (RPR501) findings are read off the plan
:func:`repro.unity.decompose.decompose` builds, so lint and execution
cannot disagree about what ships where.
"""

from __future__ import annotations

from repro.common.errors import PlanningError, ReproError, UnsupportedVendorError
from repro.common.types import SQLType, TypeKind
from repro.engine.executor import equi_join_keys
from repro.lint.diagnostics import Diagnostic, LintReport, Severity, Span
from repro.lint.rules import DEFAULT_CONFIG, LintConfig
from repro.sql import ast
from repro.sql.eval import SCALAR_FUNCTIONS, RowSchema, SchemaColumn
from repro.sql.infer import ExprTyper
from repro.unity.decompose import decompose

#: Every function name the engine can evaluate.
KNOWN_FUNCTIONS = frozenset(SCALAR_FUNCTIONS) | ast.AGGREGATE_FUNCTIONS


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


def _star_refs(scope: list[_ScopeTable], star: ast.Star) -> list[ast.ColumnRef]:
    """The columns ``star`` selects from ``scope``, as column refs."""
    qualifier = star.table.lower() if star.table is not None else None
    return [
        ast.ColumnRef(column=name, table=st.ref.binding)
        for st in scope if qualifier in (None, st.binding)
        for name in st.columns
    ]


class _Analyzer:
    """Analyzes one SELECT (plus nested SELECTs, engine context only).

    In the federated context the RPR401/RPR501 findings are read off the
    plan :func:`~repro.unity.decompose.decompose` builds with
    ``prefer_databases``, the plan the query executes with.
    """

    def __init__(
        self, provider, config: LintConfig, sql_text: str | None,
        prefer_databases: dict[str, str] | None,
    ):
        self.provider = provider
        self.config = config
        self.sql_text = sql_text
        self.federated = getattr(provider, "context", "engine") == "federated"
        self.prefer_databases = prefer_databases
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
        if not has_unknown:  # else a star's width is unknown; RPR101 says why
            try:
                select = ast.resolve_positions(select, lambda star: _star_refs(scope, star))
            except PlanningError as exc:
                self.emit("RPR102", str(exc))
        resolve = self._make_resolver(scope, has_unknown)
        typer = ExprTyper(resolve, self.emit, self._on_subquery)

        scalar = not select.from_
        has_agg = not scalar and select.is_grouped

        # Select list (aggregates allowed only when a FROM clause exists).
        for item in select.items:
            if isinstance(item.expr, ast.Star):
                self._check_star(item.expr, scope, has_unknown)
            else:
                typer.type_of(item.expr, agg_ok=not scalar)
        output_names = select.output_names()

        if select.where is not None:
            where_type = typer.type_of(select.where, agg_ok=False)
            self._check_boolean(select.where, where_type, "WHERE")

        for group in select.group_by:
            typer.type_of(group, agg_ok=False)

        self._check_joins(select, scope, typer)

        expanded_having = None
        if select.having is not None:
            expanded_having = ast.expand_output_names(select.having, output_names)
            having_type = typer.type_of(expanded_having, agg_ok=True)
            self._check_boolean(select.having, having_type, "HAVING")

        expanded_order: list[ast.Expr] = []
        for order in select.order_by:
            if has_agg:
                expr = ast.expand_output_names(order.expr, output_names)
                expanded_order.append(expr)
                typer.type_of(expr, agg_ok=True)
            elif (
                isinstance(order.expr, ast.ColumnRef)
                and order.expr.table is None
                and order.expr.column.lower() in output_names
            ):
                pass  # resolves against the output columns, like the engine
            else:
                typer.type_of(order.expr, agg_ok=False)

        if has_agg:
            self._check_grouped(select, expanded_having, expanded_order)

        if self.federated:
            self._check_plan(select, has_agg)

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
        self, select: ast.Select, scope: list[_ScopeTable], typer: ExprTyper
    ) -> None:
        """Type join ON clauses, except the conjuncts the engine hash-joins
        on (:func:`~repro.engine.executor.equi_join_keys`): it matches
        those without comparing values."""
        schemas = {
            st.binding: RowSchema(
                [SchemaColumn(st.ref.binding, name, t) for name, t in st.columns.items()]
            )
            for st in scope
        }
        left = RowSchema([])
        for ref in select.from_:
            left = left.concat(schemas[ref.binding.lower()])
        for join in select.joins:
            right = schemas[join.table.binding.lower()]
            for conj in ast.conjuncts(join.on):
                pair = equi_join_keys(conj, left, right)
                if pair is None:
                    typer.type_of(conj, agg_ok=False)
                else:
                    for ref in pair:
                        typer.resolve(ref)
            left = left.concat(right)

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
            if expr.unparse() in group_keys or ast.is_aggregate_call(expr):
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

    def _check_plan(self, select: ast.Select, has_agg: bool) -> None:
        """RPR401/RPR501 from the federated plan: what ships where,
        after replica choice and pushdown."""
        try:
            plan = decompose(
                select, self.provider.dictionary,
                prefer_databases=self.prefer_databases,
            )
        except ReproError:
            return  # refused: the RPR1xx/RPR302 findings say why
        if plan.kind == "single":
            # Whole-query pushdown: every expression ships to one vendor.
            location = plan.subqueries[0].location
            for clause in select.clauses():
                self._check_vendor_functions(clause, location)
            return
        for sub in plan.subqueries:
            for conj in sub.pushed_conjuncts:
                self._check_vendor_functions(conj, sub.location)
            if not sub.pushed_conjuncts:
                table = sub.logical_select.from_[0].name  # as the query spells it
                count = sub.location.table.row_count
                rows = f" (~{count} rows)" if count else ""
                self.emit(
                    "RPR501",
                    f"no predicate can be pushed down to {table!r} "
                    f"on {sub.location.database_name!r}; its sub-query "
                    f"ships the whole table{rows}",
                    table,
                )
        if has_agg:
            self.emit(
                "RPR501",
                f"aggregation runs client-side after merging "
                f"{len(plan.subqueries)} sub-results; no mart pre-aggregates",
                None,
            )

    def _check_vendor_functions(self, expr: ast.Expr, location) -> None:
        from repro.dialects import get_dialect

        try:
            dialect = get_dialect(location.vendor)
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
                    f"function {name} is not supported by {location.vendor} "
                    f"(sub-query ships to database {location.database_name!r})",
                    node.unparse(),
                )


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def lint_sql(
    sql: str,
    provider,
    config: LintConfig | None = None,
    *,
    prefer_databases: dict[str, str] | None = None,
) -> LintReport:
    """Parse and lint one statement of SQL text; parse failures, a
    statement form the engine does not run among them, become an
    ``RPR001`` diagnostic instead of an exception, and CREATE TABLE and
    ALTER TABLE yield an empty report. ``prefer_databases`` is the federated
    planner's replica choice (see :func:`repro.unity.decompose.decompose`);
    pass the one the query executes with so the plan-derived findings
    describe the plan that runs. The engine context ignores it."""
    config = config or DEFAULT_CONFIG
    from repro.sql.parser import parse_statement

    try:
        statement = parse_statement(sql)
    except ReproError as exc:
        return _syntax_report(exc, config)
    analyzer = _Analyzer(provider, config, sql, prefer_databases)
    if isinstance(statement, ast.Select):
        analyzer.analyze(statement)
    elif isinstance(statement, ast.CreateView):
        analyzer.analyze(statement.select)
    elif isinstance(statement, ast.Insert):
        _lint_insert(statement, analyzer)
    return LintReport(analyzer.diagnostics)


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
