"""Query decomposition: logical SQL → per-database sub-queries.

The decomposer never executes anything; it is a pure function from
(Select, DataDictionary) to a :class:`DecomposedQuery`, which makes it
the most heavily property-tested module in the middleware (federated
execution must equal single-engine execution on the union of data).

Predicate pushdown rules (correctness first — every pushed predicate is
*also* kept in the integration query, so pushdown can only shrink
sub-results, never change the final answer):

* a WHERE conjunct referencing exactly one binding is pushed to it;
* an INNER JOIN ON conjunct referencing exactly one binding is pushed;
* a LEFT JOIN ON conjunct is pushed only when that binding is the
  *right* side (pre-filtering the left side would drop rows the outer
  join must pad).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import PlanningError
from repro.metadata.dictionary import DataDictionary, TableLocation
from repro.sql import ast


@dataclass(frozen=True)
class SubQuery:
    """One per-database fetch.

    ``select`` is in the target database's *physical* names and runs
    directly on it; ``logical_select`` is the same fetch in logical
    names, suitable for forwarding to a remote JClarens server that
    hosts the table (the remote decomposes it against its own
    dictionary).
    """

    binding: str  # the alias/name this table is visible as in the query
    location: TableLocation
    select: ast.Select
    pushed_conjuncts: tuple[ast.Expr, ...] = ()
    logical_select: ast.Select | None = None

    @property
    def sql(self) -> str:
        """The physical sub-query text."""
        return self.select.unparse()

    @property
    def logical_sql(self) -> str:
        if self.logical_select is None:
            raise PlanningError(f"sub-query for {self.binding!r} has no logical form")
        return self.logical_select.unparse()


@dataclass(frozen=True)
class DecomposedQuery:
    """The full decomposition plan."""

    original: ast.Select
    kind: str  # 'single' (whole query on one database) or 'federated'
    subqueries: tuple[SubQuery, ...]
    integration: ast.Select | None  # None for 'single'
    databases: tuple[str, ...]  # participating database names, sorted

    @property
    def is_distributed(self) -> bool:
        """True when the plan spans more than one database."""
        return len(self.databases) > 1


@dataclass
class _Binding:
    name: str  # lower-cased binding
    ref: ast.TableRef
    location: TableLocation
    needed: dict[str, None] = field(default_factory=dict)  # ordered set of logical cols

    def need(self, logical_column: str) -> None:
        """Mark one logical column as fetched by this binding."""
        self.needed.setdefault(logical_column.lower())

    def need_all(self) -> None:
        """Mark every column of the table as fetched."""
        for col in self.location.table.columns:
            self.need(col.logical_name)


def decompose(
    select: ast.Select,
    dictionary: DataDictionary,
    pushdown: bool = True,
    prefer_databases: dict[str, str] | None = None,
) -> DecomposedQuery:
    """Plan the federated execution of ``select``.

    ``prefer_databases`` maps logical table → database name, letting the
    caller pin replicated tables to specific marts (the router uses it
    to keep work local).
    """
    if not select.from_:
        raise PlanningError("federated query requires a FROM clause")
    _reject_subqueries(select)
    prefer = {k.lower(): v for k, v in (prefer_databases or {}).items()}

    bindings: dict[str, _Binding] = {}
    for ref in select.referenced_tables():
        key = ref.binding.lower()
        if key in bindings:
            raise PlanningError(f"duplicate table binding {ref.binding!r}")
        location = _choose_location(dictionary, ref.name, prefer.get(ref.name.lower()))
        bindings[key] = _Binding(name=key, ref=ref, location=location)

    alias_names = {
        item.alias.lower() for item in select.items if item.alias is not None
    }

    # -- column usage analysis ------------------------------------------------------

    def binding_of_column(ref: ast.ColumnRef) -> _Binding | None:
        """Owning binding, or None when the ref is an output-alias ref."""
        if ref.table is not None:
            b = bindings.get(ref.table.lower())
            if b is None:
                raise PlanningError(
                    f"qualifier {ref.table!r} does not match any table in the query"
                )
            if b.location.table.column_by_logical(ref.column) is None:
                raise PlanningError(
                    f"table {b.ref.name!r} has no logical column {ref.column!r}"
                )
            return b
        owners = [
            b
            for b in bindings.values()
            if b.location.table.column_by_logical(ref.column) is not None
        ]
        if len(owners) > 1:
            raise PlanningError(
                f"unqualified column {ref.column!r} is ambiguous across "
                f"{sorted(b.ref.binding for b in owners)}"
            )
        if not owners:
            if ref.column.lower() in alias_names:
                return None  # resolves against the select list at integration
            raise PlanningError(f"column {ref.column!r} is not in any queried table")
        return owners[0]

    def mark_needed(expr: ast.Expr) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.ColumnRef):
                owner = binding_of_column(node)
                if owner is not None:
                    owner.need(node.column)
            elif isinstance(node, ast.Star):
                if node.table is None:
                    for b in bindings.values():
                        b.need_all()
                else:
                    b = bindings.get(node.table.lower())
                    if b is None:
                        raise PlanningError(
                            f"qualifier {node.table!r} in '*' does not match any table"
                        )
                    b.need_all()

    for item in select.items:
        mark_needed(item.expr)
    for clause in (select.where, select.having):
        if clause is not None:
            mark_needed(clause)
    for join in select.joins:
        if join.on is not None:
            mark_needed(join.on)
    for g in select.group_by:
        mark_needed(g)
    for o in select.order_by:
        mark_needed(o.expr)

    # Join keys must travel even if no output needs them; ensure at least
    # one column per binding so SELECT COUNT(*) style queries still fetch.
    for b in bindings.values():
        if not b.needed:
            b.need(b.location.table.columns[0].logical_name)

    urls = {b.location.url for b in bindings.values()}
    databases = tuple(sorted({b.location.database_name for b in bindings.values()}))

    # -- single-database plan: push the whole query down --------------------------------

    if len(urls) == 1:
        rewritten = _rewrite_whole(select, bindings)
        only = next(iter(bindings.values()))
        # The logical form of a whole-query pushdown is the original
        # query itself: a remote server re-plans it against its own
        # dictionary when the plan is forwarded.
        sub = SubQuery(
            binding="*",
            location=only.location,
            select=rewritten,
            logical_select=select,
        )
        return DecomposedQuery(
            original=select,
            kind="single",
            subqueries=(sub,),
            integration=None,
            databases=databases,
        )

    # -- federated plan ---------------------------------------------------------------

    pushable: dict[str, list[ast.Expr]] = {b.name: [] for b in bindings.values()}

    def single_binding(expr: ast.Expr) -> _Binding | None:
        """The one binding this conjunct touches, else None."""
        found: set[str] = set()
        for node in ast.walk(expr):
            if isinstance(node, ast.FunctionCall) and node.name.upper() in ast.AGGREGATE_FUNCTIONS:
                return None
            if isinstance(node, ast.Star):
                return None
            if isinstance(node, ast.ColumnRef):
                owner = binding_of_column(node)
                if owner is None:
                    return None
                found.add(owner.name)
        if len(found) == 1:
            return bindings[found.pop()]
        return None

    if pushdown:
        for conj in ast.conjuncts(select.where):
            owner = single_binding(conj)
            if owner is not None:
                pushable[owner.name].append(conj)
        for join in select.joins:
            right_binding = join.table.binding.lower()
            for conj in ast.conjuncts(join.on):
                owner = single_binding(conj)
                if owner is None:
                    continue
                if join.kind == "INNER" or owner.name == right_binding:
                    pushable[owner.name].append(conj)

    subqueries = []
    for b in bindings.values():
        if not pushdown:
            b.need_all()
        items = tuple(
            ast.SelectItem(
                expr=ast.ColumnRef(column=b.location.physical_column(logical)),
                alias=logical,
            )
            for logical in b.needed
        )
        where = None
        pushed = tuple(pushable[b.name]) if pushdown else ()
        if pushed:
            translated = [_translate_to_physical(c, b) for c in pushed]
            where = translated[0]
            for extra in translated[1:]:
                where = ast.BinaryOp("AND", where, extra)
        logical_where = None
        for conj in pushed:
            logical_where = (
                conj if logical_where is None else ast.BinaryOp("AND", logical_where, conj)
            )
        logical_alias = (
            b.ref.binding if b.ref.binding.lower() != b.ref.name.lower() else None
        )
        subqueries.append(
            SubQuery(
                binding=b.ref.binding,
                location=b.location,
                select=ast.Select(
                    items=items,
                    from_=(ast.TableRef(name=b.location.physical_name),),
                    where=where,
                ),
                pushed_conjuncts=pushed,
                logical_select=ast.Select(
                    items=tuple(
                        ast.SelectItem(expr=ast.ColumnRef(column=logical))
                        for logical in b.needed
                    ),
                    from_=(ast.TableRef(name=b.ref.name, alias=logical_alias),),
                    where=logical_where,
                ),
            )
        )

    integration = _integration_select(select)
    return DecomposedQuery(
        original=select,
        kind="federated",
        subqueries=tuple(subqueries),
        integration=integration,
        databases=databases,
    )


def _reject_subqueries(select: ast.Select) -> None:
    """Subqueries are engine-level only; the federated planner cannot
    decompose an inner SELECT whose tables live elsewhere."""
    clauses: list[ast.Expr] = [item.expr for item in select.items]
    if select.where is not None:
        clauses.append(select.where)
    if select.having is not None:
        clauses.append(select.having)
    clauses.extend(j.on for j in select.joins if j.on is not None)
    clauses.extend(select.group_by)
    clauses.extend(o.expr for o in select.order_by)
    for clause in clauses:
        if ast.contains_subquery(clause):
            raise PlanningError(
                "subqueries are not supported in federated queries; "
                "run them directly on one database"
            )


def _choose_location(
    dictionary: DataDictionary, logical_table: str, preferred_db: str | None
) -> TableLocation:
    locations = dictionary.locations(logical_table)
    if not locations:
        from repro.common.errors import TableNotRegisteredError

        raise TableNotRegisteredError(logical_table)
    if preferred_db is not None:
        for loc in locations:
            if loc.database_name == preferred_db:
                return loc
    return locations[0]


def _integration_select(select: ast.Select) -> ast.Select:
    """The original query re-targeted at the scratch tables.

    Scratch tables are named by binding and keep logical column names,
    so only the FROM/JOIN table names change; expressions stay intact.
    """
    from_ = tuple(ast.TableRef(name=t.binding) for t in select.from_)
    joins = tuple(
        ast.Join(kind=j.kind, table=ast.TableRef(name=j.table.binding), on=j.on)
        for j in select.joins
    )
    return ast.Select(
        items=select.items,
        from_=from_,
        joins=joins,
        where=select.where,
        group_by=select.group_by,
        having=select.having,
        order_by=select.order_by,
        limit=select.limit,
        offset=select.offset,
        distinct=select.distinct,
    )


def _translate_to_physical(expr: ast.Expr, b: _Binding) -> ast.Expr:
    """Rewrite a pushed conjunct into the binding's physical names."""
    if isinstance(expr, ast.ColumnRef):
        return ast.ColumnRef(column=b.location.physical_column(expr.column))
    if isinstance(expr, ast.BinaryOp):
        return ast.BinaryOp(
            expr.op,
            _translate_to_physical(expr.left, b),
            _translate_to_physical(expr.right, b),
        )
    if isinstance(expr, ast.UnaryOp):
        return ast.UnaryOp(expr.op, _translate_to_physical(expr.operand, b))
    if isinstance(expr, ast.IsNull):
        return ast.IsNull(_translate_to_physical(expr.operand, b), expr.negated)
    if isinstance(expr, ast.InList):
        return ast.InList(
            _translate_to_physical(expr.operand, b),
            tuple(_translate_to_physical(i, b) for i in expr.items),
            expr.negated,
        )
    if isinstance(expr, ast.Between):
        return ast.Between(
            _translate_to_physical(expr.operand, b),
            _translate_to_physical(expr.low, b),
            _translate_to_physical(expr.high, b),
            expr.negated,
        )
    if isinstance(expr, ast.Like):
        return ast.Like(
            _translate_to_physical(expr.operand, b),
            _translate_to_physical(expr.pattern, b),
            expr.negated,
        )
    if isinstance(expr, ast.Case):
        return ast.Case(
            tuple(
                (_translate_to_physical(c, b), _translate_to_physical(r, b))
                for c, r in expr.whens
            ),
            _translate_to_physical(expr.else_, b) if expr.else_ else None,
        )
    if isinstance(expr, ast.Cast):
        return ast.Cast(_translate_to_physical(expr.operand, b), expr.target)
    if isinstance(expr, ast.FunctionCall):
        return ast.FunctionCall(
            expr.name,
            tuple(_translate_to_physical(a, b) for a in expr.args),
            expr.distinct,
        )
    return expr  # literals, params


def _rewrite_whole(select: ast.Select, bindings: dict[str, "_Binding"]) -> ast.Select:
    """Single-database pushdown: logical names → physical names everywhere.

    Scratch-free: the rewritten query runs directly on the backend. The
    select list is given explicit logical aliases so the result comes
    back with logical column names regardless of physical naming.
    """

    def owner_for(ref: ast.ColumnRef) -> _Binding | None:
        if ref.table is not None:
            return bindings.get(ref.table.lower())
        owners = [
            b
            for b in bindings.values()
            if b.location.table.column_by_logical(ref.column) is not None
        ]
        return owners[0] if len(owners) == 1 else None

    def rewrite(expr: ast.Expr) -> ast.Expr:
        if isinstance(expr, ast.ColumnRef):
            owner = owner_for(expr)
            if owner is None:
                return expr  # alias ref or genuinely unknown; backend decides
            return ast.ColumnRef(
                column=owner.location.physical_column(expr.column),
                table=expr.table,
            )
        if isinstance(expr, ast.BinaryOp):
            return ast.BinaryOp(expr.op, rewrite(expr.left), rewrite(expr.right))
        if isinstance(expr, ast.UnaryOp):
            return ast.UnaryOp(expr.op, rewrite(expr.operand))
        if isinstance(expr, ast.IsNull):
            return ast.IsNull(rewrite(expr.operand), expr.negated)
        if isinstance(expr, ast.InList):
            return ast.InList(
                rewrite(expr.operand), tuple(rewrite(i) for i in expr.items), expr.negated
            )
        if isinstance(expr, ast.Between):
            return ast.Between(
                rewrite(expr.operand), rewrite(expr.low), rewrite(expr.high), expr.negated
            )
        if isinstance(expr, ast.Like):
            return ast.Like(rewrite(expr.operand), rewrite(expr.pattern), expr.negated)
        if isinstance(expr, ast.Case):
            return ast.Case(
                tuple((rewrite(c), rewrite(r)) for c, r in expr.whens),
                rewrite(expr.else_) if expr.else_ else None,
            )
        if isinstance(expr, ast.Cast):
            return ast.Cast(rewrite(expr.operand), expr.target)
        if isinstance(expr, ast.FunctionCall):
            return ast.FunctionCall(
                expr.name, tuple(rewrite(a) for a in expr.args), expr.distinct
            )
        return expr

    def rewrite_table(ref: ast.TableRef) -> ast.TableRef:
        b = bindings[ref.binding.lower()]
        # Alias keeps the original binding so qualified refs still resolve.
        return ast.TableRef(name=b.location.physical_name, alias=ref.binding)

    items = []
    for ordinal, item in enumerate(select.items, start=1):
        if isinstance(item.expr, ast.Star):
            items.append(item)
            continue
        alias = item.alias
        if alias is None and isinstance(item.expr, ast.ColumnRef):
            alias = item.expr.column  # keep the logical output name
        items.append(ast.SelectItem(rewrite(item.expr), alias))

    return ast.Select(
        items=tuple(items),
        from_=tuple(rewrite_table(t) for t in select.from_),
        joins=tuple(
            ast.Join(
                kind=j.kind,
                table=rewrite_table(j.table),
                on=rewrite(j.on) if j.on is not None else None,
            )
            for j in select.joins
        ),
        where=rewrite(select.where) if select.where is not None else None,
        group_by=tuple(rewrite(g) for g in select.group_by),
        having=rewrite(select.having) if select.having is not None else None,
        order_by=tuple(
            ast.OrderItem(rewrite(o.expr), o.ascending) for o in select.order_by
        ),
        limit=select.limit,
        offset=select.offset,
        distinct=select.distinct,
    )
