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

from dataclasses import dataclass, field, replace
from functools import cached_property

from repro.common.errors import PlanningError, SQLTypeError
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

    # the texts and the parameter order are computed once per sub-query
    # (``cached_property`` writes the instance dict, which a frozen,
    # non-slots dataclass allows)

    @cached_property
    def sql(self) -> str:
        """The physical sub-query text."""
        return self.select.unparse()

    @cached_property
    def logical_sql(self) -> str:
        if self.logical_select is None:
            raise PlanningError(f"sub-query for {self.binding!r} has no logical form")
        return self.logical_select.unparse()

    @cached_property
    def _param_order(self) -> tuple[int, ...]:
        # the physical and logical forms hold the same expressions in
        # the same order, so their ``?`` line up
        return self.select.param_order()

    def own_params(self, params: tuple) -> tuple:
        """The values of this sub-query's own ``?``, in the order they
        appear in :attr:`sql` and :attr:`logical_sql`, picked from the
        client query's ``params``: what a server that parses either text
        must be sent, and all its result depends on."""
        try:
            return tuple(params[i] for i in self._param_order)
        except IndexError:
            raise SQLTypeError(
                f"statement requires parameter {max(self._param_order) + 1}, "
                f"got {len(params)}"
            ) from None


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

    for clause in select.clauses():
        mark_needed(clause)

    # Join keys must travel even if no output needs them; ensure at least
    # one column per binding so SELECT COUNT(*) style queries still fetch.
    for b in bindings.values():
        if not b.needed:
            b.need(b.location.table.columns[0].logical_name)

    urls = {b.location.url for b in bindings.values()}
    databases = tuple(sorted({b.location.database_name for b in bindings.values()}))

    # -- single-database plan: push the whole query down --------------------------------

    if len(urls) == 1:
        rewritten = _rewrite_whole(select, bindings, binding_of_column)
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
            if ast.is_aggregate_call(node) or isinstance(node, ast.Star):
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
        pushed = tuple(pushable[b.name]) if pushdown else ()
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
                    where=ast.conjoin(_translate_to_physical(c, b) for c in pushed),
                ),
                pushed_conjuncts=pushed,
                logical_select=ast.Select(
                    items=tuple(
                        ast.SelectItem(expr=ast.ColumnRef(column=logical))
                        for logical in b.needed
                    ),
                    from_=(ast.TableRef(name=b.ref.name, alias=logical_alias),),
                    where=ast.conjoin(pushed),
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
    if any(ast.contains_subquery(clause) for clause in select.clauses()):
        raise PlanningError(
            "subqueries are not supported in federated queries; "
            "run them directly on one database"
        )


def _choose_location(
    dictionary: DataDictionary, logical_table: str, preferred_db: str | None
) -> TableLocation:
    for loc in dictionary.locations(logical_table):
        if loc.database_name == preferred_db:
            return loc
    return dictionary.locate(logical_table)


def _integration_select(select: ast.Select) -> ast.Select:
    """The original query re-targeted at the scratch tables.

    Scratch tables are named by binding and keep logical column names,
    so only the FROM/JOIN table names change; expressions stay intact.
    """
    return replace(
        select,
        from_=tuple(ast.TableRef(name=t.binding) for t in select.from_),
        joins=tuple(
            ast.Join(kind=j.kind, table=ast.TableRef(name=j.table.binding), on=j.on)
            for j in select.joins
        ),
    )


def _translate_to_physical(expr: ast.Expr, b: _Binding) -> ast.Expr:
    """Rewrite a pushed conjunct into the binding's physical names."""

    def physical(node: ast.Expr) -> ast.Expr | None:
        if isinstance(node, ast.ColumnRef):
            return ast.ColumnRef(column=b.location.physical_column(node.column))
        return None

    return ast.transform(expr, physical)


def _rewrite_whole(select: ast.Select, bindings: dict[str, "_Binding"], owner_of) -> ast.Select:
    """Single-database pushdown: logical names → physical names everywhere.

    Scratch-free: the rewritten query runs directly on the backend. The
    select list is given explicit logical aliases so the result comes
    back with logical column names regardless of physical naming.
    ``owner_of(ref)`` is the binding a column ref reads (None for an
    output-alias ref).
    """

    def physical(node: ast.Expr) -> ast.Expr | None:
        if not isinstance(node, ast.ColumnRef):
            return None
        owner = owner_of(node)
        if owner is None:
            return node  # an output alias; the backend resolves it
        return ast.ColumnRef(
            column=owner.location.physical_column(node.column), table=node.table
        )

    def rewrite(expr: ast.Expr) -> ast.Expr:
        return ast.transform(expr, physical)

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

    return replace(
        select,
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
    )
