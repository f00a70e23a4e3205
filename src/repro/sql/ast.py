"""SQL abstract syntax tree.

All nodes are frozen dataclasses with an ``unparse()`` that renders
canonical (vendor-neutral) SQL text. The federation layer relies on
``unparse`` to rewrite decomposed sub-queries, so round-tripping
``parse(unparse(node)) == node`` is a tested invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.common.errors import PlanningError
from repro.common.types import SQLType, sql_repr

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr:
    """Base class for expression nodes."""

    def unparse(self) -> str:  # pragma: no cover - abstract
        """Render canonical SQL text; parse(unparse(e)) is a fixed point."""
        raise NotImplementedError


@dataclass(frozen=True)
class Literal(Expr):
    value: object

    def unparse(self) -> str:
        return sql_repr(self.value)


@dataclass(frozen=True)
class Param(Expr):
    """A positional ``?`` parameter, bound at execution time."""

    index: int

    def unparse(self) -> str:
        return "?"


@dataclass(frozen=True)
class ColumnRef(Expr):
    """A possibly-qualified column reference ``table.column``."""

    column: str
    table: str | None = None

    def unparse(self) -> str:
        return f"{self.table}.{self.column}" if self.table else self.column


@dataclass(frozen=True)
class Star(Expr):
    """``*`` or ``table.*`` in a select list or COUNT(*)."""

    table: str | None = None

    def unparse(self) -> str:
        return f"{self.table}.*" if self.table else "*"


@dataclass(frozen=True)
class BinaryOp(Expr):
    op: str
    left: Expr
    right: Expr

    def unparse(self) -> str:
        return f"({self.left.unparse()} {self.op} {self.right.unparse()})"


@dataclass(frozen=True)
class UnaryOp(Expr):
    op: str  # 'NOT' or '-'
    operand: Expr

    def unparse(self) -> str:
        if self.op == "NOT":
            return f"(NOT {self.operand.unparse()})"
        return f"({self.op}{self.operand.unparse()})"


@dataclass(frozen=True)
class FunctionCall(Expr):
    name: str
    args: tuple[Expr, ...]
    distinct: bool = False

    def unparse(self) -> str:
        inner = ", ".join(a.unparse() for a in self.args)
        if self.distinct:
            inner = f"DISTINCT {inner}"
        return f"{self.name}({inner})"


@dataclass(frozen=True)
class IsNull(Expr):
    operand: Expr
    negated: bool = False

    def unparse(self) -> str:
        tail = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand.unparse()} {tail})"


@dataclass(frozen=True)
class InList(Expr):
    operand: Expr
    items: tuple[Expr, ...]
    negated: bool = False

    def unparse(self) -> str:
        op = "NOT IN" if self.negated else "IN"
        inner = ", ".join(i.unparse() for i in self.items)
        return f"({self.operand.unparse()} {op} ({inner}))"


@dataclass(frozen=True)
class Between(Expr):
    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False

    def unparse(self) -> str:
        op = "NOT BETWEEN" if self.negated else "BETWEEN"
        return f"({self.operand.unparse()} {op} {self.low.unparse()} AND {self.high.unparse()})"


@dataclass(frozen=True)
class Like(Expr):
    operand: Expr
    pattern: Expr
    negated: bool = False

    def unparse(self) -> str:
        op = "NOT LIKE" if self.negated else "LIKE"
        return f"({self.operand.unparse()} {op} {self.pattern.unparse()})"


@dataclass(frozen=True)
class Case(Expr):
    whens: tuple[tuple[Expr, Expr], ...]
    else_: Expr | None = None

    def unparse(self) -> str:
        parts = ["CASE"]
        for cond, result in self.whens:
            parts.append(f"WHEN {cond.unparse()} THEN {result.unparse()}")
        if self.else_ is not None:
            parts.append(f"ELSE {self.else_.unparse()}")
        parts.append("END")
        return " ".join(parts)


@dataclass(frozen=True)
class Cast(Expr):
    operand: Expr
    target: SQLType

    def unparse(self) -> str:
        return f"CAST({self.operand.unparse()} AS {self.target})"


@dataclass(frozen=True)
class ScalarSubquery(Expr):
    """A parenthesized SELECT used as a scalar value (non-correlated)."""

    select: "Select"

    def unparse(self) -> str:
        return f"({self.select.unparse()})"


@dataclass(frozen=True)
class InSubquery(Expr):
    """``expr [NOT] IN (SELECT ...)`` (non-correlated)."""

    operand: Expr
    select: "Select"
    negated: bool = False

    def unparse(self) -> str:
        op = "NOT IN" if self.negated else "IN"
        return f"({self.operand.unparse()} {op} ({self.select.unparse()}))"


@dataclass(frozen=True)
class Exists(Expr):
    """``[NOT] EXISTS (SELECT ...)`` (non-correlated)."""

    select: "Select"
    negated: bool = False

    def unparse(self) -> str:
        op = "NOT EXISTS" if self.negated else "EXISTS"
        return f"({op} ({self.select.unparse()}))"


AGGREGATE_FUNCTIONS = frozenset(
    {"COUNT", "SUM", "AVG", "MIN", "MAX", "STDDEV", "VARIANCE"}
)


def is_aggregate_call(expr: Expr) -> bool:
    """True if ``expr`` itself is an aggregate function call."""
    return isinstance(expr, FunctionCall) and expr.name.upper() in AGGREGATE_FUNCTIONS


def contains_aggregate(expr: Expr) -> bool:
    """True if any node under ``expr`` is an aggregate function call."""
    return any(is_aggregate_call(node) for node in walk(expr))


#: the node types that embed a subquery
SUBQUERY_NODES = (ScalarSubquery, InSubquery, Exists)


def contains_subquery(expr: Expr) -> bool:
    """True if any node under ``expr`` embeds a subquery."""
    return any(isinstance(node, SUBQUERY_NODES) for node in walk(expr))


def _case_children(expr: Case) -> tuple[Expr, ...]:
    out = [node for pair in expr.whens for node in pair]
    if expr.else_ is not None:
        out.append(expr.else_)
    return tuple(out)


def _case_rebuilt(expr: Case, children: tuple[Expr, ...]) -> Case:
    n = 2 * len(expr.whens)
    whens = tuple(zip(children[0:n:2], children[1:n:2]))
    return Case(whens, children[n] if expr.else_ is not None else None)


#: node type -> (its child expressions, the node rebuilt over new ones);
#: a type not listed is a leaf
_SHAPES = {
    BinaryOp: (lambda e: (e.left, e.right), lambda e, c: BinaryOp(e.op, *c)),
    UnaryOp: (lambda e: (e.operand,), lambda e, c: UnaryOp(e.op, *c)),
    FunctionCall: (lambda e: e.args, lambda e, c: FunctionCall(e.name, c, e.distinct)),
    IsNull: (lambda e: (e.operand,), lambda e, c: IsNull(*c, e.negated)),
    InList: (
        lambda e: (e.operand, *e.items), lambda e, c: InList(c[0], c[1:], e.negated)
    ),
    Between: (
        lambda e: (e.operand, e.low, e.high), lambda e, c: Between(*c, e.negated)
    ),
    Like: (lambda e: (e.operand, e.pattern), lambda e, c: Like(*c, e.negated)),
    Case: (_case_children, _case_rebuilt),
    Cast: (lambda e: (e.operand,), lambda e, c: Cast(*c, e.target)),
    InSubquery: (
        lambda e: (e.operand,), lambda e, c: InSubquery(*c, e.select, e.negated)
    ),
}


def _children(expr: Expr) -> tuple[Expr, ...]:
    shape = _SHAPES.get(type(expr))
    return () if shape is None else shape[0](expr)


def walk(expr: Expr):
    """Yield ``expr`` and every descendant, pre-order."""
    yield expr
    for child in _children(expr):
        yield from walk(child)


def transform(expr: Expr, fn) -> Expr:
    """Rebuild ``expr`` top-down through ``fn``.

    ``fn(node)`` returns the node's replacement, which is used as it is,
    or None to keep the node and transform its children (the ones
    :func:`walk` visits). A node whose children all come back unchanged
    is returned itself.
    """
    replacement = fn(expr)
    if replacement is not None:
        return replacement
    children = _children(expr)
    if not children:
        return expr
    rebuilt = tuple(transform(child, fn) for child in children)
    if all(new is old for new, old in zip(rebuilt, children)):
        return expr
    return _SHAPES[type(expr)][1](expr, rebuilt)


def conjuncts(expr: Expr | None) -> list[Expr]:
    """The AND-ed terms of a WHERE or ON clause; ``[]`` for no clause."""
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return conjuncts(expr.left) + conjuncts(expr.right)
    return [expr]


def conjoin(terms) -> Expr | None:
    """The left-deep AND of ``terms``; None for no terms."""
    out = None
    for term in terms:
        out = term if out is None else BinaryOp("AND", out, term)
    return out


#: the only node kinds output-name expansion descends into
_ALIAS_SCOPE = (BinaryOp, UnaryOp, IsNull, Between)


def expand_output_names(expr: Expr, names: dict[str, Expr]) -> Expr:
    """Replace unqualified refs to output names (``Select.output_names``)
    with the select items they name, as HAVING and ORDER BY of a grouped
    query resolve them: ``HAVING n > 1`` for ``COUNT(*) AS n``. Only
    comparisons, arithmetic, NOT/negation, IS NULL and BETWEEN are
    searched; a ref inside a function call or CASE is left alone."""

    def expand(node: Expr) -> Expr | None:
        if isinstance(node, ColumnRef):
            return names.get(node.column.lower(), node) if node.table is None else node
        return None if isinstance(node, _ALIAS_SCOPE) else node

    return transform(expr, expand)


def _is_position(expr: Expr) -> bool:
    return isinstance(expr, Literal) and type(expr.value) is int


def position_index(expr: Expr, width: int, clause: str) -> int | None:
    """The 0-based output column a GROUP BY or ORDER BY term names when
    it is a bare integer literal, as sqlite3 and MySQL read it: ``ORDER
    BY 1`` sorts by the first column. None for any other term, so
    ``1.5`` and ``1 + 0`` are constants. A position below 1 or past
    ``width`` raises :class:`~repro.common.errors.PlanningError`, as
    sqlite3 refuses it."""
    if not _is_position(expr):
        return None
    if not 1 <= expr.value <= width:
        raise PlanningError(
            f"{clause} position {expr.value} is not in the select list "
            f"(1 to {width})"
        )
    return expr.value - 1


def resolve_positions(select: Select, expand_star) -> Select:
    """``select`` with each GROUP BY or ORDER BY term that is a position
    (:func:`position_index`) replaced by the select item there. A star
    counts as the column refs ``expand_star(star)`` lists."""
    terms = (*select.group_by, *(o.expr for o in select.order_by))
    if not any(map(_is_position, terms)):
        return select
    items: list[Expr] = []
    for item in select.items:
        items.extend(expand_star(item.expr) if isinstance(item.expr, Star) else [item.expr])

    def at(expr: Expr, clause: str) -> Expr:
        index = position_index(expr, len(items), clause)
        return expr if index is None else items[index]

    return replace(
        select,
        group_by=tuple(at(g, "GROUP BY") for g in select.group_by),
        order_by=tuple(
            replace(o, expr=at(o.expr, "ORDER BY")) for o in select.order_by
        ),
    )


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Statement:
    """Base class for statement nodes."""

    def unparse(self) -> str:  # pragma: no cover - abstract
        """Render canonical SQL text; parse(unparse(s)) is a fixed point."""
        raise NotImplementedError


@dataclass(frozen=True)
class TableRef:
    """A table in a FROM clause, with optional alias."""

    name: str
    alias: str | None = None

    @property
    def binding(self) -> str:
        """The name this table is visible as inside the query."""
        return self.alias or self.name

    def unparse(self) -> str:
        return f"{self.name} AS {self.alias}" if self.alias else self.name


@dataclass(frozen=True)
class Join:
    kind: str  # 'INNER', 'LEFT', 'CROSS'
    table: TableRef
    on: Expr | None = None

    def unparse(self) -> str:
        head = f"{self.kind} JOIN {self.table.unparse()}"
        if self.on is not None:
            head += f" ON {self.on.unparse()}"
        return head


@dataclass(frozen=True)
class SelectItem:
    expr: Expr
    alias: str | None = None

    def unparse(self) -> str:
        text = self.expr.unparse()
        return f"{text} AS {self.alias}" if self.alias else text

    def output_name(self, ordinal: int) -> str:
        """The column name this item produces in the result set."""
        if self.alias:
            return self.alias
        if isinstance(self.expr, ColumnRef):
            return self.expr.column
        return f"col{ordinal}"


@dataclass(frozen=True)
class OrderItem:
    expr: Expr
    ascending: bool = True

    def unparse(self) -> str:
        return f"{self.expr.unparse()} {'ASC' if self.ascending else 'DESC'}"


@dataclass(frozen=True)
class Select(Statement):
    items: tuple[SelectItem, ...]
    from_: tuple[TableRef, ...] = ()
    joins: tuple[Join, ...] = ()
    where: Expr | None = None
    group_by: tuple[Expr, ...] = ()
    having: Expr | None = None
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None
    offset: int | None = None
    distinct: bool = False

    def unparse(self) -> str:
        parts = ["SELECT"]
        if self.distinct:
            parts.append("DISTINCT")
        parts.append(", ".join(item.unparse() for item in self.items))
        if self.from_:
            parts.append("FROM")
            parts.append(", ".join(t.unparse() for t in self.from_))
        for join in self.joins:
            parts.append(join.unparse())
        if self.where is not None:
            parts.append(f"WHERE {self.where.unparse()}")
        if self.group_by:
            parts.append("GROUP BY " + ", ".join(g.unparse() for g in self.group_by))
        if self.having is not None:
            parts.append(f"HAVING {self.having.unparse()}")
        if self.order_by:
            parts.append("ORDER BY " + ", ".join(o.unparse() for o in self.order_by))
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        if self.offset is not None:
            parts.append(f"OFFSET {self.offset}")
        return " ".join(parts)

    def referenced_tables(self) -> list[TableRef]:
        """Every table this query touches (FROM list plus joins)."""
        return list(self.from_) + [j.table for j in self.joins]

    @property
    def is_grouped(self) -> bool:
        """True when the query aggregates: GROUP BY, HAVING, or an
        aggregate call in the select list."""
        return (
            bool(self.group_by)
            or self.having is not None
            or any(contains_aggregate(item.expr) for item in self.items)
        )

    def clauses(self) -> list[Expr]:
        """Every expression of this SELECT, in planning order: select
        items (stars too), WHERE, HAVING, join ON clauses, GROUP BY and
        ORDER BY. Subqueries stay unexpanded."""
        out: list[Expr] = [item.expr for item in self.items]
        if self.where is not None:
            out.append(self.where)
        if self.having is not None:
            out.append(self.having)
        out.extend(j.on for j in self.joins if j.on is not None)
        out.extend(self.group_by)
        out.extend(o.expr for o in self.order_by)
        return out

    def param_order(self) -> tuple[int, ...]:
        """The index each ``?`` of :meth:`unparse`'s text carries, in
        text order, subqueries included. A parser numbers the ``?`` of
        that text from 0, so this maps its parameters to the indexes of
        the query this SELECT was cut from."""
        out: list[int] = []

        def visit(expr: Expr) -> None:
            if isinstance(expr, Param):
                out.append(expr.index)
            for child in _children(expr):
                visit(child)
            if isinstance(expr, SUBQUERY_NODES):
                out.extend(expr.select.param_order())

        for item in self.items:
            visit(item.expr)
        for join in self.joins:
            if join.on is not None:
                visit(join.on)
        for expr in (self.where, *self.group_by, self.having):
            if expr is not None:
                visit(expr)
        for item in self.order_by:
            visit(item.expr)
        return tuple(out)

    def output_names(self) -> dict[str, Expr]:
        """Lower-cased output name -> select item expression (stars
        skipped; the first item of a repeated name wins)."""
        names: dict[str, Expr] = {}
        for ordinal, item in enumerate(self.items, start=1):
            if not isinstance(item.expr, Star):
                names.setdefault(item.output_name(ordinal).lower(), item.expr)
        return names


@dataclass(frozen=True)
class ColumnDef:
    name: str
    type: SQLType
    not_null: bool = False
    primary_key: bool = False
    default: object = None
    has_default: bool = False

    def unparse(self) -> str:
        parts = [self.name, str(self.type)]
        if self.primary_key:
            parts.append("PRIMARY KEY")
        if self.not_null and not self.primary_key:
            parts.append("NOT NULL")
        if self.has_default:
            parts.append(f"DEFAULT {sql_repr(self.default)}")
        return " ".join(parts)


@dataclass(frozen=True)
class CreateTable(Statement):
    name: str
    columns: tuple[ColumnDef, ...]

    def unparse(self) -> str:
        cols = ", ".join(c.unparse() for c in self.columns)
        return f"CREATE TABLE {self.name} ({cols})"


@dataclass(frozen=True)
class CreateView(Statement):
    name: str
    select: Select

    def unparse(self) -> str:
        return f"CREATE VIEW {self.name} AS {self.select.unparse()}"


@dataclass(frozen=True)
class Insert(Statement):
    table: str
    columns: tuple[str, ...] = ()
    rows: tuple[tuple[Expr, ...], ...] = ()

    def unparse(self) -> str:
        head = f"INSERT INTO {self.table}"
        if self.columns:
            head += f" ({', '.join(self.columns)})"
        rows = ", ".join(
            "(" + ", ".join(v.unparse() for v in row) + ")" for row in self.rows
        )
        return f"{head} VALUES {rows}"


@dataclass(frozen=True)
class AlterTable(Statement):
    """ALTER TABLE ... ADD COLUMN."""

    table: str
    column: ColumnDef

    def unparse(self) -> str:
        return f"ALTER TABLE {self.table} ADD COLUMN {self.column.unparse()}"
