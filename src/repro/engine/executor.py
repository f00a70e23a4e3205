"""SELECT execution against a table resolver.

The executor is deliberately a *materializing* vector executor: each
stage consumes and produces lists of row tuples. At the scales the paper
evaluates (~80 k rows across 6 databases) this is faster in CPython than
a pull-based iterator tree, and it keeps the stage boundaries — scan,
join, filter, aggregate, sort, project — easy to cost-model and test.

Access path: a single-table SELECT whose WHERE bounds the table's
numeric primary key (``=``, ``<``, ``<=``, ``>``, ``>=``, ``BETWEEN`` against
an int or float literal or parameter) reads only the rows a bisect of
the table's sorted index selects, in storage order; the full WHERE
predicate then runs on them. ``ExecStats.rows_examined`` stays the
logical count a scan would examine — it is what the simulated cost
model charges — and ``ExecStats.rows_visited`` counts the rows actually
touched. A row outside the key range is never evaluated, so a per-row
error it would raise (a bad CAST, say) does not surface, as in any
index-using DBMS.

Join strategy: conjunctive equi-join predicates become hash joins
(build on the right input, probe from the left); remaining conjuncts
are applied as residual filters. Everything else falls back to a
nested-loop join. A join whose right input is a base table takes its
build side from the table, which keeps it until the table changes.
Consecutive hash joins with no residual are probed together, so only
their last stage's rows are built, and of a run that reads many rows
only the columns a plain SELECT reads.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import accumulate, count, repeat
from operator import itemgetter
from typing import Callable, NamedTuple, Protocol

from repro.common.errors import (
    ColumnNotFoundError,
    PlanningError,
    SQLTypeError,
)
from repro.common.types import SQLType
from repro.sql import ast
from repro.sql.eval import (
    RowSchema,
    SchemaColumn,
    compile_expr,
    filter_columnwise,
    truthy,
)
from repro.sql.infer import ExprTyper

#: the result type of a column whose values have no one static type
UNTYPED = SQLType.text()


class TableResolver(Protocol):
    """What the executor needs from its host database.

    A resolver may also offer ``base_table(name)``, returning a base
    table's :class:`~repro.engine.storage.TableStorage` (None for a
    view), to give the executor the table's derived indexes: its range
    index (see :func:`access_path`) and the hash-join build sides it
    keeps (see :meth:`SelectExecutor._build_side`). Without it, every
    build side is built afresh and every table is scanned.
    """

    def resolve_table(self, name: str) -> tuple[list, list[tuple]]:
        """Return (columns, rows) for a base table or view; each column
        has a ``name`` and a ``type``."""
        ...


@dataclass
class ExecStats:
    """Work counters the simulated cost model charges for.

    ``rows_examined`` is logical: an index never lowers it, so simulated
    time does not depend on the access path. ``rows_visited`` is what
    the executor physically touched.
    """

    rows_examined: int = 0
    rows_returned: int = 0
    rows_visited: int = 0
    tables_accessed: list[str] = field(default_factory=list)
    join_strategy: list[str] = field(default_factory=list)


class RowSet:
    """The 2-D result shape shared by engine results and federated
    answers: ``columns`` names over ``rows`` tuples."""

    @property
    def row_count(self) -> int:
        """Number of result rows."""
        return len(self.rows)

    def column_index(self, name: str) -> int:
        """Index of a result column by (case-insensitive) name."""
        lowered = name.lower()
        for i, c in enumerate(self.columns):
            if c.lower() == lowered:
                return i
        raise ColumnNotFoundError(name)

    def to_vector(self) -> list[list]:
        """The rows as a plain 2-D list (the paper's result shape)."""
        return [list(r) for r in self.rows]


@dataclass
class ExecResult(RowSet):
    """Outcome of one statement: a result set and/or an affected-row count."""

    columns: list[str] = field(default_factory=list)
    types: list[SQLType] = field(default_factory=list)
    rows: list[tuple] = field(default_factory=list)
    rowcount: int = 0
    stats: ExecStats = field(default_factory=ExecStats)


def equi_join_keys(conj: ast.Expr, lschema: RowSchema, rschema: RowSchema):
    """``(left_ref, right_ref)`` when ``conj`` is ``col = col`` with one
    column on each join input — a hash-join key pair — else None."""
    if not (isinstance(conj, ast.BinaryOp) and conj.op == "="):
        return None
    a, b = conj.left, conj.right
    if not (isinstance(a, ast.ColumnRef) and isinstance(b, ast.ColumnRef)):
        return None

    def side(ref: ast.ColumnRef) -> str | None:
        in_left = lschema.find(ref) is not None
        in_right = rschema.find(ref) is not None
        if in_left and not in_right:
            return "L"
        if in_right and not in_left:
            return "R"
        return None

    sa, sb = side(a), side(b)
    if sa == "L" and sb == "R":
        return a, b
    if sa == "R" and sb == "L":
        return b, a
    return None


def _split_on(on: ast.Expr | None, lschema: RowSchema, rschema: RowSchema):
    """``(left key positions, right key positions, residual conjuncts)``
    of an ON clause; None without one (a cross join)."""
    if on is None:
        return None
    left_keys: list[int] = []
    right_keys: list[int] = []
    residual: list[ast.Expr] = []
    for conj in ast.conjuncts(on):
        pair = equi_join_keys(conj, lschema, rschema)
        if pair is None:
            residual.append(conj)
        else:
            left_keys.append(lschema.resolve(pair[0]))
            right_keys.append(rschema.resolve(pair[1]))
    return left_keys, right_keys, residual


def _hash_table(rrows: list[tuple], right_keys: list[int]) -> dict:
    """The build side of a hash join: each key of ``rrows`` at positions
    ``right_keys`` to its rows in input order, as a 1-tuple per key when
    every key is distinct (a primary-key join), else a list. One key
    column keys by the value itself, several by a tuple. NULL never
    equi-joins: keys holding one are dropped, so a probe with one finds
    nothing."""
    keys = list(map(itemgetter(*right_keys), rrows))
    table: dict[object, tuple | list] = dict(zip(keys, zip(rrows)))
    if len(table) < len(rrows):
        table = {}
        for key, rr in zip(keys, rrows):
            table.setdefault(key, []).append(rr)
    if len(right_keys) == 1:
        table.pop(None, None)
    else:
        for key in [k for k in table if None in k]:
            del table[key]
    return table


class _HashStage(NamedTuple):
    """An equi-join with no residual, waiting in a run to be probed."""

    #: the build side (:func:`_hash_table`)
    table: dict
    #: the key columns' positions in the rows the stage joins onto
    keys: list[int]
    #: what a probe that finds nothing matches: nothing for an INNER
    #: join, the all-NULL pad for a LEFT one
    miss: tuple
    #: columns of the joined table
    width: int
    #: rows of the joined table, charged as its build rows
    build_rows: int


def _probe_text(
    sources: tuple[int | None, ...], picks: tuple[tuple[int, int], ...] | None
) -> str:
    """The source of :func:`_run_probe`'s function, made only of the
    integers in ``sources`` and ``picks`` and fixed names."""
    params, clauses = ["rows"], ["for p0 in rows"]
    for i, source in enumerate(sources, start=1):
        part = f"p{source}" if source is not None else " + ".join(f"p{j}" for j in range(i))
        params += [f"get{i}", f"key{i}", f"miss{i}"]
        clauses.append(f"for p{i} in get{i}(key{i}({part}), miss{i})")
        if 1 < i < len(sources):
            params.append(f"count{i}")
            clauses.append(f"if count{i}()")
    if picks is None:
        row = " + ".join(f"p{i}" for i in range(len(sources) + 1))
    else:
        row = "(" + "".join(f"p{part}[{offset}], " for part, offset in picks) + ")"
    return f"def probe({', '.join(params)}):\n    return [{row} {' '.join(clauses)}]"


#: run probes kept compiled: a bound against a client that keeps selecting
#: new column lists through a join run
_MAX_RUN_PROBES = 256

#: rows a join run reads (its input and build rows) from which it builds
#: only the columns read: finding them, the narrowed schema and probe cost
#: ~10-15 us a query and each narrowed row saves ~50-90 ns, so a smaller
#: run (a federated query's integration join reads 250-500) is built full
#: width
_NARROW_MIN_ROWS = 1024


@functools.lru_cache(maxsize=_MAX_RUN_PROBES)
def _run_probe(
    sources: tuple[int | None, ...], picks: tuple[tuple[int, int], ...] | None
) -> Callable:
    """The probe of a run of ``len(sources)`` hash-join stages, as one
    nested comprehension compiled once per run shape (the last
    :data:`_MAX_RUN_PROBES` shapes are kept). Stage ``i`` (from
    1) reads its key off part ``sources[i - 1]`` (None: parts 0 to
    ``i - 1`` joined) and iterates ``get(key(part), miss)``; each level
    from 2 to the last but one also ticks a counter, which is always
    truthy. Each output row is every part joined, or with ``picks``
    only the value at ``offset`` of part ``part`` for each
    ``(part, offset)``, in that order. The returned function takes the
    input rows, then per stage its ``get``, ``key`` and ``miss``, and
    its counter where it has one."""
    namespace: dict = {}
    exec(_probe_text(sources, picks), namespace)
    return namespace["probe"]


#: comparison operator -> the same comparison with its operands swapped
_FLIPPED = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


@dataclass(frozen=True)
class KeyRange:
    """An interval on the indexed column; a None bound is unbounded."""

    low: int | float | None = None
    low_open: bool = False
    high: int | float | None = None
    high_open: bool = False

    def narrow(self, op: str, value: int | float) -> "KeyRange":
        """The intersection with ``column op value``."""
        rng = self
        if op in ("=", ">", ">="):
            open_ = op == ">"
            if rng.low is None or value > rng.low or (value == rng.low and open_):
                rng = KeyRange(value, open_, rng.high, rng.high_open)
        if op in ("=", "<", "<="):
            open_ = op == "<"
            if rng.high is None or value < rng.high or (value == rng.high and open_):
                rng = KeyRange(rng.low, rng.low_open, value, open_)
        return rng

    def slice(self, keys: list) -> tuple[int, int]:
        """``keys[start:stop]`` is the part of sorted ``keys`` in range."""
        start = 0
        if self.low is not None:
            find = bisect.bisect_right if self.low_open else bisect.bisect_left
            start = find(keys, self.low)
        stop = len(keys)
        if self.high is not None:
            find = bisect.bisect_left if self.high_open else bisect.bisect_right
            stop = find(keys, self.high)
        return start, max(start, stop)


def _bound_value(expr: ast.Expr, params: tuple):
    """The finite int/float a literal or bound ``?`` carries, else None."""
    if isinstance(expr, ast.Literal):
        value = expr.value
    elif isinstance(expr, ast.Param) and expr.index < len(params):
        value = params[expr.index]
    else:
        return None
    if type(value) is int or (type(value) is float and math.isfinite(value)):
        return value
    return None


def key_range(
    where: ast.Expr | None, schema: RowSchema, column: str, params: tuple = ()
) -> KeyRange | None:
    """The range the WHERE conjuncts put on ``column``; None when no
    conjunct bounds it.

    A conjunct bounds the column when it is ``col op v``, ``v op col`` or
    ``col BETWEEN v AND w`` with ``v``/``w`` a finite int or float literal
    or parameter. Every row the WHERE keeps lies in the returned range.
    """
    try:
        position = schema.resolve(ast.ColumnRef(column=column))
    except ColumnNotFoundError:
        return None

    def is_column(expr: ast.Expr) -> bool:
        if not isinstance(expr, ast.ColumnRef):
            return False
        try:
            return schema.resolve(expr) == position
        except ColumnNotFoundError:
            return False

    bounds: list[tuple[str, ast.Expr]] = []
    for conj in ast.conjuncts(where):
        if isinstance(conj, ast.BinaryOp) and conj.op in _FLIPPED:
            if is_column(conj.left):
                bounds.append((conj.op, conj.right))
            elif is_column(conj.right):
                bounds.append((_FLIPPED[conj.op], conj.left))
        elif isinstance(conj, ast.Between) and not conj.negated and is_column(conj.operand):
            bounds += ((">=", conj.low), ("<=", conj.high))
    rng = None
    for op, expr in bounds:
        value = _bound_value(expr, params)
        if value is not None:
            rng = (rng or KeyRange()).narrow(op, value)
    return rng


def _storage(resolver, ref: ast.TableRef):
    """The storage of base table ``ref`` through the resolver's
    ``base_table``; None for a view or a resolver without it."""
    base_table = getattr(resolver, "base_table", None)
    return None if base_table is None else base_table(ref.name)


def _read_columns(select: ast.Select, schema: RowSchema) -> list[int] | None:
    """Positions in ``schema`` of the only columns a plain SELECT reads:
    its items in item order, then each column that only its ORDER BY
    or WHERE reads. None, so the rows stay full width, when the SELECT
    groups, selects a star or holds a subquery, when an item or ORDER
    BY key is not a bare column that ``schema`` resolves uniquely, or
    when it reads every column in order."""
    if select.group_by or select.having is not None:
        return None
    refs = [item.expr for item in select.items] + [order.expr for order in select.order_by]
    # bare columns hold no aggregate, so this is the rest of is_grouped
    if not all(isinstance(ref, ast.ColumnRef) for ref in refs):
        return None
    if select.where is not None:
        nodes = list(ast.walk(select.where))
        if any(isinstance(node, ast.SUBQUERY_NODES) for node in nodes):
            return None
        refs += [node for node in nodes if isinstance(node, ast.ColumnRef)]
    positions = list(map(schema.find, refs))
    if None in positions:
        return None
    positions = list(dict.fromkeys(positions))
    return None if positions == list(range(len(schema))) else positions


def access_path(
    resolver, ref: ast.TableRef, schema: RowSchema, where: ast.Expr | None,
    params: tuple = (),
):
    """``(KeyRange, (keys, positions))`` for a single-table SELECT that
    can read ``ref`` through its sorted primary-key index, else None
    (scan).

    The resolver offers the index through ``base_table(name)`` returning
    the table's storage (None for a view); a resolver without it always
    scans. A WHERE with a subquery scans too: a subquery charges its
    rows when the first outer row is evaluated, so narrowing to no rows
    would change ``rows_examined``.
    """
    if where is None or ast.contains_subquery(where):
        return None
    storage = _storage(resolver, ref)
    if storage is None or storage.range_column is None:
        return None
    rng = key_range(where, schema, storage.range_column, params)
    index = None if rng is None else storage.sorted_index()
    return None if index is None else (rng, index)


@functools.total_ordering
class _SortKey:
    """Total order over SQL values: NULL sorts last ascending-wise."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return self.value == other.value

    def __lt__(self, other):
        a, b = self.value, other.value
        if a is None:
            return False  # NULL is the greatest
        if b is None:
            return True
        if isinstance(a, bool):
            a = int(a)
        if isinstance(b, bool):
            b = int(b)
        if isinstance(a, (int, float)) and isinstance(b, (int, float)):
            return a < b
        return str(a) < str(b)


#: number types whose own ``<`` is :class:`_SortKey`'s order (bool, which
#: ``_SortKey`` compares as an int, is not one)
_NUMBERS = frozenset((int, float))


def _native(kinds: set) -> bool:
    """True when values of exact types ``kinds`` (no NULL) compare with
    ``<`` as :class:`_SortKey` compares them: all numbers or all strings."""
    return kinds <= _NUMBERS or kinds == {str}


def _sort_keys(values: list) -> list:
    """Keys that order ``values`` as :class:`_SortKey` does. All numbers
    (no bool) or all strings compare natively, NULLs as ``(True, 0)``
    after every ``(False, value)``; any other mix wraps each value."""
    kinds = set(map(type, values))
    has_null = type(None) in kinds
    kinds.discard(type(None))
    if _native(kinds):
        if not has_null:
            return values
        return [(True, 0) if v is None else (False, v) for v in values]
    return list(map(_SortKey, values))


def order_rows(rows: list[tuple], keys: list[tuple[Callable, bool]]) -> list[tuple]:
    """``rows`` in ORDER BY order over ``keys``, ``(row -> value,
    ascending)`` pairs, first key major: NULL sorts greatest, ties keep
    their input order, and a descending key sorts with ``reverse``.

    Each key's values are computed once and the row indexes sorted on
    them, from the last key to the first (each pass is stable).
    """
    order = list(range(len(rows)))
    for fn, ascending in reversed(keys):
        order.sort(
            key=_sort_keys(list(map(fn, rows))).__getitem__, reverse=not ascending
        )
    return list(map(rows.__getitem__, order))


class _Output(NamedTuple):
    """One output column: name, static type, row function and, for a
    plain column (a star's or a bare reference), its input position."""

    name: str
    type: SQLType
    fn: Callable
    position: int | None


def _project(output: list[_Output], rows: list[tuple], width: int) -> list[tuple]:
    """Project ``rows`` (``width`` columns) onto ``output``: the rows
    themselves, in a new list, when the outputs are every column in
    order; one ``itemgetter`` when every output is a plain column; else
    each output's function per row."""
    positions = [o.position for o in output]
    if None not in positions:
        if positions == list(range(width)):
            return list(rows)
        if len(positions) == 1:
            return list(zip(map(output[0].fn, rows)))
        return list(map(itemgetter(*positions), rows))
    fns = [o.fn for o in output]
    return [tuple([fn(row) for fn in fns]) for row in rows]


#: ``None is not value``, the filter that drops NULLs before aggregating
_NOT_NULL = functools.partial(operator.is_not, None)


def _min(values: list):
    """MIN in :class:`_SortKey`'s order, natively where ``<`` agrees."""
    if _native(set(map(type, values))):
        return min(values)
    return min(values, key=_SortKey)


def _max(values: list):
    """MAX in :class:`_SortKey`'s order. ``max`` asks ``>``, which
    ``_SortKey`` derives as "not < and !=", true both ways between NaN
    and a number; so NaN, like a mixed column, keeps ``_SortKey``."""
    kinds = set(map(type, values))
    if _native(kinds) and (
        float not in kinds or not any(map(operator.ne, values, values))
    ):
        return max(values)
    return max(values, key=_SortKey)


def _avg(values: list):
    return sum(values) / len(values)


def _variance(values: list):
    # population moments, HBOOK-style
    n = len(values)
    mean = sum(values) / n
    return sum((v - mean) ** 2 for v in values) / n


#: aggregate name -> its value over a group's non-NULL (and, for
#: DISTINCT, deduplicated) argument values; SUM and AVG add in row order
_AGGREGATES: dict[str, Callable[[list], object]] = {
    "SUM": sum,
    "AVG": _avg,
    "MIN": _min,
    "MAX": _max,
    "VARIANCE": _variance,
    "STDDEV": lambda values: _variance(values) ** 0.5,
}


def _star_refs(schema: RowSchema, star: ast.Star) -> list[ast.ColumnRef]:
    """The columns ``star`` selects from ``schema``, as column refs."""
    columns = schema.columns
    return [
        ast.ColumnRef(column=columns[i].name, table=columns[i].qualifier)
        for i in schema.indexes_for_star(star.table)
    ]


class SelectExecutor:
    """Executes one SELECT statement against a resolver."""

    def __init__(self, resolver: TableResolver, params: tuple = ()):
        self.resolver = resolver
        self.params = params
        self.stats = ExecStats()
        self._subquery_depth = 0

    def _compile(self, expr: ast.Expr, schema: RowSchema):
        """Compile with this executor as the subquery runner."""
        return compile_expr(expr, schema, self.params, self._run_subquery)

    def _run_subquery(self, select: ast.Select):
        """Execute a non-correlated subquery against the same resolver."""
        if self._subquery_depth > 8:
            raise PlanningError("subquery nesting too deep")
        inner = SelectExecutor(self.resolver, self.params)
        inner._subquery_depth = self._subquery_depth + 1
        result = inner.execute(select)
        self._examine(result.stats.rows_examined, result.stats.rows_visited)
        return result.columns, result.rows

    def _examine(self, logical: int, visited: int | None = None) -> None:
        """Charge ``logical`` rows to the cost model; ``visited`` (default:
        the same) were physically touched."""
        self.stats.rows_examined += logical
        self.stats.rows_visited += logical if visited is None else visited

    # -- entry point -------------------------------------------------------------

    def execute(self, select: ast.Select) -> ExecResult:
        """Run the SELECT through scan/join/filter/aggregate/sort/limit."""
        if not select.from_:
            types = self._typecheck(select, RowSchema([]))
            return self._execute_scalar(select, types)
        schema, rows, logical = self._execute_from(select)
        if select.group_by or select.order_by:
            select = ast.resolve_positions(select, functools.partial(_star_refs, schema))
        types = self._typecheck(select, schema)
        if select.where is not None:
            self._examine(logical, len(rows))
            kept = filter_columnwise(select.where, schema, self.params, rows)
            if kept is None:
                predicate = self._compile(select.where, schema)
                kept = [r for r in rows if truthy(predicate(r))]
            rows = kept
        if select.is_grouped:
            result = self._execute_aggregate(select, schema, rows, types)
        else:
            result = self._execute_plain(select, schema, rows, types)
        if select.distinct:
            result.rows = list(dict.fromkeys(result.rows))
        offset = select.offset or 0
        if offset:
            result.rows = result.rows[offset:]
        if select.limit is not None:
            result.rows = result.rows[: select.limit]
        result.stats = self.stats
        result.rowcount = self.stats.rows_returned = len(result.rows)
        return result

    def _typecheck(
        self, select: ast.Select, schema: RowSchema
    ) -> list[SQLType | None]:
        """Type every clause before any row is evaluated; returns the
        select items' types (None for a star or an untyped item).

        Raises the first definite type error or bad call arity, which
        closes the lazy-evaluation hole where a type-mismatched
        expression (``SELECT a + 'x' FROM t``) silently returned an
        empty result on an empty table. Name errors are left to
        compilation, unresolvable refs (output aliases) type as
        unknown, and join ON clauses are skipped: cross-side equi
        conjuncts hash-match without comparing values.
        """

        def resolve(ref: ast.ColumnRef) -> SQLType | None:
            try:
                return schema.columns[schema.resolve(ref)].type
            except ColumnNotFoundError:
                return None

        def emit(code: str, message: str, fragment: str | None = None) -> None:
            if code in ("RPR201", "RPR105"):
                raise SQLTypeError(message)

        typer = ExprTyper(resolve, emit)
        types = [
            None if isinstance(item.expr, ast.Star) else typer.type_of(item.expr, True)
            for item in select.items
        ]
        for clause in (
            select.where, *select.group_by, select.having,
            *(order.expr for order in select.order_by),
        ):
            if clause is not None:
                typer.type_of(clause, True)
        return types

    # -- FROM / joins ------------------------------------------------------------

    def _scan(
        self, ref: ast.TableRef, where: ast.Expr | None = None
    ) -> tuple[RowSchema, list[tuple], int]:
        """``(schema, rows, table rows)`` of ``ref``. Given the WHERE of a
        single-table SELECT, ``rows`` are only those in its key range
        when an index applies; the whole table is examined either way."""
        columns, rows = self.resolver.resolve_table(ref.name)
        qualifier = ref.binding
        schema = RowSchema(
            [SchemaColumn(qualifier, c.name, c.type) for c in columns]
        )
        self.stats.tables_accessed.append(ref.name)
        logical = len(rows)
        path = access_path(self.resolver, ref, schema, where, self.params)
        if path is not None:
            rng, (keys, positions) = path
            start, stop = rng.slice(keys)
            rows = [rows[p] for p in sorted(positions[start:stop])]
        self._examine(logical, len(rows))
        return schema, rows, logical

    def _execute_from(
        self, select: ast.Select
    ) -> tuple[RowSchema, list[tuple], int]:
        """``(schema, rows, logical rows)``: the rows the WHERE runs on,
        and how many a scan would have produced.

        Consecutive equi-joins with no residual form a run: each stage's
        hash table is taken (:meth:`_build_side`) as its table is
        scanned, and the run is probed in one comprehension
        (:meth:`_probe_run`) when a join of another kind, or the end of
        the FROM clause, needs its rows. The last run, if it reads at
        least :data:`_NARROW_MIN_ROWS` rows, builds only the columns a
        plain SELECT reads (:func:`_read_columns`), and the schema
        returned is theirs."""
        if len(select.from_) == 1 and not select.joins:
            return self._scan(select.from_[0], select.where)
        schema, rows, _ = self._scan(select.from_[0])
        for ref in select.from_[1:]:
            rschema, rrows, _ = self._scan(ref)
            rows = self._cross_join(rows, rrows)
            schema = schema.concat(rschema)
        run: list[_HashStage] = []
        width = len(schema)  # of ``rows``, the run's input
        for join in select.joins:
            rschema, rrows, _ = self._scan(join.table)
            combined = schema.concat(rschema)
            on = None if join.kind == "CROSS" else _split_on(join.on, schema, rschema)
            left_keys, right_keys, residual = on or ((), (), ())
            if left_keys and not residual:
                miss = ((None,) * len(rschema),) if join.kind == "LEFT" else ()
                table = self._build_side(join.table, rrows, right_keys)
                run.append(_HashStage(table, left_keys, miss, len(rschema), len(rrows)))
                self.stats.join_strategy.append("hash")
            else:
                rows = self._probe_run(rows, width, run)
                run = []
                rows = self._join(rows, rrows, combined, join, on, len(rschema))
                width = len(combined)
            schema = combined
        picks = None
        if run and len(rows) + sum(stage.build_rows for stage in run) >= _NARROW_MIN_ROWS:
            picks = _read_columns(select, schema)
        rows = self._probe_run(rows, width, run, picks)
        if picks is not None:
            schema = RowSchema([schema.columns[p] for p in picks])
        return schema, rows, len(rows)

    def _build_side(
        self, ref: ast.TableRef, rrows: list[tuple], right_keys: list[int]
    ) -> dict:
        """The hash table (:func:`_hash_table`) of ``rrows``, ``ref``'s
        rows, on ``right_keys``: for a base table, the one its storage
        keeps until the table changes; else built afresh."""
        storage = _storage(self.resolver, ref)
        if storage is None:
            return _hash_table(rrows, right_keys)
        return storage.derived(tuple(right_keys), lambda rows: _hash_table(rows, right_keys))

    def _cross_join(self, lrows, rrows):
        self.stats.join_strategy.append("cross")
        return [lr + rr for lr in lrows for rr in rrows]

    def _join(self, lrows, rrows, combined, join: ast.Join, on, right_width):
        """One join that is not a run stage: a CROSS join (``on`` None),
        a hash join with a residual, or a nested loop."""
        if on is None:
            return self._cross_join(lrows, rrows)
        left_keys, right_keys, residual = on
        if not left_keys:
            self.stats.join_strategy.append("nested-loop")
            return self._nested_loop(
                lrows, rrows, combined, join.on, join.kind, right_width
            )
        pred_fns = [self._compile(c, combined) for c in residual]
        self.stats.join_strategy.append("hash")
        return self._hash_join(
            lrows, rrows, self._build_side(join.table, rrows, right_keys), left_keys,
            join.kind, right_width, lambda row: all(truthy(p(row)) for p in pred_fns),
        )

    def _probe_run(
        self, rows: list[tuple], width: int, run: list[_HashStage],
        picks: list[int] | None = None,
    ) -> list[tuple]:
        """``rows`` (``width`` columns) joined through every stage of
        ``run``, left-major with each stage's matches in build-input
        order, as one join at a time would give them; only the output
        rows are built, and with ``picks`` only their columns at those
        positions, in that order. Each stage charges its input rows and
        its build rows; the input rows of stages after the first are
        rows no one builds, so they are counted: the second stage's off
        one ``map`` of the first stage's lookups, each later one's by a
        counter the probe ticks.

        Part 0 of an output row is the input row, part ``i`` stage
        ``i``'s match. A stage whose key columns all lie in one part
        reads them there; any other key is read off the parts before it
        joined together."""
        if not run:
            return rows
        first = run[0]
        get, key = first.table.get, itemgetter(*first.keys)
        sources: list[int | None] = [0]
        args: list = [rows, get, key, first.miss]
        examined = len(rows) + first.build_rows
        counters = []
        # where each part starts in a joined row
        starts = list(accumulate([width] + [stage.width for stage in run], initial=0))
        if len(run) > 1:
            examined += sum(map(len, map(get, map(key, rows), repeat(first.miss))))
            for i, stage in enumerate(run[1:], start=2):
                parts = {bisect.bisect_right(starts, p, 0, i) - 1 for p in stage.keys}
                source = parts.pop() if len(parts) == 1 else None
                offset = 0 if source is None else starts[source]
                sources.append(source)
                args += [stage.table.get, itemgetter(*[p - offset for p in stage.keys]), stage.miss]
                if i < len(run):
                    counters.append(count(1).__next__)
                    args.append(counters[-1])
                examined += stage.build_rows
        spec = None
        if picks is not None:
            # each picked column as (its part, its offset in the part)
            owners = [bisect.bisect_right(starts, p, 0, len(run) + 1) - 1 for p in picks]
            spec = tuple((part, p - starts[part]) for part, p in zip(owners, picks))
        out = _run_probe(tuple(sources), spec)(*args)
        self._examine(examined + sum(counter() - 1 for counter in counters))
        return out

    def _hash_join(
        self, lrows, rrows, table, left_keys, kind, right_width, residual_fn
    ):
        """Hash join probing ``table``, the build side of ``rrows``
        (:meth:`_build_side`), with the key columns at positions
        ``left_keys``; ``residual_fn`` is the non-equi remainder of the
        ON clause and participates in *match determination* (a LEFT row
        whose only hash matches fail the residual is padded, not
        dropped)."""
        self._examine(len(lrows) + len(rrows))
        lkey = itemgetter(*left_keys)
        get = table.get
        pad = (None,) * right_width
        out: list[tuple] = []
        for lr in lrows:
            matched = False
            for rr in get(lkey(lr), ()):
                row = lr + rr
                if residual_fn(row):
                    out.append(row)
                    matched = True
            if not matched and kind == "LEFT":
                out.append(lr + pad)
        return out

    def _nested_loop(self, lrows, rrows, combined, on, kind, right_width):
        self._examine(len(lrows) * max(1, len(rrows)))
        predicate = self._compile(on, combined)
        out: list[tuple] = []
        pad = (None,) * right_width
        for lr in lrows:
            matched = False
            for rr in rrows:
                row = lr + rr
                if truthy(predicate(row)):
                    out.append(row)
                    matched = True
            if not matched and kind == "LEFT":
                out.append(lr + pad)
        return out

    # -- projection --------------------------------------------------------------

    def _expand_items(
        self,
        items: tuple[ast.SelectItem, ...],
        schema: RowSchema,
        types: list[SQLType | None],
    ) -> list[_Output]:
        """Expand stars and compile each output column; ``types`` are
        the items' static types."""
        out: list[_Output] = []
        for ordinal, (item, item_type) in enumerate(zip(items, types), start=1):
            if isinstance(item.expr, ast.Star):
                for idx in schema.indexes_for_star(item.expr.table):
                    col = schema.columns[idx]
                    out.append(_Output(col.name, col.type, itemgetter(idx), idx))
                continue
            if isinstance(item.expr, ast.ColumnRef):
                position = schema.resolve(item.expr)
                fn = itemgetter(position)
            else:
                position, fn = None, self._compile(item.expr, schema)
            out.append(
                _Output(item.output_name(ordinal), item_type or UNTYPED, fn, position)
            )
        return out

    def _sort_rows(
        self,
        rows: list[tuple],
        order_by: tuple[ast.OrderItem, ...],
        schema: RowSchema,
        output: list[_Output],
    ) -> list[tuple]:
        """Sort ``rows`` (pre-projection) honoring output aliases."""
        alias_map = {o.name.lower(): o.fn for o in output}
        keys: list[tuple[Callable, bool]] = []
        for item in order_by:
            fn = None
            if isinstance(item.expr, ast.ColumnRef) and item.expr.table is None:
                fn = alias_map.get(item.expr.column.lower())
            if fn is None:
                fn = self._compile(item.expr, schema)
            keys.append((fn, item.ascending))
        return order_rows(rows, keys)

    def _execute_plain(
        self, select: ast.Select, schema: RowSchema, rows: list[tuple],
        types: list[SQLType | None],
    ) -> ExecResult:
        output = self._expand_items(select.items, schema, types)
        if select.order_by:
            rows = self._sort_rows(rows, select.order_by, schema, output)
        return ExecResult(
            columns=[o.name for o in output],
            types=[o.type for o in output],
            rows=_project(output, rows, len(schema)),
        )

    # -- scalar select (no FROM) ----------------------------------------------------

    def _execute_scalar(
        self, select: ast.Select, types: list[SQLType | None]
    ) -> ExecResult:
        output = self._expand_items(select.items, RowSchema([]), types)
        return ExecResult(
            columns=[o.name for o in output],
            types=[o.type for o in output],
            rows=[tuple(o.fn(()) for o in output)],
        )

    # -- aggregation ------------------------------------------------------------------

    def _execute_aggregate(
        self, select: ast.Select, schema: RowSchema, rows: list[tuple],
        types: list[SQLType | None],
    ) -> ExecResult:
        group_exprs = list(select.group_by)
        group_fns = [self._compile(g, schema) for g in group_exprs]

        # HAVING and ORDER BY may reference output names (MySQL-style,
        # e.g. HAVING n > 1 for COUNT(*) AS n, or ORDER BY detector for
        # an unaliased r.detector item): expand output names to the
        # underlying item expressions before anything else.
        names = select.output_names()
        having_expr = (
            ast.expand_output_names(select.having, names)
            if select.having is not None else None
        )
        order_exprs = [ast.expand_output_names(o.expr, names) for o in select.order_by]

        # Collect unique aggregate calls from items, HAVING and ORDER BY.
        agg_calls: list[ast.FunctionCall] = []
        agg_index: dict[str, int] = {}

        def collect(expr: ast.Expr) -> None:
            for node in ast.walk(expr):
                if ast.is_aggregate_call(node):
                    key = node.unparse()
                    if key not in agg_index:
                        agg_index[key] = len(agg_calls)
                        agg_calls.append(node)

        for item in select.items:
            collect(item.expr)
        if having_expr is not None:
            collect(having_expr)
        for order_expr in order_exprs:
            collect(order_expr)

        # Resolve each aggregate once, against the *input* schema.
        aggregates = [self._aggregate(call, schema) for call in agg_calls]

        # Group rows: one dict pass, groups in first-appearance order.
        groups: dict[tuple, list[tuple]]
        if group_fns:
            groups = defaultdict(list)
            for key, row in zip(self._group_keys(group_exprs, group_fns, schema, rows), rows):
                groups[key].append(row)
        else:
            groups = {(): rows}
        self._examine(len(rows))

        # Post-aggregation schema: group columns then aggregate results.
        post_columns = [
            SchemaColumn(None, f"__g{i}", SQLType.text()) for i in range(len(group_exprs))
        ] + [
            SchemaColumn(None, f"__a{j}", SQLType.double()) for j in range(len(agg_calls))
        ]
        post_schema = RowSchema(post_columns)

        post_rows = [
            key + tuple([aggregate(grouped) for aggregate in aggregates])
            for key, grouped in groups.items()
        ]

        # Rewrite expressions onto the post-aggregation schema.
        group_keys = {g.unparse(): i for i, g in enumerate(group_exprs)}

        def post_aggregate(node: ast.Expr) -> ast.Expr | None:
            key = node.unparse()
            if key in agg_index and isinstance(node, ast.FunctionCall):
                return ast.ColumnRef(column=f"__a{agg_index[key]}")
            if key in group_keys:
                return ast.ColumnRef(column=f"__g{group_keys[key]}")
            if isinstance(node, ast.ColumnRef):
                # A bare column in the select list must be a grouping column.
                raise PlanningError(
                    f"column {node.unparse()!r} must appear in GROUP BY or an aggregate"
                )
            if isinstance(node, ast.InSubquery):
                return node  # its operand is not rewritten
            return None

        rewrite = functools.partial(ast.transform, fn=post_aggregate)
        if having_expr is not None:
            having_fn = self._compile(rewrite(having_expr), post_schema)
            post_rows = [r for r in post_rows if truthy(having_fn(r))]

        rewritten_items = tuple(
            ast.SelectItem(rewrite(item.expr), item.alias or item.output_name(i + 1))
            for i, item in enumerate(select.items)
        )
        # the items' types, from the input schema (the post-aggregation
        # schema lost the real types)
        output = self._expand_items(rewritten_items, post_schema, types)
        if select.order_by:
            rewritten_order = tuple(
                ast.OrderItem(rewrite(expr), order.ascending)
                for expr, order in zip(order_exprs, select.order_by)
            )
            post_rows = self._sort_rows(post_rows, rewritten_order, post_schema, output)
        return ExecResult(
            columns=[o.name for o in output],
            types=[o.type for o in output],
            rows=_project(output, post_rows, len(post_schema)),
        )

    @staticmethod
    def _group_keys(group_exprs, group_fns, schema: RowSchema, rows: list[tuple]):
        """Each row's group key tuple: one ``itemgetter`` when every group
        expression is a plain column (1-tuples through ``zip`` for one),
        else each compiled expression per row."""
        if all(isinstance(g, ast.ColumnRef) for g in group_exprs):
            if len(group_fns) == 1:
                return zip(map(group_fns[0], rows))
            return map(itemgetter(*map(schema.resolve, group_exprs)), rows)
        return (tuple([fn(row) for fn in group_fns]) for row in rows)

    def _aggregate(self, call: ast.FunctionCall, schema: RowSchema):
        """``group rows -> value`` of one aggregate call. A plain-column
        argument compiles to an ``itemgetter``, so its values are read
        by one ``map``; ``COUNT(*)`` is ``len``."""
        name = call.name.upper()
        if not call.args or isinstance(call.args[0], ast.Star):
            if name != "COUNT":
                raise SQLTypeError(f"{name} needs an argument; only COUNT takes * or none")
            return len
        arg = self._compile(call.args[0], schema)
        if name == "COUNT":
            if call.distinct:
                return lambda rows: len(set(filter(_NOT_NULL, map(arg, rows))))
            return lambda rows: len(list(filter(_NOT_NULL, map(arg, rows))))
        reduce, distinct = _AGGREGATES[name], call.distinct

        def aggregate(rows: list[tuple]):
            values = list(filter(_NOT_NULL, map(arg, rows)))
            if distinct:
                values = list(set(values))
            return reduce(values) if values else None

        return aggregate
