"""Integration over held rows equals the scratch-database load.

``Integrator.integrate`` runs a federated query's integration SELECT
over the sub-results where they are held (``HeldRows``). The reference
here is the path that preceded it: a throwaway engine ``Database`` with
one table per sub-result, created with the sub-result's column types,
loaded through ``append_rows`` (the checked write path) and queried
with ``execute_statement``. Sub-results come from real federated
queries over marts of all four vendors, each table created with its
vendor's DDL, so every column carries the type its mart reports.
Columns, types, rows (by ``repr``, in order), ``rows_examined`` and the
join strategies must agree.
"""

from __future__ import annotations

import functools
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.errors import TableNotFoundError
from repro.common.types import SQLType, TypeKind
from repro.core import GridFederation
from repro.dialects import get_dialect
from repro.engine import Database
from repro.engine.executor import HeldRows
from repro.engine.storage import Column
from repro.sql.eval import SchemaColumn
from repro.sql.parser import parse_select
from repro.tools.demo import runs_db, tagged_events_db, two_server_federation
from repro.unity import Integrator, UnityDriver, decompose
from repro.unity.driver import _logicalize_columns

from tests.test_answer_codec import JOIN_SQL

VENDORS = ("mysql", "mssql", "oracle", "sqlite")
COLUMNS = [
    Column("K", SQLType(TypeKind.BIGINT)),
    Column("N", SQLType(TypeKind.INTEGER)),
    Column("F", SQLType(TypeKind.DOUBLE)),
    Column("C", SQLType(TypeKind.CHAR, length=3)),
    Column("V", SQLType(TypeKind.VARCHAR, length=8)),
]


def _physical(vendor: str) -> str:
    return f"T_{vendor.upper()}"


@functools.cache
def _federation():
    """One server over four marts, one per vendor, on four hosts; each
    holds logical table ``t_<vendor>`` (k, n, f, c, v). Examples replace
    the rows, so the federation is built once."""
    fed = GridFederation()
    server = fed.create_server("jc1", "pc1")
    marts = {}
    for i, vendor in enumerate(VENDORS):
        db = Database(f"mart_{vendor}", vendor)
        db.execute(get_dialect(vendor).render_create_table(_physical(vendor), COLUMNS))
        fed.attach_database(
            server, db, db_host=f"db{i}", logical_names={_physical(vendor): f"t_{vendor}"}
        )
        marts[vendor] = db
    return server.service, marts


def scratch_integrate(plan, sub_results, params):
    """The reference: the sub-results loaded into a scratch database."""
    scratch = Database("__integration__", "generic")
    for sub in plan.subqueries:
        columns, types, rows = sub_results[sub.binding]
        scratch.catalog.create_table(
            sub.binding, [Column(name=c, type=t) for c, t in zip(columns, types)]
        )
        scratch.catalog.get_table(sub.binding).append_rows(rows)
    return scratch.execute_statement(plan.integration, params)


def _outcome(result):
    return (
        result.columns, result.types, [repr(row) for row in result.rows],
        result.stats.rows_examined, result.stats.join_strategy,
    )


def integrations(service, sql, params=()):
    """Run ``sql``; each integration it made, as ``(held, reference)``
    outcomes."""
    seen = []
    integrate = Integrator.integrate

    def checking(self, plan, sub_results, params=()):
        result = integrate(self, plan, sub_results, params)
        seen.append((_outcome(result), _outcome(scratch_integrate(plan, sub_results, params))))
        return result

    with mock.patch.object(Integrator, "integrate", checking):
        service.execute(sql, params)
    assert seen, f"{sql!r} integrated nothing"
    return seen


values = st.fixed_dictionaries({
    "k": st.none() | st.integers(-(2**63), 2**63 - 1) | st.integers(2**53 - 2, 2**53 + 2),
    "n": st.none() | st.integers(0, 3),
    "f": st.none() | st.floats(-1e6, 1e6, allow_nan=False) | st.sampled_from([0.5, 1.0, -0.0]),
    "c": st.none() | st.text("ab ", max_size=3),
    "v": st.none() | st.text("xyz", max_size=8),
})
table_rows = st.lists(values, max_size=6).map(
    lambda drawn: [(r["k"], r["n"], r["f"], r["c"], r["v"]) for r in drawn]
)


@st.composite
def federated_queries(draw):
    """A query over two or three marts of distinct vendors, with its
    parameters."""
    vendors = draw(st.permutations(VENDORS))[: draw(st.integers(2, 3))]
    bindings = "abc"[: len(vendors)]
    sql = f"FROM t_{vendors[0]} a"
    for binding, vendor in zip(bindings[1:], vendors[1:]):
        kind = draw(st.sampled_from(["JOIN", "LEFT JOIN"]))
        on = f"a.n = {binding}.n"
        if draw(st.booleans()):
            on += f" AND a.f < {binding}.f"  # a residual
        sql += f" {kind} t_{vendor} {binding} ON {on}"
    params = ()
    if draw(st.booleans()):
        sql += " WHERE a.k > ?"
        params = (draw(st.integers(-(2**62), 2**62)),)
    columns = [f"{b}.{c}" for b in bindings for c in "knfcv"]
    if draw(st.booleans()):
        group = draw(st.sampled_from(["a.n", "a.c", "b.v"]))
        sql = (
            f"SELECT {group}, COUNT(*), SUM(b.f), MAX(a.v), MIN(b.k) {sql} "
            f"GROUP BY {group} ORDER BY {group}"
        )
    else:
        items = draw(st.lists(st.sampled_from(columns), min_size=1, max_size=5, unique=True))
        distinct = "DISTINCT " if draw(st.booleans()) else ""
        sql = f"SELECT {distinct}{', '.join(items)} {sql}"
        if draw(st.booleans()):
            keys = draw(st.lists(st.sampled_from(items), min_size=1, max_size=2, unique=True))
            sql += " ORDER BY " + ", ".join(
                key + draw(st.sampled_from(["", " DESC"])) for key in keys
            )
    if draw(st.booleans()):
        sql += f" LIMIT {draw(st.integers(0, 4))}"
    return sql, params


@settings(max_examples=60, deadline=None)
@given(
    query=federated_queries(),
    rows=st.fixed_dictionaries({vendor: table_rows for vendor in VENDORS}),
)
@example(
    query=("SELECT a.k, b.f, b.c FROM t_oracle a LEFT JOIN t_sqlite b ON a.n = b.n "
           "AND a.f < b.f ORDER BY a.k", ()),
    rows={
        "mysql": [],
        "mssql": [],
        "oracle": [(2**53 + 1, 1, 0.5, "a", "x"), (None, None, None, None, None)],
        "sqlite": [(-(2**63), 1, 0.25, "ab", "y"), (7, 1, 1.5, None, "yy")],
    },
)
def test_held_rows_integrate_like_a_scratch_database(query, rows):
    service, marts = _federation()
    for vendor, db in marts.items():
        db.catalog.get_table(_physical(vendor)).replace_rows(rows[vendor])
    sql, params = query
    for held, reference in integrations(service, sql, params):
        assert held == reference


def test_wire_decoded_sub_results_integrate_like_a_scratch_database():
    """A peer's sub-result carries the types its wire answer reported."""
    _fed, a, _b, _events, _runs = two_server_federation()
    grouped = (
        "SELECT r.detector, COUNT(*), SUM(e.energy) FROM events e "
        "LEFT JOIN runs r ON e.run_id = r.run_id GROUP BY r.detector ORDER BY r.detector"
    )
    for sql in (JOIN_SQL, grouped):
        for held, reference in integrations(a.service, sql):
            assert held == reference


def test_held_rows_resolve_by_lower_cased_name():
    columns = [SchemaColumn(None, "x", SQLType(TypeKind.INTEGER))]
    held = HeldRows({"evt": (columns, [(1,)])})
    assert held.resolve_table("EVT") == (columns, [(1,)])
    with pytest.raises(TableNotFoundError, match="runs"):
        held.resolve_table("runs")


@pytest.mark.parametrize("sql", [
    "SELECT COUNT(*) FROM t_mysql a, t_mssql b",
    "SELECT a.k, b.v FROM t_oracle a JOIN t_sqlite b ON a.n = b.n WHERE a.f > ?",
    "SELECT * FROM t_mssql a LEFT JOIN t_oracle b ON a.c = b.c",
])
def test_a_lost_branch_is_shaped_like_a_scratch_table(sql):
    """``_empty_sub_result`` gives each sub-query the columns and types
    its sub-select has over an empty scratch copy of its table."""
    service, _marts = _federation()
    params = (0.5,) if "?" in sql else ()
    for sub in decompose(parse_select(sql), service.dictionary).subqueries:
        table = sub.location.table
        scratch = Database("__degraded__", "generic")
        scratch.catalog.create_table(
            table.name, [Column(name=c.name, type=c.logical_type) for c in table.columns]
        )
        reference = scratch.execute_statement(sub.select, params)
        assert service._empty_sub_result(sub, params) == (
            _logicalize_columns(reference.columns, sub), reference.types, [], "failed"
        )


class TestNoScratchDatabase:
    """No query path builds an engine ``Database``: sub-results are
    integrated, and a lost branch shaped, where they are held."""

    SQL = "SELECT e.event_id, r.detector FROM events e JOIN runs r ON e.run_id = r.run_id"

    @staticmethod
    def constructions(run):
        """``run()``'s result, and the ``Database``s built while it ran."""
        counted = []
        init = Database.__init__

        def counting(self, *args, **kwargs):
            counted.append(args)
            init(self, *args, **kwargs)

        with mock.patch.object(Database, "__init__", counting):
            return run(), counted

    @staticmethod
    def one_server():
        """``events`` and ``runs`` behind one server, on two hosts."""
        fed = GridFederation()
        server = fed.create_server("jc1", "pc1")
        fed.attach_database(
            server, tagged_events_db(), db_host="db1", logical_names={"EVT": "events"}
        )
        fed.attach_database(
            server, runs_db(), db_host="db2", logical_names={"RUN_INFO": "runs"}
        )
        return fed, server.service

    def test_a_distributed_service_query(self):
        _fed, a, _b, _events, _runs = two_server_federation()
        answer, built = self.constructions(lambda: a.service.execute(JOIN_SQL))
        assert answer.distributed and answer.rows
        assert built == []

    def test_a_partial_query_that_loses_a_branch(self):
        fed, service = self.one_server()
        fed.network.fail_host("db2")
        answer, built = self.constructions(
            lambda: service.execute(self.SQL, allow_partial=True)
        )
        assert answer.partial and answer.failures
        assert answer.columns == ["event_id", "detector"]
        assert built == []

    def test_a_unity_driver_join(self):
        fed, service = self.one_server()
        driver = UnityDriver(service.dictionary, fed.directory)
        answer, built = self.constructions(lambda: driver.execute(self.SQL))
        assert answer.distributed and answer.rows
        assert built == []
