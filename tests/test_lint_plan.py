"""Lint reads the plan that executes.

RPR401 (vendor-incompatible function) and RPR501 (whole-table ship) come
from the decomposer's plan, built with the replica preferences and the
pushdown setting the query runs with, so lint cannot name a database or
a pushed predicate the plan does not have.
"""

import re

from repro.core import GridFederation
from repro.engine import Database
from repro.lint import DictionarySchema, lint_sql
from repro.net.network import WAN
from repro.unity import UnityDriver

TRIM_JOIN = (
    "SELECT e.event_id, r.detector FROM events e INNER JOIN runs r "
    "ON e.run_id = r.run_id WHERE TRIM(r.detector) = 'cms'"
)
#: binding -> logical table, for reading RPR501 messages
TABLE_OF = {"e": "events", "r": "runs"}


def _events_db() -> Database:
    db = Database("events_mart", "mysql")
    db.execute("CREATE TABLE EVT (EVENT_ID INT PRIMARY KEY, RUN_ID INT, ENERGY DOUBLE)")
    for i in range(9):
        db.execute(f"INSERT INTO EVT VALUES ({i}, {i % 3}, {i * 1.5})")
    return db


def _runs_db(name: str, vendor: str) -> Database:
    db = Database(name, vendor)
    db.execute("CREATE TABLE RUN_INFO (RUN_ID INT PRIMARY KEY, DETECTOR VARCHAR(20))")
    for i, det in enumerate(("cms", "atlas", "lhcb")):
        db.execute(f"INSERT INTO RUN_INFO VALUES ({i}, '{det}')")
    return db


def replicated_federation():
    """``runs`` on a far mssql mart (registered first) and a near mysql
    mart; replica selection picks the near one."""
    fed = GridFederation()
    server = fed.create_server("jc1", "pc1", replica_selection=True)
    fed.attach_database(server, _events_db(), "pc1", {"EVT": "events"})
    fed.attach_database(
        server, _runs_db("mart_far", "mssql"), "far.cern.ch", {"RUN_INFO": "runs"}
    )
    fed.network.set_link("pc1", "far.cern.ch", WAN)
    fed.attach_database(server, _runs_db("mart_near", "mysql"), "pc1", {"RUN_INFO": "runs"})
    return fed, server


def _explained_databases(fed, server, sql) -> dict[str, str]:
    plan = fed.client("laptop").call(server.server, "dataaccess.explain", sql)
    return {sub["binding"]: sub["database"] for sub in plan["subqueries"]}


def _named_databases(diag: dict) -> tuple[str, str]:
    """(binding, database) an RPR401/RPR501 wire diagnostic names."""
    if diag["code"] == "RPR401":
        database = re.search(r"database '(\w+)'", diag["message"]).group(1)
        binding = diag["span"]["fragment"].split("(", 1)[1].split(".", 1)[0]
        return binding, database
    table, database = re.search(r"to '(\w+)' on '(\w+)'", diag["message"]).groups()
    binding = {t: b for b, t in TABLE_OF.items()}[table]
    return binding, database


class TestReplicaChoice:
    def test_explain_ships_runs_to_the_near_mysql_replica(self):
        fed, server = replicated_federation()
        assert _explained_databases(fed, server, TRIM_JOIN)["r"] == "mart_near"

    def test_lint_accepts_what_the_plan_can_run(self):
        # TRIM is pushed to mart_near (mysql), not to mart_far (mssql,
        # which lacks TRIM): lint finds no error, and the query runs
        _, server = replicated_federation()
        diags = server.service.lint(TRIM_JOIN)
        assert not [d for d in diags if d["severity"] == "error"]
        assert len(server.service.execute(TRIM_JOIN).rows) == 3

    def test_wire_lint_names_only_databases_explain_lists(self):
        fed, server = replicated_federation()
        explained = _explained_databases(fed, server, TRIM_JOIN)
        diags = fed.client("laptop").call(server.server, "dataaccess.lint", TRIM_JOIN)
        named = [d for d in diags if d["code"] in ("RPR401", "RPR501")]
        assert [d["code"] for d in named] == ["RPR501"]  # events ships whole
        for diag in named:
            binding, database = _named_databases(diag)
            assert explained[binding] == database, diag

    def test_wire_lint_on_the_far_replica_names_it(self):
        # with the near replica gone, explain and lint both move to the
        # mssql replica, and the TRIM finding names it
        fed, server = replicated_federation()
        server.service.dictionary.remove_database("mart_near")
        explained = _explained_databases(fed, server, TRIM_JOIN)
        assert explained["r"] == "mart_far"
        diags = fed.client("laptop").call(server.server, "dataaccess.lint", TRIM_JOIN)
        rpr401 = [d for d in diags if d["code"] == "RPR401"]
        assert rpr401
        for diag in rpr401:
            binding, database = _named_databases(diag)
            assert explained[binding] == database

    def test_wire_lint_does_not_discover_remote_tables(self):
        fed = GridFederation()
        s1 = fed.create_server("jc1", "pc1", replica_selection=True)
        s2 = fed.create_server("jc2", "pc2")
        fed.attach_database(s1, _events_db(), "pc1", {"EVT": "events"})
        fed.attach_database(s2, _runs_db("mart_near", "mysql"), "pc2", {"RUN_INFO": "runs"})
        lookups = fed.rls_server.lookups
        diags = fed.client("laptop").call(s1.server, "dataaccess.lint", TRIM_JOIN)
        assert {d["code"] for d in diags} == {"RPR101"}
        assert fed.rls_server.lookups == lookups
        assert not s1.service.dictionary.has_table("runs")


class TestPushdownOff:
    def test_driver_without_pushdown_pushes_no_function(self, two_db_federation):
        # runs lives on mssql, which lacks TRIM; with pushdown off the
        # plan ships no conjunct, so TRIM runs in the integration step
        directory, dictionary, *_ = two_db_federation
        answer = UnityDriver(dictionary, directory, pushdown=False).execute(TRIM_JOIN)
        assert not any("TRIM" in trace.sql.upper() for trace in answer.traces)

    def test_lint_flags_the_pushed_function(self, two_db_federation):
        # lint reads the default plan, which pushes TRIM to mssql
        _, dictionary, *_ = two_db_federation
        report = lint_sql(TRIM_JOIN, DictionarySchema(dictionary))
        assert [d.code for d in report.errors] == ["RPR401"]
