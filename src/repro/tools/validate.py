"""Installation self-check: ``python -m repro.tools.validate``.

Builds a miniature federation and exercises one representative path per
subsystem — engine SQL, dialect DDL round trips, XSpec generation,
POOL/JDBC routing, RLS forwarding, ETL, histogramming — printing OK/FAIL
per check. Exit code 0 only when everything passes; the recommended
first command after installing the package.
"""

from __future__ import annotations

import traceback

CHECKS = []


def check(name):
    def wrap(fn):
        CHECKS.append((name, fn))
        return fn

    return wrap


@check("engine: SQL round trip")
def _engine():
    from repro.engine import Database

    db = Database("v", "generic")
    db.execute("CREATE TABLE t (a INT PRIMARY KEY, b DOUBLE)")
    db.execute("INSERT INTO t VALUES (1, 2.5), (2, 3.5)")
    assert db.execute("SELECT SUM(b) FROM t WHERE a IN (SELECT a FROM t)").rows == [(6.0,)]


@check("dialects: vendor DDL round trips")
def _dialects():
    from repro.common import SQLType
    from repro.dialects import available_vendors, get_dialect
    from repro.engine import Column, Database

    for vendor in ("oracle", "mysql", "mssql", "sqlite"):
        assert vendor in available_vendors()
        ddl = get_dialect(vendor).render_create_table(
            "t", [Column("a", SQLType.integer(), primary_key=True)]
        )
        Database("x", vendor).execute(ddl)


@check("metadata: XSpec generate/parse/fingerprint")
def _metadata():
    from repro.engine import Database
    from repro.metadata import LowerXSpec, generate_lower_xspec

    db = Database("m", "mysql")
    db.execute("CREATE TABLE EVT (ID INT PRIMARY KEY)")
    spec = generate_lower_xspec(db)
    assert LowerXSpec.from_xml(spec.to_xml()) == spec
    assert spec.fingerprint() == generate_lower_xspec(db).fingerprint()


@check("federation: POOL + JDBC + RLS routing, local = wire answer")
def _federation():
    from repro.core import GridFederation
    from repro.engine import Database

    fed = GridFederation()
    s1 = fed.create_server("jc1", "pc1")
    s2 = fed.create_server("jc2", "pc2")
    mysql = Database("m1", "mysql")
    mysql.execute("CREATE TABLE A (K INT PRIMARY KEY)")
    mysql.execute("INSERT INTO A VALUES (1)")
    fed.attach_database(s1, mysql)
    mssql = Database("m2", "mssql")
    mssql.execute("CREATE TABLE B (K INT PRIMARY KEY)")
    mssql.execute("INSERT INTO B VALUES (1)")
    fed.attach_database(s2, mssql)
    sql = "SELECT COUNT(*) FROM a x JOIN b y ON x.k = y.k"
    answer = s1.service.execute(sql)
    assert answer.rows == [(1,)]
    assert set(answer.routes) == {"pool", "remote"}
    # the web route decodes the same answer from the wire
    wire = fed.query(fed.client("laptop"), s1, sql).answer
    assert (wire.columns, wire.types, wire.rows) == (
        answer.columns, answer.types, answer.rows
    ), (wire, answer)


@check("lint: static pre-flight analysis")
def _lint():
    from repro.engine import Database
    from repro.lint import CatalogSchema, lint_sql

    db = Database("v", "generic")
    db.execute("CREATE TABLE t (a INT PRIMARY KEY, b VARCHAR(8))")
    assert lint_sql("SELECT a, b FROM t WHERE a > 1", CatalogSchema(db)).ok
    report = lint_sql("SELECT zz, a + b FROM t", CatalogSchema(db))
    assert report.codes() == {"RPR102", "RPR201"}, report.codes()


@check("warehouse: ETL pivot + verification")
def _warehouse():
    from repro.common import DeterministicRNG
    from repro.engine import Database
    from repro.engine.storage import estimate_row_bytes
    from repro.hep import (
        create_source_schema,
        etl_jobs_for_source,
        generate_ntuple,
        populate_source,
    )
    from repro.net import Network, SimClock
    from repro.warehouse import Warehouse
    from repro.warehouse.etl import ETLJob, extract

    rng = DeterministicRNG("validate")
    net = Network()
    net.add_host("tier1", 1)
    src = Database("s", "oracle")
    create_source_schema(src)
    populate_source(src, rng, {1: generate_ntuple(rng.fork("nt"), 10, 3)})
    wh = Warehouse(net, SimClock(), nvar=3)
    job = etl_jobs_for_source(src, "tier1", 3)[0]
    wh.load(job)
    assert wh.row_count("event_fact") == 10
    assert wh.pipeline.verify(job).ok
    # the marts' read of the view reuses the load's row sizes: still exact
    view = extract(ETLJob(wh.db, wh.host, "SELECT * FROM v_event_wide", "v_event_wide"))
    assert view.nbytes == sum(map(estimate_row_bytes, view.rows)), view.nbytes


@check("analysis: server-side histogram")
def _analysis():
    from repro.analysis import histogram_from_wire
    from repro.core import GridFederation
    from repro.engine import Database

    fed = GridFederation()
    server = fed.create_server("jc1", "pc1")
    db = Database("m", "mysql")
    db.execute("CREATE TABLE T (V DOUBLE)")
    for i in range(20):
        db.execute(f"INSERT INTO T VALUES ({i})")
    fed.attach_database(server, db)
    client = fed.client("laptop")
    wire = client.call(server.server, "histogram.h1d", "SELECT v FROM t", "v", 5, 0.0, 20.0)
    assert histogram_from_wire(wire).entries == 20


def main(argv: list[str] | None = None) -> int:
    failed = 0
    for name, fn in CHECKS:
        try:
            fn()
        except Exception:  # noqa: BLE001 - report and continue
            failed += 1
            print(f"FAIL  {name}")
            traceback.print_exc(limit=3)
        else:
            print(f"ok    {name}")
    if failed:
        print(f"{failed} of {len(CHECKS)} checks failed")
        return 1
    print(f"all {len(CHECKS)} checks passed — installation looks good")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
