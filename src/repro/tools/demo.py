"""Demo testbeds and CLI scaffolding shared by the report tools.

``tracereport``, ``cachereport``, ``chaosreport`` and ``healthreport``
each build a small federation here, drive a scripted workload through
it, and print a human report or ``--json`` (optionally ``--out FILE``).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.core.federation import GridFederation
from repro.engine.database import Database


def events_db(name: str, vendor: str = "mysql") -> Database:
    """An ``EVT (EVENT_ID, ENERGY)`` table of 40 events."""
    db = Database(name, vendor)
    db.execute("CREATE TABLE EVT (EVENT_ID INT PRIMARY KEY, ENERGY DOUBLE)")
    for i in range(40):
        db.execute(f"INSERT INTO EVT VALUES ({i}, {i * 0.5})")
    return db


def tagged_events_db() -> Database:
    """The two-server demo's mysql events mart: 10 events with run ids
    and tags."""
    db = Database("mart_mysql", "mysql")
    db.execute(
        "CREATE TABLE EVT (EVENT_ID INT PRIMARY KEY, RUN_ID INT, "
        "ENERGY DOUBLE, TAG VARCHAR(8))"
    )
    for i in range(10):
        tag = "hot" if i % 2 else "cold"
        db.execute(f"INSERT INTO EVT VALUES ({i}, {i % 3}, {i * 1.5}, '{tag}')")
    return db


def runs_db() -> Database:
    """The two-server demo's mssql run-info mart."""
    db = Database("mart_mssql", "mssql")
    db.execute(
        "CREATE TABLE RUN_INFO (RUN_ID INT PRIMARY KEY, DETECTOR NVARCHAR(20), "
        "GOOD INT)"
    )
    for i, (det, good) in enumerate([("cms", 1), ("atlas", 1), ("lhcb", 0)]):
        db.execute(f"INSERT INTO RUN_INFO VALUES ({i}, '{det}', {good})")
    return db


def two_server_federation(**server_options):
    """Two JClarens servers: ``events`` on A, ``runs`` on B.

    Returns ``(federation, handle_a, handle_b, events_db, runs_db)``;
    ``server_options`` go to both ``create_server`` calls.
    """
    fed = GridFederation()
    a = fed.create_server("jclarens-a", "tier2a.cern.ch", **server_options)
    b = fed.create_server("jclarens-b", "tier2b.caltech.edu", **server_options)
    events = tagged_events_db()
    runs = runs_db()
    fed.attach_database(a, events, logical_names={"EVT": "events"})
    fed.attach_database(b, runs, logical_names={"RUN_INFO": "runs"})
    return fed, a, b, events, runs


def replicated_federation(**server_options):
    """One server, ``events`` replicated on two database hosts.

    The replica runs a different vendor, so failover re-plans the SQL.
    Returns ``(federation, handle)``.
    """
    fed = GridFederation()
    server = fed.create_server("jclarens-a", "tier2a.cern.ch", **server_options)
    fed.attach_database(
        server, events_db("primary_mart"), db_host="db1.cern.ch",
        logical_names={"EVT": "events"},
    )
    fed.attach_database(
        server, events_db("replica_mart", vendor="sqlite"), db_host="db2.cern.ch",
        logical_names={"EVT": "events"},
    )
    return fed, server


def report_main(argv, prog: str, description: str, build_report, print_human) -> int:
    """The report CLIs' shared command line."""
    parser = argparse.ArgumentParser(prog=prog, description=description)
    parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    parser.add_argument(
        "--out", metavar="FILE", help="write the report to FILE instead of stdout"
    )
    args = parser.parse_args(argv)

    report = build_report()
    if args.json:
        text = json.dumps(report, indent=2, sort_keys=True)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
            print(f"wrote {args.out}", file=sys.stderr)
        else:
            print(text)
        return 0
    print_human(report)
    return 0
