"""Reusable testbeds matching the paper's evaluation setups (§5.2).

``build_paper_testbed`` reproduces the Table 1 deployment: two JClarens
servers on a 100 Mbps LAN hosting six databases equally shared between
Microsoft SQL Server and MySQL, with ~80,000 rows and ~1,700 tables in
total. The interesting tables are ntuple marts and run-metadata tables
(the join targets of the three Table 1 query classes); the rest of the
row/table budget is filled with small filler tables, as any real mart
catalog is.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.clarens.client import ClarensClient
from repro.common.rng import DeterministicRNG
from repro.core.federation import GridFederation, ServerHandle
from repro.engine.database import Database
from repro.hep.ntuple import generate_ntuple

#: the Table 1 deployment's size: events per ntuple mart, runs per
#: run-metadata mart, and the tables and rows over all six databases
NTUPLE_ROWS = 3000
RUNMETA_ROWS = 150
TOTAL_TABLES = 1700
TOTAL_ROWS = 80_000


@dataclass
class PaperTestbed:
    """The Table 1 deployment plus canonical queries."""

    federation: GridFederation
    server1: ServerHandle
    server2: ServerHandle
    client: ClarensClient
    total_rows: int
    total_tables: int

    #: Table 1 query classes
    QUERY_LOCAL = "SELECT event_id, e FROM ntuple_a WHERE event_id <= 15"
    QUERY_DISTRIBUTED_1SRV = (
        "SELECT n.event_id, m.detector FROM ntuple_a n JOIN runmeta_a m "
        "ON n.run_id = m.run_id WHERE n.event_id <= 100"
    )
    QUERY_DISTRIBUTED_2SRV = (
        "SELECT n.event_id, m.detector, o.e AS e_b, p.detector AS det_b "
        "FROM ntuple_a n JOIN runmeta_a m ON n.run_id = m.run_id "
        "JOIN ntuple_b o ON n.event_id = o.event_id "
        "JOIN runmeta_b p ON o.run_id = p.run_id "
        "WHERE n.event_id <= 100 AND o.event_id <= 100"
    )


def _make_ntuple_db(
    name: str, rng: DeterministicRNG, n_events: int, n_runs: int
) -> Database:
    """A MySQL mart holding one wide ntuple table."""
    db = Database(name, "mysql")
    db.execute(
        "CREATE TABLE NTUPLE (EVENT_ID INT PRIMARY KEY, RUN_ID INT, "
        "E DOUBLE, PX DOUBLE, PY DOUBLE, PZ DOUBLE)"
    )
    nt = generate_ntuple(rng, n_events, 4, name)
    rows = [
        [i + 1, (i % n_runs) + 1] + [float(v) for v in nt.data[i]]
        for i in range(n_events)
    ]
    db.bulk_insert("NTUPLE", rows)
    return db


def _make_runmeta_db(name: str, rng: DeterministicRNG, n_runs: int) -> Database:
    """An MS SQL mart holding run metadata (forces the JDBC path)."""
    db = Database(name, "mssql")
    db.execute(
        "CREATE TABLE RUNMETA (RUN_ID INT PRIMARY KEY, DETECTOR NVARCHAR(20), "
        "QUALITY DOUBLE)"
    )
    detectors = ("TRACKER", "ECAL", "HCAL", "MUON")
    rows = [
        [r + 1, detectors[r % 4], float(rng.uniform(0, 1))] for r in range(n_runs)
    ]
    db.bulk_insert("RUNMETA", rows)
    return db


def _add_filler_tables(
    db: Database, rng: DeterministicRNG, n_tables: int, rows_per_table: int, prefix: str
) -> int:
    """Small catalog-filler tables; returns rows added."""
    total = 0
    for t in range(n_tables):
        name = f"{prefix}_{t:04d}"
        db.execute(
            f"CREATE TABLE {name} (ID INT PRIMARY KEY, PAYLOAD VARCHAR(32), VAL DOUBLE)"
        )
        rows = [
            [i + 1, f"blob-{t}-{i}", float(rng.uniform(0, 100))]
            for i in range(rows_per_table)
        ]
        db.bulk_insert(name, rows)
        total += rows_per_table
    return total


def build_paper_testbed(
    seed: int = 2005,
    cache: bool = False,
    observe: bool = False,
) -> PaperTestbed:
    """Build the §5.2 deployment on a fresh federation.

    ``cache=True``/``observe=True`` turn on the multi-level query cache
    and the telemetry stack on both servers (both default off, keeping
    the cold Table 1 numbers the prototype's).
    """
    rng = DeterministicRNG("paper-testbed", seed)
    fed = GridFederation()
    s1 = fed.create_server(
        "jclarens1", "pc1.caltech.edu", cache=cache, observe=observe
    )
    s2 = fed.create_server(
        "jclarens2", "pc2.caltech.edu", cache=cache, observe=observe
    )

    main_rows = 2 * NTUPLE_ROWS + 2 * RUNMETA_ROWS
    main_tables = 6  # NTUPLE x2, RUNMETA x2, and two calib/condition extras
    filler_tables = TOTAL_TABLES - main_tables
    # six databases share the filler budget
    per_db_tables = filler_tables // 6
    rows_per_table = (TOTAL_ROWS - main_rows) // filler_tables

    dbs: list[tuple[Database, ServerHandle, dict | None]] = []

    ntuple_a = _make_ntuple_db("ntuple_db_a", rng.fork("na"), NTUPLE_ROWS, RUNMETA_ROWS)
    dbs.append((ntuple_a, s1, {"NTUPLE": "ntuple_a"}))
    runmeta_a = _make_runmeta_db("runmeta_db_a", rng.fork("ra"), RUNMETA_ROWS)
    dbs.append((runmeta_a, s1, {"RUNMETA": "runmeta_a"}))
    extra_a = Database("extra_db_a", "mysql")
    extra_a.execute("CREATE TABLE CALIB (CH INT PRIMARY KEY, GAIN DOUBLE)")
    extra_a.bulk_insert("CALIB", [[i, 1.0 + i * 0.01] for i in range(32)])
    dbs.append((extra_a, s1, {"CALIB": "calib_a"}))

    ntuple_b = _make_ntuple_db("ntuple_db_b", rng.fork("nb"), NTUPLE_ROWS, RUNMETA_ROWS)
    dbs.append((ntuple_b, s2, {"NTUPLE": "ntuple_b"}))
    runmeta_b = _make_runmeta_db("runmeta_db_b", rng.fork("rb"), RUNMETA_ROWS)
    dbs.append((runmeta_b, s2, {"RUNMETA": "runmeta_b"}))
    extra_b = Database("extra_db_b", "mssql")
    extra_b.execute("CREATE TABLE CONDS (K INT PRIMARY KEY, V DOUBLE)")
    extra_b.bulk_insert("CONDS", [[i, float(i)] for i in range(32)])
    dbs.append((extra_b, s2, {"CONDS": "conds_b"}))

    table_count = main_tables
    row_count = main_rows + 64
    for idx, (db, _server, _names) in enumerate(dbs):
        added = _add_filler_tables(
            db, rng.fork(f"filler{idx}"), per_db_tables, rows_per_table, f"AUX{idx}"
        )
        row_count += added
        table_count += per_db_tables

    for db, server, names in dbs:
        fed.attach_database(server, db, logical_names=names)

    client = fed.client("client.cern.ch")
    return PaperTestbed(
        federation=fed,
        server1=s1,
        server2=s2,
        client=client,
        total_rows=row_count,
        total_tables=table_count,
    )
