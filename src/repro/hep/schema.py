"""Normalized source schema for ntuple data (§4.1).

Fully normalized: the ntuple values live in an entity-attribute-value
table (one row per event × variable), with runs, ntuple registry,
variable dictionary, calibration and conditions tables around it. This
is the "S schemas" half of the N×S problem: the same ntuple lives here
in third normal form and in the warehouse as a wide fact table.
"""

from __future__ import annotations

import functools

from repro.common.rng import DeterministicRNG
from repro.engine.database import Database
from repro.hep.ntuple import Ntuple
from repro.sql import ast
from repro.sql.parser import parse_each

DETECTORS = ("TRACKER", "ECAL", "HCAL", "MUON")
#: calibration rows per load; their ids run from the load's first event id
N_CALIBRATIONS = 16


@functools.cache
def _source_statements() -> tuple[tuple[str, ast.Statement], ...]:
    return parse_each(
        "CREATE TABLE runs (run_id INTEGER PRIMARY KEY, "
        "detector VARCHAR(24) NOT NULL, start_time VARCHAR(32), n_events INTEGER)",
        "CREATE TABLE ntuples (ntuple_id INTEGER PRIMARY KEY, "
        "run_id INTEGER NOT NULL, title VARCHAR(64), nvar INTEGER)",
        "CREATE TABLE variables (variable_id INTEGER PRIMARY KEY, "
        "ntuple_id INTEGER NOT NULL, var_index INTEGER, name VARCHAR(24), "
        "units VARCHAR(12))",
        "CREATE TABLE events (event_id BIGINT PRIMARY KEY, "
        "ntuple_id INTEGER NOT NULL, run_id INTEGER NOT NULL)",
        "CREATE TABLE event_values (event_id BIGINT NOT NULL, "
        "variable_id INTEGER NOT NULL, value DOUBLE)",
        "CREATE TABLE calibrations (calib_id INTEGER PRIMARY KEY, "
        "detector VARCHAR(24), channel INTEGER, gain DOUBLE, pedestal DOUBLE)",
        "CREATE TABLE conditions (condition_id INTEGER PRIMARY KEY, "
        "run_id INTEGER, name VARCHAR(40), value DOUBLE)",
    )


def create_source_schema(db: Database) -> None:
    """Create the normalized schema on a source database."""
    for text, stmt in _source_statements():
        db.execute_statement(stmt, sql_text=text)


def populate_source(
    db: Database,
    rng: DeterministicRNG,
    ntuples_by_run: dict[int, Ntuple],
    first_event_id: int = 1,
) -> int:
    """Load runs and their ntuples into the normalized schema.

    Returns the next free event id, so several sources can share one
    global event-id space (they must: the warehouse fact table keys on
    it).
    """
    # Key every id space off first_event_id so several sources loaded into
    # one warehouse never collide on fact-table primary keys.
    event_id = first_event_id
    ntuple_id = first_event_id
    variable_id = first_event_id
    condition_id = first_event_id
    for run_id, ntuple in sorted(ntuples_by_run.items()):
        detector = DETECTORS[run_id % len(DETECTORS)]
        db.bulk_insert(
            "runs",
            [[run_id, detector, f"2005-06-{(run_id % 28) + 1:02d}T00:00:00", ntuple.n_events]],
        )
        db.bulk_insert("ntuples", [[ntuple_id, run_id, ntuple.title, ntuple.nvar]])
        var_rows = []
        var_ids = []
        for index, name in enumerate(ntuple.variables):
            units = "GeV" if name in ("E", "PX", "PY", "PZ", "PT", "M") else ""
            var_rows.append([variable_id, ntuple_id, index, name, units])
            var_ids.append(variable_id)
            variable_id += 1
        db.bulk_insert("variables", var_rows)

        event_rows = []
        value_rows = []
        for row in ntuple.rows():
            event_rows.append([event_id, ntuple_id, run_id])
            for var_id, value in zip(var_ids, row):
                value_rows.append([event_id, var_id, value])
            event_id += 1
        db.bulk_insert("events", event_rows)
        db.bulk_insert("event_values", value_rows)

        condition_rows = []
        for name in ("hv_setting", "temperature", "b_field"):
            condition_rows.append([condition_id, run_id, name, float(rng.normal(1.0, 0.05))])
            condition_id += 1
        db.bulk_insert("conditions", condition_rows)
        ntuple_id += 1

    calib_rows = []
    for c in range(N_CALIBRATIONS):
        calib_rows.append(
            [
                first_event_id + c,
                DETECTORS[c % len(DETECTORS)],
                c,
                float(rng.normal(1.0, 0.02)),
                float(rng.normal(0.0, 0.5)),
            ]
        )
    db.bulk_insert("calibrations", calib_rows)
    return event_id
