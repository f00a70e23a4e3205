"""The warehouse's denormalized star schema and its analysis views.

The normalized sources store ntuple values in an EAV table (one row per
event × variable); the warehouse pivots them into a wide fact table —
one column per ntuple variable — surrounded by run/detector dimensions.
Read-only views over the integrated data (§4.2) are what get
materialized into the data marts.

Every warehouse runs the same statements, so each is parsed once per
process for its ``nvar`` (and ``wide_vars``) and the tree is shared.
"""

from __future__ import annotations

import functools

from repro.engine.database import Database
from repro.sql import ast
from repro.sql.parser import parse_each


def var_columns(nvar: int) -> list[str]:
    """The wide fact table's variable column names: var_0 .. var_{n-1}."""
    return [f"var_{i}" for i in range(nvar)]


@functools.cache
def _schema_statements(nvar: int) -> tuple[tuple[str, ast.Statement], ...]:
    vars_ddl = ", ".join(f"{c} DOUBLE" for c in var_columns(nvar))
    return parse_each(
        "CREATE TABLE run_dim (run_id INTEGER PRIMARY KEY, "
        "detector VARCHAR(24) NOT NULL, start_time VARCHAR(32), n_events INTEGER)",
        "CREATE TABLE detector_dim (detector VARCHAR(24) PRIMARY KEY, "
        "subsystem VARCHAR(24), channels INTEGER)",
        f"CREATE TABLE event_fact (event_id BIGINT PRIMARY KEY, "
        f"run_id INTEGER NOT NULL, detector VARCHAR(24), {vars_ddl})",
        "CREATE TABLE calib_fact (calib_id INTEGER PRIMARY KEY, "
        "detector VARCHAR(24), channel INTEGER, gain DOUBLE, pedestal DOUBLE)",
        "CREATE TABLE condition_fact (condition_id INTEGER PRIMARY KEY, "
        "run_id INTEGER, name VARCHAR(40), value DOUBLE)",
    )


def create_warehouse_schema(db: Database, nvar: int) -> None:
    """Create the star schema on the (Oracle) warehouse database."""
    for text, stmt in _schema_statements(nvar):
        db.execute_statement(stmt, sql_text=text)


#: names of the analysis views replicated into marts, with a builder each
WAREHOUSE_VIEWS = (
    "v_event_wide",
    "v_run_summary",
    "v_calibration",
    "v_conditions",
)


@functools.cache
def _view_statements(wide_vars: int) -> tuple[tuple[str, ast.Statement], ...]:
    wide_cols = ", ".join(["event_id", "run_id", "detector"] + var_columns(wide_vars))
    return parse_each(
        f"CREATE VIEW v_event_wide AS SELECT {wide_cols} FROM event_fact",
        "CREATE VIEW v_run_summary AS SELECT run_id, COUNT(*) AS n_events, "
        "AVG(var_0) AS mean_var0, MIN(var_0) AS min_var0, MAX(var_0) AS max_var0 "
        "FROM event_fact GROUP BY run_id",
        "CREATE VIEW v_calibration AS SELECT detector, channel, gain, pedestal "
        "FROM calib_fact",
        "CREATE VIEW v_conditions AS SELECT run_id, name, value FROM condition_fact",
    )


def create_warehouse_views(db: Database, nvar: int, wide_vars: int | None = None) -> None:
    """Create read-only analysis views over the integrated data.

    ``wide_vars`` limits how many variable columns ``v_event_wide``
    carries (marts usually replicate a subset of the ntuple variables).
    """
    wide_vars = nvar if wide_vars is None else min(wide_vars, nvar)
    for text, stmt in _view_statements(wide_vars):
        db.execute_statement(stmt, sql_text=text)
