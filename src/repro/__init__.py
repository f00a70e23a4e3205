"""repro — Grid-enabled heterogeneous relational database middleware.

A full reproduction of Ali et al., "Heterogeneous Relational Databases
for a Grid-enabled Analysis Environment" (ICPP Workshops 2005): a data
warehouse + data marts + XSpec metadata + Unity-style federated query
driver + POOL-RAL + Clarens web services + Replica Location Service,
running on simulated vendor databases over a virtual-time network.

Quickstart::

    from repro import GridFederation, Database

    fed = GridFederation()
    server = fed.create_server("jclarens1", "pcA.example.org")
    db = Database("mart1", "mysql")
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, x DOUBLE)")
    fed.attach_database(server, db)
    client = fed.client("laptop.example.org")
    outcome = fed.query(client, server, "SELECT COUNT(*) FROM t")
"""

from repro.analysis import Histogram1D, JASPlugin
from repro.common import DeterministicRNG, ReproError, SQLType, TypeKind
from repro.common.errors import PreflightError
from repro.core import DataAccessService, GridFederation, QueryAnswer, ServerHandle
from repro.dialects import Dialect, available_vendors, get_dialect
from repro.driver import Directory, connect
from repro.engine import Database
from repro.hep import Ntuple, generate_ntuple
from repro.marts import MartSet, materialize_view
from repro.metadata import (
    DataDictionary,
    LowerXSpec,
    SchemaTracker,
    UpperXSpec,
    generate_lower_xspec,
)
from repro.net import Network, SimClock
from repro.obs import (
    MetricsRegistry,
    MonitorDatabase,
    Tracer,
    format_span_tree,
)
from repro.poolral import PoolRAL, PoolRALWrapper
from repro.resilience import (
    ChaosSchedule,
    CircuitBreaker,
    ResilienceConfig,
    SubQueryFailure,
)
from repro.rls import RLSClient, RLSServer
from repro.unity import UnityDriver
from repro.warehouse import ETLJob, ETLPipeline, Warehouse

__version__ = "1.0.0"

#: names re-exported from repro.lint, which loads on first use: the
#: engine and the federation run without it
_LINT_EXPORTS = frozenset({"Diagnostic", "LintReport", "Severity", "lint_select", "sqlcheck"})


def __getattr__(name: str):
    if name in _LINT_EXPORTS:
        import repro.lint

        return getattr(repro.lint, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


def _lint_notes(database, sql: str) -> list[str]:
    """EXPLAIN's ``lint:`` lines: the static findings for ``sql``."""
    from repro.lint import CatalogSchema, lint_sql

    try:
        report = lint_sql(sql, CatalogSchema(database))
    except ReproError:
        return []
    return [f"lint: {d}" for d in report]


Database.explain_notes = _lint_notes

__all__ = [
    "DataAccessService",
    "DataDictionary",
    "Database",
    "DeterministicRNG",
    "Diagnostic",
    "Dialect",
    "Directory",
    "ETLJob",
    "ETLPipeline",
    "GridFederation",
    "Histogram1D",
    "JASPlugin",
    "LintReport",
    "LowerXSpec",
    "MartSet",
    "ChaosSchedule",
    "CircuitBreaker",
    "MetricsRegistry",
    "MonitorDatabase",
    "Network",
    "Ntuple",
    "PoolRAL",
    "PoolRALWrapper",
    "PreflightError",
    "QueryAnswer",
    "RLSClient",
    "RLSServer",
    "ReproError",
    "ResilienceConfig",
    "SQLType",
    "SchemaTracker",
    "ServerHandle",
    "Severity",
    "SimClock",
    "SubQueryFailure",
    "Tracer",
    "TypeKind",
    "UnityDriver",
    "UpperXSpec",
    "Warehouse",
    "available_vendors",
    "connect",
    "format_span_tree",
    "generate_lower_xspec",
    "generate_ntuple",
    "get_dialect",
    "lint_select",
    "materialize_view",
    "sqlcheck",
    "__version__",
]
