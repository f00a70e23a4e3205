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
from repro.poolral import PoolRAL
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

__all__ = [
    "DataAccessService",
    "DataDictionary",
    "Database",
    "DeterministicRNG",
    "Dialect",
    "Directory",
    "ETLJob",
    "ETLPipeline",
    "GridFederation",
    "Histogram1D",
    "JASPlugin",
    "LowerXSpec",
    "MartSet",
    "ChaosSchedule",
    "CircuitBreaker",
    "MetricsRegistry",
    "MonitorDatabase",
    "Network",
    "Ntuple",
    "PoolRAL",
    "QueryAnswer",
    "RLSClient",
    "RLSServer",
    "ReproError",
    "ResilienceConfig",
    "SQLType",
    "SchemaTracker",
    "ServerHandle",
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
    "materialize_view",
    "__version__",
]
