"""Unity-style federated query driver (§4.6).

Given a SQL query written entirely in *logical* names, the decomposer
resolves every table through the data dictionary, splits the query into
per-database sub-queries (with single-table predicates pushed down),
and emits an integration query; the integrator loads sub-results into a
scratch engine instance and runs the integration query there — which is
how our enhancement applies joins "on rows extracted from multiple
databases" with full SQL semantics (grouping, ordering, limits).

``pushdown=False`` reproduces the *original* Unity behaviour the paper
criticizes: every sub-query fetches whole tables and all filtering
happens in middleware memory.
"""

from repro.unity.decompose import DecomposedQuery, SubQuery, decompose
from repro.unity.merge import Integrator
from repro.unity.driver import QueryAnswer, UnityDriver

__all__ = [
    "DecomposedQuery",
    "Integrator",
    "QueryAnswer",
    "SubQuery",
    "UnityDriver",
    "decompose",
]
