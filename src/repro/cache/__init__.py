"""Multi-level federated query caching with XSpec-epoch invalidation.

Opt-in (``cache=True`` on :func:`GridFederation.create_server`,
:class:`DataAccessService` or :class:`UnityDriver`): three cache levels
— decomposition plans, per-database sub-query results, and forwarded
remote answers — invalidated by per-database epochs that the §4.9
schema tracker (md5 diff) and an ETL pipeline built with the registry
bump on every change. With caching off, none of these objects are ever
allocated and the query pipeline is byte-for-byte the prototype's.
"""

from repro.cache.epochs import EpochRegistry
from repro.cache.manager import CacheManager, PlanEntry, normalize_sql
from repro.cache.remote import RemoteAnswerCache
from repro.cache.store import LRUCache

__all__ = [
    "CacheManager",
    "EpochRegistry",
    "LRUCache",
    "PlanEntry",
    "RemoteAnswerCache",
    "normalize_sql",
]
