"""POOL Relational Abstraction Layer (§4.7).

The paper wraps CERN's C++ POOL-RAL behind a two-method JNI facade:
one method initializes (and caches) a database session handle from a
connection string, the other executes a query through a cached handle.
Here those are :meth:`PoolRAL.initialize`, which a POOL route calls at
registration, and :meth:`PoolRAL.execute_sql`, which it calls per
sub-query. Handle caching is the load-bearing detail: POOL-routed local
queries skip the per-query connect/authenticate cost that dominates the
Unity/JDBC path — that is why Table 1's non-distributed query is >10×
faster.

POOL supports Oracle, MySQL and SQLite; Microsoft SQL Server is *not*
supported and must take the JDBC path (see ``Dialect.pool_supported``).
"""

from repro.poolral.ral import RALHandle, PoolRAL

__all__ = ["PoolRAL", "RALHandle"]
