"""Vendor dialect personalities.

The paper's testbed mixes Oracle (Tier-0/1), MySQL (Tier-2 sources and
marts), Microsoft SQL Server (marts) and SQLite (disconnected-analysis
marts). A :class:`~repro.dialects.base.Dialect` captures everything the
middleware must bridge per vendor: type-name mapping in both directions,
identifier quoting, limit syntax, connection URL grammar, POOL-RAL
supportability, and the latency cost profile used by the simulated
testbed.
"""

from repro.dialects.base import CostProfile, Dialect
from repro.dialects.registry import available_vendors, get_dialect, register_dialect

__all__ = [
    "CostProfile",
    "Dialect",
    "available_vendors",
    "get_dialect",
    "register_dialect",
]
