"""Data warehouse and the streaming ETL process (§4.2, §5.1).

The warehouse is an Oracle instance, ``warehouse`` on Tier-0's
``tier0.cern.ch``, holding a denormalized star schema. The ETL pipeline
reproduces the paper's measured process faithfully, including its
admitted bottleneck: every transfer stages rows through a temporary
file — extraction (source query + transform + temp-file write) and
loading (temp-file read + per-row INSERT streaming into the target) are
separately timed, which is exactly what Figures 4 and 5 plot.
``Warehouse.load(job, direct=True)`` implements the paper's stated
future fix (loading the warehouse directly, no staging file) for the
ablation bench; marts and incremental loads are always staged.
"""

from repro.warehouse.etl import (
    ETLJob,
    ETLPipeline,
    ETLReport,
    StagingFile,
    VerificationReport,
)
from repro.warehouse.schema import (
    create_warehouse_schema,
    create_warehouse_views,
    WAREHOUSE_VIEWS,
)
from repro.warehouse.warehouse import Warehouse

__all__ = [
    "ETLJob",
    "ETLPipeline",
    "ETLReport",
    "StagingFile",
    "VerificationReport",
    "WAREHOUSE_VIEWS",
    "Warehouse",
    "create_warehouse_schema",
    "create_warehouse_views",
]
