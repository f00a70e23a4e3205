"""The warehouse object: Oracle at Tier-0 plus its ETL plumbing."""

from __future__ import annotations

from repro.engine.database import Database
from repro.net.network import Network
from repro.net.simclock import SimClock
from repro.warehouse.etl import ETLJob, ETLPipeline, ETLReport
from repro.warehouse.schema import (
    create_warehouse_schema,
    create_warehouse_views,
)


class Warehouse:
    """The Tier-0 Oracle data warehouse with a denormalized star schema."""

    def __init__(
        self,
        network: Network,
        clock: SimClock,
        nvar: int = 8,
        wide_vars: int | None = None,
    ):
        self.network = network
        self.clock = clock
        self.host = "tier0.cern.ch"
        self.nvar = nvar
        if not network.has_host(self.host):
            network.add_host(self.host, tier=0)
        self.db = Database("warehouse", "oracle")
        create_warehouse_schema(self.db, nvar)
        create_warehouse_views(self.db, nvar, wide_vars)
        self.pipeline = ETLPipeline(network, clock, self.db, self.host)

    def load(self, job: ETLJob, direct: bool = False) -> ETLReport:
        """Run one ETL job into the warehouse (staged unless ``direct``)."""
        return self.pipeline.run(job, direct)

    def row_count(self, table: str) -> int:
        return self.db.catalog.get_table(table).row_count
