"""The benchmark's three workloads.

Each workload builds its world through the program's public APIs, makes
every input from the seed, and hands the loop one op at a time:

* ``next_op(i)`` prepares op ``i`` (untimed: draws the query, stages the
  source batch);
* ``execute(op)`` is the timed call into the program;
* ``record(op, result)`` digests the answer (untimed);
* ``verify(records)`` runs the correctness gate after the loop.

The program receives only generated SQL and rows.
"""

from __future__ import annotations

import bisect
import hashlib
import random
from dataclasses import dataclass

from repro.common.rng import DeterministicRNG
from repro.engine.database import Database
from repro.engine.storage import Column
from repro.hep import (
    QueryWorkload,
    WorkloadConfig,
    create_source_schema,
    etl_jobs_for_source,
    events_for_target_kb,
    generate_ntuple,
    populate_source,
)
from repro.hep.testbed import PaperTestbed, build_paper_testbed
from repro.marts import MartSet
from repro.net import Network, SimClock
from repro.warehouse import Warehouse
from repro.warehouse.etl import ETLJob, ETLPipeline

#: the testbed's size (build_paper_testbed defaults; §5.2)
NTUPLE_ROWS = 3000
RUNMETA_ROWS = 150


def digest(rows) -> str:
    """Order-sensitive fingerprint of a result's rows."""
    return hashlib.blake2b(repr(rows).encode("utf-8"), digest_size=16).hexdigest()


def interleave(counts: dict[str, int]) -> list[str]:
    """One period holding each name ``counts[name]`` times, evenly spread
    (smooth weighted round robin; ties go to the name listed first)."""
    total = sum(counts.values())
    current = dict.fromkeys(counts, 0)
    out = []
    for _ in range(total):
        for name, weight in counts.items():
            current[name] += weight
        pick = max(current, key=current.__getitem__)
        current[pick] -= total
        out.append(pick)
    return out


@dataclass
class Op:
    index: int
    kind: str  # "query" or "write"
    key: object  # query class, pool rank, batch number or pass number
    sql: str = ""
    epoch: int = 0  # appends that landed before this op


@dataclass
class OpRecord:
    index: int
    kind: str
    key: object
    epoch: int = 0
    #: perf_counter_ns at the op's start, its raw real time, and that time
    #: at reference host speed (see hostspeed.py)
    start_ns: int = 0
    real_ms: float = 0.0
    ms: float = 0.0
    #: a query's QueryOutcome.response_ms, or a write's extraction+loading
    sim_ms: float = 0.0
    #: rows returned by a query, or rows landed in targets by a write
    rows: int = 0
    digest: str = ""
    error: str | None = None
    #: traced runs: the op's time taken outside its root span
    outer_ns: int = 0


def _services(federation):
    return [handle.service for handle in federation.servers()]


def _binding(federation, name: str):
    directory = federation.directory
    for url in directory.urls():
        binding = directory.lookup(url)
        if binding.database.name == name:
            return binding
    raise KeyError(name)


def federation_counters(federation) -> dict[str, float]:
    """Program-side counters read without any wrapper installed."""
    out: dict[str, float] = {
        "net.messages": federation.network.messages,
        "net.bytes_moved": federation.network.bytes_moved,
        "sim.clock_ms": federation.clock.now_ms,
    }
    for via in ("pool", "jdbc", "remote"):
        out[f"route.{via}"] = 0
    for level in ("plan", "sub", "remote"):
        out[f"cache.{level}.hits"] = 0
        out[f"cache.{level}.misses"] = 0
    out["cache.evictions"] = 0
    out["cache.invalidations"] = 0
    for service in _services(federation):
        for via, n in service.router.route_counts.items():
            out[f"route.{via}"] += n
        if service.cache is not None:
            stats = service.cache.stats()
            for level in ("plan", "sub", "remote"):
                out[f"cache.{level}.hits"] += stats[level]["hits"]
                out[f"cache.{level}.misses"] += stats[level]["misses"]
            out["cache.evictions"] += stats["evictions"]
            out["cache.invalidations"] += stats["invalidations"]
    return out


class Workload:
    """Shared shape; subclasses fill in the world and the ops."""

    name = ""
    why = ""
    #: set-ups per run; setup_s is their median
    setup_reps = 5
    #: ops in the fixed schedule of a traced run
    traced_ops = 0
    #: percentile reported as op_ms_tail (>= 10 samples beyond it per run)
    tail_pct = 99.0

    def __init__(self, seed: int):
        self.seed = seed
        self.clock = None

    def discard(self) -> None:
        """Drop the current world before building another."""
        self.clock = None

    def setup(self) -> None:
        raise NotImplementedError

    def prepare_checks(self) -> None:
        """Build whatever the correctness gate needs (untimed)."""

    def next_op(self, i: int) -> Op:
        raise NotImplementedError

    def execute(self, op: Op):
        raise NotImplementedError

    def record(self, op: Op, result) -> OpRecord:
        raise NotImplementedError

    def verify(self, records: list[OpRecord]) -> dict[int, str]:
        """Failed checks, keyed by op index."""
        raise NotImplementedError

    def counters(self) -> dict[str, float]:
        raise NotImplementedError

    def provenance(self) -> dict:
        return {}

    def label(self, rec: OpRecord) -> str:
        """The kind of request an op was, for the issued-mix report."""
        return rec.kind

    def issued(self, records: list[OpRecord]) -> dict[str, float]:
        """Share of the ops a run actually issued, per request kind."""
        counts: dict[str, int] = {}
        for rec in records:
            name = self.label(rec)
            counts[name] = counts.get(name, 0) + 1
        return {name: round(n / len(records), 4) for name, n in sorted(counts.items())}


# -- table1_cold ---------------------------------------------------------------


class Table1Cold(Workload):
    name = "table1_cold"
    why = (
        "the paper's Table-1 anchor: every query is cold (cache off), so parse, "
        "decompose, connect, remote forwarding, merge and codec run every time"
    )
    traced_ops = 450
    tail_pct = 99.0

    CLASSES = (
        ("local", PaperTestbed.QUERY_LOCAL),
        ("dist_1srv", PaperTestbed.QUERY_DISTRIBUTED_1SRV),
        ("dist_2srv", PaperTestbed.QUERY_DISTRIBUTED_2SRV),
    )
    #: Table 1 of the paper (ms) and the rows each class returns
    PAPER_MS = {"local": 38.0, "dist_1srv": 487.5, "dist_2srv": 594.0}
    ROWS = {"local": 15, "dist_1srv": 100, "dist_2srv": 100}
    SIM_TOLERANCE = 0.25

    def discard(self) -> None:
        super().discard()
        self.testbed = None

    def setup(self) -> None:
        self.testbed = build_paper_testbed(seed=self.seed)
        self.clock = self.testbed.federation.clock
        # lazy set-up: RLS discovery, first connects, POOL handles
        for _name, sql in self.CLASSES:
            self._query(sql)

    def _query(self, sql: str):
        tb = self.testbed
        return tb.federation.query(tb.client, tb.server1, sql)

    def prepare_checks(self) -> None:
        """Reference answers from one engine holding the four tables."""
        oracle = Database("table1_oracle", "generic")
        for logical, db_name, table in (
            ("ntuple_a", "ntuple_db_a", "NTUPLE"),
            ("runmeta_a", "runmeta_db_a", "RUNMETA"),
            ("ntuple_b", "ntuple_db_b", "NTUPLE"),
            ("runmeta_b", "runmeta_db_b", "RUNMETA"),
        ):
            source = _binding(self.testbed.federation, db_name).database
            storage = source.catalog.get_table(table)
            oracle.catalog.create_table(
                logical, [Column(name=c.name, type=c.type) for c in storage.columns]
            )
            oracle.catalog.get_table(logical).append_rows([list(r) for r in storage.rows])
        self.expected = {
            name: digest(oracle.execute(sql).rows) for name, sql in self.CLASSES
        }

    def next_op(self, i: int) -> Op:
        name, sql = self.CLASSES[i % len(self.CLASSES)]
        return Op(i, "query", name, sql)

    def execute(self, op: Op):
        return self._query(op.sql)

    def label(self, rec: OpRecord) -> str:
        return rec.key

    def record(self, op: Op, outcome) -> OpRecord:
        rows = outcome.answer.rows
        return OpRecord(
            op.index, "query", op.key, sim_ms=outcome.response_ms,
            rows=len(rows), digest=digest(rows),
        )

    def verify(self, records: list[OpRecord]) -> dict[int, str]:
        failures: dict[int, str] = {}
        for rec in records:
            if rec.error is not None:
                continue
            paper = self.PAPER_MS[rec.key]
            if rec.digest != self.expected[rec.key]:
                failures[rec.index] = f"{rec.key}: rows differ from the reference"
            elif rec.rows != self.ROWS[rec.key]:
                failures[rec.index] = f"{rec.key}: {rec.rows} rows, expected {self.ROWS[rec.key]}"
            elif abs(rec.sim_ms - paper) > self.SIM_TOLERANCE * paper:
                failures[rec.index] = (
                    f"{rec.key}: simulated {rec.sim_ms:.1f} ms outside paper "
                    f"{paper} ms +-{self.SIM_TOLERANCE:.0%}"
                )
        return failures

    def counters(self) -> dict[str, float]:
        return federation_counters(self.testbed.federation)

    def provenance(self) -> dict:
        return {
            "testbed": "build_paper_testbed",
            "ntuple_rows": NTUPLE_ROWS,
            "tables": self.testbed.total_tables,
            "rows": self.testbed.total_rows,
            "cache": False,
            "classes": [name for name, _ in self.CLASSES],
        }


# -- analysis_refresh ----------------------------------------------------------


DAQ_HOST = "daq.caltech.edu"
NTUPLE_COLUMNS = ["EVENT_ID", "RUN_ID", "E", "PX", "PY", "PZ"]


class _RefreshWorld:
    """The paper testbed plus an incremental ETL feed into ntuple_db_a."""

    def __init__(self, seed: int, cache: bool):
        self.testbed = build_paper_testbed(seed=seed, cache=cache)
        federation = self.testbed.federation
        federation.add_host(DAQ_HOST, tier=2)
        self.source = Database("daq_source", "mysql")
        self.source.execute(
            "CREATE TABLE EVENTS (EVENT_ID INT PRIMARY KEY, RUN_ID INT, "
            "E DOUBLE, PX DOUBLE, PY DOUBLE, PZ DOUBLE)"
        )
        target = _binding(federation, "ntuple_db_a")
        self.pipeline = ETLPipeline(
            federation.network, federation.clock, target.database,
            target.host_name, epochs=federation.epochs,
        )
        self.job = ETLJob(
            source=self.source,
            source_host=DAQ_HOST,
            query="SELECT event_id, run_id, e, px, py, pz FROM events",
            target_table="NTUPLE",
            target_columns=NTUPLE_COLUMNS,
        )

    def stage(self, rows: list[list]) -> None:
        self.source.bulk_insert("EVENTS", rows)

    def append(self):
        return self.pipeline.run_incremental(self.job, "event_id")

    def query(self, sql: str):
        tb = self.testbed
        return tb.federation.query(tb.client, tb.server1, sql)


class AnalysisRefresh(Workload):
    name = "analysis_refresh"
    why = (
        "cached analysis: Zipf-skewed repeats over a pool larger than the caches, "
        "with incremental ETL appends that invalidate ntuple_db_a's sub-results"
    )
    traced_ops = 1000
    tail_pct = 99.0

    #: distinct queries; above the plan cache (256) and sub-result cache (1024)
    POOL_SIZE = 2000
    #: Assumed, not measured (neither the paper nor the repo has a query
    #: log): s = 1 puts about 72 % of requests on the 200 hottest queries
    #: and 92 % on the 1,024 that fit the sub-result cache.
    ZIPF_S = 1.0
    #: Assumed: every APPEND_EVERY-th op is an incremental ETL append of
    #: BATCH_EVENTS events, so a 1,000-op run grows ntuple_a's 3,000 rows by
    #: about 13 % and the query cost stays about level through the run.
    APPEND_EVERY = 50
    BATCH_EVENTS = 20
    #: most popular queries issued once during warm-up (cache fill)
    WARM_HEAD = 200
    #: Kind shares of the pool, in queries per period of 50 ranks.
    #: QueryWorkload.generate's default mix is 30 % point, 30 % range,
    #: 20 % aggregate, 20 % join. Local joins are capped at 18 %: their
    #: LIMIT takes 180 values per side, so 360 distinct joins exist for
    #: 2,000 ranks. The other 2 % of the join share goes to distributed
    #: (cross-server) joins, the one kind the default mix leaves out.
    MIX = {"point": 15, "range": 15, "aggregate": 10, "join": 9, "distributed": 1}

    def __init__(self, seed: int):
        super().__init__(seed)
        # a fixed kind per rank keeps the cost profile the same for every seed
        self.kind_pattern = interleave(self.MIX)
        self.kinds: list[str] = []
        self.pool = self._make_pool()
        weights = [1.0 / (rank + 1) ** self.ZIPF_S for rank in range(len(self.pool))]
        self._cumulative = []
        total = 0.0
        for w in weights:
            total += w
            self._cumulative.append(total)
        self.world = None

    def _make_pool(self) -> list[str]:
        """Distinct queries from both ntuple sides, in popularity order."""
        rng = DeterministicRNG("analysis-pool", self.seed)
        sides = [
            # side a also reaches events the appends will land
            QueryWorkload(rng.fork("a"), WorkloadConfig(max_event_id=NTUPLE_ROWS + 400)),
            QueryWorkload(
                rng.fork("b"),
                WorkloadConfig(
                    ntuple_table="ntuple_b",
                    runmeta_table="runmeta_b",
                    remote_ntuple_table="ntuple_a",
                    max_event_id=NTUPLE_ROWS,
                ),
            ),
        ]
        seen: set[str] = set()
        pool: list[str] = []
        width = len(self.kind_pattern)
        while len(pool) < self.POOL_SIZE:
            rank = len(pool)
            side = sides[(rank + rank // width) % 2]
            kind = self.kind_pattern[rank % width]
            # the join cap uses every LIMIT value: the last few take many draws
            for _attempt in range(20000):
                sql = side.generate(1, {kind: 1.0})[0].sql
                if sql not in seen:
                    break
            else:
                raise RuntimeError(f"no new distinct query for pool rank {rank}")
            seen.add(sql)
            pool.append(sql)
            self.kinds.append(kind)
        return pool

    def label(self, rec: OpRecord) -> str:
        return "append" if rec.kind == "write" else self.kinds[rec.key]

    def _batch(self, k: int) -> list[list]:
        """The k-th batch of fresh events (k = 0 lands during set-up)."""
        rng = DeterministicRNG("analysis-batches", self.seed).fork(f"batch{k}")
        ntuple = generate_ntuple(rng, self.BATCH_EVENTS, 4, f"batch{k}")
        first = NTUPLE_ROWS + 1 + k * self.BATCH_EVENTS
        return [
            [first + j, (first + j) % RUNMETA_ROWS + 1]
            + [float(v) for v in ntuple.data[j]]
            for j in range(self.BATCH_EVENTS)
        ]

    def discard(self) -> None:
        super().discard()
        self.world = None

    def setup(self) -> None:
        self.world = _RefreshWorld(self.seed, cache=True)
        self.clock = self.world.testbed.federation.clock
        self.world.stage(self._batch(0))
        self.world.append()  # sets the ETL watermark
        for sql in self.pool[: self.WARM_HEAD]:
            self.world.query(sql)
        self._draws = random.Random(f"draws-{self.seed}")

    def next_op(self, i: int) -> Op:
        epoch = (i + 1) // self.APPEND_EVERY
        if (i + 1) % self.APPEND_EVERY == 0:
            self.world.stage(self._batch(epoch))
            return Op(i, "write", epoch, epoch=epoch)
        point = self._draws.random() * self._cumulative[-1]
        rank = min(bisect.bisect_left(self._cumulative, point), len(self.pool) - 1)
        return Op(i, "query", rank, self.pool[rank], epoch)

    def execute(self, op: Op):
        if op.kind == "write":
            return self.world.append()
        return self.world.query(op.sql)

    def record(self, op: Op, result) -> OpRecord:
        if op.kind == "write":
            return OpRecord(
                op.index, "write", op.key, op.epoch,
                sim_ms=result.extraction_ms + result.loading_ms, rows=result.rows,
            )
        rows = result.answer.rows
        return OpRecord(
            op.index, "query", op.key, op.epoch, sim_ms=result.response_ms,
            rows=len(rows), digest=digest(rows),
        )

    def verify(self, records: list[OpRecord]) -> dict[int, str]:
        """Replay the ops on a cache-off twin that receives the same appends."""
        twin = _RefreshWorld(self.seed, cache=False)
        twin.stage(self._batch(0))
        twin.append()
        service = twin.testbed.server1.service
        reference: dict[tuple, str] = {}
        failures: dict[int, str] = {}
        for rec in records:
            if rec.kind == "write":
                twin.stage(self._batch(rec.key))
                landed = twin.append().rows
                if rec.error is None and rec.rows != landed:
                    failures[rec.index] = f"append {rec.key}: {rec.rows} rows, twin {landed}"
                continue
            if rec.error is not None:
                continue
            sql = self.pool[rec.key]
            # only ntuple_a receives appends; other answers never change
            key = (rec.key, rec.epoch if "ntuple_a" in sql else -1)
            if key not in reference:
                reference[key] = digest(service.execute(sql).rows)
            if rec.digest != reference[key]:
                failures[rec.index] = f"query rank {rec.key} epoch {rec.epoch}: rows differ from the cache-off twin"
        return failures

    def counters(self) -> dict[str, float]:
        return federation_counters(self.world.testbed.federation)

    def provenance(self) -> dict:
        cache = self.world.testbed.server1.service.cache
        return {
            "testbed": "build_paper_testbed(cache=True)",
            "pool_size": self.POOL_SIZE,
            "zipf_s": self.ZIPF_S,
            "plan_cache_entries": cache.plan.max_entries,
            "sub_cache_entries": cache.sub.max_entries,
            "remote_answer_ttl_sim_ms": cache.remote.ttl_ms,
            "append_every_ops": self.APPEND_EVERY,
            "append_batch_events": self.BATCH_EVENTS,
            "warm_head_queries": self.WARM_HEAD,
            "pool_kinds_per_50_ranks": self.MIX,
            "kind_pattern": self.kind_pattern,
        }


# -- etl_marts -----------------------------------------------------------------


class EtlMarts(Workload):
    name = "etl_marts"
    why = (
        "the paper's Stage 1+2 write path: staged warehouse ETL then view "
        "materialization into four vendor marts; the query path is idle"
    )
    traced_ops = 12
    #: 60 to 110 passes in 15 s, with the host's speed: 6 to 11 beyond p90
    tail_pct = 90.0

    #: top of Figure 5's x-axis (kB of view data)
    VIEW_KB = 80.0
    NVAR = 8
    SOURCE_HOST = "tier1.cern.ch"
    VENDORS = ("mysql", "mssql", "oracle", "sqlite")
    VIEW = "v_event_wide"

    def discard(self) -> None:
        super().discard()
        self.source = None

    def setup(self) -> None:
        self.n_events = events_for_target_kb(self.VIEW_KB, self.NVAR)
        rng = DeterministicRNG("etl-source", self.seed)
        self.source = Database("tier1_source", "oracle")
        create_source_schema(self.source)
        populate_source(
            self.source, rng, {1: generate_ntuple(rng.fork("nt"), self.n_events, self.NVAR)}
        )
        self.network = Network()
        self.network.add_host(self.SOURCE_HOST, 1)
        self.clock = SimClock()
        self.job = etl_jobs_for_source(self.source, self.SOURCE_HOST, self.NVAR)[0]
        self.staged_kb = self._pass()[2][1].staged_kb  # warm-up pass

    def _pass(self):
        """Source → fresh warehouse → four fresh marts."""
        warehouse = Warehouse(self.network, self.clock, nvar=self.NVAR)
        reports = [warehouse.load(self.job)]
        marts = MartSet(warehouse)
        for i, vendor in enumerate(self.VENDORS):
            marts.add_mart(Database(f"mart_{vendor}", vendor), f"mart{i}.caltech.edu")
        reports += marts.replicate([self.VIEW])
        return warehouse, marts, reports

    def next_op(self, i: int) -> Op:
        return Op(i, "write", i)

    def execute(self, op: Op):
        return self._pass()

    def record(self, op: Op, result) -> OpRecord:
        warehouse, marts, reports = result
        view_rows = warehouse.db.execute(f"SELECT COUNT(*) FROM {self.VIEW}").rows[0][0]
        mart_rows = [db.catalog.get_table(self.VIEW).row_count for db, _host in marts.marts]
        return OpRecord(
            op.index, "write", op.key,
            sim_ms=sum(r.extraction_ms + r.loading_ms for r in reports),
            rows=sum(r.rows for r in reports),
            digest=f"{view_rows}:{','.join(map(str, mart_rows))}",
        )

    def verify(self, records: list[OpRecord]) -> dict[int, str]:
        failures: dict[int, str] = {}
        for rec in records:
            if rec.error is not None:
                continue
            view_rows, mart_rows = rec.digest.split(":")
            counts = {int(n) for n in mart_rows.split(",")}
            if int(view_rows) != self.n_events or counts != {self.n_events}:
                failures[rec.index] = (
                    f"pass {rec.key}: view {view_rows} rows, marts {mart_rows}, "
                    f"source {self.n_events} events"
                )
        return failures

    def counters(self) -> dict[str, float]:
        return {
            "net.messages": self.network.messages,
            "net.bytes_moved": self.network.bytes_moved,
            "sim.clock_ms": self.clock.now_ms,
        }

    def provenance(self) -> dict:
        return {
            "view": self.VIEW,
            "view_kb_target": self.VIEW_KB,
            "view_kb_staged": round(self.staged_kb, 3),
            "source_events": self.n_events,
            "nvar": self.NVAR,
            "marts": list(self.VENDORS),
        }


WORKLOADS = {cls.name: cls for cls in (Table1Cold, AnalysisRefresh, EtlMarts)}
