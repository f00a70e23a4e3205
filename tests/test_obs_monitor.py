"""R-GMA-style monitor tables: telemetry answered with federated SQL."""

import pytest

from repro.core import GridFederation
from repro.engine import Database
from repro.lint import DictionarySchema, lint_sql
from repro.obs.monitor import (
    MONITOR_TABLES,
    TIMESTAMP_COLUMN,
    TIMESTAMP_TYPE,
)


def make_events_db(name="mart", n=5):
    db = Database(name, "mysql")
    db.execute("CREATE TABLE EVT (EVENT_ID INT PRIMARY KEY, ENERGY DOUBLE)")
    for i in range(n):
        db.execute(f"INSERT INTO EVT VALUES ({i}, {i * 2.0})")
    return db


@pytest.fixture
def observed():
    fed = GridFederation()
    server = fed.create_server("jc1", "pc1", observe=True)
    fed.attach_database(server, make_events_db(), logical_names={"EVT": "events"})
    return fed, server


class TestSelfQuerying:
    def test_monitor_spans_through_the_federation(self, observed):
        fed, server = observed
        server.service.execute("SELECT COUNT(*) FROM events")
        finished = len(server.service.tracer.spans)
        answer = server.service.execute("SELECT COUNT(*) FROM monitor_spans")
        assert answer.rows[0][0] >= finished

    def test_span_rows_query_by_stage(self, observed):
        fed, server = observed
        server.service.execute("SELECT COUNT(*) FROM events")
        answer = server.service.execute(
            "SELECT COUNT(*) FROM monitor_spans WHERE stage = 'subquery'"
        )
        assert answer.rows[0][0] == 1
        answer = server.service.execute(
            "SELECT COUNT(*) FROM monitor_spans WHERE duration_ms < 0"
        )
        assert answer.rows[0][0] == 0

    def test_monitor_metrics_rows(self, observed):
        fed, server = observed
        server.service.execute("SELECT COUNT(*) FROM events")
        answer = server.service.execute(
            "SELECT value FROM monitor_metrics "
            "WHERE metric = 'queries' AND kind = 'counter'"
        )
        assert answer.rows == [(1.0,)]

    def test_monitor_queries_status(self, observed):
        fed, server = observed
        server.service.execute("SELECT COUNT(*) FROM events")
        answer = server.service.execute(
            "SELECT status, distributed FROM monitor_queries"
        )
        assert ("ok", 0) in answer.rows

    def test_failed_query_lands_in_monitor_queries(self, observed):
        fed, server = observed
        with pytest.raises(Exception):
            server.service.execute("SELECT COUNT(*) FROM nope", no_forward=True)
        answer = server.service.execute(
            "SELECT COUNT(*) FROM monitor_queries WHERE status <> 'ok'"
        )
        assert answer.rows[0][0] == 1

    def test_long_query_text_keeps_every_monitor_table_readable(self, observed):
        # every refresh stages the telemetry like an INSERT: a text column
        # of bounded capacity would refuse this query's text, and with it
        # every later read of any monitor table
        fed, server = observed
        where = " OR ".join(f"ENERGY = {i}.5" for i in range(60))
        long_sql = f"SELECT COUNT(*) FROM events WHERE {where}"
        assert len(long_sql) > 500
        server.service.execute(long_sql)
        texts = server.service.execute("SELECT sql_text FROM monitor_queries").rows
        assert max(len(text) for text, in texts) > 500
        shapes = server.service.execute("SELECT shape FROM monitor_profile").rows
        assert max(len(shape) for shape, in shapes) >= 500


class TestRemoteMonitorAccess:
    def test_peer_queries_anothers_monitor_tables(self):
        """A non-observing peer reaches an observer's telemetry via RLS."""
        fed = GridFederation()
        observer = fed.create_server("jc-obs", "pc1", observe=True)
        plain = fed.create_server("jc-plain", "pc2")
        fed.attach_database(
            observer, make_events_db(), logical_names={"EVT": "events"}
        )
        observer.service.execute("SELECT COUNT(*) FROM events")
        finished = len(observer.service.tracer.spans)
        answer = plain.service.execute("SELECT COUNT(*) FROM monitor_spans")
        assert answer.distributed is False
        assert answer.routes == ["remote"]
        assert answer.rows[0][0] >= finished

    def test_monitor_tables_published_to_rls(self):
        fed = GridFederation()
        fed.create_server("jc-obs", "pc1", observe=True)
        for table in MONITOR_TABLES:
            assert fed.rls_server.lookup(table)


class TestMonitorSchema:
    def test_monitor_queries_lint_clean(self, observed):
        """The monitor DDL plays by the same rules as any federated table."""
        fed, server = observed
        schema = DictionarySchema(server.service.dictionary)
        for sql in (
            "SELECT stage, AVG(duration_ms) FROM monitor_spans GROUP BY stage",
            "SELECT metric, value FROM monitor_metrics WHERE stat = 'p95'",
            "SELECT sql_text, duration_ms FROM monitor_queries "
            "WHERE duration_ms > 10.0",
        ):
            report = lint_sql(sql, schema)
            assert report.ok, f"{sql!r}: {[str(d) for d in report]}"

    def test_all_three_tables_registered(self, observed):
        fed, server = observed
        for table in MONITOR_TABLES:
            assert server.service.dictionary.has_table(table)

    def test_refresh_guard_prevents_recursion(self, observed):
        fed, server = observed
        monitor = server.service.monitor
        # a refresh while refreshing must not re-enter (or deadlock)
        monitor.refresh()
        assert monitor._refreshing is False

    def test_every_monitor_table_has_the_unified_timestamp(self, observed):
        """Schema unification: one simclock ts column, same name+type
        in every monitor table, so history joins line up."""
        fed, server = observed
        monitor = server.service.monitor
        for name in MONITOR_TABLES:
            columns = monitor.catalog.get_table(name).columns
            ts = [c for c in columns if c.name == TIMESTAMP_COLUMN]
            assert len(ts) == 1, name
            assert ts[0].type.kind.value == TIMESTAMP_TYPE, name

    def test_timestamp_column_queryable_on_every_table(self, observed):
        fed, server = observed
        server.service.execute("SELECT COUNT(*) FROM events")
        for name in MONITOR_TABLES:
            answer = server.service.execute(
                f"SELECT COUNT(*) FROM {name} WHERE {TIMESTAMP_COLUMN} >= 0"
            )
            assert answer.rows[0][0] >= 0, name

    def test_span_and_query_rows_stamp_their_finish_instant(self, observed):
        fed, server = observed
        server.service.execute("SELECT COUNT(*) FROM events")
        answer = server.service.execute(
            "SELECT COUNT(*) FROM monitor_spans WHERE ts_ms <> end_ms"
        )
        assert answer.rows[0][0] == 0
        record = server.service.tracer.queries[0]
        answer = server.service.execute(
            "SELECT ts_ms, duration_ms FROM monitor_queries"
        )
        assert answer.rows[0][0] == pytest.approx(record.end_ms)


class TestObserveOffAllocatesNothing:
    """observe=False: no obs objects exist, answers bit-for-bit equal."""

    def run_query(self, observe):
        fed = GridFederation()
        server = fed.create_server("jc1", "pc1", observe=observe)
        fed.attach_database(
            server, make_events_db(), logical_names={"EVT": "events"}
        )
        answer = server.service.execute(
            "SELECT event_id, energy FROM events ORDER BY event_id"
        )
        return server.service, answer

    def test_no_instrumentation_objects_when_off(self):
        service, answer = self.run_query(observe=False)
        assert service.tracer is None
        assert service.monitor is None
        assert service.profiler is None
        assert service.archiver is None
        assert service.slo is None
        assert answer.profile is None

    def test_rows_bit_for_bit_identical_either_way(self):
        _, off = self.run_query(observe=False)
        _, on = self.run_query(observe=True)
        assert off.rows == on.rows
        assert off.columns == on.columns
        assert off.types == on.types
        assert on.profile is not None
