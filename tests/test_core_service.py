"""Integration tests for the Data Access Service and GridFederation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import JASPlugin
from repro.common import TableNotRegisteredError
from repro.common.errors import ClarensFault
from repro.core import GridFederation
from repro.engine import Database


def make_events_db(name="mart1", n=30):
    db = Database(name, "mysql")
    db.execute("CREATE TABLE EVT (EVENT_ID INT PRIMARY KEY, RUN_ID INT, ENERGY DOUBLE)")
    for i in range(n):
        db.execute(f"INSERT INTO EVT VALUES ({i}, {i % 3}, {i * 1.5})")
    return db


def make_runs_db(name="mart2"):
    db = Database(name, "mssql")
    db.execute("CREATE TABLE RUN_INFO (RUN_ID INT PRIMARY KEY, DETECTOR NVARCHAR(20))")
    for i, d in enumerate(["cms", "atlas", "lhcb"]):
        db.execute(f"INSERT INTO RUN_INFO VALUES ({i}, '{d}')")
    return db


def make_calib_db(name="mart3"):
    db = Database(name, "sqlite")
    db.execute("CREATE TABLE calib (run_id INTEGER PRIMARY KEY, gain REAL)")
    for i in range(3):
        db.execute(f"INSERT INTO calib VALUES ({i}, {1.0 + i * 0.1})")
    return db


@pytest.fixture
def fed():
    federation = GridFederation()
    s1 = federation.create_server("jc1", "pcA")
    s2 = federation.create_server("jc2", "pcB")
    federation.attach_database(s1, make_events_db(), logical_names={"EVT": "events"})
    federation.attach_database(s1, make_runs_db(), logical_names={"RUN_INFO": "runs"})
    federation.attach_database(s2, make_calib_db())
    return federation, s1, s2


class TestLocalRouting:
    def test_pool_vendor_routes_via_pool(self, fed):
        federation, s1, _ = fed
        answer = s1.service.execute("SELECT event_id FROM events LIMIT 5")
        assert answer.routes == ["pool"]
        assert answer.row_count == 5

    def test_mssql_routes_via_jdbc(self, fed):
        federation, s1, _ = fed
        answer = s1.service.execute("SELECT detector FROM runs")
        assert answer.routes == ["jdbc"]

    def test_force_jdbc_disables_pool(self):
        federation = GridFederation()
        s1 = federation.create_server("jc1", "pcA", force_jdbc=True)
        federation.attach_database(s1, make_events_db(), logical_names={"EVT": "events"})
        answer = s1.service.execute("SELECT COUNT(*) FROM events")
        assert answer.routes == ["jdbc"]

    def test_distributed_local_join(self, fed):
        federation, s1, _ = fed
        answer = s1.service.execute(
            "SELECT e.event_id, r.detector FROM events e JOIN runs r "
            "ON e.run_id = r.run_id WHERE e.event_id < 6 ORDER BY e.event_id"
        )
        assert answer.distributed
        assert answer.row_count == 6
        assert sorted(answer.routes) == ["jdbc", "pool"]
        assert answer.servers_accessed == 1
        assert answer.tables_accessed == 2


class TestRemoteForwarding:
    QUERY = (
        "SELECT e.event_id, c.gain FROM events e JOIN calib c "
        "ON e.run_id = c.run_id WHERE e.event_id < 6 ORDER BY e.event_id"
    )

    def test_remote_table_resolved_via_rls(self, fed):
        federation, s1, _ = fed
        before = federation.rls_server.lookups
        answer = s1.service.execute(self.QUERY)
        assert federation.rls_server.lookups == before + 1
        assert answer.servers_accessed == 2
        assert "remote" in answer.routes

    def test_remote_join_values_correct(self, fed):
        federation, s1, _ = fed
        answer = s1.service.execute(self.QUERY)
        gain = answer.rows[0][answer.column_index("gain")]
        assert gain == pytest.approx(1.0)  # event 0 -> run 0 -> gain 1.0
        assert answer.row_count == 6

    def test_remote_location_cached_after_first_lookup(self, fed):
        federation, s1, _ = fed
        s1.service.execute(self.QUERY)
        lookups = federation.rls_server.lookups
        s1.service.execute(self.QUERY)
        assert federation.rls_server.lookups == lookups

    def test_no_forward_refuses_remote(self, fed):
        federation, s1, _ = fed
        with pytest.raises(TableNotRegisteredError):
            s1.service.execute("SELECT gain FROM calib", no_forward=True)

    def test_unknown_table_everywhere_raises(self, fed):
        federation, s1, _ = fed
        from repro.common import RLSLookupError

        with pytest.raises(RLSLookupError):
            s1.service.execute("SELECT x FROM ghost_table")

    def test_querying_owning_server_is_local(self, fed):
        federation, _, s2 = fed
        answer = s2.service.execute("SELECT COUNT(*) FROM calib")
        assert answer.routes == ["pool"]
        assert answer.servers_accessed == 1


class TestWireInterface:
    def test_query_over_the_wire(self, fed):
        federation, s1, _ = fed
        client = federation.client("laptop")
        outcome = federation.query(
            client, s1, "SELECT event_id FROM events ORDER BY event_id LIMIT 3"
        )
        assert outcome.answer.rows == [(0,), (1,), (2,)]
        assert outcome.response_ms > 0

    def test_distributed_flag_over_wire(self, fed):
        federation, s1, _ = fed
        client = federation.client("laptop")
        outcome = federation.query(
            client,
            s1,
            "SELECT e.event_id FROM events e JOIN runs r ON e.run_id = r.run_id",
        )
        assert outcome.answer.distributed
        assert outcome.answer.servers_accessed == 1

    def test_params_over_wire(self, fed):
        federation, s1, _ = fed
        client = federation.client("laptop")
        response = client.call(
            s1.server, "dataaccess.query", "SELECT COUNT(*) FROM events WHERE energy > ?", [30]
        )
        assert response["rows"][0][0] == 9

    def test_tables_method(self, fed):
        federation, s1, _ = fed
        client = federation.client("laptop")
        tables = client.call(s1.server, "dataaccess.tables")
        assert tables == ["events", "runs"]

    def test_describe_unknown_table_faults(self, fed):
        federation, s1, _ = fed
        client = federation.client("laptop")
        with pytest.raises(ClarensFault):
            client.call(s1.server, "dataaccess.describe", "ghost")

    def test_ping(self, fed):
        federation, s1, _ = fed
        client = federation.client("laptop")
        assert client.call(s1.server, "dataaccess.ping") == "pong"


class TestTable1Shape:
    """The headline Table 1 property: distribution costs >10x."""

    def test_distributed_at_least_10x_slower_than_local(self, fed):
        federation, s1, _ = fed
        client = federation.client("laptop")
        local = federation.query(
            client, s1, "SELECT event_id FROM events WHERE event_id < 10"
        )
        distributed = federation.query(
            client,
            s1,
            "SELECT e.event_id, r.detector FROM events e JOIN runs r "
            "ON e.run_id = r.run_id WHERE e.event_id < 10",
        )
        assert distributed.response_ms > 10 * local.response_ms

    def test_two_server_query_slower_than_one_server(self, fed):
        federation, s1, _ = fed
        client = federation.client("laptop")
        one = federation.query(
            client,
            s1,
            "SELECT e.event_id, r.detector FROM events e JOIN runs r "
            "ON e.run_id = r.run_id",
        )
        two = federation.query(
            client,
            s1,
            "SELECT e.event_id, r.detector, c.gain FROM events e "
            "JOIN runs r ON e.run_id = r.run_id "
            "JOIN calib c ON e.run_id = c.run_id",
        )
        assert two.answer.servers_accessed == 2
        assert two.response_ms > one.response_ms


class TestSchemaEvolution:
    def test_new_table_becomes_queryable_after_poll(self, fed):
        federation, s1, _ = fed
        events_db = federation.directory.lookup(
            s1.service.dictionary.url_for("mart1")
        ).database
        events_db.execute("CREATE TABLE extras (k INT PRIMARY KEY, v VARCHAR(10))")
        events_db.execute("INSERT INTO extras VALUES (1, 'a')")
        with pytest.raises(Exception):
            s1.service.execute("SELECT v FROM extras", no_forward=True)
        changed = s1.service.tracker.poll()
        assert changed == ["mart1"]
        answer = s1.service.execute("SELECT v FROM extras")
        assert answer.rows == [("a",)]

    def test_new_table_published_to_rls(self, fed):
        federation, s1, _ = fed
        events_db = federation.directory.lookup(
            s1.service.dictionary.url_for("mart1")
        ).database
        events_db.execute("CREATE TABLE extras (k INT PRIMARY KEY)")
        s1.service.tracker.poll()
        assert "extras" in federation.rls_server.known_tables()

    def test_other_server_sees_new_table_via_rls(self, fed):
        federation, s1, s2 = fed
        events_db = federation.directory.lookup(
            s1.service.dictionary.url_for("mart1")
        ).database
        events_db.execute("CREATE TABLE extras (k INT PRIMARY KEY, v VARCHAR(4))")
        events_db.execute("INSERT INTO extras VALUES (7, 'x')")
        s1.service.tracker.poll()
        answer = s2.service.execute("SELECT v FROM extras WHERE k = 7")
        assert answer.rows == [("x",)]


class TestPluginDatabases:
    def test_plugin_at_runtime(self, fed):
        from repro.dialects import get_dialect
        from repro.metadata import generate_lower_xspec

        federation, s1, _ = fed
        new_db = Database("plugged", "sqlite")
        new_db.execute("CREATE TABLE hot_events (event_id INTEGER PRIMARY KEY)")
        new_db.execute("INSERT INTO hot_events VALUES (1), (2)")
        url = get_dialect("sqlite").make_url("newhost", None, "plugged")
        federation.add_host("newhost")
        federation.directory.register(url, new_db, host_name="newhost")
        spec_xml = generate_lower_xspec(new_db).to_xml()

        client = federation.client("laptop")
        added = client.call(s1.server, "dataaccess.plugin", spec_xml, url, "sqlite")
        assert added == ["hot_events"]
        answer = s1.service.execute("SELECT COUNT(*) FROM hot_events")
        assert answer.rows == [(2,)]
        assert "hot_events" in federation.rls_server.known_tables()

    def test_plugin_vendor_mismatch_faults(self, fed):
        from repro.dialects import get_dialect
        from repro.metadata import generate_lower_xspec

        federation, s1, _ = fed
        new_db = Database("plugged2", "sqlite")
        new_db.execute("CREATE TABLE t (a INT)")
        url = get_dialect("sqlite").make_url("h2", None, "plugged2")
        federation.add_host("h2")
        federation.directory.register(url, new_db, host_name="h2")
        spec_xml = generate_lower_xspec(new_db).to_xml()
        client = federation.client("laptop")
        with pytest.raises(ClarensFault):
            client.call(s1.server, "dataaccess.plugin", spec_xml, url, "mysql")

    def test_plugin_requires_running_database(self, fed):
        federation, s1, _ = fed
        from repro.common import ConnectionFailedError

        spec_xml = (
            "<xspec database='ghost' vendor='sqlite'>"
            "<table name='t' logical='t'>"
            "<column name='a' type='INTEGER' logicalType='INTEGER'/>"
            "</table></xspec>"
        )
        with pytest.raises(ConnectionFailedError):
            s1.service.plugin(spec_xml, "jdbc:sqlite:/nowhere/ghost.db", "sqlite")


class TestJASPlugin:
    def test_histogram_from_grid_query(self, fed):
        federation, s1, _ = fed
        client = federation.client("laptop")
        jas = JASPlugin(federation, client, s1)
        hist = jas.histogram_query(
            "SELECT energy FROM events", "energy", nbins=10
        )
        assert hist.entries == 30
        assert int(hist.counts.sum()) + hist.overflow + hist.underflow == 30


class TestServiceStats:
    def test_stats_counters(self, fed):
        federation, s1, _ = fed
        client = federation.client("laptop")
        federation.query(client, s1, "SELECT COUNT(*) FROM events")
        federation.query(client, s1, "SELECT COUNT(*) FROM runs")
        stats = client.call(s1.server, "dataaccess.stats")
        assert stats["server"] == "jc1"
        assert stats["queries_served"] >= 2
        assert stats["routes"]["pool"] >= 1
        assert stats["routes"]["jdbc"] >= 1
        assert stats["pool_handles"] >= 1
        assert "mart1" in stats["databases"]
        assert stats["methods"]["dataaccess.query"]["calls"] >= 2

    def test_stats_include_pool_when_enabled(self):
        federation = GridFederation()
        server = federation.create_server("jc1", "pc1", jdbc_pooling=True)
        db = make_runs_db("rdb")
        federation.attach_database(server, db)
        server.service.execute("SELECT COUNT(*) FROM run_info")
        server.service.execute("SELECT COUNT(*) FROM run_info")
        stats = server.service.stats()
        assert stats["jdbc_pool"]["hits"] == 1
        assert stats["jdbc_pool"]["misses"] == 1

    def test_stats_wire_safe(self, fed):
        """The stats struct must survive the XML-RPC codec."""
        from repro.clarens import decode_payload, encode_payload

        federation, s1, _ = fed
        s1.service.execute("SELECT COUNT(*) FROM events")
        stats = s1.service.stats()
        _, decoded = decode_payload(encode_payload("m", stats))
        assert decoded["queries_served"] == stats["queries_served"]


class TestRoutesOverWire:
    def test_routes_travel_in_query_response(self, fed):
        federation, s1, _ = fed
        client = federation.client("laptop")
        outcome = federation.query(
            client,
            s1,
            "SELECT e.event_id FROM events e JOIN runs r ON e.run_id = r.run_id",
        )
        assert sorted(outcome.answer.routes) == ["jdbc", "pool"]


# -- ``?`` parameters on every route ------------------------------------------------


@pytest.fixture(scope="module")
def paper_testbed():
    from repro.hep.testbed import build_paper_testbed

    return build_paper_testbed()


def _inline(sql: str, params: tuple) -> str:
    """``sql`` with each ``?`` replaced by its value as a literal."""
    for value in params:
        sql = sql.replace("?", repr(value), 1)
    return sql


class TestParameterBinding:
    """A sub-query's ``?`` keep their index in the client's query; a
    remote peer is sent the sub-query's own values, in text order."""

    DIST_1SRV = (
        "SELECT n.event_id, m.detector FROM ntuple_a n JOIN runmeta_a m "
        "ON n.run_id = m.run_id WHERE n.event_id <= ? AND m.run_id >= ?"
    )
    REMOTE_JOIN = (
        "SELECT n.event_id, o.e FROM ntuple_a n JOIN ntuple_b o "
        "ON n.event_id = o.event_id WHERE n.event_id <= ? AND o.event_id >= ?"
    )

    def test_local_join_binds_each_marts_own_value(self, paper_testbed):
        service = paper_testbed.server1.service
        answer = service.execute(self.DIST_1SRV, (20, 3))
        assert sorted(answer.routes) == ["jdbc", "pool"]
        assert answer.row_count == 18
        assert answer.rows == service.execute(_inline(self.DIST_1SRV, (20, 3))).rows

    def test_remote_join_sends_the_sub_querys_own_values(self, paper_testbed):
        service = paper_testbed.server1.service
        answer = service.execute(self.REMOTE_JOIN, (30, 10))
        assert sorted(answer.routes) == ["pool", "remote"]
        assert answer.row_count == 21
        assert answer.rows == service.execute(_inline(self.REMOTE_JOIN, (30, 10))).rows

    def test_cached_sub_result_keyed_on_its_own_values(self):
        """One sub-query text binds the first value in one query and the
        second in the other: the sub-result cache must tell them apart."""
        from repro.hep.testbed import build_paper_testbed

        service = build_paper_testbed(cache=True).server1.service
        second = (
            "SELECT n.event_id, m.detector FROM ntuple_a n JOIN runmeta_a m "
            "ON n.run_id = m.run_id WHERE m.run_id >= ? AND n.event_id <= ?"
        )
        assert service.execute(self.DIST_1SRV, (20, 25)).row_count == 0
        answer = service.execute(second, (20, 25))
        assert answer.rows == service.execute(_inline(second, (20, 25))).rows
        assert answer.row_count == 6
        repeat = service.execute(second, (20, 25))
        assert repeat.routes == ["cache", "cache"]
        assert repeat.rows == answer.rows

    def test_too_few_params_is_a_type_error(self, paper_testbed):
        from repro.common.errors import SQLTypeError

        with pytest.raises(SQLTypeError, match="requires parameter 2, got 1"):
            paper_testbed.server1.service.execute(self.REMOTE_JOIN, (30,))

    def test_local_routes_parse_no_sql(self, paper_testbed, monkeypatch):
        """The marts run the router's statement: only the client parses."""
        import repro.engine.database as database

        calls = []
        original = database.parse_statement

        def counting(sql):
            calls.append(sql)
            return original(sql)

        monkeypatch.setattr(database, "parse_statement", counting)
        answer = paper_testbed.server1.service.execute(
            paper_testbed.QUERY_DISTRIBUTED_1SRV
        )
        assert sorted(answer.routes) == ["jdbc", "pool"]
        assert calls == []


_ROUTE_SHAPES = {
    # FROM/JOIN clause -> the tables (bindings) it reads
    "events e": ("e",),
    "runs r": ("r",),
    "calib c": ("c",),
    "events e JOIN runs r ON e.run_id = r.run_id": ("e", "r"),
    "events e JOIN calib c ON e.run_id = c.run_id": ("e", "c"),
    "events e JOIN runs r ON e.run_id = r.run_id "
    "JOIN calib c ON e.run_id = c.run_id": ("e", "r", "c"),
}
#: the columns each binding selects and filters on
_ROUTE_COLUMNS = {
    "e": ("e.event_id", "e.run_id", "e.energy"),
    "r": ("r.run_id", "r.detector"),
    "c": ("c.run_id", "c.gain"),
}
_FILTER_COLUMNS = {
    "e": ("e.event_id", "e.run_id", "e.energy"),
    "r": ("r.run_id",),
    "c": ("c.run_id", "c.gain"),
}


@st.composite
def _param_queries(draw):
    """(query with ``?``, its params): filters spread over the bindings,
    so the values land in different sub-queries in any order."""
    shape = draw(st.sampled_from(sorted(_ROUTE_SHAPES)))
    bindings = _ROUTE_SHAPES[shape]
    columns = [c for b in bindings for c in _ROUTE_COLUMNS[b]]
    filters = [c for b in bindings for c in _FILTER_COLUMNS[b]]
    terms = draw(
        st.lists(
            st.tuples(
                st.sampled_from(filters),
                st.sampled_from(["=", "<", "<=", ">", ">=", "<>"]),
                st.integers(-1, 31),
            ),
            min_size=1,
            max_size=4,
        )
    )
    sql = (
        f"SELECT {', '.join(columns)} FROM {shape} "
        f"WHERE {' AND '.join(f'{c} {op} ?' for c, op, _ in terms)} "
        f"ORDER BY {', '.join(columns)}"
    )
    return sql, tuple(v for _, _, v in terms)


@pytest.fixture(scope="module")
def routed_fed():
    """The ``fed`` topology, built once: from jc1, events take the pool
    route, runs the jdbc route and calib the remote route."""
    federation = GridFederation()
    s1 = federation.create_server("jc1", "pcA")
    s2 = federation.create_server("jc2", "pcB")
    federation.attach_database(s1, make_events_db(), logical_names={"EVT": "events"})
    federation.attach_database(s1, make_runs_db(), logical_names={"RUN_INFO": "runs"})
    federation.attach_database(s2, make_calib_db())
    return s1.service


class TestParamsEqualLiteralsOnEveryRoute:
    @given(_param_queries())
    @settings(max_examples=60, deadline=None)
    def test_params_match_inlined_literals(self, routed_fed, query):
        sql, params = query
        bound = routed_fed.execute(sql, params)
        inlined = routed_fed.execute(_inline(sql, params))
        assert bound.rows == inlined.rows
        assert bound.columns == inlined.columns
        assert bound.types == inlined.types
