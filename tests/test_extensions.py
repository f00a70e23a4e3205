"""Tests for the implemented §6 future-work extensions:
replica selection by network proximity, replica failover, and semantic
schema matching.
"""

import pytest

from repro.common import ConnectionFailedError
from repro.core import GridFederation
from repro.core.replicas import ReplicaSelector
from repro.engine import Database
from repro.metadata import generate_lower_xspec
from repro.metadata.semantic import (
    column_similarity,
    find_matches,
    jaccard,
    suggest_logical_names,
    table_similarity,
    tokenize_name,
)
from repro.net.network import WAN


def make_events_db(name, vendor="mysql", n=10):
    db = Database(name, vendor)
    db.execute("CREATE TABLE EVT (EVENT_ID INT PRIMARY KEY, ENERGY DOUBLE)")
    for i in range(n):
        db.execute(f"INSERT INTO EVT VALUES ({i}, {i * 1.0})")
    return db


@pytest.fixture
def replicated_fed():
    """One logical table hosted on a near mart and a far (WAN) mart."""
    fed = GridFederation()
    server = fed.create_server("jc1", "pc1", replica_selection=True)
    near = make_events_db("near_mart")
    far = make_events_db("far_mart")
    fed.attach_database(server, near, db_host="pc1", logical_names={"EVT": "events"})
    fed.attach_database(
        server, far, db_host="faraway.cern.ch", logical_names={"EVT": "events"}
    )
    fed.network.set_link("pc1", "faraway.cern.ch", WAN)
    return fed, server


class TestReplicaSelection:
    def test_both_replicas_registered(self, replicated_fed):
        fed, server = replicated_fed
        assert len(server.service.dictionary.locations("events")) == 2

    def test_selector_ranks_by_link_cost(self, replicated_fed):
        fed, server = replicated_fed
        selector = ReplicaSelector(fed.network, fed.directory, "pc1")
        ranked = selector.rank(server.service.dictionary, "events")
        assert ranked[0].location.database_name == "near_mart"
        assert ranked[0].cost_ms < ranked[1].cost_ms

    def test_service_queries_the_near_replica(self, replicated_fed):
        fed, server = replicated_fed
        # dictionary happens to list near first; force the far one first
        # by rebuilding the dictionary in reverse registration order
        service = server.service
        specs = {
            name: service.dictionary.spec_for(name)
            for name in service.dictionary.databases()
        }
        urls = {name: service.dictionary.url_for(name) for name in specs}
        for name in ("far_mart", "near_mart"):
            service.dictionary.remove_database(name)
        for name in ("far_mart", "near_mart"):
            service.dictionary.add_database(specs[name], urls[name])
        answer = service.execute("SELECT COUNT(*) FROM events")
        # trace the routed sub-query back through the router's directory
        assert answer.rows == [(10,)]
        # with the selector on, the plan must have pinned near_mart even
        # though far_mart is listed first
        plan_pref = service.replica_selector.preferences(
            service.dictionary, ["events"]
        )
        assert plan_pref == {"events": "near_mart"}

    def test_without_selector_first_listed_wins(self):
        fed = GridFederation()
        server = fed.create_server("jc1", "pc1")  # replica_selection off
        assert server.service.replica_selector is None

    def test_failover_skips_dead_replica(self, replicated_fed):
        fed, server = replicated_fed
        selector = ReplicaSelector(fed.network, fed.directory, "pc1")
        near_url = server.service.dictionary.url_for("near_mart")
        fed.directory.unregister(near_url)  # kill the near database process
        choice = selector.choose(server.service.dictionary, "events")
        assert choice.database_name == "far_mart"

    def test_all_replicas_dead_raises(self, replicated_fed):
        fed, server = replicated_fed
        for name in ("near_mart", "far_mart"):
            fed.directory.unregister(server.service.dictionary.url_for(name))
        selector = ReplicaSelector(fed.network, fed.directory, "pc1")
        with pytest.raises(ConnectionFailedError):
            selector.choose(server.service.dictionary, "events")

    def test_preferences_only_for_replicated_tables(self, replicated_fed):
        fed, server = replicated_fed
        single = Database("single_mart", "sqlite")
        single.execute("CREATE TABLE runs (run_id INTEGER PRIMARY KEY)")
        fed.attach_database(server, single, db_host="pc1")
        prefs = server.service.replica_selector.preferences(
            server.service.dictionary, ["events", "runs"]
        )
        assert "events" in prefs and "runs" not in prefs


class TestTokenizer:
    def test_underscore_split(self):
        assert tokenize_name("EVENT_ID") == frozenset({"event", "id"})

    def test_camel_case_split(self):
        assert tokenize_name("runNumber") == frozenset({"run", "number"})

    def test_synonyms_normalize(self):
        assert tokenize_name("EVT_KEY") == frozenset({"event", "id"})
        assert tokenize_name("DET") == frozenset({"detector"})

    def test_plural_singularized(self):
        assert tokenize_name("runs") == frozenset({"run"})

    def test_noise_tokens_dropped(self):
        assert tokenize_name("RUN_INFO") == frozenset({"run"})

    def test_jaccard_bounds(self):
        a = frozenset({"x", "y"})
        assert jaccard(a, a) == 1.0
        assert jaccard(a, frozenset()) == 0.0


class TestSchemaMatching:
    def spec(self, name, vendor, ddl_map):
        db = Database(name, vendor)
        for table, ddl in ddl_map.items():
            db.execute(f"CREATE TABLE {table} ({ddl})")
        return generate_lower_xspec(db)

    def test_same_entity_different_vendors_matches(self):
        a = self.spec(
            "mysql_mart",
            "mysql",
            {"EVT": "EVENT_ID INT PRIMARY KEY, RUN_ID INT, ENERGY DOUBLE"},
        )
        b = self.spec(
            "oracle_mart",
            "oracle",
            {"EVENT_NTUPLE": "EVT_KEY NUMBER(10,0), RUN_NUM NUMBER(10,0), ENE FLOAT"},
        )
        matches = find_matches(a, b)
        assert matches
        best = matches[0]
        assert {best.table_a, best.table_b} == {"EVT", "EVENT_NTUPLE"}
        matched_cols = {(c.column_a, c.column_b) for c in best.columns}
        assert ("EVENT_ID", "EVT_KEY") in matched_cols
        assert ("ENERGY", "ENE") in matched_cols

    def test_unrelated_tables_do_not_match(self):
        a = self.spec("m1", "mysql", {"CALIB": "CHANNEL INT, GAIN DOUBLE"})
        b = self.spec("m2", "mssql", {"USERS": "LOGIN NVARCHAR(20), ACTIVE INT"})
        assert find_matches(a, b) == []

    def test_type_families_gate_column_matches(self):
        a = self.spec("m1", "mysql", {"T": "VALUE DOUBLE"})
        b = self.spec("m2", "mysql", {"T": "VALUE VARCHAR(10)"})
        ca = a.tables[0].columns[0]
        cb = b.tables[0].columns[0]
        assert column_similarity(ca, cb) == 0.0

    def test_table_similarity_symmetric(self):
        a = self.spec("m1", "mysql", {"RUNS": "RUN_ID INT, DETECTOR VARCHAR(10)"})
        b = self.spec("m2", "oracle", {"RUN_INFO": "RUN_NUM NUMBER(10,0), DET VARCHAR2(10)"})
        sab, _ = table_similarity(a.tables[0], b.tables[0])
        sba, _ = table_similarity(b.tables[0], a.tables[0])
        assert sab == pytest.approx(sba)
        assert sab > 0.45

    def test_suggest_logical_names_clusters(self):
        specs = [
            self.spec("s1", "mysql", {"EVT": "EVENT_ID INT, ENERGY DOUBLE"}),
            self.spec("s2", "oracle", {"EVENTS": "EVT_KEY NUMBER(10,0), ENE FLOAT"}),
            self.spec("s3", "mssql", {"EVENT_DATA": "EVENT_ID INT, ENERGY FLOAT"}),
        ]
        suggestions = suggest_logical_names(specs)
        assert len(suggestions) == 1
        members = suggestions[0].members
        assert len(members) == 3
        assert "event" in suggestions[0].logical_name

    def test_suggestion_feeds_dictionary(self):
        """The end-to-end use: matched tables share one logical name."""
        from repro.metadata import DataDictionary

        db1 = Database("s1", "mysql")
        db1.execute("CREATE TABLE EVT (EVENT_ID INT, ENERGY DOUBLE)")
        db2 = Database("s2", "oracle")
        db2.execute("CREATE TABLE EVENTS (EVT_KEY NUMBER(10,0), ENE FLOAT)")
        spec1, spec2 = generate_lower_xspec(db1), generate_lower_xspec(db2)
        suggestion = suggest_logical_names([spec1, spec2])[0]
        name_map_1 = {t: suggestion.logical_name for d, t in suggestion.members if d == "s1"}
        name_map_2 = {t: suggestion.logical_name for d, t in suggestion.members if d == "s2"}
        d = DataDictionary()
        d.add_database(generate_lower_xspec(db1, name_map_1), "jdbc:mysql://h:3306/s1")
        d.add_database(generate_lower_xspec(db2, name_map_2), "jdbc:oracle:thin:@h:1521/s2")
        assert len(d.locations(suggestion.logical_name)) == 2
