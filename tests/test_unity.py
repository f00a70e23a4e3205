"""Unit tests for query decomposition, integration and the Unity driver."""

import pytest

from repro.common import PlanningError, TableNotRegisteredError
from repro.sql import parse_select
from repro.unity import UnityDriver, decompose

from tests.conftest import reference_database


class TestDecomposeSingle:
    def test_single_table_is_single_plan(self, two_db_federation):
        _, dictionary, *_ = two_db_federation
        plan = decompose(parse_select("SELECT event_id FROM events"), dictionary)
        assert plan.kind == "single"
        assert not plan.is_distributed
        assert len(plan.subqueries) == 1

    def test_single_plan_uses_physical_names(self, two_db_federation):
        _, dictionary, *_ = two_db_federation
        plan = decompose(
            parse_select("SELECT event_id FROM events WHERE energy > 5"), dictionary
        )
        sql = plan.subqueries[0].sql
        assert "EVT" in sql and "ENERGY" in sql
        # physical table with the logical binding kept as an alias
        assert "FROM EVT" in sql

    def test_single_plan_keeps_aggregates_pushed(self, two_db_federation):
        _, dictionary, *_ = two_db_federation
        plan = decompose(
            parse_select("SELECT COUNT(*) AS n, AVG(energy) FROM events"), dictionary
        )
        assert plan.kind == "single"
        assert "AVG" in plan.subqueries[0].sql

    def test_unknown_table_raises(self, two_db_federation):
        _, dictionary, *_ = two_db_federation
        with pytest.raises(TableNotRegisteredError):
            decompose(parse_select("SELECT x FROM ghost"), dictionary)

    def test_unknown_column_raises(self, two_db_federation):
        _, dictionary, *_ = two_db_federation
        with pytest.raises(PlanningError):
            decompose(parse_select("SELECT ghost_col FROM events"), dictionary)

    def test_no_from_raises(self, two_db_federation):
        _, dictionary, *_ = two_db_federation
        with pytest.raises(PlanningError):
            decompose(parse_select("SELECT 1"), dictionary)


class TestDecomposeFederated:
    QUERY = (
        "SELECT e.event_id, r.detector FROM events e JOIN runs r "
        "ON e.run_id = r.run_id WHERE e.energy > 5 AND r.good = 1"
    )

    def test_two_databases_is_federated(self, two_db_federation):
        _, dictionary, *_ = two_db_federation
        plan = decompose(parse_select(self.QUERY), dictionary)
        assert plan.kind == "federated"
        assert plan.is_distributed
        assert sorted(s.binding for s in plan.subqueries) == ["e", "r"]

    def test_single_table_predicates_pushed(self, two_db_federation):
        _, dictionary, *_ = two_db_federation
        plan = decompose(parse_select(self.QUERY), dictionary)
        by_binding = {s.binding: s for s in plan.subqueries}
        assert "ENERGY > 5" in by_binding["e"].sql.replace("(", "").replace(")", "")
        assert "GOOD = 1" in by_binding["r"].sql.replace("(", "").replace(")", "")

    def test_cross_table_predicate_not_pushed(self, two_db_federation):
        _, dictionary, *_ = two_db_federation
        plan = decompose(
            parse_select(
                "SELECT e.event_id FROM events e JOIN runs r ON e.run_id = r.run_id "
                "WHERE e.energy > r.run_id"
            ),
            dictionary,
        )
        for sub in plan.subqueries:
            assert sub.select.where is None

    def test_needed_columns_only(self, two_db_federation):
        _, dictionary, *_ = two_db_federation
        plan = decompose(parse_select(self.QUERY), dictionary)
        e = next(s for s in plan.subqueries if s.binding == "e")
        fetched = {i.alias for i in e.select.items}
        assert fetched == {"event_id", "energy", "run_id"}  # no 'tag'

    def test_pushdown_disabled_fetches_everything(self, two_db_federation):
        _, dictionary, *_ = two_db_federation
        plan = decompose(parse_select(self.QUERY), dictionary, pushdown=False)
        e = next(s for s in plan.subqueries if s.binding == "e")
        assert e.select.where is None
        assert {i.alias for i in e.select.items} == {
            "event_id",
            "run_id",
            "energy",
            "tag",
        }

    def test_left_join_left_side_predicate_not_pushed(self, two_db_federation):
        _, dictionary, *_ = two_db_federation
        plan = decompose(
            parse_select(
                "SELECT e.event_id FROM events e LEFT JOIN runs r "
                "ON e.run_id = r.run_id AND e.energy > 5"
            ),
            dictionary,
        )
        e = next(s for s in plan.subqueries if s.binding == "e")
        assert e.select.where is None  # left-side ON conjunct must not prefilter

    def test_left_join_right_side_predicate_pushed(self, two_db_federation):
        _, dictionary, *_ = two_db_federation
        plan = decompose(
            parse_select(
                "SELECT e.event_id FROM events e LEFT JOIN runs r "
                "ON e.run_id = r.run_id AND r.good = 1"
            ),
            dictionary,
        )
        r = next(s for s in plan.subqueries if s.binding == "r")
        assert r.select.where is not None

    def test_ambiguous_unqualified_column_raises(self, two_db_federation):
        _, dictionary, *_ = two_db_federation
        with pytest.raises(PlanningError):
            decompose(
                parse_select(
                    "SELECT run_id FROM events e JOIN runs r ON e.run_id = r.run_id"
                ),
                dictionary,
            )

    def test_duplicate_binding_raises(self, two_db_federation):
        _, dictionary, *_ = two_db_federation
        with pytest.raises(PlanningError):
            decompose(
                parse_select("SELECT 1 FROM events e JOIN runs e ON 1 = 1"),
                dictionary,
            )

    def test_logical_select_available_for_forwarding(self, two_db_federation):
        _, dictionary, *_ = two_db_federation
        plan = decompose(parse_select(self.QUERY), dictionary)
        e = next(s for s in plan.subqueries if s.binding == "e")
        assert "events" in e.logical_sql
        assert "EVT" not in e.logical_sql

    def test_sub_query_texts_unparse_once(self, two_db_federation):
        _, dictionary, *_ = two_db_federation
        plan = decompose(parse_select(self.QUERY), dictionary)
        for sub in plan.subqueries:
            assert sub.sql is sub.sql
            assert sub.sql == sub.select.unparse()
            assert sub.logical_sql is sub.logical_sql
            assert sub.logical_sql == sub.logical_select.unparse()

    def test_prefer_databases_pins_replica(self, two_db_federation):
        _, dictionary, events, _, (url1, _) = two_db_federation
        from repro.metadata import generate_lower_xspec, LowerXSpec

        spec = generate_lower_xspec(events, logical_names={"EVT": "events"})
        replica_spec = LowerXSpec("replica_db", spec.vendor, spec.tables)
        dictionary.add_database(replica_spec, "jdbc:mysql://other:3306/replica")
        plan = decompose(
            parse_select("SELECT event_id FROM events"),
            dictionary,
            prefer_databases={"events": "replica_db"},
        )
        assert plan.subqueries[0].location.database_name == "replica_db"


class TestUnityDriverExecution:
    """Federated execution must equal single-engine reference execution."""

    EQUIVALENCE_QUERIES = [
        "SELECT e.event_id, r.detector FROM events e JOIN runs r "
        "ON e.run_id = r.run_id ORDER BY e.event_id",
        "SELECT e.event_id FROM events e JOIN runs r ON e.run_id = r.run_id "
        "WHERE e.energy > 5 AND r.good = 1 ORDER BY e.event_id",
        "SELECT r.detector, COUNT(*) AS n FROM events e JOIN runs r "
        "ON e.run_id = r.run_id GROUP BY r.detector ORDER BY n DESC, detector",
        "SELECT e.event_id, r.detector FROM events e LEFT JOIN runs r "
        "ON e.run_id = r.run_id AND r.good = 1 ORDER BY e.event_id",
        "SELECT DISTINCT r.detector FROM events e JOIN runs r "
        "ON e.run_id = r.run_id ORDER BY r.detector",
        "SELECT e.tag, AVG(e.energy) AS avg_e FROM events e JOIN runs r "
        "ON e.run_id = r.run_id WHERE r.good = 1 GROUP BY e.tag "
        "HAVING COUNT(*) > 1 ORDER BY e.tag",
        "SELECT e.event_id FROM events e JOIN runs r ON e.run_id = r.run_id "
        "ORDER BY e.event_id LIMIT 3 OFFSET 1",
        "SELECT event_id, energy FROM events WHERE tag = 'hot' ORDER BY event_id",
        "SELECT COUNT(*) FROM events",
    ]

    @pytest.mark.parametrize("query", EQUIVALENCE_QUERIES)
    def test_federated_equals_reference(self, two_db_federation, query):
        directory, dictionary, *_ = two_db_federation
        driver = UnityDriver(dictionary, directory)
        federated = driver.execute(query)
        reference = reference_database().execute(query)
        assert federated.rows == reference.rows
        assert [c.lower() for c in federated.columns] == [
            c.lower() for c in reference.columns
        ]

    @pytest.mark.parametrize("query", EQUIVALENCE_QUERIES)
    def test_no_pushdown_equals_reference(self, two_db_federation, query):
        directory, dictionary, *_ = two_db_federation
        driver = UnityDriver(dictionary, directory, pushdown=False)
        assert driver.execute(query).rows == reference_database().execute(query).rows

    def test_traces_report_vendors(self, two_db_federation):
        directory, dictionary, *_ = two_db_federation
        driver = UnityDriver(dictionary, directory)
        result = driver.execute(
            "SELECT e.event_id, r.detector FROM events e JOIN runs r "
            "ON e.run_id = r.run_id"
        )
        assert sorted(t.vendor for t in result.traces) == ["mssql", "mysql"]
        assert all(t.via == "jdbc" for t in result.traces)

    def test_params_flow_to_subqueries(self, two_db_federation):
        directory, dictionary, *_ = two_db_federation
        driver = UnityDriver(dictionary, directory)
        result = driver.execute(
            "SELECT e.event_id FROM events e JOIN runs r ON e.run_id = r.run_id "
            "WHERE e.energy > ? ORDER BY e.event_id",
            params=(10,),
        )
        assert result.rows == [(7,), (8,), (9,)]

    def test_result_vector_is_2d_lists(self, two_db_federation):
        directory, dictionary, *_ = two_db_federation
        driver = UnityDriver(dictionary, directory)
        vec = driver.execute("SELECT event_id FROM events LIMIT 2").to_vector()
        assert isinstance(vec, list) and all(isinstance(r, list) for r in vec)

    def test_clock_accumulates_connect_costs(self, two_db_federation):
        from repro.net import SimClock

        directory, dictionary, *_ = two_db_federation
        clock = SimClock()
        driver = UnityDriver(dictionary, directory, clock=clock)
        driver.execute(
            "SELECT e.event_id FROM events e JOIN runs r ON e.run_id = r.run_id"
        )
        from repro.dialects import get_dialect

        floor = (
            get_dialect("mysql").cost.connect_ms
            + get_dialect("mssql").cost.connect_ms
        )
        assert clock.now_ms > floor

    def test_mssql_subquery_renders_with_top_when_limited(self, two_db_federation):
        directory, dictionary, *_ = two_db_federation
        driver = UnityDriver(dictionary, directory)
        result = driver.execute("SELECT detector FROM runs ORDER BY detector LIMIT 2")
        assert result.rows == [("atlas",), ("cms",)]


class TestFederatedStarAndEdges:
    def test_select_star_federated(self, two_db_federation):
        directory, dictionary, *_ = two_db_federation
        driver = UnityDriver(dictionary, directory)
        result = driver.execute(
            "SELECT * FROM events e JOIN runs r ON e.run_id = r.run_id "
            "WHERE e.event_id = 1"
        )
        # all logical columns from both tables, logical names preserved
        assert set(c.lower() for c in result.columns) == {
            "event_id", "run_id", "energy", "tag", "detector", "good",
        }

    def test_qualified_star_federated(self, two_db_federation):
        directory, dictionary, *_ = two_db_federation
        driver = UnityDriver(dictionary, directory)
        result = driver.execute(
            "SELECT e.* FROM events e JOIN runs r ON e.run_id = r.run_id "
            "WHERE e.event_id = 1"
        )
        assert [c.lower() for c in result.columns] == [
            "event_id", "run_id", "energy", "tag",
        ]

    def test_params_inside_pushed_predicate(self, two_db_federation):
        directory, dictionary, *_ = two_db_federation
        driver = UnityDriver(dictionary, directory)
        result = driver.execute(
            "SELECT event_id FROM events WHERE energy > ? ORDER BY event_id",
            params=(10,),
        )
        # single-table plan pushes the parameterized predicate down
        assert "?" in result.traces[0].sql
        assert result.rows == [(7,), (8,), (9,)]

    def test_single_table_order_and_limit_pushed(self, two_db_federation):
        _, dictionary, *_ = two_db_federation
        plan = decompose(
            parse_select("SELECT event_id FROM events ORDER BY energy DESC LIMIT 2"), dictionary
        )
        assert plan.kind == "single"
        sql = plan.subqueries[0].sql
        assert "ORDER BY" in sql and "LIMIT 2" in sql

    def test_distinct_federated(self, two_db_federation):
        directory, dictionary, *_ = two_db_federation
        driver = UnityDriver(dictionary, directory)
        result = driver.execute(
            "SELECT DISTINCT r.good FROM events e JOIN runs r "
            "ON e.run_id = r.run_id ORDER BY r.good"
        )
        assert result.rows == [(0,), (1,)]
