"""Unit tests for the Clarens web-service layer and the RLS."""

import pytest

from repro.clarens import (
    ClarensClient,
    ClarensServer,
    ClarensService,
    decode_payload,
    encode_payload,
    payload_bytes,
)
from repro.clarens.server import result_row_count
from repro.common import AuthenticationError, ClarensFault, RLSLookupError
from repro.net import Network, SimClock, costs
from repro.obs.metrics import MetricsRegistry
from repro.rls import RLSClient, RLSServer


class EchoService(ClarensService):
    service_name = "echo"
    exposed = ("say", "rows", "boom")

    def say(self, text):
        return f"echo: {text}"

    def rows(self, n):
        return [[i, f"row{i}"] for i in range(n)]

    def boom(self):
        raise ClarensFault("echo.boom", "deliberate failure")

    def hidden(self):  # not in exposed
        return "secret"


@pytest.fixture
def world():
    net = Network()
    clock = SimClock()
    net.add_host("serverhost")
    net.add_host("clienthost")
    server = ClarensServer("jc1", "serverhost", net, clock)
    server.register_service(EchoService())
    client = ClarensClient("clienthost", net, clock)
    return net, clock, server, client


class TestCodec:
    CASES = [
        None,
        True,
        False,
        42,
        -1,
        3.5,
        "hello",
        "with <xml> & 'quotes'",
        [1, 2, 3],
        [[1, "a"], [2, None]],
        {"columns": ["a"], "rows": [[1]]},
        [],
    ]

    @pytest.mark.parametrize("value", CASES)
    def test_round_trip(self, value):
        text = encode_payload("m.n", value)
        method, decoded = decode_payload(text)
        assert method == "m.n"
        assert decoded == value

    def test_tuples_decode_as_lists(self):
        _, decoded = decode_payload(encode_payload("m", [(1, 2)]))
        assert decoded == [[1, 2]]

    def test_payload_bytes_grows_with_rows(self):
        small = payload_bytes("m", [[1]] * 10)
        big = payload_bytes("m", [[1]] * 100)
        assert big > small * 5

    def test_unencodable_value_raises(self):
        with pytest.raises(ClarensFault):
            encode_payload("m", object())

    def test_malformed_text_raises(self):
        with pytest.raises(ClarensFault):
            decode_payload("<oops")
        with pytest.raises(ClarensFault):
            decode_payload("<methodCall><methodName>m</methodName></methodCall>")

    def test_float_subclass_round_trips(self):
        numpy = pytest.importorskip("numpy")
        text = encode_payload("m", [numpy.float64(1.5)])
        assert "<double>1.5</double>" in text
        assert decode_payload(text) == ("m", [1.5])
        assert payload_bytes("m", [numpy.float64(1.5)]) == len(text.encode("utf-8"))

    @pytest.mark.parametrize("element", ["<double>np.float64(1.5)</double>", "<int>1.5</int>"])
    def test_malformed_number_raises_fault(self, element):
        text = f"<methodCall><methodName>m</methodName><params>{element}</params></methodCall>"
        with pytest.raises(ClarensFault):
            decode_payload(text)


class TestServer:
    def test_dispatch_requires_session(self, world):
        _, _, server, _ = world
        with pytest.raises(AuthenticationError):
            server.dispatch(None, "echo.say", ["hi"])

    def test_authenticate_rejects_bad_credentials(self, world):
        _, _, server, _ = world
        with pytest.raises(AuthenticationError):
            server.authenticate("grid", "wrong")

    def test_dispatch_unknown_service(self, world):
        _, _, server, _ = world
        session = server.authenticate("grid", "grid")
        with pytest.raises(ClarensFault):
            server.dispatch(session, "nosuch.m", [])

    def test_dispatch_unknown_method(self, world):
        _, _, server, _ = world
        session = server.authenticate("grid", "grid")
        with pytest.raises(ClarensFault):
            server.dispatch(session, "echo.nope", [])

    def test_hidden_methods_not_exposed(self, world):
        _, _, server, _ = world
        session = server.authenticate("grid", "grid")
        with pytest.raises(ClarensFault):
            server.dispatch(session, "echo.hidden", [])

    def test_method_without_dot_rejected(self, world):
        _, _, server, _ = world
        session = server.authenticate("grid", "grid")
        with pytest.raises(ClarensFault):
            server.dispatch(session, "justaname", [])

    def test_closed_session_rejected(self, world):
        _, _, server, _ = world
        session = server.authenticate("grid", "grid")
        server._sessions.clear()  # the server restarts
        with pytest.raises(AuthenticationError):
            server.dispatch(session, "echo.say", ["x"])

    def test_method_stats_recorded(self, world):
        _, _, server, client = world
        client.call(server, "echo.rows", 5)
        stats = server.method_stats["echo.rows"]
        assert stats.calls == 1
        assert stats.rows_returned == 5

    def test_row_count_reads_a_rows_array_of_either_kind(self):
        # the encoder writes a tuple of rows as the same array as a list,
        # so both pay the per-row encode and decode costs
        assert result_row_count({"rows": [(1,), (2,)]}) == 2
        assert result_row_count({"rows": ((1,), (2,))}) == 2
        assert result_row_count({"rows": "ab"}) == 0


class TestClient:
    def test_call_round_trip(self, world):
        _, _, server, client = world
        assert client.call(server, "echo.say", "hi") == "echo: hi"

    def test_session_cached(self, world):
        _, clock, server, client = world
        client.call(server, "echo.say", "a")
        t = clock.now_ms
        client.call(server, "echo.say", "b")
        # second call pays no session establishment
        assert clock.now_ms - t < costs.CLARENS_SESSION_MS + 10

    def test_call_advances_clock(self, world):
        _, clock, server, client = world
        before = clock.now_ms
        client.call(server, "echo.rows", 50)
        assert clock.now_ms > before

    def test_larger_results_cost_more_time(self, world):
        _, clock, server, client = world
        client.connect(server)
        t0 = clock.now_ms
        client.call(server, "echo.rows", 10)
        small = clock.now_ms - t0
        t1 = clock.now_ms
        client.call(server, "echo.rows", 1000)
        large = clock.now_ms - t1
        assert large > small * 3

    def test_traffic_counters(self, world):
        net, _, server, client = world
        client.call(server, "echo.rows", 3)
        assert client.calls_made == 1
        assert client.bytes_sent > 0
        assert client.bytes_received > client.bytes_sent
        assert net.messages >= 4  # auth both ways + request + response


class TestRLS:
    @pytest.fixture
    def rls_world(self):
        net = Network()
        clock = SimClock()
        net.add_host("rls.cern.ch")
        net.add_host("jc1")
        server = RLSServer("rls.cern.ch", clock)
        client = RLSClient("jc1", net, clock, server)
        return clock, server, client

    def test_publish_and_lookup(self, rls_world):
        _, server, client = rls_world
        client.publish("events", "clarens://jc1/s1")
        assert client.lookup("events") == ["clarens://jc1/s1"]

    def test_lookup_missing_raises(self, rls_world):
        _, _, client = rls_world
        with pytest.raises(RLSLookupError):
            client.lookup("ghost")

    def test_replicas_accumulate_in_order(self, rls_world):
        _, server, client = rls_world
        client.publish("events", "clarens://a/s")
        client.publish("events", "clarens://b/s")
        client.publish("events", "clarens://a/s")  # duplicate ignored
        assert client.lookup("events") == ["clarens://a/s", "clarens://b/s"]

    def test_publish_many_single_round_trip(self, rls_world):
        clock, server, client = rls_world
        client.publish_many(["t1", "t2", "t3"], "clarens://a/s")
        assert server.known_tables() == ["t1", "t2", "t3"]

    def test_unpublish(self, rls_world):
        _, server, client = rls_world
        client.publish("events", "clarens://a/s")
        server.unpublish("events", "clarens://a/s")
        with pytest.raises(RLSLookupError):
            client.lookup("events")

    def test_misses_are_counted(self, rls_world):
        _, _, client = rls_world
        client.metrics = MetricsRegistry()
        client.publish("events", "clarens://a/s")
        client.lookup("events")
        with pytest.raises(RLSLookupError):
            client.lookup("ghost")
        counters = client.metrics.counters
        assert counters["rls.lookups"].value == 2
        assert counters["rls.hits"].value == 1
        assert counters["rls.misses"].value == 1

    def test_lookup_charges_time(self, rls_world):
        clock, server, client = rls_world
        client.publish("events", "clarens://a/s")
        before = clock.now_ms
        client.lookup("events")
        assert clock.now_ms - before >= costs.RLS_LOOKUP_MS


class TestSessionIds:
    def test_session_ids_are_numbered_per_server(self):
        network = Network()
        network.add_host("pc1")
        first = ClarensServer("jc", "pc1", network, SimClock())
        for _ in range(12):
            first.authenticate("grid", "grid")
        second = ClarensServer("jc", "pc1", network, SimClock())
        assert second.authenticate("grid", "grid") == "jc-session-1"

    def test_identical_federations_answer_in_identical_time(self):
        # session ids travel in every request, so a process-wide counter
        # made a later federation's requests (and sim ms) longer
        from repro.tools.tracereport import DEMO_SQL, build_observed_federation

        def response_ms(sessions_before: int) -> float:
            fed, a, _b = build_observed_federation()
            for _ in range(sessions_before):
                a.server.authenticate("grid", "grid")
            fed2, a2, _b2 = build_observed_federation()
            return fed2.query(fed2.client("laptop"), a2, DEMO_SQL).response_ms

        assert response_ms(0) == response_ms(100)
