"""Extension bench — wide-area distribution and replica selection.

§6 future work, implemented and measured: "testing the system for query
distribution on geographically distributed databases ... over wide area
networks" and "a system that could decide the closest available
database (in terms of network connectivity) from a set of replicated
databases."

Scenario: the two-server deployment of Table 1, but the second server
sits across a WAN (10 Mbps, 45 ms). Without replica awareness, a query
against a table replicated on both sides may be served from the far
copy; the proximity selector pins it to the near one.
"""

import pytest

from repro.common.rng import DeterministicRNG
from repro.core import GridFederation
from repro.core.replicas import ReplicaSelector
from repro.hep.testbed import _make_ntuple_db
from repro.net.network import WAN

from benchmarks.conftest import fmt_row, rows_digest, write_report

QUERY = "SELECT event_id, e FROM events WHERE event_id <= 500"


def build(selection: bool):
    fed = GridFederation()
    server = fed.create_server("jc1", "site-a", replica_selection=selection)
    # replicas hold identical data (same deterministic stream)
    near = _make_ntuple_db("near_replica", DeterministicRNG("wan"), 2000, 100)
    far = _make_ntuple_db("far_replica", DeterministicRNG("wan"), 2000, 100)
    # register the FAR copy first: a naive dictionary picks it
    fed.attach_database(
        server, far, db_host="site-b", logical_names={"NTUPLE": "events"}
    )
    fed.attach_database(
        server, near, db_host="site-a", logical_names={"NTUPLE": "events"}
    )
    fed.network.set_link("site-a", "site-b", WAN)
    client = fed.client("site-a-laptop")
    return fed, server, client


@pytest.fixture(scope="module")
def comparison():
    out = {}
    wire_bytes = {}
    for label, selection in (("naive", False), ("proximity", True)):
        fed, server, client = build(selection)
        received = client.bytes_received
        outcome = fed.query(client, server, QUERY)
        wire_bytes[label] = client.bytes_received - received
        out[label] = outcome
    widths = [12, 14]
    lines = [
        fmt_row(["policy", "response ms"], widths),
        fmt_row(["naive", f"{out['naive'].response_ms:.1f}"], widths),
        fmt_row(["proximity", f"{out['proximity'].response_ms:.1f}"], widths),
        "",
        "naive: dictionary order picks the WAN replica (10 Mbps / 45 ms);",
        "proximity: the ReplicaSelector pins the query to the local copy.",
        "",
        "rows: sha256[:16] of the answer rows; exact sim ms; response bytes on the wire",
        fmt_row(["policy", "rows", "measured ms", "wire bytes"], [12, 16, 20, 10]),
        *[
            fmt_row(
                [label, rows_digest(m.answer.rows), repr(m.response_ms), wire_bytes[label]],
                [12, 16, 20, 10],
            )
            for label, m in out.items()
        ],
    ]
    write_report("ext_wan_replicas", "Extension — WAN Replica Selection", lines)
    return out


class TestWANReplicaSelection:
    def test_same_answer_either_policy(self, comparison, benchmark):
        assert comparison["naive"].answer.rows == comparison["proximity"].answer.rows
        benchmark(lambda: None)

    def test_proximity_beats_naive_over_wan(self, comparison, benchmark):
        assert comparison["proximity"].response_ms < comparison["naive"].response_ms
        benchmark(lambda: None)

    def test_wan_penalty_is_link_bound(self, comparison, benchmark):
        """The naive policy pays at least one WAN hop + payload extra."""
        delta = comparison["naive"].response_ms - comparison["proximity"].response_ms
        assert delta > WAN.latency_ms
        benchmark(lambda: None)

    def test_selector_ranking_is_stable(self, benchmark):
        fed, server, _ = build(selection=True)
        selector = ReplicaSelector(fed.network, fed.directory, "site-a")
        first = selector.rank(server.service.dictionary, "events")
        second = selector.rank(server.service.dictionary, "events")
        assert [c.location.database_name for c in first] == [
            c.location.database_name for c in second
        ]
        assert first[0].location.database_name == "near_replica"
        benchmark(lambda: selector.rank(server.service.dictionary, "events"))
