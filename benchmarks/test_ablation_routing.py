"""Ablation C — POOL-RAL routing vs forcing everything through JDBC.

§4.5/§4.7: sub-queries for POOL-supported vendors go through cached
POOL-RAL handles; the rest pay a fresh JDBC connect+authenticate per
query. This bench pins the routing both ways and shows the POOL path is
what keeps local (non-distributed) queries at Table 1's 38 ms.
"""

import pytest

from repro.common.rng import DeterministicRNG
from repro.core import GridFederation
from repro.hep.testbed import _make_ntuple_db

from benchmarks.conftest import fmt_row, rows_digest, write_report

QUERY = "SELECT event_id, e FROM ntuple WHERE event_id <= 15"


def build(force_jdbc: bool):
    fed = GridFederation()
    server = fed.create_server("jc1", "pc1", force_jdbc=force_jdbc)
    db = _make_ntuple_db("ntuple_db", DeterministicRNG("route"), 3000, 150)
    fed.attach_database(server, db, logical_names={"NTUPLE": "ntuple"})
    client = fed.client("laptop")
    return fed, server, client


@pytest.fixture(scope="module")
def comparison():
    out = {}
    wire_bytes = {}
    for label, force in (("pool", False), ("jdbc", True)):
        fed, server, client = build(force)
        received = client.bytes_received
        outcome = fed.query(client, server, QUERY)
        wire_bytes[label] = client.bytes_received - received
        out[label] = (outcome, server)
    widths = [8, 12, 10]
    lines = [
        fmt_row(["route", "response ms", "routes"], widths),
        fmt_row(["pool", f"{out['pool'][0].response_ms:.1f}",
                 out["pool"][1].service.router.route_counts["pool"]], widths),
        fmt_row(["jdbc", f"{out['jdbc'][0].response_ms:.1f}",
                 out["jdbc"][1].service.router.route_counts["jdbc"]], widths),
        "",
        "pool: cached handle initialized at registration (paper wrapper method 1);",
        "jdbc: per-query XSpec parse + connect + authenticate (the N x S cost).",
        "",
        "rows: sha256[:16] of the answer rows; exact sim ms; response bytes on the wire",
        fmt_row(["route", "rows", "measured ms", "wire bytes"], [8, 16, 20, 10]),
        *[
            fmt_row(
                [label, rows_digest(out[label][0].answer.rows),
                 repr(out[label][0].response_ms), wire_bytes[label]],
                [8, 16, 20, 10],
            )
            for label in ("pool", "jdbc")
        ],
    ]
    write_report("ablation_routing", "Ablation C — POOL-RAL vs JDBC Routing", lines)
    return out


class TestRoutingAblation:
    def test_pool_path_much_faster(self, comparison, benchmark):
        pool_ms = comparison["pool"][0].response_ms
        jdbc_ms = comparison["jdbc"][0].response_ms
        assert jdbc_ms > 5 * pool_ms
        benchmark(lambda: None)

    def test_same_answers_either_way(self, comparison, benchmark):
        assert comparison["pool"][0].answer.rows == comparison["jdbc"][0].answer.rows
        benchmark(lambda: None)

    def test_route_counters(self, comparison, benchmark):
        assert comparison["pool"][1].service.router.route_counts["pool"] >= 1
        assert comparison["pool"][1].service.router.route_counts["jdbc"] == 0
        assert comparison["jdbc"][1].service.router.route_counts["pool"] == 0
        assert comparison["jdbc"][1].service.router.route_counts["jdbc"] >= 1
        benchmark(lambda: None)

    def test_mssql_always_takes_jdbc(self, benchmark):
        """The vendor matrix forces MS SQL through JDBC regardless."""
        from repro.engine import Database

        fed = GridFederation()
        server = fed.create_server("jc1", "pc1")
        db = Database("m", "mssql")
        db.execute("CREATE TABLE T (A INT PRIMARY KEY)")
        db.execute("INSERT INTO T VALUES (1)")
        fed.attach_database(server, db)
        answer = server.service.execute("SELECT a FROM t")
        assert answer.routes == ["jdbc"]
        benchmark(lambda: server.service.execute("SELECT a FROM t"))
