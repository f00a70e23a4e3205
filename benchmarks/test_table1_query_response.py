"""Table 1 — Query response time (§5.2).

Paper setup: two Clarens servers on a 100 Mbps LAN, six databases
(equally shared between MS SQL Server and MySQL), ~80,000 rows,
~1,700 tables. Three query classes:

=======================  ===========  ==========  ======
servers accessed         distributed  response    tables
=======================  ===========  ==========  ======
1                        No           38 ms       1
1                        Yes          487.5 ms    2
2                        Yes          594 ms      4
=======================  ===========  ==========  ======

We assert the paper's qualitative claims — distribution costs >10x,
adding a second server costs a further RLS lookup + forwarding — and
report simulated vs paper milliseconds.
"""

import pytest

from repro.hep.testbed import build_paper_testbed

from benchmarks.conftest import fmt_row, rows_digest, write_report

PAPER = {"local": 38.0, "dist_1srv": 487.5, "dist_2srv": 594.0}


@pytest.fixture(scope="module")
def testbed():
    return build_paper_testbed()


@pytest.fixture(scope="module")
def measured(testbed):
    tb = testbed
    fed, client, s1 = tb.federation, tb.client, tb.server1
    out = {}
    wire_bytes = {}
    for name, sql in (
        ("local", tb.QUERY_LOCAL),
        ("dist_1srv", tb.QUERY_DISTRIBUTED_1SRV),
        ("dist_2srv", tb.QUERY_DISTRIBUTED_2SRV),
    ):
        received = client.bytes_received
        out[name] = fed.query(client, s1, sql)
        wire_bytes[name] = client.bytes_received - received
    rows = [
        fmt_row(["servers", "distributed", "tables", "paper ms", "measured ms"], [8, 11, 6, 9, 11]),
        fmt_row([1, "No", 1, PAPER["local"], f"{out['local'].response_ms:.1f}"], [8, 11, 6, 9, 11]),
        fmt_row([1, "Yes", 2, PAPER["dist_1srv"], f"{out['dist_1srv'].response_ms:.1f}"], [8, 11, 6, 9, 11]),
        fmt_row([2, "Yes", 4, PAPER["dist_2srv"], f"{out['dist_2srv'].response_ms:.1f}"], [8, 11, 6, 9, 11]),
        "",
        f"testbed: {tb.total_tables} tables, {tb.total_rows} rows across 6 databases",
        f"distribution penalty: {out['dist_1srv'].response_ms / out['local'].response_ms:.1f}x (paper: 12.8x)",
        "",
        "rows: sha256[:16] of the answer rows; exact sim ms; response bytes on the wire",
        fmt_row(["class", "rows", "measured ms", "wire bytes"], [9, 16, 20, 10]),
    ]
    for name, outcome in out.items():
        rows.append(
            fmt_row(
                [name, rows_digest(outcome.answer.rows), repr(outcome.response_ms),
                 wire_bytes[name]],
                [9, 16, 20, 10],
            )
        )
    write_report("table1_query_response", "Table 1 — Query Response Time", rows)
    return out


class TestTable1:
    def test_row1_local_query(self, testbed, measured, benchmark):
        outcome = measured["local"]
        assert outcome.answer.servers_accessed == 1
        assert not outcome.answer.distributed
        assert outcome.answer.tables_accessed == 1
        assert outcome.response_ms == pytest.approx(PAPER["local"], rel=0.25)
        benchmark(
            lambda: testbed.server1.service.execute(testbed.QUERY_LOCAL)
        )

    def test_row2_distributed_one_server(self, testbed, measured, benchmark):
        outcome = measured["dist_1srv"]
        assert outcome.answer.servers_accessed == 1
        assert outcome.answer.distributed
        assert outcome.answer.tables_accessed == 2
        assert outcome.response_ms == pytest.approx(PAPER["dist_1srv"], rel=0.25)
        benchmark(
            lambda: testbed.server1.service.execute(testbed.QUERY_DISTRIBUTED_1SRV)
        )

    def test_row3_distributed_two_servers(self, testbed, measured, benchmark):
        outcome = measured["dist_2srv"]
        assert outcome.answer.servers_accessed == 2
        assert outcome.answer.distributed
        assert outcome.answer.tables_accessed == 4
        assert outcome.response_ms == pytest.approx(PAPER["dist_2srv"], rel=0.25)
        benchmark(
            lambda: testbed.server1.service.execute(testbed.QUERY_DISTRIBUTED_2SRV)
        )

    def test_headline_distribution_penalty(self, measured, benchmark):
        """'response time ... more than 10 times slower' (§5.2)."""
        ratio = measured["dist_1srv"].response_ms / measured["local"].response_ms
        assert ratio > 10
        benchmark(lambda: ratio)

    def test_second_server_costs_more_than_one(self, measured, benchmark):
        assert measured["dist_2srv"].response_ms > measured["dist_1srv"].response_ms
        # ... but far less than double: the remote server works in parallel
        assert measured["dist_2srv"].response_ms < 1.5 * measured["dist_1srv"].response_ms
        benchmark(lambda: None)
