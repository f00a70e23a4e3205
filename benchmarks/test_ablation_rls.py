"""Ablation B — RLS load distribution vs one central server (§4.8).

The paper motivates the RLS module with load distribution: "load can be
distributed over as many servers as required, instead of putting it
entirely on just one server registering all the databases." We run the
same mixed query workload against (a) a single JClarens server hosting
both ntuple databases and (b) two servers each hosting one, and compare
the busiest server's accumulated service time.
"""

import pytest

from repro.common.rng import DeterministicRNG
from repro.core import GridFederation
from repro.hep.testbed import _make_ntuple_db

from benchmarks.conftest import fmt_row, rows_digest, write_report

WORKLOAD = [
    "SELECT event_id, e FROM ntuple_a WHERE event_id <= 200",
    "SELECT event_id, e FROM ntuple_b WHERE event_id <= 200",
    "SELECT COUNT(*) FROM ntuple_a WHERE e > 20",
    "SELECT COUNT(*) FROM ntuple_b WHERE e > 20",
    "SELECT event_id, px FROM ntuple_a WHERE event_id <= 500",
    "SELECT event_id, px FROM ntuple_b WHERE event_id <= 500",
] * 4


def build(distributed: bool):
    fed = GridFederation()
    s1 = fed.create_server("jc1", "pc1")
    servers = [s1]
    if distributed:
        s2 = fed.create_server("jc2", "pc2")
        servers.append(s2)
    db_a = _make_ntuple_db("ntuple_db_a", DeterministicRNG("rls-a"), 2000, 100)
    db_b = _make_ntuple_db("ntuple_db_b", DeterministicRNG("rls-b"), 2000, 100)
    fed.attach_database(s1, db_a, logical_names={"NTUPLE": "ntuple_a"})
    fed.attach_database(servers[-1], db_b, logical_names={"NTUPLE": "ntuple_b"})
    client = fed.client("laptop")
    return fed, servers, client


def entry_server_for(fed, servers, sql):
    """Client-side use of the RLS: submit to the server hosting the table.

    This is the hierarchical-hosting usage §4.8 describes — the RLS lets
    many small service instances share the table namespace, so clients
    land on the instance that owns their data instead of funneling
    through one registry-of-everything server.
    """
    table = "ntuple_b" if "ntuple_b" in sql else "ntuple_a"
    urls = fed.rls_server.lookup(table)
    by_url = {h.service.service_url: h for h in servers}
    return by_url[urls[0]]


def run_workload(fed, servers, client, digests=None):
    """Run WORKLOAD; per distinct query, ``digests`` (when given) gets the
    rows digest and the sim ms and wire bytes summed over its repeats."""
    for sql in WORKLOAD:
        target = entry_server_for(fed, servers, sql)
        received = client.bytes_received
        outcome = fed.query(client, target, sql)
        if digests is not None:
            digest, ms, nbytes = digests.get(sql, (None, 0.0, 0))
            digests[sql] = (rows_digest(outcome.answer.rows), ms + outcome.response_ms,
                            nbytes + client.bytes_received - received)
    busy = []
    for handle in servers:
        busy_ms = sum(s.busy_ms for s in handle.server.method_stats.values())
        busy.append((handle.name, busy_ms))
    return busy


@pytest.fixture(scope="module")
def comparison():
    digests = {"central": {}, "spread": {}}
    central = run_workload(*build(distributed=False), digests["central"])
    spread = run_workload(*build(distributed=True), digests["spread"])
    widths = [22, 14]
    lines = [fmt_row(["deployment", "busiest ms"], widths)]
    lines.append(fmt_row(["central (1 server)", f"{max(b for _, b in central):.0f}"], widths))
    lines.append(fmt_row(["RLS-spread (2 servers)", f"{max(b for _, b in spread):.0f}"], widths))
    lines += ["", "per-server busy time:"]
    for name, b in central + spread:
        lines.append(f"  {name}: {b:.0f} ms")
    lines += [
        "",
        "rows: sha256[:16] of the answer rows; exact sim ms and response bytes on",
        f"the wire, each summed over the query's {WORKLOAD.count(WORKLOAD[0])} runs",
        fmt_row(["deployment", "query", "rows", "measured ms", "wire bytes"],
                [10, 5, 16, 20, 10]),
        *[
            fmt_row([label, i, d[0], repr(d[1]), d[2]], [10, 5, 16, 20, 10])
            for label, ds in digests.items()
            for i, d in enumerate(ds.values())
        ],
        "",
        "exact busy ms per server:",
        *[f"  {name}: {b!r}" for name, b in central + spread],
    ]
    write_report("ablation_rls", "Ablation B — RLS Load Distribution", lines)
    return central, spread


class TestRLSAblation:
    def test_hotspot_reduced_by_distribution(self, comparison, benchmark):
        central, spread = comparison
        assert max(b for _, b in spread) < max(b for _, b in central)
        benchmark(lambda: None)

    def test_work_actually_split(self, comparison, benchmark):
        _, spread = comparison
        busies = [b for _, b in spread]
        assert all(b > 0 for b in busies)
        # neither server carries more than ~80% of the total
        assert max(busies) / sum(busies) < 0.8
        benchmark(lambda: None)

    def test_rls_used_in_spread_deployment(self, benchmark):
        fed, servers, client = build(distributed=True)
        fed.query(client, servers[0], "SELECT COUNT(*) FROM ntuple_b")
        assert fed.rls_server.lookups >= 1
        benchmark(lambda: fed.query(client, servers[0], "SELECT COUNT(*) FROM ntuple_b"))
