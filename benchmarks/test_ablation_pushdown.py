"""Ablation D — predicate pushdown vs the original Unity behaviour.

§3: the stock Unity driver "does not do any load distribution ... if
there is a lot of data to be fetched for a query, the memory becomes
overloaded". Our enhancement pushes single-table predicates and fetches
only the needed columns; with ``pushdown=False`` the driver behaves
like stock Unity (whole tables into middleware memory).
"""

import pytest

from repro.common.rng import DeterministicRNG
from repro.dialects import get_dialect
from repro.driver import Directory
from repro.metadata import DataDictionary, generate_lower_xspec
from repro.net import Network, SimClock
from repro.unity import UnityDriver

from benchmarks.conftest import fmt_row, rows_digest, write_report

QUERY = (
    "SELECT n.event_id, m.detector FROM ntuple n JOIN runmeta m "
    "ON n.run_id = m.run_id WHERE n.event_id <= 50"
)


def build():
    from repro.hep.testbed import _make_ntuple_db, _make_runmeta_db

    directory = Directory()
    dictionary = DataDictionary()
    network = Network()
    network.add_host("dbhost")
    network.add_host("driverhost")

    ndb = _make_ntuple_db("ntuple_db", DeterministicRNG("push"), 5000, 200)
    nurl = get_dialect("mysql").make_url("dbhost", None, "ntuple_db")
    directory.register(nurl, ndb, host_name="dbhost")
    dictionary.add_database(
        generate_lower_xspec(ndb, logical_names={"NTUPLE": "ntuple"}), nurl
    )

    mdb = _make_runmeta_db("runmeta_db", DeterministicRNG("pushm"), 200)
    murl = get_dialect("mssql").make_url("dbhost", None, "runmeta_db")
    directory.register(murl, mdb, host_name="dbhost")
    dictionary.add_database(
        generate_lower_xspec(mdb, logical_names={"RUNMETA": "runmeta"}), murl
    )
    return directory, dictionary, network


@pytest.fixture(scope="module")
def comparison():
    out = {}
    for label, pushdown in (("pushdown", True), ("stock-unity", False)):
        directory, dictionary, network = build()
        clock = SimClock()
        driver = UnityDriver(
            dictionary, directory, clock=clock, network=network, host="driverhost",
            pushdown=pushdown,
        )
        t0 = clock.now_ms
        result = driver.execute(QUERY)
        elapsed = clock.now_ms - t0
        fetched = sum(t.rows for t in result.traces)
        out[label] = (result, elapsed, fetched, network.bytes_moved)
    widths = [12, 12, 14, 14]
    lines = [fmt_row(["mode", "sim ms", "rows fetched", "bytes moved"], widths)]
    for label in ("pushdown", "stock-unity"):
        _, ms, rows, nbytes = out[label]
        lines.append(fmt_row([label, f"{ms:.1f}", rows, nbytes], widths))
    lines += [
        "",
        "stock Unity ships whole tables to the middleware and joins there —",
        "the paper's memory-overload criticism (Section 3).",
        "",
        "rows: sha256[:16] of the answer rows; exact sim ms; bytes moved on the network",
        fmt_row(["mode", "rows", "measured ms", "bytes moved"], [12, 16, 20, 11]),
        *[
            fmt_row(
                [label, rows_digest(out[label][0].rows), repr(out[label][1]), out[label][3]],
                [12, 16, 20, 11],
            )
            for label in ("pushdown", "stock-unity")
        ],
    ]
    write_report("ablation_pushdown", "Ablation D — Predicate Pushdown vs Stock Unity", lines)
    return out


class TestPushdownAblation:
    def test_same_final_answer(self, comparison, benchmark):
        a = comparison["pushdown"][0]
        b = comparison["stock-unity"][0]
        assert sorted(a.rows) == sorted(b.rows)
        benchmark(lambda: None)

    def test_pushdown_moves_far_fewer_rows(self, comparison, benchmark):
        fetched_push = comparison["pushdown"][2]
        fetched_stock = comparison["stock-unity"][2]
        assert fetched_stock > 10 * fetched_push
        benchmark(lambda: None)

    def test_pushdown_faster_in_simulated_time(self, comparison, benchmark):
        assert comparison["pushdown"][1] < comparison["stock-unity"][1]
        benchmark(lambda: None)

    def test_pushdown_moves_fewer_bytes(self, comparison, benchmark):
        assert comparison["pushdown"][3] < comparison["stock-unity"][3]
        directory, dictionary, network = build()
        driver = UnityDriver(dictionary, directory)
        benchmark(lambda: driver.execute(QUERY))
