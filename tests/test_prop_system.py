"""Property-based tests (hypothesis) for system-level invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.analysis import Histogram1D
from repro.clarens import decode_payload, encode_payload
from repro.common import DeterministicRNG
from repro.dialects import get_dialect
from repro.driver import Directory
from repro.engine import Database
from repro.metadata import DataDictionary, LowerXSpec, generate_lower_xspec
from repro.net import SimClock
from repro.unity import UnityDriver

# -- Clarens codec ---------------------------------------------------------------------

wire_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**50), max_value=2**50),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=40),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(min_size=1, max_size=8), children, max_size=4),
    ),
    max_leaves=20,
)


class TestCodecProperties:
    @given(wire_values)
    @settings(max_examples=150)
    def test_round_trip(self, value):
        method, decoded = decode_payload(encode_payload("svc.m", value))
        assert method == "svc.m"
        assert decoded == value


# -- virtual clock ----------------------------------------------------------------------


class TestClockProperties:
    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=8))
    def test_run_parallel_is_max(self, durations):
        clock = SimClock()
        clock.advance_ms(5)
        clock.run_parallel([lambda d=d: clock.advance_ms(d) for d in durations])
        assert clock.now_ms == pytest.approx(5 + max(durations))

    @given(st.lists(st.floats(min_value=0, max_value=1e5), max_size=10))
    def test_advance_monotone(self, steps):
        clock = SimClock()
        last = 0.0
        for s in steps:
            clock.advance_ms(s)
            assert clock.now_ms >= last
            last = clock.now_ms


# -- deterministic RNG ---------------------------------------------------------------------


class TestRNGProperties:
    @given(st.text(min_size=1, max_size=12), st.integers(0, 2**31))
    def test_same_name_same_stream(self, name, seed):
        a = DeterministicRNG(name, seed).normal(0, 1, 8)
        b = DeterministicRNG(name, seed).normal(0, 1, 8)
        assert np.array_equal(a, b)

    @given(st.text(min_size=1, max_size=12))
    def test_fork_is_stable_and_distinct(self, child):
        root = DeterministicRNG("root")
        a = root.fork(child).normal(0, 1, 8)
        b = DeterministicRNG("root").fork(child).normal(0, 1, 8)
        assert np.array_equal(a, b)
        if child != "other":
            c = DeterministicRNG("root").fork("other").normal(0, 1, 8)
            assert not np.array_equal(a, c)


# -- histogram mass conservation ----------------------------------------------------------------


class TestHistogramProperties:
    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            max_size=200,
        ),
        st.integers(min_value=1, max_value=50),
    )
    def test_mass_conserved(self, values, nbins):
        h = Histogram1D(nbins, -100.0, 100.0)
        h.fill(values)
        assert int(h.counts.sum()) + h.underflow + h.overflow == len(values)

    @given(
        st.lists(st.floats(), max_size=50),
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(min_value=1, max_value=500),
    )
    @example([1e308], -1e308, 1e308, 3)  # high - low overflows float64
    def test_fill_never_raises_and_conserves_values(self, values, a, b, nbins):
        """Any finite range and bin count: every non-NaN value lands in a
        bin or a flow, including values a rounding step below ``high``."""
        low, high = min(a, b), max(a, b)
        if low == high:
            high = np.nextafter(low, np.inf)
        h = Histogram1D(nbins, low, high)
        with np.errstate(over="ignore", invalid="ignore"):  # the moments may overflow
            h.fill(values + [np.nextafter(high, -np.inf)])
        kept = sum(1 for v in values if v == v) + 1
        assert int(h.counts.sum()) + h.underflow + h.overflow == kept

    @given(
        st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=1,
            max_size=100,
        )
    )
    def test_mean_matches_numpy(self, values):
        h = Histogram1D(10, -100.0, 100.0)
        h.fill(values)
        assert h.mean == pytest.approx(float(np.mean(values)), rel=1e-9, abs=1e-9)


# -- XSpec round trip over generated schemas -------------------------------------------------------

from repro.sql.lexer import KEYWORDS

_colnames = st.from_regex(r"[A-Z][A-Z0-9_]{0,6}", fullmatch=True).filter(
    lambda s: s not in KEYWORDS
)
_coltypes = st.sampled_from(
    ["INTEGER", "BIGINT", "DOUBLE", "VARCHAR(20)", "BOOLEAN", "TIMESTAMP"]
)


@st.composite
def _schemas(draw):
    n_tables = draw(st.integers(1, 3))
    tables = {}
    names = draw(
        st.lists(_colnames, min_size=n_tables, max_size=n_tables, unique_by=str.lower)
    )
    for tname in names:
        cols = draw(
            st.lists(_colnames, min_size=1, max_size=4, unique_by=str.lower)
        )
        types = draw(st.lists(_coltypes, min_size=len(cols), max_size=len(cols)))
        tables[tname] = list(zip(cols, types))
    return tables


class TestXSpecProperties:
    @given(_schemas())
    @settings(max_examples=50, suppress_health_check=[HealthCheck.too_slow])
    def test_generate_serialize_parse_fixed_point(self, schema):
        db = Database("propdb", "mysql")
        for tname, cols in schema.items():
            ddl = ", ".join(f"{c} {t}" for c, t in cols)
            db.execute(f"CREATE TABLE {tname} ({ddl})")
        spec = generate_lower_xspec(db)
        once = spec.to_xml()
        assert LowerXSpec.from_xml(once).to_xml() == once

    @given(_schemas())
    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
    def test_fingerprint_stable_across_regeneration(self, schema):
        db = Database("propdb", "oracle")
        for tname, cols in schema.items():
            ddl = ", ".join(f"{c} {t}" for c, t in cols)
            db.execute(f"CREATE TABLE {tname} ({ddl})")
        assert (
            generate_lower_xspec(db).fingerprint()
            == generate_lower_xspec(db).fingerprint()
        )


# -- federated execution equals single-engine execution ------------------------------------------------


@st.composite
def _federated_case(draw):
    n_events = draw(st.integers(0, 25))
    n_runs = draw(st.integers(1, 5))
    events = [
        (
            i,
            draw(st.integers(0, n_runs)),  # may reference a missing run
            draw(st.floats(min_value=-100, max_value=100, allow_nan=False)),
        )
        for i in range(n_events)
    ]
    runs = [
        (r, draw(st.sampled_from(["cms", "atlas", "lhcb", "alice"])))
        for r in range(n_runs)
    ]
    threshold = draw(st.integers(-100, 100))
    join_kind = draw(st.sampled_from(["JOIN", "LEFT JOIN"]))
    # optional extra ON conjunct: exercises the left/right pushdown rules
    on_extra = draw(
        st.sampled_from(
            [
                "",
                " AND r.detector <> 'alice'",  # right-side-only predicate
                " AND e.energy > 0",  # left-side-only predicate
                " AND r.detector <> 'alice' AND e.energy > 0",
            ]
        )
    )
    pushdown = draw(st.booleans())
    return events, runs, threshold, join_kind, on_extra, pushdown


class TestFederatedEquivalence:
    @given(_federated_case())
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_federated_equals_reference(self, case):
        events, runs, threshold, join_kind, on_extra, pushdown = case
        # reference: everything in one engine
        ref = Database("ref", "generic")
        ref.execute("CREATE TABLE events (event_id INT, run_id INT, energy DOUBLE)")
        ref.execute("CREATE TABLE runs (run_id INT, detector VARCHAR(10))")
        for row in events:
            ref.execute(f"INSERT INTO events VALUES ({row[0]}, {row[1]}, {row[2]!r})")
        for row in runs:
            ref.execute(f"INSERT INTO runs VALUES ({row[0]}, '{row[1]}')")

        # federation: same rows split across two vendors
        directory = Directory()
        dictionary = DataDictionary()
        edb = Database("edb", "mysql")
        edb.execute("CREATE TABLE EVT (EVENT_ID INT, RUN_ID INT, ENERGY DOUBLE)")
        for row in events:
            edb.execute(f"INSERT INTO EVT VALUES ({row[0]}, {row[1]}, {row[2]!r})")
        eurl = get_dialect("mysql").make_url("h1", None, "edb")
        directory.register(eurl, edb, host_name="h1")
        dictionary.add_database(
            generate_lower_xspec(edb, logical_names={"EVT": "events"}), eurl
        )
        rdb = Database("rdb", "mssql")
        rdb.execute("CREATE TABLE RUNS (RUN_ID INT, DETECTOR NVARCHAR(10))")
        for row in runs:
            rdb.execute(f"INSERT INTO RUNS VALUES ({row[0]}, '{row[1]}')")
        rurl = get_dialect("mssql").make_url("h2", None, "rdb")
        directory.register(rurl, rdb, host_name="h2")
        dictionary.add_database(generate_lower_xspec(rdb), rurl)

        sql = (
            f"SELECT e.event_id, r.detector FROM events e {join_kind} runs r "
            f"ON e.run_id = r.run_id{on_extra} WHERE e.energy > {threshold} "
            f"ORDER BY e.event_id"
        )
        driver = UnityDriver(dictionary, directory, pushdown=pushdown)
        federated = driver.execute(sql)
        reference = ref.execute(sql)
        assert sorted(map(tuple, federated.rows)) == sorted(map(tuple, reference.rows))
