"""Simulated byte accounting: the row estimate and the one size record a
result's rows carry.

``estimate_row_bytes`` sizes the exact built-in types inline and must
equal the per-value definition for every value. A result's rows are frozen once
(``SizedRows``) and carry their size record to every hop that charges
bytes; an answer sends the rows it holds, no hop may read a stale
record, and a query sizes each result at most once.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheManager, EpochRegistry, RemoteAnswerCache
from repro.cache.remote import _answer_bytes
from repro.clarens import codec
from repro.clarens.codec import (
    SizedRows, _encoded_len, encode_payload, payload_bytes, size_rows, sized,
)
from repro.core import GridFederation
from repro.core.router import SubQueryRouter
from repro.driver.directory import Directory
from repro.engine import Database, estimate_row_bytes, estimate_value_bytes
from repro.net import costs
from repro.net.simclock import SimClock
from repro.tools.demo import two_server_federation
from repro.unity import QueryAnswer

from tests.test_answer_codec import JOIN_SQL

_CALL_BYTES = len(encode_payload("", None)) - _encoded_len(None)


class Label(str):
    """A str subclass whose text form differs from its contents."""

    def __str__(self) -> str:
        return "label:" + super().__str__()


class Plain(str):
    pass


_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**300), max_value=10**300),
    st.sampled_from([0, -1, 2**63, -(2**63) - 1, 10**200]),
    st.floats(),
    st.sampled_from([-0.0, 0.0, 1e300, -1e300, 5e-324, 0.1]),
    st.text(max_size=12),
    st.text(max_size=6).map(Label),
    st.text(max_size=6).map(Plain),
    st.binary(max_size=8),
    st.binary(max_size=8).map(bytearray),
)


@given(st.lists(_values, max_size=8).map(tuple))
def test_row_estimate_equals_per_value_sum(row):
    assert estimate_row_bytes(row) == sum(estimate_value_bytes(v) for v in row) + len(row)


# -- one size record per result ---------------------------------------------------

_cells = st.one_of(
    st.none(),
    st.integers(-(10**20), 10**20),
    st.floats(allow_nan=False),
    st.text(max_size=6),
    st.sampled_from(["&<>", "\x01", "héllo", 1e-05, 1e16, -0.0]),
)
_rows = st.lists(st.tuples(_cells, _cells), max_size=12)

_hops = ["slice", "filter", "wire", "remote_cache", "sub_cache"]
_changes = ["append", "extend", "insert", "setitem", "setslice", "delitem", "delslice",
            "pop", "remove", "clear", "iadd", "imul", "sort", "reverse"]
_steps = st.tuples(st.sampled_from(_hops + _changes), st.integers(0, 5))


class _Wire:
    """A network stand-in that records the bytes each transfer charges."""

    def __init__(self):
        self.charged: list[int] = []

    def transfer(self, src, dst, nbytes, clock):
        self.charged.append(nbytes)


def _fresh(rows) -> tuple[int, int]:
    rows = [tuple(r) for r in rows]
    return sum(map(estimate_row_bytes, rows)), _encoded_len(rows)


def _consumers_agree(rows) -> None:
    """Every hop that charges bytes reads the same numbers as a fresh
    computation over the rows as they are now."""
    storage, wire = _fresh(rows)
    assert tuple(rows.sizes) == (storage, wire)
    assert payload_bytes("m", rows) == _CALL_BYTES + len("m") + wire
    assert _answer_bytes({"rows": rows}) == 256 + storage
    network = _Wire()
    router = SubQueryRouter(None, Directory(), SimClock(), network=network, host="origin")
    router._transfer_rows("mart", rows)
    assert network.charged == [storage + 256]
    cache = CacheManager(SimClock())
    cache.store_sub("k", (["a", "b"], [None, None], rows, "pool"), tag="db")
    assert cache.sub.bytes == storage + 128


def _answer(rows: SizedRows) -> QueryAnswer:
    """An answer built from frozen rows, as ``integrate_plan`` builds one."""
    return QueryAnswer(["a", "b"], [], list(rows), False, (), 1, 1, sized_rows=rows)


def _wire_rows(answer: QueryAnswer) -> SizedRows:
    """The frozen rows ``answer`` sends, checked against its public rows."""
    rows = answer.to_wire()["rows"]
    assert type(rows) is SizedRows
    assert list(rows) == answer.rows
    return rows


def _hop(rows: SizedRows, op: str, n: int) -> SizedRows:
    """Pass frozen rows through one hop; return the frozen rows after it."""
    if op == "slice":
        # a client-side LIMIT: a fresh carrier of the slice
        return sized(rows[:n])
    if op == "filter":
        return sized([r for i, r in enumerate(rows) if i % 2 == n % 2])
    if op == "wire":
        return _wire_rows(QueryAnswer.from_wire(_answer(rows).to_wire()))
    if op == "remote_cache":
        cache = RemoteAnswerCache(SimClock(), EpochRegistry())
        cache.put("k", {"rows": rows})
        return cache.get("k")["rows"]
    cache = CacheManager(SimClock())
    cache.store_sub("k", ([], [], rows, "pool"), tag="db")
    return cache.lookup_sub("k")[2]


def _change(rows: list, op: str, n: int) -> None:
    """Apply one in-place change to an answer's public ``rows`` list."""
    row = (n, f"r{n}" * n)
    if op == "append":
        rows.append(row)
    elif op == "extend":
        rows.extend([row] * n)
    elif op == "insert":
        rows.insert(n, row)
    elif op == "setitem" and rows:
        rows[n % len(rows)] = row
    elif op == "setslice":
        rows[:n] = [row]
    elif op == "delitem" and rows:
        del rows[n % len(rows)]
    elif op == "delslice":
        del rows[n:]
    elif op == "pop" and rows:
        rows.pop()
    elif op == "remove" and rows:
        rows.remove(rows[n % len(rows)])
    elif op == "clear":
        rows.clear()
    elif op == "iadd":
        rows += [row]
    elif op == "imul":
        rows *= n % 3
    elif op == "sort":
        rows.sort(key=repr)
    elif op == "reverse":
        rows.reverse()


@settings(max_examples=150, deadline=None)
@given(_rows, st.lists(_steps, max_size=8))
def test_carried_sizes_are_never_stale(rows, steps):
    """Rows sliced, filtered, passed through a cache or the wire, or
    changed in place on an answer's public list before its response:
    the rows sent are the answer's rows, and each consumer's number
    always equals a fresh computation, even after the record was read."""
    rows = SizedRows(rows)
    _consumers_agree(rows)
    for op, n in steps:
        if op in _hops:
            rows = _hop(rows, op, n)
        else:
            answer = _answer(rows)
            _change(answer.rows, op, n)
            rows = _wire_rows(answer)
        _consumers_agree(rows)


def test_frozen_rows_are_shared_and_a_changed_answer_is_frozen_afresh():
    rows = SizedRows([(1, "a"), (2.5, None)])
    record = rows.sizes
    assert sized(rows) is rows
    assert type(rows[:1]) is tuple
    assert _wire_rows(_answer(rows)) is rows
    # same rows, new order: the identity check, not the length, refreezes
    answer = _answer(rows)
    answer.rows.reverse()
    reordered = _wire_rows(answer)
    assert reordered is not rows and reordered.sizes == record
    answer.rows.append((3, "c"))
    grown = _wire_rows(answer)
    assert grown.sizes == size_rows(answer.rows) != record
    assert rows.sizes is record and list(rows) == [(1, "a"), (2.5, None)]


def _count_sizing(monkeypatch) -> list:
    calls = []
    real = codec.size_rows

    def counted(rows):
        calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(codec, "size_rows", counted)
    return calls


@pytest.mark.parametrize("cache", [False, True])
def test_each_result_is_sized_once_per_query(monkeypatch, cache):
    """A local and a forwarded single-table query each size their rows
    once (the forwarded one at the peer, never again at the origin); the
    two-server join sizes its local sub-result, its forwarded one at the
    peer and the joined answer. Warm, a sub-result-cache hit and a
    remote-answer-cache hit size nothing: their entries carry the record."""
    fed, a, b, _events, _runs = two_server_federation(cache=cache)
    client = fed.client("laptop")
    queries = {
        "local": "SELECT event_id, energy, tag FROM events WHERE event_id < 7",
        "forwarded": "SELECT run_id, detector FROM runs",
        "join": JOIN_SQL,
    }
    # warm up: RLS discovery and the peer's describe are not the query
    for sql in queries.values():
        fed.query(client, a, sql)
    calls = _count_sizing(monkeypatch)
    hits = a.service.cache.stats() if cache else None
    cold, warm = {}, {}
    for name, sql in queries.items():
        if cache:
            # cold caches on both servers
            a.service.cache.remote.flush()
            for handle in (a, b):
                handle.service.cache.sub.clear()
        for counted in (cold, warm):
            del calls[:]
            assert fed.query(client, a, sql).answer.rows
            counted[name] = list(calls)
    # one pass per result, over its rows (7 local, 3 forwarded; the
    # join's 10 local rows, the peer's 3 and the 10 joined)
    assert cold == {"local": [7], "forwarded": [3], "join": [10, 3, 10]}
    if not cache:
        assert warm == cold
        return
    assert warm == {"local": [], "forwarded": [], "join": [10]}
    stats = a.service.cache.stats()
    assert stats["sub"]["hits"] == hits["sub"]["hits"] + 2
    assert stats["remote"]["hits"] == hits["remote"]["hits"] + 2


@pytest.mark.parametrize("cache", [False, True])
def test_client_side_limit_is_sized_after_the_cut(cache):
    """Oracle's LIMIT is applied by the integrator on a carried result:
    the sliced answer's wire bytes are those of the rows it returns."""
    fed = GridFederation()
    server = fed.create_server("jc1", "pc1", cache=cache)
    db = Database("ora_mart", "oracle")
    db.execute("CREATE TABLE EVT (EVENT_ID INT PRIMARY KEY, TAG VARCHAR(8), E DOUBLE)")
    for i in range(12):
        db.execute(f"INSERT INTO EVT VALUES ({i}, 'a&b{i}', {i * 0.3})")
    fed.attach_database(server, db, logical_names={"EVT": "events"})
    client = fed.client("laptop")
    sql = "SELECT event_id, tag, e FROM events"
    for limit, nrows in (("", 12), (" LIMIT 3", 3)):
        for _repeat in range(2):
            received = client.bytes_received
            response = client.call(server.server, "dataaccess.query", sql + limit, [])
            assert len(response["rows"]) == nrows
            encoded = encode_payload("dataaccess.query", response).encode("utf-8")
            assert client.bytes_received - received == len(encoded) + costs.XMLRPC_ENVELOPE_BYTES
