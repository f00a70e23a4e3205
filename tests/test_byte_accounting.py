"""Simulated byte accounting: the row estimate, a table's byte size, and
the one size record a result's rows carry.

``estimate_row_bytes`` sizes the exact built-in types inline and must
equal the per-value definition for every value; ``TableStorage.byte_size``
is computed when read and must equal the estimate over the stored rows
after any sequence of mutations. A result's rows are sized once and carry
the record (``SizedRows``) to every hop that charges bytes; no hop may
read a stale record, and a query sizes each result at most once.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheManager, EpochRegistry, RemoteAnswerCache
from repro.cache.remote import _answer_bytes
from repro.clarens import codec
from repro.clarens.codec import (
    SizedRows, _encoded_len, carry, encode_payload, payload_bytes, size_rows, sizes_of,
)
from repro.common.types import SQLType
from repro.core import GridFederation
from repro.core.router import SubQueryRouter
from repro.driver.directory import Directory
from repro.engine import (
    Column, Database, TableStorage, estimate_row_bytes, estimate_value_bytes,
)
from repro.net import costs
from repro.net.simclock import SimClock
from repro.tools.demo import two_server_federation
from repro.unity import QueryAnswer

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


def _table() -> TableStorage:
    return TableStorage(
        "t",
        [
            Column("id", SQLType.integer(), primary_key=True),
            Column("x", SQLType.double()),
            Column("s", SQLType.varchar(12)),
        ],
    )


_row = st.tuples(
    st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False)),
    st.one_of(st.none(), st.text(alphabet="abcxyz", max_size=12)),
)

_ops = st.one_of(
    st.tuples(st.just("insert"), _row),
    st.tuples(st.just("append"), st.lists(_row, max_size=4)),
    st.tuples(st.just("delete"), st.integers(0, 3)),
    st.tuples(st.just("replace"), st.integers(0, 3)),
    st.tuples(st.just("add_column"), st.sampled_from([None, 7, "text"])),
    st.tuples(st.just("drop_column"), st.just(None)),
    st.tuples(st.just("read"), st.just(None)),
)


@settings(max_examples=80, deadline=None)
@given(st.lists(_ops, max_size=14))
def test_byte_size_exact_after_every_mutation(ops):
    t = _table()
    next_id = 0
    extra = 0
    for op, arg in ops:
        if op == "insert":
            t.insert([next_id, *arg] + [None] * extra)
            next_id += 1
        elif op == "append":
            rows = []
            for values in arg:
                rows.append([next_id, *values] + [None] * extra)
                next_id += 1
            t.append_rows(rows)
        elif op == "delete":
            t.delete_where(lambda row, k=arg: row[0] % 4 != k)
        elif op == "replace":
            t.replace_rows([r[:1] + (float(arg),) + r[2:] for r in t.rows])
        elif op == "add_column":
            ctype = SQLType.text() if isinstance(arg, str) else SQLType.integer()
            t.add_column(
                Column(f"c{len(t.columns)}", ctype, default=arg, has_default=arg is not None)
            )
            extra += 1
        elif op == "drop_column" and extra:
            t.drop_column(t.columns[-1].name)
            extra -= 1
        if op == "read" or op.endswith("column"):
            assert t.byte_size == sum(estimate_row_bytes(r) for r in t.rows)
    assert t.byte_size == sum(estimate_row_bytes(r) for r in t.rows)
    # a second read does not double count
    assert t.byte_size == sum(estimate_row_bytes(r) for r in t.rows)


# -- one size record per result ---------------------------------------------------

_cells = st.one_of(
    st.none(),
    st.integers(-(10**20), 10**20),
    st.floats(allow_nan=False),
    st.text(max_size=6),
    st.sampled_from(["&<>", "\x01", "héllo", 1e-05, 1e16, -0.0]),
)
_rows = st.lists(st.tuples(_cells, _cells), max_size=12)

_steps = st.one_of(
    st.tuples(st.sampled_from(["slice", "filter", "copy", "as_lists", "as_tuples",
                               "wire", "remote_cache", "sub_cache"]), st.integers(0, 5)),
    st.tuples(st.sampled_from(["append", "extend", "insert", "setitem", "setslice",
                               "delitem", "delslice", "pop", "remove", "clear",
                               "iadd", "imul", "sort", "reverse"]), st.integers(0, 5)),
)


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
    assert tuple(sizes_of(rows)) == (storage, wire)
    assert payload_bytes("m", rows) == _CALL_BYTES + len("m") + wire
    assert _answer_bytes({"rows": rows}) == 256 + storage
    network = _Wire()
    router = SubQueryRouter(None, Directory(), network=network, host="origin")
    router._transfer_rows("mart", rows)
    assert network.charged == [storage + 256]
    cache = CacheManager(SimClock())
    cache.store_sub("k", (["a", "b"], [None, None], rows, "pool"), tag="db")
    assert cache.sub.bytes == storage + 128


def _step(rows, op: str, n: int):
    """Apply one change (or one hop) to ``rows``; return the rows after it."""
    if op == "slice":
        # a client-side LIMIT: a fresh carrier of the slice
        return carry(rows[:n])
    if op == "filter":
        return carry([r for i, r in enumerate(rows) if i % 2 == n % 2])
    if op == "copy":
        return rows.copy()
    if op == "as_lists":
        return carry(map(list, rows), rows)
    if op == "as_tuples":
        return carry(map(tuple, rows), rows)
    if op == "wire":
        answer = QueryAnswer(["a", "b"], [], rows, False, (), 1, 1)
        return QueryAnswer.from_wire(answer.to_wire()).rows
    if op == "remote_cache":
        cache = RemoteAnswerCache(SimClock(), EpochRegistry())
        cache.put("k", {"rows": carry(map(list, rows), rows)})
        return cache.get("k")["rows"]
    if op == "sub_cache":
        cache = CacheManager(SimClock())
        cache.store_sub("k", ([], [], rows, "pool"), tag="db")
        return cache.lookup_sub("k")[2].copy()
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
    return rows


@settings(max_examples=150, deadline=None)
@given(_rows, st.lists(_steps, max_size=8))
def test_carried_sizes_are_never_stale(rows, steps):
    """Rows sliced, filtered, mutated in place, re-shaped or passed
    through a cache or the wire: each consumer's number always equals a
    fresh computation, even after the record was read."""
    rows = SizedRows(rows)
    _consumers_agree(rows)
    for op, n in steps:
        rows = _step(rows, op, n)
        _consumers_agree(rows)


def test_a_copy_carries_the_record_and_a_change_drops_it():
    rows = SizedRows([(1, "a"), (2.5, None)])
    record = sizes_of(rows)
    assert rows.copy()._sizes is record
    assert carry(map(list, rows), rows)._sizes is record
    assert type(rows[:1]) is list
    rows.append((3, "c"))
    assert rows._sizes is None
    assert sizes_of(rows) == size_rows(list(rows))


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
    once (the forwarded one at the peer, never again at the origin); a
    warm sub-result-cache hit sizes nothing: its entry carries the record."""
    fed, a, b, _events, _runs = two_server_federation(cache=cache)
    client = fed.client("laptop")
    local = "SELECT event_id, energy, tag FROM events WHERE event_id < 7"
    forwarded = "SELECT run_id, detector FROM runs"
    # warm up: RLS discovery and the peer's describe are not the query
    fed.query(client, a, local)
    fed.query(client, a, forwarded)
    calls = _count_sizing(monkeypatch)
    counted = {}
    for name, sql in (("local", local), ("forwarded", forwarded)):
        if cache:
            # cold caches on both servers
            a.service.cache.remote.flush()
            for handle in (a, b):
                handle.service.cache.sub.clear()
        del calls[:]
        assert fed.query(client, a, sql).answer.rows
        counted[name] = list(calls)
    # one pass each, over the rows of the result (7 local, 3 forwarded)
    assert counted == {"local": [7], "forwarded": [3]}
    if cache:
        fed.query(client, a, local)
        hits = a.service.cache.stats()["sub"]["hits"]
        del calls[:]
        fed.query(client, a, local)
        assert a.service.cache.stats()["sub"]["hits"] == hits + 1
        assert calls == []


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
