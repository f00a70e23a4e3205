"""Simulated byte accounting: the row estimate and a table's byte size.

``estimate_row_bytes`` sizes the exact built-in types inline and must
equal the per-value definition for every value; ``TableStorage.byte_size``
is computed when read and must equal the estimate over the stored rows
after any sequence of mutations.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.types import SQLType
from repro.engine import Column, TableStorage, estimate_row_bytes, estimate_value_bytes


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
