"""Property: ``payload_bytes`` is the exact UTF-8 size of ``encode_payload``.

The sizer sums per-element sizes instead of writing the XML, so every
value the encoder treats specially is drawn here: bools, big and
negative ints, an IntEnum, signed zero, subnormals, NaN and infinity,
and text with markup, control characters, lone surrogates and
non-ASCII characters. Values also round-trip through the decoder.

A result's rows are sized once (``size_rows``): its storage bytes must
equal ``estimate_row_bytes`` summed over the rows, and its wire bytes
the written XML of the rows array.
"""

import enum
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.clarens import decode_payload, encode_payload, payload_bytes
from repro.clarens.codec import SizedRows, _encoded_len, size_rows
from repro.common.errors import ClarensFault
from repro.engine import estimate_row_bytes, estimate_value_bytes


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 10**12


special_floats = st.sampled_from(
    [-0.0, 0.0, 1e300, -1e300, 5e-324, 2.2250738585072014e-308, math.nan, math.inf, -math.inf]
)
special_text = st.sampled_from(
    ["", "&<>\\", "a\rb", "\x7f", "\x00\x01\x1f", "\t\n", "\ud800", "\udfff x",
     "héllo ☃ \U0001d11e", "\\x00000d", "]]>", "plain ASCII"]
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**60), max_value=10**60),
    st.sampled_from(list(Level)),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    special_floats,
    st.text(st.characters(codec=None, exclude_categories=()), max_size=12),
    special_text,
)
wire_values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        # rows: the shape a query response carries
        st.lists(st.lists(scalars, min_size=2, max_size=2), max_size=4),
        st.dictionaries(
            st.one_of(st.text(max_size=6), special_text), children, max_size=4
        ),
    ),
    max_leaves=24,
)
methods = st.sampled_from(["m", "dataaccess.query", "a&b<c>"])


def wire_form(value):
    """What the decoder hands back for ``value``: lists for tuples,
    plain ints for int subclasses, string keys in sorted order."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, (list, tuple)):
        return [wire_form(item) for item in value]
    if isinstance(value, dict):
        return {str(key): wire_form(value[key]) for key in sorted(value)}
    return value


@given(methods, wire_values)
@settings(max_examples=400, deadline=None)
def test_payload_bytes_is_the_encoded_size(method, value):
    assert payload_bytes(method, value) == len(encode_payload(method, value).encode("utf-8"))


@given(wire_values)
@settings(max_examples=200, deadline=None)
def test_encoded_values_round_trip(value):
    name, decoded = decode_payload(encode_payload("svc.m", value))
    assert name == "svc.m"
    # repr compares NaN, -0.0 and value types exactly
    assert repr(decoded) == repr(wire_form(value))


# -- one sizing pass per rows list ---------------------------------------------

row_cells = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.floats(allow_nan=False),
    st.sampled_from([1e-05, 1e16, -0.0, 0.1, 123456.789]),
    st.text(alphabet="abcxyz 019.", max_size=8),
    special_text,
    st.text(max_size=6),
)
# up to 12 rows; ragged rows take the row-by-row reference path
result_rows = st.one_of(
    st.lists(st.lists(row_cells, min_size=3, max_size=3).map(tuple), max_size=12),
    # one type per column, as a query returns them
    st.lists(
        st.tuples(st.integers(), st.floats(allow_nan=False), special_text, st.none()),
        max_size=12,
    ),
    # zero-width rows, ragged rows, and list and tuple rows side by side
    st.lists(st.just(()), max_size=10),
    st.lists(
        st.lists(row_cells, min_size=1, max_size=4).flatmap(
            lambda cells: st.sampled_from([cells, tuple(cells)])
        ),
        max_size=12,
    ),
)


def reference_sizes(rows) -> tuple[int, int]:
    """Both numbers from their definitions: the per-value storage
    estimate plus one separator per value, and the written XML."""
    storage = sum(estimate_value_bytes(v) for row in rows for v in row) + sum(
        map(len, rows)
    )
    return storage, _encoded_len(list(map(list, rows)))


@given(result_rows)
@settings(max_examples=400, deadline=None)
def test_one_sizing_pass_equals_both_reference_sizers(rows):
    storage, wire = reference_sizes(rows)
    assert storage == sum(map(estimate_row_bytes, rows))
    assert size_rows(rows) == (storage, wire)
    # the carrier, read twice, reports the same record both times
    carried = SizedRows(rows)
    assert carried.sizes == (storage, wire) == carried.sizes
    assert payload_bytes("m", {"rows": carried}) == len(
        encode_payload("m", {"rows": carried}).encode("utf-8")
    )


def test_one_sizing_pass_edge_cases():
    for rows in ([], [()], [(), ()], [[None]], [(True, False)], [(-0.0, 1e-05, 1e16)],
                 [("&<>\\", "\x00\x1f", "héllo ☃")], [[1, "a"], (2.5, None)],
                 [(i, "x") for i in range(9)] + [(9, "x", 0.5)]):
        assert size_rows(rows) == reference_sizes(rows)


def test_a_cell_the_encoder_refuses_has_no_wire_size():
    rows = [(1, b"raw")]
    sizes = size_rows(rows)
    assert sizes.storage == estimate_row_bytes(rows[0])
    assert sizes.wire is None
    # the codec still raises the encoder's own error for such rows
    with pytest.raises(ClarensFault):
        payload_bytes("m", SizedRows(rows))
    with pytest.raises(ClarensFault):
        payload_bytes("m", list(rows))
