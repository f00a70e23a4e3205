"""Property: ``payload_bytes`` is the exact UTF-8 size of ``encode_payload``.

The sizer sums per-element sizes instead of writing the XML, so every
value the encoder treats specially is drawn here: bools, big and
negative ints, an IntEnum, signed zero, subnormals, NaN and infinity,
and text with markup, control characters, lone surrogates and
non-ASCII characters. Values also round-trip through the decoder.
"""

import enum
import math

from hypothesis import given, settings, strategies as st

from repro.clarens import decode_payload, encode_payload, payload_bytes


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
