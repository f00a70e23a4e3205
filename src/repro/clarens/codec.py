"""XML-RPC-style wire codec.

Values really are encoded to (and decoded from) an XML text, because
the benchmarks need *honest* payload sizes: Figure 6's slope is mostly
the per-row encode/transfer/decode cost, and an invented size constant
would make that slope an artifact. The element vocabulary is the
classic XML-RPC one (``<int>``, ``<double>``, ``<string>``,
``<boolean>``, ``<nil>``, ``<array>``).

Sizes are computed, not written: ``payload_bytes`` is the exact length
of the encoded text. A query result's rows are sized once
(``size_rows``), for both the simulated storage/transfer bytes and the
array's wire bytes, and carry that record (``SizedRows``) from the
router through the caches to the Clarens response.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from typing import NamedTuple
from xml.sax.saxutils import escape

from repro.common.errors import ClarensFault
from repro.engine.storage import estimate_row_bytes

# XML 1.0 cannot carry control characters (or lone non-characters) at
# all — real XML-RPC shares the restriction. We escape them (and the
# escape introducer itself) as ``\xHHHH`` so arbitrary SQL data
# round-trips the wire.
_XML_UNSAFE = re.compile(r"[^\x09\x0a\x20-퟿-�\U00010000-\U0010ffff]|\\")
_ESCAPE_SEQ = re.compile(r"\\x([0-9a-fA-F]{6})")


def _escape_text(text: str) -> str:
    return _XML_UNSAFE.sub(lambda m: f"\\x{ord(m.group()):06x}", text)


def _unescape_text(text: str) -> str:
    return _ESCAPE_SEQ.sub(lambda m: chr(int(m.group(1), 16)), text)


def _encode_value(value, out: list[str]) -> None:
    if value is None:
        out.append("<nil/>")
    elif isinstance(value, bool):
        out.append(f"<boolean>{1 if value else 0}</boolean>")
    elif isinstance(value, int):
        # int.__repr__/float.__repr__: a subclass (an IntEnum, numpy's
        # float64) writes its number, not its own repr
        out.append(f"<int>{int.__repr__(value)}</int>")
    elif isinstance(value, float):
        out.append(f"<double>{float.__repr__(value)}</double>")
    elif isinstance(value, str):
        out.append(f"<string>{escape(_escape_text(value))}</string>")
    elif isinstance(value, (list, tuple)):
        out.append("<array>")
        for item in value:
            _encode_value(item, out)
        out.append("</array>")
    elif isinstance(value, dict):
        out.append("<struct>")
        for key in sorted(value):
            out.append(f"<member><name>{escape(_escape_text(str(key)))}</name>")
            _encode_value(value[key], out)
            out.append("</member>")
        out.append("</struct>")
    else:
        raise ClarensFault("encode", f"cannot encode value of type {type(value).__name__}")


def encode_payload(method: str, value) -> str:
    """Encode one request/response payload to wire text."""
    out = [f"<methodCall><methodName>{escape(method)}</methodName><params>"]
    _encode_value(value, out)
    out.append("</params></methodCall>")
    return "".join(out)


def _encoded_len(value) -> int:
    out: list[str] = []
    _encode_value(value, out)
    return len("".join(out).encode("utf-8"))


# Fixed byte counts of the encoder's markup, measured off the encoder
# itself so the sizer cannot drift from it (the markup is ASCII).
_NIL_BYTES = _encoded_len(None)
_BOOLEAN_BYTES = _encoded_len(True)
_INT_TAGS = _encoded_len(0) - len("0")
_DOUBLE_TAGS = _encoded_len(0.0) - len(repr(0.0))
_STRING_TAGS = _encoded_len("")
_ARRAY_TAGS = _encoded_len([])
_STRUCT_TAGS = _encoded_len({})
_MEMBER_TAGS = _encoded_len({"": None}) - _STRUCT_TAGS - _NIL_BYTES
_CALL_TAGS = len(encode_payload("", None)) - _NIL_BYTES

# what the escape chain rewrites in ASCII text: &, <, >, the escape
# introducer and the control characters other than tab and newline
_ASCII_REWRITTEN = re.compile(r"[&<>\\\x00-\x08\x0b-\x1f]")
# exact types whose body is ``str(value)``: str(None) stands in for the
# empty body of ``<nil/>``
_PLAIN_TYPES = frozenset({int, float, str, type(None)})
_NONE_TEXT_LEN = len(str(None))
_ARRAY_TYPES = frozenset({list, tuple})
#: the encoder's markup around each plain type's text form
_CELL_TAGS = {
    int: _INT_TAGS,
    float: _DOUBLE_TAGS,
    str: _STRING_TAGS,
    type(None): _NIL_BYTES - _NONE_TEXT_LEN,
}


def _needs_no_escape(text: str) -> bool:
    """True when the escape chain leaves ``text`` as it is, in ASCII."""
    if not text.isascii():
        return False
    if text.isprintable():
        return "&" not in text and "<" not in text and ">" not in text and "\\" not in text
    return _ASCII_REWRITTEN.search(text) is None


def _text_bytes(text: str) -> int:
    """UTF-8 size of ``text`` after the encoder's escape chain."""
    if _needs_no_escape(text):
        return len(text)
    return len(escape(_escape_text(text)).encode("utf-8"))


def _plain_cells(cells, kinds: set) -> tuple[int, int]:
    """``(characters, encoded bytes)`` of ``cells``, whose exact types
    ``kinds`` all are ``_PLAIN_TYPES``, from one join of their text forms.

    The characters are what :func:`repro.engine.storage.estimate_row_bytes`
    counts for the cells (``str(None)`` is its 4 bytes of ``NULL``); the
    bytes add the encoder's tags and, for string cells only, escapes and
    UTF-8 widths. Numbers are ASCII and never escaped, so no number is
    formatted twice.
    """
    if len(kinds) == 1:
        (kind,) = kinds
        # a string is its own text; repr is str for the other plain types
        body = "".join(cells) if kind is str else "".join(map(repr, cells))
        tags = _CELL_TAGS[kind] * len(cells)
    else:
        body = "".join(map(str, cells))
        tags = sum(map(_CELL_TAGS.__getitem__, map(type, cells)))
    chars = len(body)
    nbytes = chars + tags
    if str in kinds and not _needs_no_escape(body):
        strings = [cell for cell in cells if type(cell) is str]
        nbytes += sum(map(_text_bytes, strings)) - sum(map(len, strings))
    return chars, nbytes


def _value_bytes(value) -> int:
    """``len(encoded value in UTF-8)`` without writing the text."""
    vtype = type(value)
    if vtype is int:
        return _INT_TAGS + len(str(value))
    if vtype is float:
        return _DOUBLE_TAGS + len(repr(value))
    if vtype is str:
        return _STRING_TAGS + _text_bytes(value)
    if value is None:
        return _NIL_BYTES
    if vtype is bool:
        return _BOOLEAN_BYTES
    if vtype is dict:
        return _STRUCT_TAGS + sum(
            _MEMBER_TAGS + _text_bytes(str(key)) + _value_bytes(value[key])
            for key in sorted(value)
        )
    if vtype is SizedRows:
        wire = sizes_of(value).wire
    elif vtype is list or vtype is tuple:
        kinds = set(map(type, value))
        if kinds <= _PLAIN_TYPES:
            return _ARRAY_TAGS + _plain_cells(value, kinds)[1]
        wire = size_rows(value).wire if kinds <= _ARRAY_TYPES else None
    else:
        return _encoded_len(value)
    if wire is not None:
        return wire
    # mixed elements, or a cell the encoder refuses (which raises here)
    return _ARRAY_TAGS + sum(map(_value_bytes, value))


def payload_bytes(method: str, value) -> int:
    """Wire size of the encoded payload in bytes: exactly
    ``len(encode_payload(method, value).encode("utf-8"))``, summed per
    element instead of written out. A value the encoder refuses raises
    the encoder's error."""
    return _CALL_TAGS + len(escape(method).encode("utf-8")) + _value_bytes(value)


# -- result rows: one sizing pass ----------------------------------------------


class RowSizes(NamedTuple):
    """The two byte counts the simulation charges for one rows list."""

    #: simulated storage/transfer bytes: ``sum(map(estimate_row_bytes, rows))``
    storage: int
    #: the XML-RPC array's UTF-8 size, ``_value_bytes(list(map(list, rows)))``;
    #: None when the encoder refuses a cell
    wire: int | None


def size_rows(rows) -> RowSizes:
    """Size a result's rows once, column by column: both numbers from
    one join of each column's text forms, its cell types and an escape
    check of the string cells. A query's columns mostly hold one type
    each, so a column's tags are a count times a constant.

    Ragged rows, and rows holding a cell outside the plain types (a
    bool, bytes, a subclass), are sized row by row with the reference
    definitions.
    """
    columns = list(zip(*rows))
    ncells = len(columns) * len(rows)
    if ncells == sum(map(len, rows)):
        chars = nbytes = 0
        for column in columns:
            kinds = set(map(type, column))
            if not kinds <= _PLAIN_TYPES:
                break
            column_chars, column_bytes = _plain_cells(column, kinds)
            chars += column_chars
            nbytes += column_bytes
        else:
            return RowSizes(chars + ncells, _ARRAY_TAGS * (len(rows) + 1) + nbytes)
    storage = sum(map(estimate_row_bytes, rows))
    try:
        wire = _ARRAY_TAGS + sum(map(_value_bytes, map(list, rows)))
    except ClarensFault:
        wire = None
    return RowSizes(storage, wire)


class SizedRows(list):
    """A result's rows carrying their :class:`RowSizes` record.

    Every hop that charges bytes (the router's transfer, the caches, the
    Clarens response) reads the record through :func:`sizes_of`; the
    first reader computes it. It travels with :meth:`copy` and with
    :func:`carry`. Any in-place change to the list drops it, so the next
    reader sizes the rows afresh; a slice, a concatenation or a filtered
    list is a plain list and has no record. The rows themselves are
    values: the engine's tuples, or the fresh row lists of one wire answer.
    """

    __slots__ = ("_sizes",)

    def __init__(self, rows=(), sizes: RowSizes | None = None):
        super().__init__(rows)
        self._sizes = sizes

    def copy(self) -> "SizedRows":
        return SizedRows(self, self._sizes)


def _drops_sizes(name: str):
    change = getattr(list, name)

    def method(self, *args):
        self._sizes = None
        return change(self, *args)

    method.__name__ = method.__qualname__ = name
    return method


# sort and reverse permute the rows, which changes neither number
for _name in (
    "__setitem__", "__delitem__", "__iadd__", "__imul__",
    "append", "extend", "insert", "pop", "remove", "clear",
):
    setattr(SizedRows, _name, _drops_sizes(_name))


def sizes_of(rows) -> RowSizes:
    """The record ``rows`` carries; sized now (and kept on a
    :class:`SizedRows`) when it has none."""
    if type(rows) is SizedRows:
        sizes = rows._sizes
        if sizes is None:
            sizes = rows._sizes = size_rows(rows)
        return sizes
    return size_rows(rows)


def carry(rows, source=None) -> SizedRows:
    """``rows`` as a new :class:`SizedRows` with the record ``source``
    (default: ``rows`` itself) carries, if any: a copy, or the same rows
    re-shaped (tuples for lists or back), which size the same."""
    return SizedRows(rows, getattr(rows if source is None else source, "_sizes", None))


_NUMBER_TAGS = {"int": int, "double": float}


def _decode_element(el: ET.Element):
    tag = el.tag
    if tag == "nil":
        return None
    if tag == "boolean":
        return el.text == "1"
    if tag in _NUMBER_TAGS:
        try:
            return _NUMBER_TAGS[tag](el.text or "0")
        except ValueError:
            raise ClarensFault("decode", f"malformed <{tag}> {el.text!r}") from None
    if tag == "string":
        return _unescape_text(el.text or "")
    if tag == "array":
        return [_decode_element(child) for child in el]
    if tag == "struct":
        out = {}
        for member in el:
            name = member.find("name")
            if name is None or len(member) < 2:
                raise ClarensFault("decode", "malformed struct member")
            out[_unescape_text(name.text or "")] = _decode_element(member[1])
        return out
    raise ClarensFault("decode", f"unknown wire element <{tag}>")


def decode_payload(text: str) -> tuple[str, object]:
    """Decode wire text back to ``(method, value)``.

    Lists decode as Python lists (tuples do not survive the wire — just
    like real XML-RPC, which the result-merging code must cope with).
    """
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise ClarensFault("decode", f"malformed wire payload: {exc}") from None
    if root.tag != "methodCall":
        raise ClarensFault("decode", f"expected <methodCall>, found <{root.tag}>")
    name_el = root.find("methodName")
    params_el = root.find("params")
    if name_el is None or params_el is None or len(params_el) != 1:
        raise ClarensFault("decode", "payload missing methodName or params")
    return name_el.text or "", _decode_element(params_el[0])
