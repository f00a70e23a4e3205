"""Property: the column-wise bulk load stores what the row path stores.

``TableStorage.append_rows`` checks a full-width batch a column at a
time. Whatever the batch holds, the result must equal running the row
path (``TableStorage._stage_rows``: coercion, NOT NULL and the
primary-key check, row by row): the same stored tuples, value types
included, or the same exception type and message with the table left
unchanged.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import IntegrityError
from repro.common.types import SQLType, TypeKind
from repro.engine.storage import Column, TableStorage

LENGTHS = st.integers(min_value=1, max_value=6)
sql_types = st.one_of(
    st.sampled_from(
        [
            SQLType(TypeKind.INTEGER),
            SQLType(TypeKind.BIGINT),
            SQLType(TypeKind.DOUBLE),
            SQLType(TypeKind.DECIMAL, precision=10, scale=2),
            SQLType(TypeKind.TEXT),
            SQLType(TypeKind.BOOLEAN),
            SQLType(TypeKind.DATE),
        ]
    ),
    LENGTHS.map(lambda n: SQLType(TypeKind.VARCHAR, length=n)),
    LENGTHS.map(lambda n: SQLType(TypeKind.CHAR, length=n)),
)

# values that need coercion, or fail it; a column draws from one family
# at a time, so e.g. a float column can hold only floats, one of them NaN
AWKWARD = [
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.sampled_from(
        ["1", "-2", " 3.5 ", "1e3", "nan", "inf", "abc", "true", "", "2005-06-01", "toolongtext"]
    ),
    st.text(max_size=8),
]


def clean_values(sql_type: SQLType):
    """Values already of the column's type (text may overrun capacity)."""
    kind = sql_type.kind
    if kind in (TypeKind.INTEGER, TypeKind.BIGINT):
        # a narrow range makes duplicate keys common
        return st.one_of(st.integers(min_value=-4, max_value=12), st.integers())
    if kind in (TypeKind.DOUBLE, TypeKind.DECIMAL):
        return st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from([0.0, -0.0, 1.5, 2.0]),
        )
    if kind is TypeKind.BOOLEAN:
        return st.booleans()
    if kind is TypeKind.DATE:
        return st.sampled_from(["2005-06-01", "2005-06-02T00:00:00"])
    return st.text(max_size=8)


@st.composite
def tables(draw):
    types = draw(st.lists(sql_types, min_size=1, max_size=5))
    pk = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=len(types) - 1)))
    return [
        Column(
            name=f"c{i}",
            type=t,
            not_null=(i == pk) or draw(st.booleans()),
            primary_key=(i == pk),
        )
        for i, t in enumerate(types)
    ]


@st.composite
def batches(draw, columns):
    # per column, so one awkward column among clean ones is common
    cells = []
    for col in columns:
        cell = clean_values(col.type)
        if not col.not_null:
            cell = st.one_of(cell, st.none())
        if draw(st.booleans()):
            cell = st.one_of(cell, draw(st.sampled_from(AWKWARD)))
        cells.append(cell)
    ragged_rows = draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        row = [draw(cell) for cell in cells]
        if ragged_rows:
            ragged = draw(st.sampled_from([0, 0, 0, 0, 0, 0, -1, 1]))
            row = row[:-1] if ragged < 0 else row + [None] * ragged
        rows.append(draw(st.sampled_from([list, tuple]))(row))
    names = None
    if draw(st.integers(min_value=0, max_value=5)) == 0:
        names = draw(st.permutations([c.name for c in columns]))
    return rows, names


def assert_loads_like_row_path(columns: list[Column], batches) -> None:
    """Load each ``(rows, names)`` batch in turn; after every batch the
    table must hold what the row path would have stored, and a batch
    must raise exactly when, and what, the row path raises."""
    table = TableStorage("t", columns)
    stored_rows: list[tuple] = []
    stored_keys: dict[tuple, int] = {}
    for rows, names in batches:
        try:
            staged, keys = table._stage_rows(rows, names, stored_keys)
            expected = None
        except Exception as exc:
            expected = exc
        try:
            table.append_rows(rows, names)
            got = None
        except Exception as exc:
            got = exc
        if expected is None:
            assert got is None
            for key in keys:
                stored_keys[key] = len(stored_keys)
            stored_rows.extend(staged)
        else:
            assert type(got) is type(expected)
            assert str(got) == str(expected)
        # repr tells 1, 1.0 and True apart
        assert repr(table.rows) == repr(stored_rows)
        assert table._pk_index == stored_keys


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_column_wise_load_equals_row_path(data):
    columns = data.draw(tables())
    assert_loads_like_row_path(columns, [data.draw(batches(columns)) for _ in range(3)])


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_replace_rows_refuses_what_an_append_refuses(data):
    """``replace_rows`` stages its rows like an append to an empty table,
    and leaves the rows it held when it raises."""
    columns = data.draw(tables())
    held, _ = data.draw(batches(columns))
    rows, _ = data.draw(batches(columns))
    appended = TableStorage("t", columns)
    try:
        appended.append_rows(rows)
        expected = None
    except Exception as exc:
        expected = exc
    replaced = TableStorage("t", columns)
    try:
        replaced.append_rows(held)
    except Exception:
        pass  # a refused batch leaves the table empty: a start as good as any
    before = (repr(replaced.rows), dict(replaced._pk_index))
    try:
        replaced.replace_rows(rows)
        got = None
    except Exception as exc:
        got = exc
    if expected is None:
        assert got is None
        assert (repr(replaced.rows), replaced._pk_index) == (
            repr(appended.rows), appended._pk_index
        )
    else:
        assert (type(got), str(got)) == (type(expected), str(expected))
        assert (repr(replaced.rows), replaced._pk_index) == before


KEY = Column("id", SQLType.integer(), not_null=True, primary_key=True)


@pytest.mark.parametrize(
    "column, values",
    [
        (Column("x", SQLType.double()), [1.5, math.nan]),
        (Column("x", SQLType.double()), [-math.inf, 0.0]),
        (Column("x", SQLType.double()), [1, 2.5]),
        (Column("x", SQLType.double(), not_null=True), [1.5, None]),
        (Column("n", SQLType.integer()), [1, True]),
        (Column("n", SQLType.bigint()), ["12", 3]),
        (Column("n", SQLType.integer()), [2.0, 3.5]),
        (Column("s", SQLType.varchar(3)), ["abc", "abcd"]),
        (Column("s", SQLType.varchar(3)), ["", None]),
        (Column("s", SQLType(TypeKind.CHAR, length=3)), ["a", "abc"]),
        (Column("s", SQLType.text()), ["x" * 500, 7]),
        (Column("b", SQLType.boolean()), [True, "no"]),
        (Column("d", SQLType(TypeKind.DATE)), ["2005-06-01", 20050601]),
    ],
)
def test_each_column_check_matches_the_row_path(column, values):
    rows = [[i, value] for i, value in enumerate(values)]
    assert_loads_like_row_path([KEY, column], [(rows, None), ([[9, values[0]], [9, values[0]]], None)])


def test_clean_columns_keep_their_values():
    table = TableStorage(
        "t",
        [
            Column("id", SQLType.integer(), not_null=True, primary_key=True),
            Column("e", SQLType.double()),
            Column("tag", SQLType.varchar(4)),
        ],
    )
    assert table.append_rows([[1, 2.5, "ab"], (2, None, None)]) == 2
    assert table.rows == [(1, 2.5, "ab"), (2, None, None)]
    with pytest.raises(IntegrityError):  # the batch's keys are indexed
        table.insert([2, None, None])


def test_columns_that_need_coercion_are_coerced():
    table = TableStorage(
        "t",
        [
            Column("n", SQLType.integer()),
            Column("x", SQLType.double()),
            Column("c", SQLType(TypeKind.CHAR, length=3)),
            Column("b", SQLType.boolean()),
        ],
    )
    table.append_rows([[True, 1, "a", 1], ["7", "2.5", "abc", "no"]])
    assert repr(table.rows) == repr([(1, 1.0, "a  ", True), (7, 2.5, "abc", False)])


def test_first_error_is_the_row_paths():
    table = TableStorage(
        "t",
        [
            Column("id", SQLType.integer(), not_null=True, primary_key=True),
            Column("x", SQLType.double()),
        ],
    )
    table.append_rows([[1, 1.0]])
    # row 2 repeats a stored key before row 3's NaN: the key error wins
    try:
        table.append_rows([[2, 0.5], [1, 2.0], [3, math.nan]])
    except IntegrityError as exc:
        assert "duplicate primary key (1,)" in str(exc)
    else:
        raise AssertionError("a duplicate key must raise")
    assert table.rows == [(1, 1.0)]


def _clean_table() -> TableStorage:
    return TableStorage(
        "t",
        [
            Column("id", SQLType.integer(), not_null=True, primary_key=True),
            Column("e", SQLType.double()),
            Column("tag", SQLType.varchar(4)),
        ],
    )


def test_an_unchanged_batch_of_tuples_is_stored_as_the_same_objects():
    rows = [(1, 2.5, "ab"), (2, None, None)]
    table = _clean_table()
    table.append_rows(rows)
    assert all(stored is given for stored, given in zip(table.rows, rows))
    replaced = _clean_table()
    replaced.replace_rows(rows)
    assert all(stored is given for stored, given in zip(replaced.rows, rows))


def test_list_rows_of_an_unchanged_batch_become_tuples():
    rows = [[1, 2.5, "ab"], (2, None, None)]
    table = _clean_table()
    table.append_rows(rows)
    assert [type(row) for row in table.rows] == [tuple, tuple]
    assert table.rows == [(1, 2.5, "ab"), (2, None, None)]
    assert table.rows[1] is rows[1]


def test_a_column_that_needs_coercion_is_still_coerced():
    rows = [(1, 2, "ab"), (2, 0.5, "cd")]  # the int 2 is stored as a DOUBLE
    table = _clean_table()
    table.append_rows(rows)
    assert repr(table.rows) == repr([(1, 2.0, "ab"), (2, 0.5, "cd")])
    assert table.rows[0] is not rows[0]


@pytest.mark.parametrize(
    "rows",
    [
        # every column unchanged: the key check raises on row 3
        [(1, 1.0), (2, 2.0), (1, 3.0)],
        # row 2 repeats row 1's key before row 3's NULL breaks NOT NULL
        [(1, 1.0), (1, 2.0), (2, None)],
    ],
)
def test_first_error_of_an_unchanged_batch_is_the_row_paths(rows):
    columns = [
        Column("id", SQLType.integer(), not_null=True, primary_key=True),
        Column("x", SQLType.double(), not_null=True),
    ]
    table = TableStorage("t", columns)
    with pytest.raises(IntegrityError) as expected:
        table._stage_rows(rows, None, {})
    with pytest.raises(IntegrityError) as got:
        table.append_rows(rows)
    assert str(got.value) == str(expected.value)
    assert "duplicate primary key (1,)" in str(got.value)
    assert table.rows == [] and table._pk_index == {}
