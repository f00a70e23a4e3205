"""Unit tests for the logical SQL type system."""

import pytest

from repro.common import (
    SQLType,
    SQLTypeError,
    TypeKind,
    coerce_value,
    common_supertype,
    infer_literal_type,
    sql_repr,
)


class TestTypeKind:
    def test_numeric_kinds(self):
        assert TypeKind.INTEGER.is_numeric
        assert TypeKind.DOUBLE.is_numeric
        assert TypeKind.DECIMAL.is_numeric
        assert not TypeKind.VARCHAR.is_numeric

    def test_textual_kinds(self):
        assert TypeKind.VARCHAR.is_textual
        assert TypeKind.TEXT.is_textual
        assert not TypeKind.BIGINT.is_textual

    def test_temporal_kinds(self):
        assert TypeKind.DATE.is_temporal
        assert TypeKind.TIMESTAMP.is_temporal
        assert not TypeKind.BLOB.is_temporal


class TestSQLTypeRendering:
    def test_varchar_renders_length(self):
        assert str(SQLType.varchar(40)) == "VARCHAR(40)"

    def test_decimal_renders_precision_scale(self):
        assert str(SQLType.decimal(10, 2)) == "DECIMAL(10,2)"

    def test_plain_kind_renders_bare(self):
        assert str(SQLType.bigint()) == "BIGINT"
        assert str(SQLType.timestamp()) == "TIMESTAMP"


class TestInferLiteralType:
    def test_small_int_is_integer(self):
        assert infer_literal_type(42).kind is TypeKind.INTEGER

    def test_large_int_is_bigint(self):
        assert infer_literal_type(2**40).kind is TypeKind.BIGINT

    def test_float_is_double(self):
        assert infer_literal_type(3.14).kind is TypeKind.DOUBLE

    def test_bool_is_boolean_not_integer(self):
        assert infer_literal_type(True).kind is TypeKind.BOOLEAN

    def test_str_is_varchar_with_length(self):
        t = infer_literal_type("hello")
        assert t.kind is TypeKind.VARCHAR
        assert t.length == 5

    def test_null_is_permissive_text(self):
        assert infer_literal_type(None).kind is TypeKind.TEXT

    def test_unsupported_python_type_raises(self):
        with pytest.raises(SQLTypeError):
            infer_literal_type(object())


class TestCommonSupertype:
    def test_same_kind_is_identity(self):
        t = common_supertype(SQLType.integer(), SQLType.integer())
        assert t.kind is TypeKind.INTEGER

    def test_integer_widens_to_double(self):
        t = common_supertype(SQLType.integer(), SQLType.double())
        assert t.kind is TypeKind.DOUBLE

    def test_varchar_lengths_take_max(self):
        t = common_supertype(SQLType.varchar(10), SQLType.varchar(30))
        assert t.length == 30

    def test_mixed_text_kinds_widen_to_text(self):
        t = common_supertype(SQLType.varchar(10), SQLType.text())
        assert t.kind is TypeKind.TEXT

    def test_boolean_widens_to_numeric(self):
        t = common_supertype(SQLType.boolean(), SQLType.integer())
        assert t.kind is TypeKind.INTEGER

    def test_date_and_timestamp_widen_to_timestamp(self):
        t = common_supertype(SQLType(TypeKind.DATE), SQLType.timestamp())
        assert t.kind is TypeKind.TIMESTAMP

    def test_incompatible_kinds_raise(self):
        with pytest.raises(SQLTypeError):
            common_supertype(SQLType.varchar(5), SQLType.integer())


class TestCoerceValue:
    def test_null_passes_every_type(self):
        for t in (SQLType.integer(), SQLType.varchar(5), SQLType.boolean()):
            assert coerce_value(None, t) is None

    def test_string_to_integer(self):
        assert coerce_value(" 42 ", SQLType.integer()) == 42

    def test_float_to_integer_truncates(self):
        assert coerce_value(3.9, SQLType.integer()) == 3

    def test_nan_to_integer_raises(self):
        with pytest.raises(SQLTypeError):
            coerce_value(float("nan"), SQLType.integer())

    @pytest.mark.parametrize("text", [
        "NaN", "nan", "inf", "-Infinity", "1_000", "\uff11\uff12", "1e400", "0x10", "",
    ])
    def test_string_outside_sql_numeric_grammar_raises(self, text):
        for target in (SQLType.integer(), SQLType.bigint(), SQLType.double(),
                       SQLType(TypeKind.FLOAT), SQLType.decimal(10, 2)):
            with pytest.raises(SQLTypeError):
                coerce_value(text, target)

    @pytest.mark.parametrize("text, target, expected", [
        (" -12 ", SQLType.integer(), -12),
        ("+7", SQLType.bigint(), 7),
        ("1.5e3", SQLType.double(), 1500.0),
        (".5", SQLType.double(), 0.5),
        ("2.", SQLType(TypeKind.FLOAT), 2.0),
        ("-0", SQLType.double(), 0.0),
    ])
    def test_sql_numeric_literals_parse(self, text, target, expected):
        result = coerce_value(text, target)
        assert result == expected and type(result) is type(expected)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_float_rejected(self, value):
        for target in (SQLType.double(), SQLType(TypeKind.FLOAT), SQLType.decimal(10, 2)):
            with pytest.raises(SQLTypeError):
                coerce_value(value, target)

    def test_huge_int_to_double_raises(self):
        with pytest.raises(SQLTypeError):
            coerce_value(10**400, SQLType.double())

    def test_typed_values_returned_unchanged(self):
        big = 2**70
        assert coerce_value(big, SQLType.bigint()) is big
        x = 0.1
        assert coerce_value(x, SQLType.double()) is x

    def test_int_to_double(self):
        result = coerce_value(7, SQLType.double())
        assert result == 7.0 and isinstance(result, float)

    def test_number_to_varchar(self):
        assert coerce_value(12, SQLType.varchar(10)) == "12"

    def test_varchar_overflow_raises(self):
        with pytest.raises(SQLTypeError):
            coerce_value("toolongvalue", SQLType.varchar(4))

    def test_char_pads_to_length(self):
        assert coerce_value("ab", SQLType(TypeKind.CHAR, length=4)) == "ab  "

    def test_boolean_from_strings(self):
        assert coerce_value("true", SQLType.boolean()) is True
        assert coerce_value("0", SQLType.boolean()) is False

    def test_boolean_from_int(self):
        assert coerce_value(3, SQLType.boolean()) is True

    def test_blob_from_str_encodes(self):
        assert coerce_value("hi", SQLType(TypeKind.BLOB)) == b"hi"

    def test_garbage_string_to_int_raises(self):
        with pytest.raises(SQLTypeError):
            coerce_value("not-a-number", SQLType.integer())


class TestSqlRepr:
    def test_null(self):
        assert sql_repr(None) == "NULL"

    def test_string_escapes_quotes(self):
        assert sql_repr("o'brien") == "'o''brien'"

    def test_booleans(self):
        assert sql_repr(True) == "TRUE"
        assert sql_repr(False) == "FALSE"

    def test_numbers(self):
        assert sql_repr(5) == "5"
        assert sql_repr(2.5) == "2.5"

    def test_bytes_hex(self):
        assert sql_repr(b"\x01\x02") == "X'0102'"


def test_is_null_only_none():
    """SQL NULL is None alone: 0 and the empty string are values."""
    from repro.engine import Database

    db = Database("n", "sqlite")
    db.execute("CREATE TABLE t (k INT, x DOUBLE, s TEXT)")
    db.bulk_insert("t", [[1, None, None], [2, 0.0, ""]])
    assert db.execute("SELECT k FROM t WHERE x IS NULL AND s IS NULL").rows == [(1,)]
    assert db.execute("SELECT k FROM t WHERE x IS NOT NULL AND s IS NOT NULL").rows == [(2,)]
