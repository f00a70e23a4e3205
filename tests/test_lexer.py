"""Unit tests for the SQL lexer."""

import re
import string

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.common import SQLSyntaxError
from repro.sql import Token, TokenType, tokenize
from repro.sql.lexer import KEYWORDS


def kinds(sql):
    return [(t.type, t.value) for t in tokenize(sql)[:-1]]  # drop EOF


class TestBasicTokens:
    def test_keywords_uppercase(self):
        assert kinds("select from")[0] == (TokenType.KEYWORD, "SELECT")
        assert kinds("select from")[1] == (TokenType.KEYWORD, "FROM")

    def test_identifiers_preserve_case(self):
        assert kinds("MyTable")[0] == (TokenType.IDENT, "MyTable")

    def test_integer_and_float_numbers(self):
        assert kinds("42")[0] == (TokenType.NUMBER, "42")
        assert kinds("3.14")[0] == (TokenType.NUMBER, "3.14")

    def test_exponent_number(self):
        assert kinds("1e5")[0] == (TokenType.NUMBER, "1e5")
        assert kinds("2.5E-3")[0] == (TokenType.NUMBER, "2.5E-3")

    def test_leading_dot_number(self):
        assert kinds(".5")[0] == (TokenType.NUMBER, ".5")

    def test_string_literal(self):
        assert kinds("'hello'")[0] == (TokenType.STRING, "hello")

    def test_string_with_escaped_quote(self):
        assert kinds("'o''brien'")[0] == (TokenType.STRING, "o'brien")

    def test_param_placeholder(self):
        assert kinds("?")[0] == (TokenType.PARAM, "?")

    def test_eof_token_present(self):
        assert tokenize("x")[-1].type is TokenType.EOF


class TestQuotedIdentifiers:
    def test_double_quoted(self):
        assert kinds('"Weird Name"')[0] == (TokenType.IDENT, "Weird Name")

    def test_backtick_quoted(self):
        assert kinds("`col`")[0] == (TokenType.IDENT, "col")

    def test_bracket_quoted(self):
        assert kinds("[col]")[0] == (TokenType.IDENT, "col")

    def test_quoted_keyword_stays_identifier(self):
        assert kinds('"select"')[0] == (TokenType.IDENT, "select")


class TestOperators:
    def test_two_char_operators(self):
        for op in ("<>", "!=", "<=", ">=", "||"):
            assert kinds(f"a {op} b")[1] == (TokenType.OPERATOR, op)

    def test_single_char_operators(self):
        for op in ("=", "<", ">", "+", "-", "*", "/", "%"):
            assert kinds(f"a {op} b")[1] == (TokenType.OPERATOR, op)

    def test_maximal_munch_lt_gt(self):
        # '<>' must not lex as '<' then '>'
        toks = kinds("a<>b")
        assert toks[1] == (TokenType.OPERATOR, "<>")


class TestComments:
    def test_line_comment_skipped(self):
        toks = kinds("SELECT -- comment here\n 1")
        assert [t[1] for t in toks] == ["SELECT", "1"]

    def test_block_comment_skipped(self):
        toks = kinds("SELECT /* anything */ 1")
        assert [t[1] for t in toks] == ["SELECT", "1"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("SELECT /* oops")


class TestLexErrors:
    def test_unterminated_string(self):
        with pytest.raises(SQLSyntaxError) as exc:
            tokenize("SELECT 'abc")
        assert exc.value.position == 7

    def test_unterminated_quoted_identifier(self):
        with pytest.raises(SQLSyntaxError):
            tokenize('SELECT "abc')

    def test_unexpected_character(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("SELECT ^")

    def test_position_recorded(self):
        toks = tokenize("SELECT x")
        assert toks[0].position == 0
        assert toks[1].position == 7


def test_token_matches_helper():
    tok = Token(TokenType.KEYWORD, "SELECT", 0)
    assert tok.matches(TokenType.KEYWORD)
    assert tok.matches(TokenType.KEYWORD, "SELECT")
    assert not tok.matches(TokenType.KEYWORD, "FROM")
    assert not tok.matches(TokenType.IDENT)


class TestNumberEdges:
    """Exponent signs without digits are parser-level tests
    (tests/test_parser.py)."""

    def test_number_glued_to_a_word_is_malformed(self):
        # sqlite3 rejects each as "unrecognized token"; before, the first
        # four lexed as a number and an alias (1ex as 1 AS ex)
        cases = [
            ("SELECT 1ex FROM t", 7), ("SELECT 12_000 FROM t", 7),
            ("SELECT 1.5abc FROM t", 7), ("SELECT a FROM t WHERE b<1and c>2", 24),
            ("SELECT 1e FROM t", 7), ("SELECT 3.x FROM t", 7), ("SELECT .5e FROM t", 7),
            ("SELECT 2e+x FROM t", 7), ("SELECT 1١ FROM t", 7),
        ]
        for sql, position in cases:
            with pytest.raises(SQLSyntaxError, match="malformed number") as exc:
                tokenize(sql)
            assert exc.value.position == position, sql

    def test_a_space_keeps_a_number_and_an_alias(self):
        assert kinds("1 ex") == [(TokenType.NUMBER, "1"), (TokenType.IDENT, "ex")]
        assert kinds("1e5,2") == [
            (TokenType.NUMBER, "1e5"), (TokenType.PUNCT, ","), (TokenType.NUMBER, "2"),
        ]

    def test_non_ascii_letter_starts_an_identifier(self):
        assert kinds("é1") == [(TokenType.IDENT, "é1")]


# Characters that decide token boundaries, plus Unicode space, a
# letter and two non-ASCII digits; the pieces make numbers and closed
# quotes and comments common enough to reach.
SQL_CHARS = string.ascii_letters + string.digits + ".eE+-'\"`[]()*/<>=!|%?;,$_ \n\t\x0b\xa0é²١"
SQL_PIECES = [
    "1e", "2E", "e+", "e-", "3.", ".4", "'it''s'", '"a b"', "[c]", "`d`", "-- x\n", "/* y */",
]
BETWEEN_TOKENS = re.compile(r"(?:\s|--[^\n]*|/\*.*?\*/)*", re.DOTALL)


def source_length(sql, tok):
    """Characters of ``sql`` that ``tok`` was lexed from."""
    if tok.type is TokenType.STRING:
        return len(tok.value) + tok.value.count("'") + 2
    if tok.type is TokenType.IDENT and sql[tok.position] in "\"`[":
        return len(tok.value) + 2
    return len(tok.value)


@given(st.lists(st.sampled_from(SQL_CHARS) | st.sampled_from(SQL_PIECES), max_size=30).map("".join))
@settings(max_examples=300)
@example("SELECT 1e+")
@example("SELECT ² FROM t")
@example("SELECT 1ex FROM t")
@example("'it''s' \"a b\" [c] -- x\n/* y */ `d`")
def test_tokens_partition_the_text(sql):
    """Either a syntax error, or tokens in text order with nothing but
    whitespace and comments between them, numbers that convert and
    keywords from the keyword list."""
    try:
        tokens = tokenize(sql)
    except SQLSyntaxError:
        return
    assert tokens[-1] == Token(TokenType.EOF, "", len(sql))
    positions = [tok.position for tok in tokens]
    assert positions == sorted(set(positions))
    end = 0
    for tok in tokens:
        assert tok.position >= end, (sql, tok)
        assert BETWEEN_TOKENS.fullmatch(sql, end, tok.position), (sql, tok)
        if tok.type is TokenType.NUMBER:
            (int if tok.value.isdigit() else float)(tok.value)  # raises if malformed
            # a number never runs into a word: 1ex is not 1 AS ex
            assert not re.match(r"\w", sql[tok.position + len(tok.value):]), (sql, tok)
        if tok.type is TokenType.KEYWORD:
            assert tok.value in KEYWORDS
        end = tok.position + source_length(sql, tok)
