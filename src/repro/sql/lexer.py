"""SQL lexer: one compiled pattern, one match per token.

Each match skips whitespace and ``--``/``/* */`` comments and then takes
one token, so the loop makes a single regex call per token and ends on
a match that found only a trailing skip. Keywords are recognized
case-insensitively and carried upper-cased. Identifiers may be quoted
as "x", MySQL `x` or MS-SQL [x], so text that any of our dialects
generates re-lexes. Numbers are ASCII digits with an optional fraction
and exponent; ``1e+`` is a syntax error, not a number, and so is a
number glued to a word (``1ex``, ``12_000``, ``1and``), which would
otherwise lex as a number and an alias.
"""

import enum
import re
from typing import NamedTuple

from repro.common.errors import SQLSyntaxError


class TokenType(enum.Enum):
    KEYWORD = "KEYWORD"
    IDENT = "IDENT"
    NUMBER = "NUMBER"
    STRING = "STRING"
    OPERATOR = "OPERATOR"
    PUNCT = "PUNCT"
    PARAM = "PARAM"
    EOF = "EOF"


KEYWORDS = frozenset("""
    SELECT FROM WHERE GROUP BY HAVING ORDER ASC DESC LIMIT OFFSET TOP
    DISTINCT ALL AS AND OR NOT IN IS NULL LIKE BETWEEN EXISTS UNION
    INSERT INTO VALUES UPDATE SET DELETE CREATE TABLE VIEW INDEX DROP
    ALTER ADD COLUMN TO PRIMARY KEY FOREIGN REFERENCES UNIQUE
    DEFAULT CHECK JOIN INNER LEFT RIGHT FULL OUTER CROSS ON USING
    CASE WHEN THEN ELSE END CAST TRUE FALSE
    COUNT SUM AVG MIN MAX
    INTEGER INT BIGINT SMALLINT FLOAT DOUBLE REAL DECIMAL NUMERIC NUMBER
    VARCHAR VARCHAR2 CHAR TEXT CLOB NVARCHAR BOOLEAN BOOL DATE DATETIME
    TIMESTAMP BLOB PRECISION
""".split())

# One match per token: a leading skip of whitespace and comments, then the
# token, tried in order (operators longest first). The token is optional, so
# a match never fails and never backtracks into the skip to give a comment
# back; a match with no token is the end of input or a character no token
# starts with. A string ends at the first quote not in a '' pair; an
# unterminated /* is a comment token. tokenize rejects a word's non-letter
# start, and a number that ends in an exponent sign or runs into a word
# character.
_TOKEN = re.compile(
    r"""(?:\s+|--[^\n]*|/\*.*?\*/)*
    (?:(?P<word>[^\W\d][\w$]*)
    |(?P<number>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE](?:[+-]?[0-9]+|[+-]))?\w?)
    |(?P<punct>[(),.;])
    |(?P<comment>/\*)
    |(?P<operator><>|!=|<=|>=|\|\||[=<>+\-*/%])
    |(?P<string>'[^']*(?:''[^']*)*'(?!'))
    |(?P<param>\?)
    |(?P<quoted>"[^"]*"|`[^`]*`|\[[^\]]*\]))?""",
    re.VERBOSE | re.DOTALL,
)
_AS_IS = {kind: TokenType[kind.upper()] for kind in ("number", "param", "operator", "punct")}
_UNTERMINATED = {"'": "unterminated string literal", '"': "unterminated quoted identifier",
                 "`": "unterminated quoted identifier", "[": "unterminated quoted identifier"}


class Token(NamedTuple):
    type: TokenType
    value: str
    position: int

    def matches(self, ttype: TokenType, value: str | None = None) -> bool:
        return self.type is ttype and (value is None or self.value == value)


def tokenize(sql: str) -> list[Token]:
    """Tokenize ``sql``; raises :class:`SQLSyntaxError` on bad input."""
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__  # skips the NamedTuple's Python-level __new__
    match = _TOKEN.match
    keyword, ident = TokenType.KEYWORD, TokenType.IDENT
    pos = 0
    while True:
        m = match(sql, pos)
        kind = m.lastgroup
        pos = m.end()
        if kind is None:
            if pos == len(sql):
                break
            ch = sql[pos]
            raise SQLSyntaxError(_UNTERMINATED.get(ch, f"unexpected character {ch!r}"), pos, sql)
        text = m[kind]
        start = pos - len(text)
        if kind == "word":
            upper = text.upper()
            if upper in KEYWORDS:
                append(new(Token, (keyword, upper, start)))
            elif text[0].isalpha() or text[0] == "_":
                append(new(Token, (ident, text, start)))
            else:
                raise SQLSyntaxError(f"unexpected character {text[0]!r}", start, sql)
        elif kind in _AS_IS:
            if kind == "number" and text[-1] not in "0123456789.":
                raise SQLSyntaxError("malformed number", start, sql)
            append(new(Token, (_AS_IS[kind], text, start)))
        elif kind == "string":
            append(new(Token, (TokenType.STRING, text[1:-1].replace("''", "'"), start)))
        elif kind == "quoted":
            append(new(Token, (ident, text[1:-1], start)))
        else:
            raise SQLSyntaxError("unterminated block comment", start, sql)
    append(new(Token, (TokenType.EOF, "", len(sql))))
    return tokens
