"""SQL lexer: one compiled pattern, matched token by token.

Keywords are recognized case-insensitively and carried upper-cased.
Identifiers may be quoted as "x", MySQL `x` or MS-SQL [x], so text that
any of our dialects generates re-lexes. Numbers are ASCII digits with an
optional fraction and exponent; ``1e+`` is a syntax error, not a number,
and so is a number glued to a word (``1ex``, ``12_000``, ``1and``), which
would otherwise lex as a number and an alias.
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
    ALTER ADD COLUMN RENAME TO PRIMARY KEY FOREIGN REFERENCES UNIQUE
    DEFAULT CHECK JOIN INNER LEFT RIGHT FULL OUTER CROSS ON USING
    CASE WHEN THEN ELSE END CAST TRUE FALSE IF
    COUNT SUM AVG MIN MAX
    INTEGER INT BIGINT SMALLINT FLOAT DOUBLE REAL DECIMAL NUMERIC NUMBER
    VARCHAR VARCHAR2 CHAR TEXT CLOB NVARCHAR BOOLEAN BOOL DATE DATETIME
    TIMESTAMP BLOB PRECISION
""".split())

# Tried in order at each position; operators longest first. A string ends at
# the first quote not in a '' pair. tokenize rejects a word's non-letter start,
# and a number that ends in an exponent sign or runs into a word character.
_TOKEN = re.compile(
    r"""(?P<skip>\s+|--[^\n]*)
    |(?P<comment>/\*)
    |(?P<string>'[^']*(?:''[^']*)*'(?!'))
    |(?P<quoted>"[^"]*"|`[^`]*`|\[[^\]]*\])
    |(?P<number>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE](?:[+-]?[0-9]+|[+-]))?\w?)
    |(?P<word>\w[\w$]*)
    |(?P<param>\?)
    |(?P<operator><>|!=|<=|>=|\|\||[=<>+\-*/%])
    |(?P<punct>[(),.;])""",
    re.VERBOSE,
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
    pos = 0
    while pos < len(sql):
        m = _TOKEN.match(sql, pos)
        kind, text = (m.lastgroup, m.group()) if m else (None, "")
        if kind == "skip":
            pass
        elif kind == "word" and (text[0].isalpha() or text[0] == "_"):
            upper = text.upper()
            tokens.append(Token(TokenType.KEYWORD, upper, pos) if upper in KEYWORDS
                          else Token(TokenType.IDENT, text, pos))
        elif kind == "comment":
            end = sql.find("*/", pos + 2)
            if end == -1:
                raise SQLSyntaxError("unterminated block comment", pos, sql)
            pos = end + 2
            continue
        elif kind == "string":
            tokens.append(Token(TokenType.STRING, text[1:-1].replace("''", "'"), pos))
        elif kind == "quoted":
            tokens.append(Token(TokenType.IDENT, text[1:-1], pos))
        elif kind == "number" and text[-1] not in "0123456789.":
            raise SQLSyntaxError("malformed number", pos, sql)
        elif kind in _AS_IS:
            tokens.append(Token(_AS_IS[kind], text, pos))
        else:
            ch = sql[pos]
            raise SQLSyntaxError(_UNTERMINATED.get(ch, f"unexpected character {ch!r}"), pos, sql)
        pos = m.end()
    tokens.append(Token(TokenType.EOF, "", len(sql)))
    return tokens
