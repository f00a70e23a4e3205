"""Semantic schema matching (§6 future work, implemented).

The paper: "Another interesting extension to the project could be the
study of how tables from databases can be integrated with respect to
their semantic similarity."

This module scores how likely two physically different tables represent
the same logical entity: names are split into tokens (underscores,
camelCase, digits), normalized through a small HEP-flavoured synonym
table, and compared by Jaccard similarity; columns additionally require
type-family compatibility; a table's score is the coverage-weighted
mean of its greedy best column matches plus a table-name term. The
output is directly consumable: suggested shared logical names for the
data dictionary.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.common.types import TypeKind
from repro.metadata.xspec import LowerXSpec, XSpecColumn, XSpecTable

#: the table-similarity score at which two tables count as one entity
MATCH_THRESHOLD = 0.45

# Normalization synonyms: every token maps to a canonical representative.
_SYNONYMS = {
    "identifier": "id",
    "key": "id",
    "num": "number",
    "no": "number",
    "cnt": "count",
    "evt": "event",
    "ev": "event",
    "det": "detector",
    "rn": "run",
    "nrg": "energy",
    "ene": "energy",
    "calib": "calibration",
    "cal": "calibration",
    "cond": "condition",
    "conds": "condition",
    "conditions": "condition",
    "vals": "value",
    "values": "value",
    "val": "value",
    "info": "",
    "tbl": "",
    "table": "",
    "data": "",
}

_CAMEL = re.compile(r"(?<=[a-z0-9])(?=[A-Z])")


def tokenize_name(name: str) -> frozenset[str]:
    """Split an identifier into normalized semantic tokens."""
    spaced = _CAMEL.sub("_", name)
    raw = re.split(r"[_\W]+", spaced.lower())
    tokens = set()
    for token in raw:
        if not token:
            continue
        token = token.rstrip("0123456789") or token
        token = _SYNONYMS.get(token, token)
        # crude singularization: runs -> run, events -> event
        if len(token) > 3 and token.endswith("s"):
            token = _SYNONYMS.get(token[:-1], token[:-1])
        if token:
            tokens.add(token)
    return frozenset(tokens)


def jaccard(a: frozenset[str], b: frozenset[str]) -> float:
    if not a and not b:
        return 0.0
    union = a | b
    return len(a & b) / len(union) if union else 0.0


_TYPE_FAMILY = {
    TypeKind.INTEGER: "number",
    TypeKind.BIGINT: "number",
    TypeKind.FLOAT: "number",
    TypeKind.DOUBLE: "number",
    TypeKind.DECIMAL: "number",
    TypeKind.VARCHAR: "text",
    TypeKind.CHAR: "text",
    TypeKind.TEXT: "text",
    TypeKind.BOOLEAN: "number",  # vendors without BOOLEAN store it numerically
    TypeKind.DATE: "temporal",
    TypeKind.TIMESTAMP: "temporal",
    TypeKind.BLOB: "blob",
}


def column_similarity(a: XSpecColumn, b: XSpecColumn) -> float:
    """Name similarity gated by type-family compatibility."""
    if _TYPE_FAMILY[a.logical_type.kind] != _TYPE_FAMILY[b.logical_type.kind]:
        return 0.0
    return jaccard(tokenize_name(a.name), tokenize_name(b.name))


@dataclass(frozen=True)
class ColumnMatch:
    column_a: str
    column_b: str
    score: float


@dataclass(frozen=True)
class TableMatch:
    """A scored hypothesis that two tables are the same logical entity."""

    database_a: str
    table_a: str
    database_b: str
    table_b: str
    score: float
    columns: tuple[ColumnMatch, ...] = ()


def table_similarity(a: XSpecTable, b: XSpecTable) -> tuple[float, tuple[ColumnMatch, ...]]:
    """Score two tables: greedy column matching + table-name term.

    Returns (score in [0,1], matched column pairs). The column part is
    the mean matched-pair score weighted by how much of the *smaller*
    table was covered, so a 3-column table embedded in a 30-column one
    can still match well.
    """
    name_term = jaccard(tokenize_name(a.name), tokenize_name(b.name))
    pairs: list[tuple[float, XSpecColumn, XSpecColumn]] = []
    for ca in a.columns:
        for cb in b.columns:
            s = column_similarity(ca, cb)
            if s > 0:
                pairs.append((s, ca, cb))
    pairs.sort(key=lambda t: -t[0])
    used_a: set[str] = set()
    used_b: set[str] = set()
    matches: list[ColumnMatch] = []
    for s, ca, cb in pairs:
        if ca.name in used_a or cb.name in used_b:
            continue
        used_a.add(ca.name)
        used_b.add(cb.name)
        matches.append(ColumnMatch(ca.name, cb.name, s))
    smaller = min(len(a.columns), len(b.columns))
    if smaller == 0:
        return 0.0, ()
    coverage = len(matches) / smaller
    mean_score = sum(m.score for m in matches) / len(matches) if matches else 0.0
    column_term = coverage * mean_score
    score = 0.4 * name_term + 0.6 * column_term
    return score, tuple(matches)


def find_matches(spec_a: LowerXSpec, spec_b: LowerXSpec) -> list[TableMatch]:
    """All cross-database table pairs scoring at or above
    :data:`MATCH_THRESHOLD`."""
    out: list[TableMatch] = []
    for ta in spec_a.tables:
        for tb in spec_b.tables:
            score, columns = table_similarity(ta, tb)
            if score >= MATCH_THRESHOLD:
                out.append(
                    TableMatch(
                        database_a=spec_a.database_name,
                        table_a=ta.name,
                        database_b=spec_b.database_name,
                        table_b=tb.name,
                        score=round(score, 4),
                        columns=columns,
                    )
                )
    out.sort(key=lambda m: -m.score)
    return out


@dataclass
class LogicalNameSuggestion:
    """A proposed shared logical name for a cluster of matched tables."""

    logical_name: str
    members: list[tuple[str, str]] = field(default_factory=list)  # (database, table)
    score: float = 0.0


def suggest_logical_names(specs: list[LowerXSpec]) -> list[LogicalNameSuggestion]:
    """Cluster same-entity tables across databases and name the clusters.

    Greedy transitive clustering over pairwise matches; the suggested
    name is the most common normalized token sequence of the members.
    """
    matches: list[TableMatch] = []
    for i in range(len(specs)):
        for j in range(i + 1, len(specs)):
            matches.extend(find_matches(specs[i], specs[j]))

    parent: dict[tuple[str, str], tuple[str, str]] = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for m in matches:
        union((m.database_a, m.table_a), (m.database_b, m.table_b))

    clusters: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for m in matches:
        for member in ((m.database_a, m.table_a), (m.database_b, m.table_b)):
            root = find(member)
            bucket = clusters.setdefault(root, [])
            if member not in bucket:
                bucket.append(member)

    score_by_member: dict[tuple[str, str], float] = {}
    for m in matches:
        for member in ((m.database_a, m.table_a), (m.database_b, m.table_b)):
            score_by_member[member] = max(score_by_member.get(member, 0.0), m.score)

    suggestions = []
    for members in clusters.values():
        token_votes: dict[str, int] = {}
        for _db, table in members:
            for token in sorted(tokenize_name(table)):
                token_votes[token] = token_votes.get(token, 0) + 1
        best_tokens = sorted(
            token_votes, key=lambda t: (-token_votes[t], t)
        )[:2]
        logical = "_".join(sorted(best_tokens)) or members[0][1].lower()
        suggestions.append(
            LogicalNameSuggestion(
                logical_name=logical,
                members=sorted(members),
                score=max(score_by_member.get(m, 0.0) for m in members),
            )
        )
    suggestions.sort(key=lambda s: -s.score)
    return suggestions
