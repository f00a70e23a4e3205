"""XSpec metadata: the data dictionary of the federation (§4.4).

Lower-level XSpec files describe one database each (tables, columns,
relationships, logical names); the single upper-level XSpec lists every
participating database with its connection URL, driver name and lower
spec. The :class:`~repro.metadata.dictionary.DataDictionary` built from
them is what lets clients query by logical name with no knowledge of
physical locations, and the :class:`~repro.metadata.tracker.SchemaTracker`
re-generates and size/md5-diffs specs to follow schema changes (§4.9).
"""

from repro.metadata.xspec import (
    LowerXSpec,
    XSpecColumn,
    XSpecRelationship,
    XSpecTable,
)
from repro.metadata.generator import generate_lower_xspec
from repro.metadata.upper import UpperXSpec, UpperXSpecEntry
from repro.metadata.dictionary import DataDictionary, TableLocation
from repro.metadata.tracker import SchemaTracker, TrackedSpec
from repro.metadata.semantic import (
    LogicalNameSuggestion,
    TableMatch,
    find_matches,
    suggest_logical_names,
)

__all__ = [
    "LogicalNameSuggestion",
    "TableMatch",
    "find_matches",
    "suggest_logical_names",
    "DataDictionary",
    "LowerXSpec",
    "SchemaTracker",
    "TableLocation",
    "TrackedSpec",
    "UpperXSpec",
    "UpperXSpecEntry",
    "XSpecColumn",
    "XSpecRelationship",
    "XSpecTable",
    "generate_lower_xspec",
]
