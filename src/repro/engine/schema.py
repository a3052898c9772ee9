"""Relational schemas: columns, tables, databases, join edges.

A :class:`DatabaseSchema` is the static shape of a database *instance*:
tables, typed columns, declared primary/foreign keys, and the join edges
the query generator may use. Statistics live separately in
:mod:`repro.engine.catalog` so that the "truth" (generative data model)
and what the optimizer believes can diverge.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import SchemaError
from .types import DataType


@dataclass(frozen=True)
class Column:
    """A typed column of a table."""

    name: str
    dtype: DataType

    @cached_property
    def byte_width(self) -> int:
        # Cached: the optimizer sums column widths for every scan it
        # lowers, and the type's width is an enum-keyed lookup.
        return self.dtype.byte_width


class TableSchema:
    """A named table with ordered, uniquely named columns."""

    def __init__(self, name: str, columns: Iterable[Column],
                 primary_key: Optional[str] = None):
        self.name = name
        self.columns: List[Column] = list(columns)
        if not self.columns:
            raise SchemaError(f"table {name!r} needs at least one column")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"table {name!r} has duplicate column names")
        self._by_name: Dict[str, Column] = {c.name: c for c in self.columns}
        # SQL resolves unquoted identifiers case-insensitively, so two
        # names that differ only in case could not both be addressed.
        if len({n.lower() for n in names}) != len(names):
            raise SchemaError(
                f"table {name!r} has column names that differ only in case")
        if primary_key is not None and primary_key not in self._by_name:
            raise SchemaError(
                f"primary key {primary_key!r} is not a column of {name!r}")
        self.primary_key = primary_key

    def column(self, name: str) -> Column:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(
                f"table {self.name!r} has no column {name!r}") from None

    def has_column(self, name: str) -> bool:
        return name in self._by_name

    @property
    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]

    @property
    def row_byte_width(self) -> int:
        """Bytes of one full-width tuple of this table."""
        return sum(c.byte_width for c in self.columns)

    def __repr__(self) -> str:  # pragma: no cover
        return f"TableSchema({self.name!r}, {len(self.columns)} columns)"


@dataclass(frozen=True)
class JoinEdge:
    """A declared joinable column pair between two tables.

    ``fanout`` describes the *true* average number of matching rows on
    the many side per row of the one side (1.0 for a clean key/foreign
    key edge); the estimated cardinality model never sees it.
    """

    left_table: str
    left_column: str
    right_table: str
    right_column: str
    fanout: float = 1.0

    def reversed(self) -> "JoinEdge":
        return JoinEdge(self.right_table, self.right_column,
                        self.left_table, self.left_column, self.fanout)

    def touches(self, table: str) -> bool:
        return table in (self.left_table, self.right_table)


class DatabaseSchema:
    """A database instance's schema: tables plus declared join edges."""

    def __init__(self, name: str, tables: Iterable[TableSchema],
                 join_edges: Iterable[JoinEdge] = ()):
        self.name = name
        self.tables: Dict[str, TableSchema] = {}
        #: case-folded name -> table name (see :meth:`resolve_table`)
        self._folded_tables: Dict[str, str] = {}
        #: case-folded column name -> {table name: column name}, in
        #: table order (see :meth:`column_owners`)
        self._column_owners: Dict[str, Dict[str, str]] = {}
        for table in tables:
            if table.name in self.tables:
                raise SchemaError(f"duplicate table {table.name!r}")
            folded = table.name.lower()
            if folded in self._folded_tables:
                raise SchemaError(
                    f"tables {self._folded_tables[folded]!r} and "
                    f"{table.name!r} differ only in case")
            self.tables[table.name] = table
            self._folded_tables[folded] = table.name
            for column in table.column_names:
                self._column_owners.setdefault(
                    column.lower(), {})[table.name] = column
        self.join_edges: List[JoinEdge] = []
        #: (left, right) -> the first declared edge between the two
        #: tables, oriented left -> right (see :meth:`edge_between`)
        self._edge_index: Dict[Tuple[str, str], JoinEdge] = {}
        for edge in join_edges:
            self._check_edge(edge)
            self.join_edges.append(edge)
            self._edge_index.setdefault(
                (edge.left_table, edge.right_table), edge)
            self._edge_index.setdefault(
                (edge.right_table, edge.left_table), edge.reversed())

    def _check_edge(self, edge: JoinEdge) -> None:
        for table_name, column_name in ((edge.left_table, edge.left_column),
                                        (edge.right_table, edge.right_column)):
            table = self.table(table_name)
            table.column(column_name)

    def table(self, name: str) -> TableSchema:
        try:
            return self.tables[name]
        except KeyError:
            raise SchemaError(
                f"database {self.name!r} has no table {name!r}") from None

    def find_table(self, identifier: str) -> Optional[str]:
        """The table an unquoted SQL identifier names (case-insensitive),
        or ``None``."""
        return self._folded_tables.get(identifier.lower())

    def resolve_table(self, identifier: str) -> str:
        """Like :meth:`find_table`, but an unknown name raises."""
        table = self.find_table(identifier)
        if table is None:
            raise SchemaError(
                f"database {self.name!r} has no table {identifier!r}")
        return table

    def column_owners(self, identifier: str) -> Dict[str, str]:
        """``{table: column}`` for every table with a column an unquoted
        SQL identifier names (case-insensitive); empty if none has."""
        return self._column_owners.get(identifier.lower(), {})

    @property
    def table_names(self) -> List[str]:
        return list(self.tables)

    def edges_for(self, table: str) -> List[JoinEdge]:
        """All join edges touching ``table`` (as stored, not normalized)."""
        return [e for e in self.join_edges if e.touches(table)]

    def edge_between(self, left: str, right: str) -> Optional[JoinEdge]:
        """The first declared edge connecting two tables, oriented left→right."""
        return self._edge_index.get((left, right))

    def __repr__(self) -> str:  # pragma: no cover
        return (f"DatabaseSchema({self.name!r}, {len(self.tables)} tables, "
                f"{len(self.join_edges)} join edges)")


def qualified(table: str, column: str) -> str:
    """Canonical ``table.column`` spelling used across plans and features."""
    return f"{table}.{column}"


def split_qualified(name: str) -> Tuple[str, str]:
    """Inverse of :func:`qualified`."""
    table, sep, column = name.partition(".")
    if not sep:
        raise SchemaError(f"{name!r} is not a qualified column name")
    return table, column
