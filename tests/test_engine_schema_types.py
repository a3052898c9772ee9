"""Tests for SQL types, schemas, and join edges."""

import pytest

from repro.errors import SchemaError
from repro.engine.types import DataType
from repro.engine.schema import (
    Column,
    DatabaseSchema,
    JoinEdge,
    TableSchema,
    qualified,
    split_qualified,
)


class TestDataType:
    def test_byte_widths_positive(self):
        for dtype in DataType:
            assert dtype.byte_width >= 1

    def test_parse_aliases(self):
        assert DataType.parse("integer") is DataType.INT
        assert DataType.parse("VARCHAR(255)") is DataType.VARCHAR
        assert DataType.parse("numeric(12,2)") is DataType.DECIMAL
        assert DataType.parse(" text ") is DataType.VARCHAR

    def test_parse_unknown(self):
        with pytest.raises(SchemaError):
            DataType.parse("geometry")

    def test_classification(self):
        assert DataType.INT.is_numeric and not DataType.INT.is_string
        assert DataType.VARCHAR.is_string and not DataType.VARCHAR.is_numeric
        assert DataType.DATE.is_numeric

    def test_numpy_dtypes_exist(self):
        for dtype in DataType:
            assert dtype.numpy_dtype is not None


class TestTableSchema:
    def _table(self):
        return TableSchema("t", [Column("a", DataType.INT),
                                 Column("b", DataType.VARCHAR)],
                           primary_key="a")

    def test_lookup(self):
        table = self._table()
        assert table.column("a").dtype is DataType.INT
        assert table.has_column("b")
        assert not table.has_column("c")

    def test_row_width(self):
        assert self._table().row_byte_width == 4 + 16

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [Column("a", DataType.INT),
                              Column("a", DataType.INT)])

    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [])

    def test_bad_primary_key(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [Column("a", DataType.INT)], primary_key="z")

    def test_unknown_column(self):
        with pytest.raises(SchemaError):
            self._table().column("nope")

    def test_columns_differing_only_in_case_rejected(self):
        # SQL identifiers resolve case-insensitively: both could not be
        # addressed.
        with pytest.raises(SchemaError):
            TableSchema("t", [Column("a", DataType.INT),
                              Column("A", DataType.INT)])


class TestDatabaseSchema:
    def _schema(self):
        a = TableSchema("a", [Column("x", DataType.INT)], primary_key="x")
        b = TableSchema("b", [Column("y", DataType.INT)])
        return DatabaseSchema("db", [a, b], [JoinEdge("b", "y", "a", "x")])

    def test_table_lookup(self):
        schema = self._schema()
        assert schema.table("a").name == "a"
        with pytest.raises(SchemaError):
            schema.table("zzz")

    def test_edge_between_orients(self):
        schema = self._schema()
        edge = schema.edge_between("a", "b")
        assert edge.left_table == "a" and edge.left_column == "x"
        edge2 = schema.edge_between("b", "a")
        assert edge2.left_table == "b"
        assert schema.edge_between("a", "a") is None

    def test_edges_for(self):
        schema = self._schema()
        assert len(schema.edges_for("a")) == 1
        assert len(schema.edges_for("b")) == 1

    def test_duplicate_tables_rejected(self):
        a = TableSchema("a", [Column("x", DataType.INT)])
        with pytest.raises(SchemaError):
            DatabaseSchema("db", [a, a])

    def test_tables_differing_only_in_case_rejected(self):
        a = TableSchema("a", [Column("x", DataType.INT)])
        upper = TableSchema("A", [Column("y", DataType.INT)])
        with pytest.raises(SchemaError):
            DatabaseSchema("db", [a, upper])

    def test_identifier_lookups_are_case_insensitive(self):
        schema = self._schema()
        assert schema.resolve_table("A") == "a"
        assert schema.find_table("Zzz") is None
        with pytest.raises(SchemaError):
            schema.resolve_table("zzz")
        assert schema.column_owners("X") == {"a": "x"}
        assert schema.column_owners("nope") == {}

    def test_edge_between_returns_first_declared_edge(self):
        a = TableSchema("a", [Column("x", DataType.INT),
                              Column("z", DataType.INT)])
        b = TableSchema("b", [Column("y", DataType.INT)])
        schema = DatabaseSchema("db", [a, b], [
            JoinEdge("b", "y", "a", "x", fanout=2.0),
            JoinEdge("a", "z", "b", "y")])
        assert schema.edge_between("a", "b") == JoinEdge("a", "x", "b", "y",
                                                         fanout=2.0)
        assert schema.edge_between("b", "a") == JoinEdge("b", "y", "a", "x",
                                                         fanout=2.0)

    def test_bad_edge_rejected(self):
        a = TableSchema("a", [Column("x", DataType.INT)])
        with pytest.raises(SchemaError):
            DatabaseSchema("db", [a], [JoinEdge("a", "x", "missing", "y")])

    def test_reversed_edge_preserves_fanout(self):
        edge = JoinEdge("a", "x", "b", "y", fanout=2.5)
        rev = edge.reversed()
        assert rev.left_table == "b" and rev.fanout == 2.5


class TestQualifiedNames:
    def test_roundtrip(self):
        assert split_qualified(qualified("t", "c")) == ("t", "c")

    def test_invalid(self):
        with pytest.raises(SchemaError):
            split_qualified("nodot")
