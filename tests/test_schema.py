"""Tests for relation schemas and tuple encoding."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.catalog import Schema
from repro.catalog.schema import FIELD_WIDTH, NULL_HANDLE, Field, FieldType
from repro.common import CatalogError


@pytest.fixture()
def schema():
    return Schema.of([("id", "int"), ("balance", "int"), ("owner", "str")])


class TestSchemaShape:
    def test_of_builds_fields(self, schema):
        assert [f.name for f in schema] == ["id", "balance", "owner"]
        assert schema.field("owner").type is FieldType.STR

    def test_duplicate_names_rejected(self):
        with pytest.raises(CatalogError):
            Schema.of([("a", "int"), ("a", "str")])

    def test_empty_schema_rejected(self):
        with pytest.raises(CatalogError):
            Schema([])

    def test_positions(self, schema):
        assert schema.position("id") == 0
        assert schema.position("owner") == 2
        with pytest.raises(CatalogError):
            schema.position("ghost")

    def test_tuple_width_fixed(self, schema):
        assert schema.tuple_width == 3 * FIELD_WIDTH

    def test_heap_backed_flags(self):
        assert not FieldType.INT.heap_backed
        assert FieldType.STR.heap_backed
        assert FieldType.BYTES.heap_backed


class TestTupleEncoding:
    def test_roundtrip(self, schema):
        cells = [7, -42, 3]  # last is a heap handle
        assert schema.decode_tuple(schema.encode_tuple(cells)) == cells

    def test_negative_ints_supported(self, schema):
        cells = [-(2**62), 0, NULL_HANDLE]
        assert schema.decode_tuple(schema.encode_tuple(cells)) == cells

    def test_wrong_cell_count_rejected(self, schema):
        with pytest.raises(CatalogError):
            schema.encode_tuple([1, 2])

    def test_wrong_byte_length_rejected(self, schema):
        with pytest.raises(CatalogError):
            schema.decode_tuple(b"\x00" * 7)

    def test_field_cell_roundtrip(self, schema):
        # a field's cell codec writes the cell encode_tuple would, where decode_tuple reads it
        cells = [("id", 7), ("balance", -5), ("owner", 9)]
        data = b"".join(
            schema.cell_codecs[schema.position(name)].pack(value) for name, value in cells
        )
        assert data == schema.encode_tuple([value for _, value in cells])
        assert schema.decode_tuple(data) == [7, -5, 9]

    def test_json_roundtrip(self, schema):
        restored = Schema.from_json(schema.to_json())
        assert [f.name for f in restored] == [f.name for f in schema]
        assert restored.field("owner").type is FieldType.STR

    def test_field_json_roundtrip(self):
        field = Field("x", FieldType.BYTES)
        assert Field.from_json(field.to_json()) == field


_INTS = st.integers(-(2**63), 2**63 - 1)
_HANDLES = st.one_of(st.just(NULL_HANDLE), st.just(2**64 - 1), st.integers(0, 2**64 - 1))
_TYPES = st.lists(st.sampled_from(list(FieldType)), min_size=1, max_size=8)


@st.composite
def _schema_and_cells(draw):
    types = draw(_TYPES)
    schema = Schema([Field(f"f{i}", kind) for i, kind in enumerate(types)])
    cells = [draw(_INTS if kind is FieldType.INT else _HANDLES) for kind in types]
    return schema, cells


class TestTupleCodecProperty:
    @given(_schema_and_cells())
    def test_roundtrip_any_schema(self, case):
        schema, cells = case
        data = schema.encode_tuple(cells)
        assert len(data) == schema.tuple_width
        assert schema.decode_tuple(data) == cells

    @given(_schema_and_cells(), st.integers(0, 80))
    def test_wrong_length_raises_catalog_error(self, case, length):
        schema, _ = case
        if length == schema.tuple_width:
            return
        with pytest.raises(CatalogError):
            schema.decode_tuple(b"\x01" * length)
