"""Relation schemas and tuple encoding.

Tuples are fixed-width in the partition's entity area: every field
occupies exactly eight bytes.  Integer fields store their value directly;
string and bytes fields store a handle into the partition's string-space
heap (section 2's separate mechanism for variable-length data).  Fixed
width makes single-field updates byte-range patches — the paper's compact
"update a field" log records.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

from repro.common.errors import CatalogError

FIELD_WIDTH = 8

_INT_FIELD = struct.Struct("<q")
_HANDLE_FIELD = struct.Struct("<Q")

#: Heap handle meaning SQL NULL for string/bytes fields.
NULL_HANDLE = 0


class FieldType(enum.Enum):
    INT = "int"
    STR = "str"
    BYTES = "bytes"

    @property
    def heap_backed(self) -> bool:
        return self is not FieldType.INT


@dataclass(frozen=True, slots=True)
class Field:
    name: str
    type: FieldType

    def to_json(self) -> list:
        return [self.name, self.type.value]

    @classmethod
    def from_json(cls, data: list) -> "Field":
        return cls(data[0], FieldType(data[1]))


class Schema:
    """An ordered set of named fields with encode/decode helpers."""

    def __init__(self, fields: list[Field]):
        if not fields:
            raise CatalogError("a schema needs at least one field")
        names = [field.name for field in fields]
        if len(set(names)) != len(names):
            raise CatalogError(f"duplicate field names in {names}")
        self.fields = list(fields)
        self._positions = {field.name: i for i, field in enumerate(fields)}
        #: The field names, for checking a whole row's keys at once.
        self.names = frozenset(names)
        #: Each field's cell codec, by position: an int or a heap handle.
        self.cell_codecs = tuple(
            _INT_FIELD if field.type is FieldType.INT else _HANDLE_FIELD for field in fields
        )
        #: The whole tuple's codec: one cell per field, an int or a handle.
        self._tuple = struct.Struct(
            "<" + "".join("q" if field.type is FieldType.INT else "Q" for field in fields)
        )

    @classmethod
    def of(cls, spec: list[tuple[str, str]]) -> "Schema":
        """Build a schema from ``[("id", "int"), ("name", "str"), ...]``."""
        return cls([Field(name, FieldType(type_name)) for name, type_name in spec])

    # -- introspection -------------------------------------------------------------

    def __iter__(self):
        return iter(self.fields)

    def position(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise CatalogError(f"no field {name!r} in schema") from None

    def field(self, name: str) -> Field:
        return self.fields[self.position(name)]

    @property
    def tuple_width(self) -> int:
        return len(self.fields) * FIELD_WIDTH

    # -- tuple-level encoding ------------------------------------------------------------

    def encode_tuple(self, cells: list[int]) -> bytes:
        """Pack the fixed-width cells (ints and heap handles) of a tuple."""
        if len(cells) != len(self.fields):
            raise CatalogError(
                f"expected {len(self.fields)} cells, got {len(cells)}"
            )
        return self._tuple.pack(*cells)

    def decode_tuple(self, data: bytes) -> list[int]:
        if len(data) != self._tuple.size:
            raise CatalogError(
                f"tuple is {len(data)} bytes, schema expects {self.tuple_width}"
            )
        return list(self._tuple.unpack(data))

    # -- serialisation -------------------------------------------------------------------------

    def to_json(self) -> list:
        return [field.to_json() for field in self.fields]

    @classmethod
    def from_json(cls, data: list) -> "Schema":
        return cls([Field.from_json(entry) for entry in data])
