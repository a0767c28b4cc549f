"""Binary object serialization.

Encodes an :class:`~repro.core.obj.ObjectState` into a compact
tag-length-value byte string for storage in slotted pages, and decodes it
back.  The format is self-describing (every record carries its attribute
names and every value a type tag), so schema evolution never invalidates
stored records — a record written under an old class definition decodes
fine and is coerced lazily (experiment E12).

Record layout::

    u64  oid
    u8   format: bits 0-1 value-end width (0: u8, 1: u16, 2: u32),
         bit 2 wide shape
    u16  shape length S (u32 when wide)
    shape, S bytes:
         u16 class-name length + utf-8 class name
         u16 attribute count n
         n names, sorted: u8 length + utf-8 (u16 length when wide)
    n value ends: offset just past each value, relative to the values
         start, in the format's width
    n tagged values, in name order

The value-end table lets a reader jump straight to one attribute, so a
query that reads two attributes of a seven-attribute record decodes two
values (``decode_object(data, read)``).  The shape block is the same
bytes for every record of one class and attribute set, so decoders
cache its parse by those bytes and never parse a name on the hot path.
A shape is wide when a name exceeds 255 bytes or the block 64 KiB.

Tagged values: ``N`` none, ``T``/``F`` bool, ``I`` signed int
(u8 length + big-endian two's complement), ``D`` float (8-byte IEEE),
``S`` string, ``B`` bytes, ``O`` OID (u64), ``L`` list (u32 count +
elements).
"""

from __future__ import annotations

import struct
from typing import AbstractSet, Any, Dict, Optional, Tuple

from ..core.obj import ObjectState
from ..core.oid import OID
from ..errors import StorageError

_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_F64 = struct.Struct(">d")
_HEAD = struct.Struct(">QBH")
_WIDE_HEAD = struct.Struct(">QBI")

#: Format-byte bit marking a wide shape (u16 name lengths, u32 length).
_WIDE = 4
#: Value-end table element per width code.
_END_CODES = ("B", "H", "I")

#: Shape caches are cleared when they reach this many entries; a live
#: schema has far fewer distinct (class, attribute set) shapes.
_CACHE_LIMIT = 1024

#: Parsed shape blocks, keyed by their bytes: ``(class_name, names,
#: name -> position, value-end codec per width code, read set ->
#: (name, position) pairs it decodes)``.
_SHAPES: Dict[bytes, tuple] = {}
#: Encoded shape blocks (with their length prefix) and their wide bit,
#: keyed by ``(class_name, names)``.
_ENCODED: Dict[Tuple[str, Tuple[str, ...]], Tuple[bytes, int]] = {}
#: Value-end table codecs, keyed by ``(width code, n)``.
_END_TABLES: Dict[Tuple[int, int], struct.Struct] = {}


def _end_table(code: int, count: int) -> struct.Struct:
    table = _END_TABLES.get((code, count))
    if table is None:
        if len(_END_TABLES) >= _CACHE_LIMIT:
            _END_TABLES.clear()
        table = _END_TABLES[(code, count)] = struct.Struct(
            ">%d%s" % (count, _END_CODES[code])
        )
    return table


def _encode_shape(class_name: str, names: Tuple[str, ...]) -> Tuple[bytes, int]:
    """The length-prefixed shape block of one class and attribute set,
    and its wide bit."""
    if len(names) > 0xFFFF:
        raise StorageError("too many attributes to serialize")
    raw = [text.encode("utf-8") for text in (class_name,) + names]
    for part in raw:
        if len(part) > 0xFFFF:
            raise StorageError("string of %d bytes exceeds field limit" % len(part))
    wide = any(len(part) > 0xFF for part in raw[1:])
    while True:
        shape = bytearray(_U16.pack(len(raw[0])))
        shape += raw[0]
        shape += _U16.pack(len(names))
        for part in raw[1:]:
            shape += _U16.pack(len(part)) if wide else bytes((len(part),))
            shape += part
        if wide:
            return _U32.pack(len(shape)) + shape, _WIDE
        if len(shape) <= 0xFFFF:
            return _U16.pack(len(shape)) + shape, 0
        wide = True


def _parse_shape(key: bytes, wide: int) -> tuple:
    """Parse (and cache) one shape block."""
    (class_len,) = _U16.unpack_from(key, 0)
    pos = 2 + class_len
    class_name = key[2:pos].decode("utf-8")
    (count,) = _U16.unpack_from(key, pos)
    pos += 2
    names = []
    for _ in range(count):
        if wide:
            (length,) = _U16.unpack_from(key, pos)
            pos += 2
        else:
            length = key[pos]
            pos += 1
        if pos + length > len(key):
            raise StorageError("corrupt object record: shape name overruns")
        names.append(key[pos : pos + length].decode("utf-8"))
        pos += length
    if pos != len(key) or list(names) != sorted(set(names)):
        raise StorageError("corrupt object record: malformed shape block")
    shape = (
        class_name,
        tuple(names),
        {name: i for i, name in enumerate(names)},
        [_end_table(code, count) for code in range(len(_END_CODES))],
        {},
    )
    if len(_SHAPES) >= _CACHE_LIMIT:
        _SHAPES.clear()
    _SHAPES[bytes(key)] = shape
    return shape


def _encode_value(out: bytearray, value: Any) -> None:
    cls = value.__class__
    if cls is int:
        length = (value.bit_length() + 8) // 8
        if length > 255:
            raise StorageError("integer too large to serialize")
        out += b"I"
        out.append(length)
        out += value.to_bytes(length, "big", signed=True)
    elif cls is str:
        raw = value.encode("utf-8")
        out += b"S"
        out += _U32.pack(len(raw))
        out += raw
    elif value is None:
        out += b"N"
    elif value is True:
        out += b"T"
    elif value is False:
        out += b"F"
    elif isinstance(value, OID):
        out += b"O"
        out += _U64.pack(value.value)
    elif isinstance(value, int):
        _encode_value(out, int(value))
    elif isinstance(value, float):
        out += b"D"
        out += _F64.pack(value)
    elif isinstance(value, str):
        _encode_value(out, str.__str__(value))
    elif isinstance(value, bytes):
        out += b"B"
        out += _U32.pack(len(value))
        out += value
    elif isinstance(value, list):
        out += b"L"
        out += _U32.pack(len(value))
        for element in value:
            _encode_value(out, element)
    else:
        raise StorageError(
            "value %r of type %s is not storable" % (value, type(value).__name__)
        )


def _decode_value(data: bytes, pos: int) -> Tuple[Any, int]:
    """One tagged value at ``pos``; returns it and the offset past it.

    Every length is checked against ``data``, so a cut record raises
    instead of yielding a short string or bytes value."""
    tag = data[pos]
    pos += 1
    if tag == 0x49:  # I
        end = pos + 1 + data[pos]
        if end > len(data):
            raise StorageError("corrupt object record: int overruns")
        return int.from_bytes(data[pos + 1 : end], "big", signed=True), end
    if tag == 0x53:  # S
        end = pos + 4 + _U32.unpack_from(data, pos)[0]
        if end > len(data):
            raise StorageError("corrupt object record: string overruns")
        return data[pos + 4 : end].decode("utf-8"), end
    if tag == 0x4F:  # O
        return OID(_U64.unpack_from(data, pos)[0]), pos + 8
    if tag == 0x4E:  # N
        return None, pos
    if tag == 0x54:  # T
        return True, pos
    if tag == 0x46:  # F
        return False, pos
    if tag == 0x44:  # D
        return _F64.unpack_from(data, pos)[0], pos + 8
    if tag == 0x42:  # B
        end = pos + 4 + _U32.unpack_from(data, pos)[0]
        if end > len(data):
            raise StorageError("corrupt object record: bytes overrun")
        return bytes(data[pos + 4 : end]), end
    if tag == 0x4C:  # L
        (count,) = _U32.unpack_from(data, pos)
        pos += 4
        items = []
        for _ in range(count):
            item, pos = _decode_value(data, pos)
            items.append(item)
        return items, pos
    raise StorageError("unknown value tag %r at offset %d" % (bytes((tag,)), pos - 1))


def encode_object(state: ObjectState) -> bytes:
    """Serialize an object state to bytes."""
    values = state.values
    names = tuple(sorted(values))
    key = (state.class_name, names)
    encoded = _ENCODED.get(key)
    if encoded is None:
        encoded = _encode_shape(state.class_name, names)
        if len(_ENCODED) >= _CACHE_LIMIT:
            _ENCODED.clear()
        _ENCODED[key] = encoded
    shape, wide = encoded
    body = bytearray()
    ends = []
    for name in names:
        _encode_value(body, values[name])
        ends.append(len(body))
    size = len(body)
    code = 0 if size <= 0xFF else 1 if size <= 0xFFFF else 2
    return b"".join((
        _U64.pack(state.oid.value),
        bytes((code | wide,)),
        shape,
        _end_table(code, len(names)).pack(*ends),
        body,
    ))


def decode_object(data: bytes, read: Optional[AbstractSet[str]] = None) -> ObjectState:
    """Deserialize bytes produced by :func:`encode_object`.

    ``read`` None decodes every attribute and rejects any record whose
    lengths do not add up exactly (truncated, padded or corrupt).
    Otherwise only the attributes named in ``read`` are decoded — the
    record's other values are never touched — and the state holds just
    those of them the record has.
    """
    try:
        oid_raw, fmt, shape_len = _HEAD.unpack_from(data, 0)
        pos = _HEAD.size
        if fmt & _WIDE:
            oid_raw, fmt, shape_len = _WIDE_HEAD.unpack_from(data, 0)
            pos = _WIDE_HEAD.size
        if fmt & ~(_WIDE | 3) or fmt & 3 == 3:
            raise StorageError("corrupt object record: format byte %#x" % fmt)
        shape_end = pos + shape_len
        key = data[pos:shape_end]
        shape = _SHAPES.get(key)
        if shape is None:
            if len(key) != shape_len:
                raise StorageError("corrupt object record: shape overruns")
            shape = _parse_shape(key, fmt & _WIDE)
        class_name, names, positions, tables, decodes = shape
        table = tables[fmt & 3]
        ends = table.unpack_from(data, shape_end)
        base = shape_end + table.size
        values: Dict[str, Any] = {}
        if read is None:
            if (base + ends[-1] if ends else base) != len(data):
                raise StorageError(
                    "corrupt object record: %d bytes, value table says %d"
                    % (len(data), base + ends[-1] if ends else base)
                )
            pos = base
            for name, end in zip(names, ends):
                values[name], pos = _decode_value(data, pos)
                if pos != base + end:
                    raise StorageError("corrupt object record: value %r overruns" % name)
        else:
            wanted = decodes.get(read)
            if wanted is None:
                if len(decodes) >= 64:
                    decodes.clear()
                wanted = decodes[read] = tuple(
                    (name, positions[name]) for name in sorted(read) if name in positions
                )
            for name, position in wanted:
                pos = base + ends[position - 1] if position else base
                tag = data[pos]
                # Ints and OIDs inline: the table gives an int's end.
                if tag == 0x49:
                    values[name] = int.from_bytes(
                        data[pos + 2 : base + ends[position]], "big", signed=True
                    )
                elif tag == 0x4F:
                    values[name] = OID(_U64.unpack_from(data, pos + 1)[0])
                else:
                    values[name] = _decode_value(data, pos)[0]
    except (struct.error, IndexError, UnicodeDecodeError) as exc:
        raise StorageError("corrupt object record: %s" % exc) from exc
    return ObjectState(OID(oid_raw, class_name), class_name, values)
