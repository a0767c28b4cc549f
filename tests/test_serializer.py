"""The record format: value-end table, cached shapes, strict full decode."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from repro.bench.schemas import build_vehicle_schema, populate_vehicles
from repro.core.obj import ObjectState
from repro.core.oid import OID
from repro.errors import StorageError
from repro.storage.serializer import _encode_value, decode_object, encode_object

MIXED = {
    "i": -(2**70),
    "f": 3.25,
    "s": "détroit",
    "b": b"\x00\xff",
    "t": True,
    "fa": False,
    "n": None,
    "ref": OID(7),
    "xs": [1, "two", OID(3), [4, 5]],
}


def records():
    """Narrow, wide-name, over-64-KiB and empty records."""
    yield ObjectState(OID(1), "Vehicle", dict(MIXED))
    yield ObjectState(OID(2), "Long", {"n" * 300: 1, "short": "v"})
    yield ObjectState(OID(3), "Big", {"blob": "x" * 70000, "after": 5, "before": [1] * 9})
    yield ObjectState(OID(4), "Empty", {})
    yield ObjectState(OID(2**40), "K" * 400, {"a" * 70: OID(9), "z": "q" * 300})


def legacy_size(state):
    """The size of ``state`` in the format before value-end tables:
    oid, class name, attribute count, then name + tagged value each."""
    size = 8 + 2 + len(state.class_name.encode("utf-8")) + 2
    for name, value in state.values.items():
        out = bytearray()
        _encode_value(out, value)
        size += 2 + len(name.encode("utf-8")) + len(out)
    return size


class TestRoundTrip:
    @pytest.mark.parametrize("state", list(records()), ids=lambda s: s.class_name[:8])
    def test_full_and_partial_round_trip(self, state):
        data = encode_object(state)
        decoded = decode_object(data)
        assert decoded.oid == state.oid
        assert decoded.class_name == state.class_name
        assert decoded.values == state.values
        for name in state.values:
            assert decode_object(data, frozenset({name, "absent"})).values == {
                name: state.values[name]
            }
        assert decode_object(data, frozenset()).values == {}

    def test_wide_formats_are_used(self):
        wide_name = encode_object(ObjectState(OID(1), "A", {"n" * 300: 1}))
        assert wide_name[8] & 4  # u16 name lengths
        big = encode_object(ObjectState(OID(1), "A", {"x": "y" * 70000}))
        assert big[8] & 3 == 2  # u32 value ends
        narrow = encode_object(ObjectState(OID(1), "A", {"x": 1}))
        assert narrow[8] == 0

    @given(
        values=st.dictionaries(
            st.text(min_size=1, max_size=8),
            st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=30)),
            max_size=8,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_generated_round_trip(self, values):
        state = ObjectState(OID(5), "G", values)
        data = encode_object(state)
        assert decode_object(data).values == values
        some = frozenset(list(values)[::2])
        assert decode_object(data, some).values == {k: values[k] for k in some}


class TestTruncation:
    @pytest.mark.parametrize("state", list(records()), ids=lambda s: s.class_name[:8])
    def test_every_truncated_prefix_is_rejected(self, state):
        data = encode_object(state)
        for cut in range(len(data)):
            with pytest.raises(StorageError):
                decode_object(data[:cut])

    def test_padded_record_is_rejected(self):
        data = encode_object(ObjectState(OID(1), "A", {"x": "abc"}))
        with pytest.raises(StorageError):
            decode_object(data + b"\x00")

    def test_value_overrunning_its_end_is_rejected(self):
        data = bytearray(encode_object(ObjectState(OID(1), "A", {"x": "abc", "y": 1})))
        # Grow the first string's length field by one: the value now runs
        # into the next one's bytes.
        at = data.index(b"abc") - 4
        assert struct.unpack_from(">I", data, at) == (3,)
        struct.pack_into(">I", data, at, 4)
        with pytest.raises(StorageError):
            decode_object(bytes(data))


class TestFigureOneRecord:
    def test_domestic_automobile_grows_at_most_four_bytes(self):
        db = Database()
        build_vehicle_schema(db)
        oids = populate_vehicles(db, n_vehicles=8, n_companies=4)
        for oid in oids["DomesticAutomobile"]:
            state = db.get_state(oid)
            assert len(encode_object(state)) - legacy_size(state) <= 4
