"""Canonical serialization: determinism, round trips, edge cases."""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.common.serialization as serialization
from repro.common.serialization import (
    _default,
    canonical_bytes,
    canonical_json,
    from_canonical_json,
)
from repro.network.simnet import payload_size


class TestCanonicalJson:
    def test_sorted_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_no_whitespace(self):
        text = canonical_json({"a": [1, 2, {"b": 3}]})
        assert " " not in text

    def test_dict_order_independent(self):
        assert canonical_json({"x": 1, "y": 2}) == canonical_json({"y": 2, "x": 1})

    def test_bytes_are_tagged(self):
        text = canonical_json({"k": b"\x01\x02"})
        assert "0102" in text
        assert "__bytes_hex__" in text

    def test_bytes_round_trip(self):
        original = {"payload": b"\x00\xffhello"}
        assert from_canonical_json(canonical_json(original)) == original

    def test_tuple_becomes_list(self):
        assert canonical_json((1, 2)) == "[1,2]"

    def test_set_is_sorted(self):
        assert canonical_json({3, 1, 2}) == "[1,2,3]"

    def test_dataclass_serializes_as_dict(self):
        @dataclasses.dataclass
        class Point:
            x: int
            y: int

        assert canonical_json(Point(1, 2)) == '{"x":1,"y":2}'

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            canonical_json(float("nan"))

    def test_unserializable_type_rejected(self):
        with pytest.raises(TypeError):
            canonical_json(object())

    def test_canonical_bytes_is_utf8(self):
        assert canonical_bytes({"k": "v"}) == b'{"k":"v"}'

    @given(
        st.recursive(
            st.none() | st.booleans() | st.integers() | st.text(),
            lambda children: st.lists(children)
            | st.dictionaries(st.text(), children),
            max_leaves=20,
        )
    )
    def test_round_trip_property(self, value):
        assert from_canonical_json(canonical_json(value)) == value

    @given(st.dictionaries(st.text(), st.integers(), min_size=1))
    def test_equal_values_equal_encodings(self, mapping):
        reordered = dict(reversed(list(mapping.items())))
        assert canonical_json(mapping) == canonical_json(reordered)

    @given(st.binary(max_size=64))
    def test_bytes_round_trip_property(self, blob):
        assert from_canonical_json(canonical_json({"b": blob})) == {"b": blob}


def _reference_json(value):
    """The encoding as ``json.dumps`` gives it with the canonical options."""
    return json.dumps(
        value,
        default=_default,
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
        ensure_ascii=True,
    )


_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text()
    | st.binary(max_size=16)
)


class TestSharedEncoder:
    """The encoder and decoder built once at import behave as the ones
    ``json.dumps`` / ``json.loads`` build per call."""

    @given(
        st.recursive(
            _SCALARS
            | st.frozensets(st.integers(), max_size=5)
            | st.sets(st.text(max_size=4), max_size=5),
            lambda children: st.lists(children, max_size=4)
            | st.tuples(children, children)
            | st.dictionaries(st.text(max_size=6), children, max_size=4),
            max_leaves=20,
        )
    )
    def test_equals_reference_encoding(self, value):
        assert canonical_json(value) == _reference_json(value)

    def test_non_ascii_text_is_escaped(self):
        assert canonical_json({"ü": "日本"}) == _reference_json({"ü": "日本"})
        assert canonical_json("é").isascii()

    def test_self_referencing_list_rejected(self):
        loop: list = []
        loop.append(loop)
        with pytest.raises(ValueError, match="[Cc]ircular"):
            canonical_json(loop)
        # A failed encoding leaves nothing behind for the next one.
        assert canonical_json([[1], [1]]) == "[[1],[1]]"

    def test_bytes_tag_beside_another_key_stays_a_dict(self):
        text = '{"__bytes_hex__":"00ff","other":1}'
        assert from_canonical_json(text) == {"__bytes_hex__": "00ff", "other": 1}
        assert from_canonical_json('{"__bytes_hex__":"00ff"}') == b"\x00\xff"

    @pytest.mark.parametrize("flag", (None, True, False))
    def test_flags_sized_without_encoding(self, monkeypatch, flag):
        expected = len(canonical_bytes(flag))
        calls = []
        encode = serialization.canonical_json

        def counted(value):
            calls.append(value)
            return encode(value)

        monkeypatch.setattr(serialization, "canonical_json", counted)
        assert payload_size(flag) == expected
        assert payload_size((flag, flag)) == 2 * expected
        assert calls == []
