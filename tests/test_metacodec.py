"""Tests for the metadata bitfield codec and index schemes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.components.base import IndexScheme, MetaCodec


class TestMetaCodec:
    def test_scalar_roundtrip(self):
        codec = MetaCodec([("hit", 1), ("way", 2)])
        meta = codec.pack(hit=1, way=3)
        assert codec.unpack(meta) == {"hit": 1, "way": 3}

    def test_vector_roundtrip(self):
        codec = MetaCodec([("ctr", 2, 4)])
        meta = codec.pack(ctr=[0, 1, 2, 3])
        assert codec.unpack(meta)["ctr"] == [0, 1, 2, 3]

    def test_width_accumulates(self):
        codec = MetaCodec([("a", 3), ("b", 2, 4), ("c", 1)])
        assert codec.width == 3 + 8 + 1

    def test_missing_field_defaults_zero(self):
        codec = MetaCodec([("a", 2), ("b", 2)])
        assert codec.unpack(codec.pack(b=3)) == {"a": 0, "b": 3}

    def test_value_too_wide_rejected(self):
        codec = MetaCodec([("a", 2)])
        with pytest.raises(ValueError):
            codec.pack(a=4)

    def test_negative_rejected(self):
        codec = MetaCodec([("a", 2)])
        with pytest.raises(ValueError):
            codec.pack(a=-1)

    def test_unknown_field_rejected(self):
        codec = MetaCodec([("a", 2)])
        with pytest.raises(ValueError, match="unknown"):
            codec.pack(a=1, z=1)

    def test_wrong_lane_count_rejected(self):
        codec = MetaCodec([("v", 2, 4)])
        with pytest.raises(ValueError, match="lanes"):
            codec.pack(v=[1, 2])

    def test_duplicate_field_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            MetaCodec([("a", 1), ("a", 2)])

    def test_empty_layout(self):
        codec = MetaCodec([])
        assert codec.width == 0
        assert codec.pack() == 0 and codec.unpack(0) == {}
        with pytest.raises(ValueError, match="unknown"):
            codec.pack(a=1)

    def test_fields_independent(self):
        codec = MetaCodec([("lo", 4), ("hi", 4)])
        meta = codec.pack(lo=0xF, hi=0x0)
        assert codec.unpack(meta) == {"lo": 0xF, "hi": 0x0}

    @given(st.lists(st.integers(0, 7), min_size=4, max_size=4), st.integers(0, 1))
    def test_roundtrip_property(self, lanes, flag):
        codec = MetaCodec([("flag", 1), ("lanes", 3, 4)])
        meta = codec.pack(flag=flag, lanes=lanes)
        out = codec.unpack(meta)
        assert out["flag"] == flag
        assert out["lanes"] == lanes
        assert 0 <= meta < (1 << codec.width)


def reference_pack(fields, values):
    """The plain field-by-field pack the codec's fast paths must reproduce."""
    values = dict(values)
    meta = 0
    offset = 0
    for name, bits, count in fields:
        value = values.pop(name, 0)
        lane_mask = (1 << bits) - 1
        if count == 1:
            lane_int = int(value)
            if lane_int < 0 or lane_int > lane_mask:
                raise ValueError(f"field {name!r}: value {lane_int} exceeds {bits} bits")
            meta |= lane_int << offset
            offset += bits
            continue
        if len(value) != count:
            raise ValueError(f"field {name!r} expects {count} lanes, got {len(value)}")
        for lane_value in value:
            lane_int = int(lane_value)
            if lane_int < 0 or lane_int > lane_mask:
                raise ValueError(f"field {name!r}: value {lane_int} exceeds {bits} bits")
            meta |= lane_int << offset
            offset += bits
    if values:
        raise ValueError(f"unknown metadata fields: {sorted(values)}")
    return meta


def reference_unpack(fields, meta):
    out = {}
    offset = 0
    for name, bits, count in fields:
        lanes = []
        for _ in range(count):
            lanes.append((meta >> offset) & ((1 << bits) - 1))
            offset += bits
        out[name] = lanes if count > 1 else lanes[0]
    return out


def outcome(fn, *args, **kwargs):
    """``("ok", result)`` or ``("error", type, message)``."""
    try:
        return ("ok", fn(*args, **kwargs))
    except Exception as error:  # compared, never swallowed
        return ("error", type(error), str(error))


#: Field shapes: (bits, count).  Small widths keep lane values in range
#: often, so both the accepting and the rejecting paths run.
shapes = st.lists(
    st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=5
)


def layout_of(shape, names):
    return [(name, bits, count) for name, (bits, count) in zip(names, shape)]


@st.composite
def lane_value(draw, bits):
    """One lane: usually in range, as int, bool or numpy int."""
    top = (1 << bits) - 1
    value = draw(
        st.one_of(
            st.integers(0, top),
            st.integers(0, top),
            st.integers(-2, top + 2),
        )
    )
    kind = draw(st.sampled_from(["int", "bool", "numpy"]))
    if kind == "bool" and value in (0, 1):
        return bool(value)
    if kind == "numpy" and value >= 0:
        return np.uint8(value) if value < 256 else np.int64(value)
    return value


@st.composite
def pack_values(draw, layout):
    """Keyword values for ``layout``: some fields missing, some malformed."""
    values = {}
    for name, bits, count in layout:
        if draw(st.integers(0, 4)) == 0:
            continue  # missing: packs as 0
        if count == 1:
            values[name] = draw(lane_value(bits))
            continue
        lanes_count = count if draw(st.integers(0, 9)) else count + 1
        lanes = [draw(lane_value(bits)) for _ in range(lanes_count)]
        container = draw(st.sampled_from(["list", "tuple", "numpy"]))
        if container == "tuple":
            lanes = tuple(lanes)
        elif container == "numpy" and all(int(v) >= 0 for v in lanes):
            lanes = np.array([int(v) for v in lanes], dtype=np.int64)
        values[name] = lanes
    if draw(st.integers(0, 9)) == 0:
        values["zz_unknown"] = 1
    return values


class TestMetaCodecMatchesReference:
    """The codec against a plain pack/unpack, value for value."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_pack_matches_reference(self, data):
        shape = data.draw(shapes)
        layout = layout_of(shape, [f"f{i}" for i in range(len(shape))])
        codec = MetaCodec(layout)
        for _ in range(3):
            values = data.draw(pack_values(layout))
            expected = outcome(reference_pack, layout, values)
            assert outcome(codec.pack, **values) == expected
            assert outcome(codec.pack, **values) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_unpack_matches_reference_and_is_fresh(self, data):
        shape = data.draw(shapes)
        layout = layout_of(shape, [f"f{i}" for i in range(len(shape))])
        codec = MetaCodec(layout)
        for _ in range(3):
            meta = data.draw(st.integers(0, (1 << codec.width) - 1))
            first = codec.unpack(meta)
            assert first == reference_unpack(layout, meta)
            assert list(first) == [name for name, _, _ in layout]
            for value in first.values():
                if isinstance(value, list):
                    value.append(99)  # must not leak into the next call
            first["extra"] = 1
            assert codec.unpack(meta) == reference_unpack(layout, meta)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_equal_lane_shapes_never_share_results(self, data):
        """Codecs with one lane shape but different names or field order
        each decode and encode by their own layout."""
        shape = data.draw(shapes)
        names = [f"f{i}" for i in range(len(shape))]
        layout_a = layout_of(shape, names)
        layout_b = layout_of(shape, list(reversed(names)))
        layout_c = list(reversed(layout_a))
        codecs = [(layout, MetaCodec(layout)) for layout in (layout_a, layout_b, layout_c)]
        meta = data.draw(st.integers(0, (1 << codecs[0][1].width) - 1))
        for layout, codec in codecs * 2:
            assert codec.unpack(meta) == reference_unpack(layout, meta)
        values = data.draw(pack_values(layout_a))
        for layout, codec in codecs * 2:
            assert outcome(codec.pack, **values) == outcome(
                reference_pack, layout, values
            )

    def test_errors_keep_their_messages(self):
        codec = MetaCodec([("a", 2), ("v", 2, 4)])
        cases = [
            ({"a": 4}, "field 'a': value 4 exceeds 2 bits"),
            ({"a": -1}, "field 'a': value -1 exceeds 2 bits"),
            ({"v": [1, 2]}, "field 'v' expects 4 lanes, got 2"),
            ({"v": [0, 0, 5, 0]}, "field 'v': value 5 exceeds 2 bits"),
            ({"v": [0, -1, 0, 0]}, "field 'v': value -1 exceeds 2 bits"),
            (
                {"a": 1, "v": [0] * 4, "z": 1, "y": 0},
                "unknown metadata fields: ['y', 'z']",
            ),
        ]
        for values, message in cases:
            for _ in range(2):
                with pytest.raises(ValueError) as raised:
                    codec.pack(**values)
                assert str(raised.value) == message
        for values in ({"v": 3}, {"a": 1}):  # no lanes where lanes belong
            with pytest.raises(TypeError):
                codec.pack(**values)

    def test_zero_dim_array_lanes_pack(self):
        codec = MetaCodec([("v", 3, 2)])
        lanes = [np.array(5), np.array(2)]
        assert codec.pack(v=lanes) == reference_pack([("v", 3, 2)], {"v": lanes})


class TestIndexScheme:
    def test_pc_scheme_ignores_history(self):
        fn = IndexScheme("pc", 8).index_fn()
        assert fn.compute(5, 0, 0) == fn.compute(5, 123, 456)

    def test_ghist_scheme_uses_history(self):
        scheme = IndexScheme("ghist", 8, history_bits=16)
        fn = scheme.index_fn()
        assert fn.compute(5, 0b1111, 0) != fn.compute(5, 0b1010, 0)
        assert scheme.uses_global_history and not scheme.uses_local_history

    def test_lhist_scheme(self):
        scheme = IndexScheme("lhist", 8, history_bits=16)
        assert scheme.uses_local_history
        fn = scheme.index_fn()
        assert fn.compute(5, 0, 3) != fn.compute(5, 0, 12)

    def test_gshare_mixes_both(self):
        fn = IndexScheme("gshare", 8, history_bits=16).index_fn()
        assert fn.compute(5, 7, 0) != fn.compute(9, 7, 0)
        assert fn.compute(5, 7, 0) != fn.compute(5, 8, 0)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            IndexScheme("magic", 8)

    def test_history_scheme_requires_length(self):
        with pytest.raises(ValueError):
            IndexScheme("ghist", 8, history_bits=0)

    def test_index_in_range(self):
        fn = IndexScheme("gshare", 6, history_bits=32).index_fn()
        for pc in range(100):
            assert 0 <= fn.compute(pc, pc * 7, 0) < 64


class TestGSelect:
    def test_concatenates_pc_and_history(self):
        fn = IndexScheme("gselect", 8, history_bits=16).index_fn()
        # Low half = history bits, high half = PC hash.
        a = fn.compute(0, 0b1010, 0)
        assert a & 0b1111 == 0b1010
        assert fn.compute(0, 0b1010, 0) != fn.compute(1, 0b1010, 0)

    def test_composes_in_topology(self):
        from repro.core import compose

        predictor = compose("GSELECT2 > BTB2")
        assert predictor.depth == 2
        assert any(c.uses_global_history for c in predictor.components)
