import json
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from asympatch import serialize
from asympatch.serialize import (MAGIC, VERSION, CheckpointError, load_arrays,
                                 pack_arrays, save_arrays, unpack_arrays)


def blob_with_header(header, payload=b""):
    """A container whose JSON header is ``header`` verbatim."""
    raw = json.dumps(header).encode("utf-8")
    return (MAGIC + struct.pack("<I", VERSION) + struct.pack("<Q", len(raw))
            + raw + payload)


def good_entry(**changes):
    entry = {"name": "a", "dtype": "<f8", "shape": [2, 3], "offset": 0,
             "nbytes": 48}
    entry.update(changes)
    return entry


def sample_arrays():
    rng = np.random.default_rng(0)
    return {
        "a.weight": rng.normal(size=(3, 4)),
        "b.bias": rng.normal(size=7),
        "c.count": np.arange(5, dtype=np.int64),
    }


class TestRoundTrip:
    def test_bit_exact(self):
        arrays = sample_arrays()
        out, meta = unpack_arrays(pack_arrays(arrays, {"note": "x"}))
        assert meta == {"note": "x"}
        assert set(out) == set(arrays)
        for k in arrays:
            assert out[k].dtype == arrays[k].dtype
            assert np.array_equal(out[k], arrays[k])

    def test_save_load_save_identical_bytes(self, tmp_path):
        arrays = sample_arrays()
        p1 = tmp_path / "one.bin"
        p2 = tmp_path / "two.bin"
        save_arrays(p1, arrays, {"v": 1})
        loaded, meta = load_arrays(p1)
        save_arrays(p2, loaded, meta)
        assert p1.read_bytes() == p2.read_bytes()

    def test_insertion_order_irrelevant(self):
        arrays = sample_arrays()
        reordered = dict(reversed(list(arrays.items())))
        assert pack_arrays(arrays) == pack_arrays(reordered)


class TestCorruption:
    def test_bad_magic(self):
        with pytest.raises(CheckpointError, match="magic"):
            unpack_arrays(b"NOTHING HERE AT ALL")

    def test_unsupported_version(self):
        blob = bytearray(pack_arrays(sample_arrays()))
        blob[len(MAGIC)] = 99
        with pytest.raises(CheckpointError, match="version"):
            unpack_arrays(bytes(blob))

    def test_truncated_payload(self):
        blob = pack_arrays(sample_arrays())
        with pytest.raises(CheckpointError, match="truncated"):
            unpack_arrays(blob[:-10])

    def test_truncated_header(self):
        blob = pack_arrays(sample_arrays())
        with pytest.raises(CheckpointError):
            unpack_arrays(blob[:len(MAGIC) + 6])


class TestMalformedHeader:
    @pytest.mark.parametrize("header", [
        {}, [], "arrays", 3, None,
        {"meta": {}},
        {"arrays": []},
        {"arrays": {}, "meta": {}},
        {"arrays": [], "meta": []},
    ], ids=["empty", "list", "string", "number", "null", "no-arrays",
            "no-meta", "arrays-not-list", "meta-not-dict"])
    def test_header_shape(self, header):
        with pytest.raises(CheckpointError, match="header"):
            unpack_arrays(blob_with_header(header))

    @pytest.mark.parametrize("key", ["name", "dtype", "shape", "offset",
                                     "nbytes"])
    def test_entry_missing_key(self, key):
        entry = good_entry()
        del entry[key]
        with pytest.raises(CheckpointError, match="manifest"):
            unpack_arrays(blob_with_header({"arrays": [entry], "meta": {}},
                                           bytes(48)))

    @pytest.mark.parametrize("entry", [
        "a", good_entry(name=3), good_entry(dtype=8), good_entry(shape=6),
        good_entry(shape=[2, -3]), good_entry(shape=[2.0, 3]),
    ], ids=["not-dict", "name", "dtype-type", "shape-type", "shape-negative",
            "shape-float"])
    def test_entry_field_types(self, entry):
        with pytest.raises(CheckpointError, match="manifest"):
            unpack_arrays(blob_with_header({"arrays": [entry], "meta": {}},
                                           bytes(48)))

    @pytest.mark.parametrize("change", [{"offset": -8}, {"offset": 1.5},
                                        {"nbytes": -48}, {"offset": True}])
    def test_bad_offset_or_count(self, change):
        with pytest.raises(CheckpointError, match="offset or byte count"):
            unpack_arrays(blob_with_header(
                {"arrays": [good_entry(**change)], "meta": {}}, bytes(64)))

    @pytest.mark.parametrize("nbytes", [40, 56, 0])
    def test_nbytes_must_match_shape(self, nbytes):
        blob = blob_with_header(
            {"arrays": [good_entry(nbytes=nbytes)], "meta": {}}, bytes(64))
        with pytest.raises(CheckpointError, match="do not fit shape"):
            unpack_arrays(blob)

    @pytest.mark.parametrize("dtype", ["float99", "not a dtype", "<f8,,"])
    def test_unparseable_dtype(self, dtype):
        with pytest.raises(CheckpointError, match="bad dtype"):
            unpack_arrays(blob_with_header(
                {"arrays": [good_entry(dtype=dtype)], "meta": {}}, bytes(48)))

    @pytest.mark.parametrize("dtype,nbytes", [("O", 48), ("S0", 0),
                                              ("(2,)<f8", 96)])
    def test_unsupported_dtype(self, dtype, nbytes):
        entry = good_entry(dtype=dtype, nbytes=nbytes)
        with pytest.raises(CheckpointError, match="unsupported dtype"):
            unpack_arrays(blob_with_header({"arrays": [entry], "meta": {}},
                                           bytes(96)))

    def test_handwritten_header_still_loads(self):
        payload = np.arange(6, dtype="<f8").tobytes()
        arrays, meta = unpack_arrays(blob_with_header(
            {"arrays": [good_entry()], "meta": {"k": 1}}, payload))
        assert meta == {"k": 1}
        assert np.array_equal(arrays["a"], np.arange(6.0).reshape(2, 3))


class TestAtomicSave:
    def test_failed_pack_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "state.ckpt"
        save_arrays(path, sample_arrays(), {"v": 1})
        before = path.read_bytes()

        def boom(*args, **kwargs):
            raise RuntimeError("pack failed")
        monkeypatch.setattr(serialize, "pack_arrays", boom)
        with pytest.raises(RuntimeError, match="pack failed"):
            save_arrays(path, {"x": np.zeros(3)}, {"v": 2})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["state.ckpt"]

    def test_failed_replace_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "state.ckpt"
        save_arrays(path, sample_arrays(), {"v": 1})
        before = path.read_bytes()

        def boom(*args, **kwargs):
            raise OSError("disk gone")
        monkeypatch.setattr(serialize.os, "replace", boom)
        with pytest.raises(OSError, match="disk gone"):
            save_arrays(path, {"x": np.zeros(3)}, {"v": 2})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["state.ckpt"]

    def test_overwrite_replaces_whole_file(self, tmp_path):
        path = tmp_path / "state.ckpt"
        save_arrays(path, sample_arrays(), {"v": 1})
        save_arrays(path, {"x": np.zeros(3)}, {"v": 2})
        arrays, meta = load_arrays(path)
        assert meta == {"v": 2} and list(arrays) == ["x"]
        assert [p.name for p in tmp_path.iterdir()] == ["state.ckpt"]


def _unpack_fails_closed(blob):
    try:
        unpack_arrays(blob)
    except CheckpointError:
        pass


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12)
# manifest entries whose fields are often plausible and sometimes junk
_ENTRY = st.dictionaries(
    st.sampled_from(["name", "dtype", "shape", "offset", "nbytes"]),
    _JSON | st.sampled_from(["<f8", "|u1", "O", "S0", [2, 3], [0], 48, 0]))
_HEADER = st.dictionaries(st.sampled_from(["arrays", "meta", "x"]),
                          st.lists(_ENTRY, max_size=3) | _JSON)


class TestUnpackFuzz:
    """Whatever the bytes, unpack_arrays returns or raises CheckpointError."""

    @given(st.binary(max_size=256))
    def test_arbitrary_bytes(self, blob):
        _unpack_fails_closed(blob)

    @given(st.binary(max_size=256))
    def test_arbitrary_bytes_after_magic(self, tail):
        _unpack_fails_closed(MAGIC + struct.pack("<I", VERSION) + tail)

    @given(st.data())
    def test_mutated_valid_blob(self, data):
        blob = bytearray(pack_arrays(sample_arrays(), {"note": "x"}))
        for _ in range(data.draw(st.integers(1, 4))):
            i = data.draw(st.integers(0, len(blob) - 1))
            blob[i] = data.draw(st.integers(0, 255))
        cut = data.draw(st.integers(0, len(blob)))
        _unpack_fails_closed(bytes(blob[:cut]))

    @given(_HEADER, st.binary(max_size=64))
    def test_arbitrary_header(self, header, payload):
        _unpack_fails_closed(blob_with_header(header, payload))
