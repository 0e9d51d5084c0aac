import hashlib
import json
import struct

import numpy as np
import pytest

from causalpairs import modelfile
from causalpairs.errors import InputError

ARRAYS = {
    "weights": np.arange(6.0).reshape(2, 3),
    "index": np.array([3, -1, 7], dtype=np.int32),
    "empty": np.zeros(0),
}
META = {"name": "toy", "sizes": [1, 2], "nested": {"x": 0.5}}


@pytest.fixture
def toy(tmp_path):
    path = tmp_path / "toy.model"
    modelfile.write(path, "toy", META, ARRAYS)
    return path


def rebuild(data, edit=None, version=modelfile.VERSION, header_len=None):
    """data with its header passed through edit and a fresh, valid digest."""
    (n,) = struct.unpack_from("<Q", data, 8)
    header = json.loads(data[16 : 16 + n])
    if edit is not None:
        edit(header)
    text = json.dumps(header).encode()
    body = struct.pack("<4sIQ", b"CPMF", version, len(text) if header_len is None else header_len)
    body += text + data[16 + n : -32]
    return body + hashlib.sha256(body).digest()


def load(tmp_path, data, *kinds):
    path = tmp_path / "edited.model"
    path.write_bytes(data)
    return modelfile.read(path, *(kinds or ("toy",)))


def test_round_trip(toy):
    kind, meta, arrays = modelfile.read(toy, "other", "toy")
    assert (kind, meta) == ("toy", META)
    assert list(arrays) == list(ARRAYS)
    for name, a in ARRAYS.items():
        assert arrays[name].dtype == a.dtype and arrays[name].shape == a.shape
        assert arrays[name].tobytes() == a.tobytes()


def test_layout(toy):
    data = toy.read_bytes()
    (n,) = struct.unpack_from("<Q", data, 8)
    assert data[:8] == b"CPMF" + struct.pack("<I", 2)
    assert json.loads(data[16 : 16 + n]) == {
        "kind": "toy", "meta": META,
        "arrays": [["weights", "<f8", [2, 3]], ["index", "<i4", [3]], ["empty", "<f8", [0]]],
    }
    assert data[16 + n : -32] == b"".join(a.tobytes() for a in ARRAYS.values())
    assert data[-32:] == hashlib.sha256(data[:-32]).digest()


def test_writer_refuses_other_dtypes(tmp_path):
    for bad in (np.arange(3), np.zeros(3, dtype=np.float16), np.ones(2, dtype=bool)):
        with pytest.raises(ValueError):
            modelfile.write(tmp_path / "bad.model", "toy", {}, {"a": bad})


def test_every_truncation_and_trailing_byte_is_input_error(toy, tmp_path):
    data = toy.read_bytes()
    for cut in range(len(data)):
        with pytest.raises(InputError):
            load(tmp_path, data[:cut])
    with pytest.raises(InputError, match="checksum"):
        load(tmp_path, data + b"\0")


def test_digest_is_checked_before_the_header(toy, tmp_path):
    data = toy.read_bytes()
    with pytest.raises(InputError, match="checksum"):
        load(tmp_path, data[:16] + b"x" * 10 + data[26:])


def test_magic_rejected(tmp_path):
    # version 1 files began with one of the three CP magics
    for magic in (b"JUNK", b"CPBM", b"CPBG", b"CPNN"):
        data = magic + struct.pack("<IQQ", 1, 2, 0) + b"{}"
        with pytest.raises(InputError, match="not a version 2 model file; retrain"):
            load(tmp_path, data)


def test_wrong_kind(toy):
    with pytest.raises(InputError, match="holds a 'toy' model, expected cnn or gbc"):
        modelfile.read(toy, "cnn", "gbc")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_float_array(tmp_path, value):
    path = tmp_path / "nan.model"
    modelfile.write(path, "toy", {}, {"ok": np.ones(2), "bad": np.array([1.0, value])})
    with pytest.raises(InputError, match="non-finite value in model array 'bad'"):
        modelfile.read(path, "toy")


def set_record(i, field, value):
    def edit(header):
        header["arrays"][i][field] = value
    return edit


@pytest.mark.parametrize("match,edit,kwargs", [
    ("not a version 2 model file", None, {"version": 3}),
    ("bad model header", None, {"header_len": 10**6}),
    ("bad model header", lambda h: h.pop("meta"), {}),
    ("bad model header", lambda h: h.pop("arrays"), {}),
    ("bad model header", set_record(0, 1, "<i8"), {}),
    ("bad model header", set_record(1, 2, [-3]), {}),
    ("bad model header", set_record(1, 2, [3.0]), {}),
    ("bad model header", set_record(1, 0, 7), {}),
    ("payload size", set_record(0, 2, [2, 2]), {}),
    ("payload size", set_record(2, 2, [1]), {}),
    ("duplicate model array names", set_record(2, 0, "weights"), {}),
], ids=[
    "version", "header-length", "no-meta", "no-arrays", "dtype", "negative-dim",
    "float-dim", "name-type", "fewer-bytes", "more-bytes", "duplicate-name",
])
def test_header_checks_behind_a_valid_digest(toy, tmp_path, match, edit, kwargs):
    with pytest.raises(InputError, match=match):
        load(tmp_path, rebuild(toy.read_bytes(), edit, **kwargs))


def test_header_that_is_not_json(toy, tmp_path):
    data = toy.read_bytes()
    (n,) = struct.unpack_from("<Q", data, 8)
    body = data[:16] + b"\xff" * n + data[16 + n : -32]
    with pytest.raises(InputError, match="bad model header"):
        load(tmp_path, body + hashlib.sha256(body).digest())
