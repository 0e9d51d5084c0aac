"""The one container every model file uses.

Layout: the magic ``CPMF``, a u32 version (2) and a u64 header length; a
UTF-8 JSON header ``{"kind", "meta", "arrays": [[name, dtype, shape], ...]}``;
the arrays' little-endian bytes in header order; then the SHA-256 of every
byte before it.  Array dtypes are ``<f8``, ``<f4`` or ``<i4``.

Reading checks the digest before it parses anything and every array's size
against the payload before it allocates.  An unreadable, corrupt, truncated
or inconsistent file, a non-finite float and a kind other than the one
asked for each raise InputError.
"""

import hashlib
import json
import math
import struct

import numpy as np

from .errors import InputError

MAGIC = b"CPMF"
VERSION = 2
DTYPES = ("<f8", "<f4", "<i4")
# magic and u32 version, then the u64 header length
_SIGNATURE = MAGIC + struct.pack("<I", VERSION)
_PREFIX_SIZE = len(_SIGNATURE) + 8
_DIGEST_SIZE = hashlib.sha256().digest_size


def write(path, kind: str, meta: dict, arrays: dict) -> None:
    """Write ``arrays`` (name -> ndarray, in order) and JSON-able ``meta`` to path."""
    specs = [[name, a.dtype.str, list(a.shape)] for name, a in arrays.items()]
    if any(dtype not in DTYPES for _, dtype, _ in specs):
        raise ValueError(f"array dtypes {specs} not all in {DTYPES}")
    header = json.dumps(
        {"kind": kind, "meta": meta, "arrays": specs}, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    digest = hashlib.sha256()
    with open(path, "wb") as f:
        prefix = _SIGNATURE + struct.pack("<Q", len(header))
        for part in (prefix, header, *map(np.ascontiguousarray, arrays.values())):
            digest.update(part)
            f.write(part)
        f.write(digest.digest())


def read(path, *kinds: str) -> tuple:
    """(kind, meta, arrays) of a model file whose kind is one of ``kinds``.

    The arrays are read-only views of the file's bytes, keyed by name in
    file order.
    """
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as exc:
        raise InputError(f"{path}: cannot read model file: {exc.strerror}") from exc
    if data[: len(_SIGNATURE)] != _SIGNATURE:
        raise InputError(
            f"{path}: not a version {VERSION} model file; retrain the model with this version"
        )
    body = memoryview(data)[:-_DIGEST_SIZE]
    if len(data) < _PREFIX_SIZE + _DIGEST_SIZE or (
        hashlib.sha256(body).digest() != data[-_DIGEST_SIZE:]
    ):
        raise InputError(f"{path}: model file checksum mismatch; the file is corrupt or truncated")
    payload_start = _PREFIX_SIZE + struct.unpack_from("<Q", data, len(_SIGNATURE))[0]
    try:
        header = json.loads(bytes(body[_PREFIX_SIZE:payload_start]))
        kind, meta, specs = header["kind"], header["meta"], header["arrays"]
        for name, dtype, shape in specs:
            if not isinstance(name, str) or dtype not in DTYPES or not all(
                type(d) is int and d >= 0 for d in shape
            ):
                raise ValueError(f"bad array record {[name, dtype, shape]}")
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"{path}: bad model header: {exc}") from exc
    if kind not in kinds:
        raise InputError(f"{path}: holds a {kind!r} model, expected {' or '.join(kinds)}")
    sizes = [math.prod(shape) * np.dtype(dtype).itemsize for _, dtype, shape in specs]
    # sizes are checked against the payload before any array is made; a
    # header length past the end of the file fails here too
    if sum(sizes) != len(body) - payload_start:
        raise InputError(f"{path}: model arrays do not match the payload size")
    arrays = {}
    offset = payload_start
    for (name, dtype, shape), size in zip(specs, sizes):
        arr = np.frombuffer(body[offset : offset + size], dtype=dtype).reshape(shape)
        if arr.dtype.kind == "f" and not np.isfinite(arr).all():
            raise InputError(f"{path}: non-finite value in model array {name!r}")
        arrays[name] = arr
        offset += size
    if len(arrays) != len(specs):
        raise InputError(f"{path}: duplicate model array names")
    return kind, meta, arrays
