"""The one container every model file, and ingest's corpus store, uses.

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
import os
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

    The arrays are writable views of one buffer that holds the file's
    bytes, keyed by name in file order, so a caller that keeps one holds no
    second copy of it.  Errors call the file a "corpus store" when the kind
    asked for is ``corpus``, and a "model file" otherwise.
    """
    # a stale corpus store is written again by ingest, which its reader asks
    # for; a stale model is retrained
    noun, advice = (
        ("corpus store", "") if kinds == ("corpus",)
        else ("model file", "; retrain the model with this version")
    )
    try:
        with open(path, "rb") as f:
            size = os.fstat(f.fileno()).st_size
            prefix = f.read(_PREFIX_SIZE)
            header_size = (
                struct.unpack_from("<Q", prefix, len(_SIGNATURE))[0]
                if len(prefix) == _PREFIX_SIZE else 0
            )
            # the payload, and with it the first array, starts 8-byte aligned
            raw = np.empty(size + 8, dtype=np.uint8)
            skip = -(raw.ctypes.data + _PREFIX_SIZE + header_size) % 8
            f.seek(0)
            data = memoryview(raw)[skip : skip + f.readinto(raw[skip : skip + size])]
    except OSError as exc:
        raise InputError(f"{path}: cannot read {noun}: {exc.strerror}") from exc
    if data[: len(_SIGNATURE)].tobytes() != _SIGNATURE:
        raise InputError(f"{path}: not a version {VERSION} {noun}{advice}")
    body = data[:-_DIGEST_SIZE]
    if len(data) < _PREFIX_SIZE + _DIGEST_SIZE or (
        hashlib.sha256(body).digest() != data[-_DIGEST_SIZE:].tobytes()
    ):
        raise InputError(f"{path}: {noun} checksum mismatch; the file is corrupt or truncated")
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
        raise InputError(f"{path}: bad {noun} header: {exc}") from exc
    if kind not in kinds:
        raise InputError(f"{path}: {noun} of kind {kind!r}, expected {' or '.join(kinds)}")
    sizes = [math.prod(shape) * np.dtype(dtype).itemsize for _, dtype, shape in specs]
    # sizes are checked against the payload before any array is made; a
    # header length past the end of the file fails here too
    if sum(sizes) != len(body) - payload_start:
        raise InputError(f"{path}: {noun} arrays do not match the payload size")
    arrays = {}
    offset = payload_start
    for (name, dtype, shape), size in zip(specs, sizes):
        arr = np.frombuffer(body[offset : offset + size], dtype=dtype).reshape(shape)
        # min or max is NaN or infinite exactly when an element is; neither
        # allocates an array of the file array's size
        if arr.dtype.kind == "f" and arr.size and not np.isfinite([arr.min(), arr.max()]).all():
            raise InputError(f"{path}: non-finite value in {noun} array {name!r}")
        arrays[name] = arr
        offset += size
    if len(arrays) != len(specs):
        raise InputError(f"{path}: duplicate {noun} array names")
    return kind, meta, arrays
