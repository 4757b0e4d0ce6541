"""Versioned binary container for named arrays plus a JSON config echo.

Layout: 8-byte magic, u32 version, u64 header length, UTF-8 JSON header,
raw array payloads concatenated in header order. Arrays are written sorted
by name with explicit dtype/shape/offset metadata, and the header JSON uses
sorted keys and fixed separators, so identical content serializes to
identical bytes (save -> load -> save round-trips bit-exactly).
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct

import numpy as np

MAGIC = b"ASYMPTCH"
VERSION = 1


class CheckpointError(RuntimeError):
    """Unreadable, truncated, or version-mismatched checkpoint file."""


def pack_arrays(arrays: dict, meta: dict | None = None) -> bytes:
    """Serialize a name->ndarray mapping (plus JSON-safe metadata) to bytes."""
    names = sorted(arrays)
    manifest = []
    offset = 0
    payloads = []
    for name in names:
        a = np.ascontiguousarray(arrays[name])
        raw = a.tobytes()
        manifest.append({
            "name": name,
            "dtype": a.dtype.str,
            "shape": list(a.shape),
            "offset": offset,
            "nbytes": len(raw),
        })
        payloads.append(raw)
        offset += len(raw)
    header = json.dumps(
        {"meta": meta or {}, "arrays": manifest},
        sort_keys=True, separators=(",", ":"),
    ).encode("utf-8")
    parts = [MAGIC, struct.pack("<I", VERSION), struct.pack("<Q", len(header)),
             header] + payloads
    return b"".join(parts)


def unpack_arrays(blob: bytes) -> tuple[dict, dict]:
    """Inverse of :func:`pack_arrays`; returns (arrays, meta).

    Fails closed: anything that is not a well-formed container raises
    :class:`CheckpointError`.
    """
    base = len(MAGIC) + 4 + 8
    if len(blob) < base or blob[:len(MAGIC)] != MAGIC:
        raise CheckpointError("not a checkpoint: bad magic")
    (version,) = struct.unpack_from("<I", blob, len(MAGIC))
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (hlen,) = struct.unpack_from("<Q", blob, len(MAGIC) + 4)
    if len(blob) < base + hlen:
        raise CheckpointError("truncated checkpoint header")
    try:
        header = json.loads(blob[base:base + hlen].decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise CheckpointError(f"corrupt checkpoint header: {exc}") from exc
    if not isinstance(header, dict) \
            or not isinstance(header.get("arrays"), list) \
            or not isinstance(header.get("meta"), dict):
        raise CheckpointError("corrupt checkpoint header: need an 'arrays' "
                              "list and a 'meta' object")
    payload = blob[base + hlen:]
    arrays = {}
    for entry in header["arrays"]:
        name, dtype, shape, start, n = _check_entry(entry)
        if start + n > len(payload):
            raise CheckpointError("truncated checkpoint payload")
        a = np.frombuffer(payload[start:start + n], dtype=dtype)
        arrays[name] = a.reshape(shape).copy()
    return arrays, header["meta"]


def _check_entry(entry) -> tuple:
    """Validated (name, dtype, shape, offset, nbytes) of one manifest entry."""
    def count(v):
        return isinstance(v, int) and not isinstance(v, bool) and v >= 0

    if not isinstance(entry, dict) or not all(
            k in entry for k in ("name", "dtype", "shape", "offset", "nbytes")):
        raise CheckpointError(f"corrupt checkpoint manifest entry {entry!r}")
    name, shape = entry["name"], entry["shape"]
    if not isinstance(name, str) or not isinstance(entry["dtype"], str) \
            or not isinstance(shape, list) or not all(map(count, shape)):
        raise CheckpointError(f"corrupt checkpoint manifest entry {entry!r}")
    if not count(entry["offset"]) or not count(entry["nbytes"]):
        raise CheckpointError(f"array {name!r}: bad offset or byte count")
    try:  # np.dtype parses comma-separated forms as Python: SyntaxError too
        dtype = np.dtype(entry["dtype"])
    except (TypeError, ValueError, SyntaxError) as exc:
        raise CheckpointError(f"array {name!r}: bad dtype: {exc}") from exc
    if dtype.hasobject or dtype.itemsize == 0 or dtype.subdtype is not None:
        raise CheckpointError(f"array {name!r}: unsupported dtype {dtype}")
    if entry["nbytes"] != math.prod(shape) * dtype.itemsize:
        raise CheckpointError(
            f"array {name!r}: {entry['nbytes']} bytes do not fit shape "
            f"{shape} of {dtype}")
    return name, dtype, shape, entry["offset"], entry["nbytes"]


def write_atomic(path, data: bytes) -> None:
    """Write atomically: a sibling temp file replaces ``path`` only once whole.

    A write that fails or a process that dies mid-write leaves any previous
    file whole. There is no fsync, so after a power loss the new file may
    not be on disk yet.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def save_arrays(path, arrays: dict, meta: dict | None = None) -> None:
    """Write :func:`pack_arrays` bytes with :func:`write_atomic`."""
    write_atomic(path, pack_arrays(arrays, meta))


def load_arrays(path) -> tuple[dict, dict]:
    with open(path, "rb") as fh:
        return unpack_arrays(fh.read())
