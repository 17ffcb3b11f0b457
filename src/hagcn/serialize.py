"""Binary serialization primitives.

Tensor blobs carry the magic ``HAGT`` followed by the rank as a little-endian
u64, each dimension as a u64, then the elements as little-endian float64 in
row-major order. The checkpoint format is built from these blobs plus names
and JSON blocks, each written after its byte length as a u64.
"""

from __future__ import annotations

import io
import json
import struct

import numpy as np

from .errors import FormatError

TENSOR_MAGIC = b"HAGT"
_MAX_RANK = 32


def _read_exact(f, n: int) -> bytes:
    """Read n header-declared bytes from a seekable stream; a large n is
    checked against the bytes left first, so a hostile header cannot make
    the read allocate it (small reads skip the check's two seeks)."""
    left = n
    if n > io.DEFAULT_BUFFER_SIZE:
        pos = f.tell()
        left = f.seek(0, io.SEEK_END) - pos
        f.seek(pos)
    buf = f.read(n) if n <= left else b""
    if len(buf) != n:
        raise FormatError(f"truncated {getattr(f, 'name', 'stream')}: "
                          f"{n} bytes declared, fewer left")
    return buf


def write_tensor(f, arr) -> None:
    """Append one HAGT tensor blob to a binary stream."""
    arr = np.asarray(arr, dtype=np.float64)
    f.write(TENSOR_MAGIC)
    f.write(struct.pack("<Q", arr.ndim))
    if arr.ndim:
        f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
    f.write(arr.astype("<f8", copy=False).tobytes())


def read_tensor(f) -> np.ndarray:
    """Read one HAGT tensor blob; returns a fresh writable float64 array."""
    magic = _read_exact(f, 4)
    if magic != TENSOR_MAGIC:
        raise FormatError(f"bad tensor magic {magic!r}")
    (rank,) = struct.unpack("<Q", _read_exact(f, 8))
    if rank > _MAX_RANK:
        raise FormatError(f"implausible tensor rank {rank}")
    dims = struct.unpack(f"<{rank}Q", _read_exact(f, 8 * rank)) if rank else ()
    count = 1
    for d in dims:
        count *= d
    data = np.frombuffer(_read_exact(f, 8 * count), dtype="<f8")
    try:
        data = data.reshape(dims)
    except ValueError as e:  # a zero dim beside one numpy cannot index
        raise FormatError(f"bad tensor dims {dims}: {e}") from e
    return np.array(data, dtype=np.float64)


def write_string(f, s: str) -> None:
    raw = s.encode("utf-8")
    f.write(struct.pack("<Q", len(raw)))
    f.write(raw)


def read_string(f) -> str:
    (n,) = struct.unpack("<Q", _read_exact(f, 8))
    if n > 1 << 20:
        raise FormatError(f"implausible string length {n}")
    try:
        return _read_exact(f, n).decode("utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"string is not UTF-8: {e}") from e


def write_json_block(f, obj) -> None:
    write_string(f, json.dumps(obj, sort_keys=True))


def read_json_block(f):
    try:
        return json.loads(read_string(f))
    except json.JSONDecodeError as e:
        raise FormatError(f"bad JSON block: {e}") from e


def write_named_tensors(f, items) -> None:
    """Write an ordered (name, array) mapping as a counted block."""
    items = list(items)
    f.write(struct.pack("<Q", len(items)))
    for name, arr in items:
        write_string(f, name)
        write_tensor(f, arr)


def read_named_tensors(f) -> dict:
    (n,) = struct.unpack("<Q", _read_exact(f, 8))
    out = {}
    for _ in range(n):
        name = read_string(f)
        if name in out:
            raise FormatError(f"duplicate tensor name {name!r}")
        out[name] = read_tensor(f)
    return out
