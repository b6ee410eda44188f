"""Versioned binary checkpoints of the contrastive encoder.

Layout: 8-byte magic, one byte of model kind, a u32 array count, then an
array table (u16 name length, utf-8 name, u8 ndim, u32 dims) followed by
the arrays' float64 little-endian data in table order. A plain-text
sidecar next to the file records the training configuration.
"""

from __future__ import annotations

import struct

import numpy as np

from .dataset import EplError, read_file, write_file

MAGIC = b"EPLCKPT1"

KIND_ENCODER = 0


class CheckpointError(EplError):
    """Raised for unreadable or mismatched checkpoint files."""


def save_checkpoint(path, kind: int, arrays: dict[str, np.ndarray],
                    config_lines: dict) -> None:
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<BI", kind, len(arrays))
    payload = bytearray()
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr, dtype="<f8")
        encoded = name.encode("utf-8")
        blob += struct.pack("<H", len(encoded)) + encoded
        blob += struct.pack("<B", arr.ndim)
        for dim in arr.shape:
            blob += struct.pack("<I", dim)
        payload += arr.tobytes()
    blob += payload
    write_file(path, blob, CheckpointError)
    write_file(f"{path}.cfg", "".join(f"{key} = {value}\n" for key, value in config_lines.items()),
               CheckpointError)


def load_checkpoint(path):
    """Return (kind, ordered dict of name -> float64 array)."""
    blob = read_file(path, CheckpointError)
    if blob[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: bad magic")
    try:
        return _parse(blob)
    except (struct.error, ValueError) as exc:
        raise CheckpointError(f"{path}: corrupt or truncated checkpoint: {exc}") from exc


def _parse(blob: bytes):
    off = len(MAGIC)
    kind, count = struct.unpack_from("<BI", blob, off)
    off += 5
    table = []
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", blob, off)
        off += 2
        name = blob[off:off + name_len].decode("utf-8")
        off += name_len
        (ndim,) = struct.unpack_from("<B", blob, off)
        off += 1
        shape = struct.unpack_from(f"<{ndim}I", blob, off)
        off += 4 * ndim
        table.append((name, shape))
    arrays = {}
    for name, shape in table:
        size = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(blob, dtype="<f8", count=size, offset=off).reshape(shape)
        off += size * 8
        arrays[name] = arr.copy()
    return kind, arrays
