"""Weight snapshot container ("JITW").

Little-endian layout::

    magic "JITW" | format version u32 | parameter count u32
    per parameter: name length u16 | UTF-8 name | rank u8 |
                   extents (u32 each) | raw float32 values
"""
from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

MAGIC = b"JITW"
VERSION = 1


class SnapshotError(ValueError):
    """Raised on malformed snapshot files."""


def pack_weights(named_values: list[tuple[str, np.ndarray]]) -> bytes:
    """The snapshot of ``named_values`` as bytes."""
    chunks = [MAGIC, struct.pack("<II", VERSION, len(named_values))]
    for name, value in named_values:
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<B", value.ndim))
        chunks.append(struct.pack(f"<{value.ndim}I", *value.shape))
        chunks.append(np.ascontiguousarray(value, dtype="<f4").tobytes())
    return b"".join(chunks)


def save_weights(path, named_values: list[tuple[str, np.ndarray]]) -> None:
    Path(path).write_bytes(pack_weights(named_values))


def load_weights(path) -> list[tuple[str, np.ndarray]]:
    blob = Path(path).read_bytes()
    if blob[:4] != MAGIC:
        raise SnapshotError(f"{path}: bad magic {blob[:4]!r} at offset 0")
    offset = 4

    def take(n: int, what: str) -> bytes:
        nonlocal offset
        if offset + n > len(blob):
            raise SnapshotError(f"{path}: truncated while reading {what} at offset {offset}")
        piece = blob[offset:offset + n]
        offset += n
        return piece

    version, count = struct.unpack("<II", take(8, "header"))
    if version != VERSION:
        raise SnapshotError(f"{path}: unsupported version {version}")
    out = []
    for i in range(count):
        (name_len,) = struct.unpack("<H", take(2, f"name length of parameter {i}"))
        raw = take(name_len, f"name of parameter {i}")
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SnapshotError(f"{path}: name of parameter {i} at offset "
                                f"{offset - name_len} is not UTF-8 ({exc.reason})") from None
        (rank,) = struct.unpack("<B", take(1, f"rank of {name}"))
        shape = struct.unpack(f"<{rank}I", take(4 * rank, f"extents of {name}"))
        size = int(np.prod(shape)) if rank else 1
        data = np.frombuffer(take(4 * size, f"values of {name}"), dtype="<f4")
        out.append((name, data.reshape(shape).copy()))
    if offset != len(blob):
        raise SnapshotError(f"{path}: {len(blob) - offset} trailing bytes at offset {offset}")
    return out
