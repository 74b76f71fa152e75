"""Binary stack file format plus sidecar metadata.

A stack file is a 32-byte little-endian header followed by raw row-major
float32 planes:

    offset  size  field
    0       4     magic "ASPI"
    4       2     format version (currently 1), u16
    6       4     plane count, u32
    10      4     width, u32
    14      4     height, u32
    18      1     dtype code (0 = float32), u8
    19      13    reserved, zero

Scalars round-trip bit-exactly (the payload is the raw IEEE bytes), which
includes the -1.0 coverage sentinel and NaN depth sentinels. Human-readable
provenance travels in a sidecar text file at <path>.meta with one
``key=value`` pair per line; the binary header stays minimal on purpose.
"""

from __future__ import annotations

import os
import stat
import struct
from pathlib import Path

import numpy as np

from .errors import StackFormatError

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "write_stack",
    "read_stack",
    "sidecar_path",
    "write_pgm",
]

MAGIC = b"ASPI"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHIIIB13x")
_DTYPE_F32 = 0
_KEY_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-")


def sidecar_path(path) -> Path:
    return Path(str(path) + ".meta")


def _sidecar_text(metadata: dict) -> str:
    lines = []
    for key, value in metadata.items():
        key = str(key)
        if not key or not set(key) <= _KEY_OK:
            raise ValueError(f"invalid metadata key {key!r}")
        value = str(value)
        if "\n" in value:
            raise ValueError(f"metadata value for {key!r} contains a newline")
        lines.append(f"{key}={value}\n")
    return "".join(lines)


def _read_sidecar(path) -> dict:
    p = sidecar_path(path)
    if not p.exists():
        return {}
    meta = {}
    for line in p.read_text().splitlines():
        if not line.strip():
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise StackFormatError(f"malformed sidecar line {line!r} in {p}")
        meta[key] = value
    return meta


def write_stack(planes, metadata: dict, path) -> None:
    """Write planes as a stack file plus its sidecar.

    planes is a (K, H, W) array (a single 2D plane is accepted and treated
    as K=1); values are stored as little-endian float32. Bad metadata is
    rejected before anything is written. Both files are written to
    temporary siblings first; the old sidecar is removed before the new
    files are moved into place, so an interrupted write leaves a stack
    without a sidecar rather than a new payload with a stale one.
    """
    a = np.asarray(planes)
    if a.ndim == 2:
        a = a[None]
    if a.ndim != 3:
        raise ValueError(f"planes must be (K, H, W), got shape {a.shape}")
    text = _sidecar_text(metadata)
    k, h, w = a.shape
    payload = np.ascontiguousarray(a, dtype="<f4")
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, k, w, h, _DTYPE_F32)
    path = Path(path)
    meta = sidecar_path(path)
    tmp_path = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp_meta = meta.with_name(f"{meta.name}.{os.getpid()}.tmp")
    try:
        with open(tmp_path, "wb") as fh:
            fh.write(header)
            fh.write(payload.data)
        tmp_meta.write_text(text)
        meta.unlink(missing_ok=True)
        os.replace(tmp_path, path)
        os.replace(tmp_meta, meta)
    finally:
        tmp_path.unlink(missing_ok=True)
        tmp_meta.unlink(missing_ok=True)


def read_stack(path) -> tuple[np.ndarray, dict]:
    """Read a stack file; returns ((K, H, W) float32 planes, metadata dict).

    Metadata values come back as strings; a missing sidecar yields an empty
    dict. Malformed files raise StackFormatError naming the offending byte
    ranges.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise StackFormatError(
                f"truncated header: need {_HEADER.size} bytes, file has {len(head)}"
            )
        magic, version, count, width, height, dtype_code = _HEADER.unpack(head)
        if magic != MAGIC:
            raise StackFormatError(f"bad magic at byte 0: expected {MAGIC!r}, got {magic!r}")
        if version != FORMAT_VERSION:
            raise StackFormatError(f"unsupported format version {version} at byte 4")
        if dtype_code != _DTYPE_F32:
            raise StackFormatError(f"unsupported dtype code {dtype_code} at byte 18")
        expected = count * width * height * 4
        st = os.fstat(fh.fileno())
        if stat.S_ISREG(st.st_mode):
            actual = st.st_size - _HEADER.size
            if expected == actual:
                # the payload goes straight into the array: one copy, writable
                planes = np.empty((count, height, width), dtype="<f4")
                actual = fh.readinto(planes.reshape(-1).view(np.uint8))
        else:
            # a pipe reports no size, so its payload is read whole first
            raw = fh.read()
            actual = len(raw)
            if expected == actual:
                planes = np.frombuffer(raw, dtype="<f4").reshape(count, height, width).copy()
        if expected != actual:
            raise StackFormatError(
                f"payload length mismatch: header declares {count}x{height}x{width} "
                f"({expected} bytes after the {_HEADER.size}-byte header), got {actual} bytes"
            )
    return planes, _read_sidecar(path)


def write_pgm(image, path, invalid_value: float = 0.0) -> None:
    """Export one plane as a 16-bit binary PGM for visual inspection.

    The finite value range is stretched to [0, 65535]; non-finite pixels
    map to invalid_value before stretching. Lossy by design.
    """
    a = np.asarray(image, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2D image, got shape {a.shape}")
    a = np.where(np.isfinite(a), a, invalid_value)
    lo, hi = a.min(), a.max()
    if hi > lo:
        scaled = (a - lo) / (hi - lo) * 65535.0
    else:
        scaled = np.zeros_like(a)
    data = np.round(scaled).astype(">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{a.shape[1]} {a.shape[0]}\n65535\n".encode())
        fh.write(data.tobytes())
