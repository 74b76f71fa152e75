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

StackWriter writes a stack block by block: each block goes to its place in
the file as it comes, so a writer holds the float32 copy of one block of
whole planes, or of one plane's rows of a row block, never the stack; `aspi
reconstruct` streams its volume this way, `aspi simulate` its frames.
write_stack writes a whole array through it as one contiguous payload,
holding the array's float32 copy (none when it is float32 already). Either
commits the file and its sidecar only when the whole payload was written
exactly once.

StackReader is its read-side twin: it checks the header and the payload
length once, then reads any row window of a run of planes into a float32
buffer the caller may provide, so a reader holds one window, never the
stack; `aspi reconstruct` reads one row chunk of every frame at a time,
`aspi depthmap` runs of whole planes. read_stack reads the whole payload
through it. A file with no size (a FIFO) is read whole first and served
from that one payload.
"""

from __future__ import annotations

import math
import os
import stat
import struct
from pathlib import Path

import numpy as np

from .errors import StackFormatError

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "StackWriter",
    "StackReader",
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


class StackWriter:
    """Write a (K, H, W) stack file block by block, then commit it with its sidecar.

    The metadata is checked and the shape fixed when the writer is made;
    nothing is written before. Blocks go with os.pwrite to their place in a
    temporary sibling of path, as little-endian float32, in any order.
    commit() refuses a payload not written exactly once, row for row;
    otherwise it writes the sidecar to a temporary sibling too, removes the
    old sidecar and moves both files into place, so an interrupted write
    leaves a stack without a sidecar rather than a new payload with a stale
    one. Used as a context manager it commits when the block ends without
    an exception and removes its temporary files in any case.
    """

    def __init__(self, path, shape, metadata: dict):
        k, h, w = (int(d) for d in shape)
        self._text = _sidecar_text(metadata)
        self._header = _HEADER.pack(MAGIC, FORMAT_VERSION, k, w, h, _DTYPE_F32)
        self.shape = (k, h, w)
        self.path = Path(path)
        self._meta = sidecar_path(self.path)
        self._tmp = self.path.with_name(f"{self.path.name}.{os.getpid()}.tmp")
        self._tmp_meta = self._meta.with_name(f"{self._meta.name}.{os.getpid()}.tmp")
        # how often each (section, row) of the payload has been written
        self._written = np.zeros((k, h), dtype=np.uint8)
        self._fd = os.open(self._tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            self._pwrite(self._header, 0)
        except BaseException:
            self.close()
            raise

    def _pwrite(self, data, offset: int) -> None:
        view = memoryview(data).cast("B")
        done = 0
        while done < len(view):
            count = os.pwrite(self._fd, view[done:], offset + done)
            if count <= 0:
                raise OSError(f"{self.path}: wrote {done} of {len(view)} bytes at offset {offset}")
            done += count

    def write(self, k0: int, r0: int, block) -> None:
        """Store a (k, rows, W) block as planes k0.. from row r0 on."""
        b = np.asarray(block)
        k, h, w = self.shape
        if b.ndim != 3 or b.shape[2] != w or not (0 <= k0 and k0 + b.shape[0] <= k
                                                  and 0 <= r0 and r0 + b.shape[1] <= h):
            raise ValueError(f"block of shape {b.shape} at section {k0}, row {r0} "
                             f"outside a {k}x{h}x{w} stack")
        rows = self._written[k0:k0 + b.shape[0], r0:r0 + b.shape[1]]
        if rows.any():
            raise ValueError(f"block at section {k0}, row {r0} overlaps rows already written")
        offset = _HEADER.size + (k0 * h + r0) * w * 4
        if b.shape[1] == h:
            # whole planes lie back to back in the file
            self._pwrite(np.ascontiguousarray(b, dtype="<f4"), offset)
        else:
            # one plane's float32 rows at a time, not the block's
            for j, plane in enumerate(b):
                self._pwrite(np.ascontiguousarray(plane, dtype="<f4"), offset + j * h * w * 4)
        rows += 1

    def commit(self) -> None:
        """Close the payload and move it and its sidecar into place."""
        missing = int(np.count_nonzero(self._written == 0))
        if missing:
            raise ValueError(f"{self.path}: {missing} of {self._written.size} plane rows "
                             "were never written; not committed")
        fd, self._fd = self._fd, None
        os.close(fd)
        self._tmp_meta.write_text(self._text)
        self._meta.unlink(missing_ok=True)
        os.replace(self._tmp, self.path)
        os.replace(self._tmp_meta, self._meta)

    def close(self) -> None:
        """Drop the temporary files; a committed stack stays."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
        self._tmp.unlink(missing_ok=True)
        self._tmp_meta.unlink(missing_ok=True)

    def __enter__(self) -> "StackWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None:
                self.commit()
        finally:
            self.close()


def write_stack(planes, metadata: dict, path) -> None:
    """Write planes as a stack file plus its sidecar, through StackWriter.

    planes is a (K, H, W) array (a single 2D plane is accepted and treated
    as K=1); values are stored as little-endian float32, in one contiguous
    write. Bad metadata is rejected before anything is written.
    """
    a = np.asarray(planes)
    if a.ndim == 2:
        a = a[None]
    if a.ndim != 3:
        raise ValueError(f"planes must be (K, H, W), got shape {a.shape}")
    with StackWriter(path, a.shape, metadata) as out:
        out.write(0, 0, a)


def _check_header(head: bytes) -> tuple[int, int, int]:
    """The (K, H, W) shape a stack header declares; StackFormatError if it is malformed."""
    if len(head) < _HEADER.size:
        raise StackFormatError(
            f"truncated header: need {_HEADER.size} bytes, file has {len(head)}"
        )
    magic, version, count, width, height, dtype_code = _HEADER.unpack(head[:_HEADER.size])
    if magic != MAGIC:
        raise StackFormatError(f"bad magic at byte 0: expected {MAGIC!r}, got {magic!r}")
    if version != FORMAT_VERSION:
        raise StackFormatError(f"unsupported format version {version} at byte 4")
    if dtype_code != _DTYPE_F32:
        raise StackFormatError(f"unsupported dtype code {dtype_code} at byte 18")
    return count, height, width


class StackReader:
    """Read a stack file piece by piece into float32 arrays.

    The header is parsed and checked, the payload length compared with it
    and the sidecar read (as `metadata`, values as strings, {} when there is
    none) when the reader is made; a malformed file raises StackFormatError
    naming the offending byte ranges. `shape` is the (K, H, W) of the
    stack, `dtype` little-endian float32 and `size` its value count.
    A regular file is read with os.preadv, straight into the array; a file
    with no size (a FIFO) is read whole and kept as one payload. Used as a
    context manager it closes the file when the block ends.
    """

    dtype = np.dtype("<f4")

    def __init__(self, path):
        self.path = path
        self._file = open(path, "rb", buffering=0)
        try:
            st = os.fstat(self._file.fileno())
            if stat.S_ISREG(st.st_mode):
                self._payload = None
                self.shape = _check_header(os.pread(self._file.fileno(), _HEADER.size, 0))
                actual = st.st_size - _HEADER.size
            else:
                # a pipe reports no size, so its payload is read whole first
                raw = self._file.read()
                self.shape = _check_header(raw)
                self._payload = memoryview(raw)[_HEADER.size:]
                actual = len(self._payload)
            expected = math.prod(self.shape) * 4
            if expected != actual:
                count, height, width = self.shape
                raise StackFormatError(
                    f"payload length mismatch: header declares {count}x{height}x{width} "
                    f"({expected} bytes after the {_HEADER.size}-byte header), got {actual} bytes"
                )
            self.metadata = _read_sidecar(path)
        except BaseException:
            self.close()
            raise
        self.size = math.prod(self.shape)

    def read(self, k0: int, k1: int, rows: tuple[int, int] | None = None, out=None) -> np.ndarray:
        """Rows r0:r1 (default all) of planes k0:k1 as a (k1 - k0, r1 - r0, W) float32 array.

        out, when given, is a C-contiguous float32 array of that shape, which
        is filled and returned; otherwise a new array is.
        """
        k, h, w = self.shape
        r0, r1 = (0, h) if rows is None else rows
        if not (0 <= k0 <= k1 <= k and 0 <= r0 <= r1 <= h):
            raise ValueError(f"planes {k0}:{k1}, rows {r0}:{r1} outside a {k}x{h}x{w} stack")
        shape = (k1 - k0, r1 - r0, w)
        if out is None:
            out = np.empty(shape, dtype=self.dtype)
        elif out.shape != shape or out.dtype != self.dtype or not out.flags.c_contiguous:
            raise ValueError(f"out must be a C-contiguous {shape} float32 array")
        planes = out.reshape(shape[0], shape[1] * w).view(np.uint8)
        offset = _HEADER.size + (k0 * h + r0) * w * 4
        if r1 - r0 == h:
            # whole planes lie back to back in the file
            self._read_into(planes.reshape(-1), offset)
        else:
            for j, plane in enumerate(planes):
                self._read_into(plane, offset + j * h * w * 4)
        return out

    def _read_into(self, buffer: np.ndarray, offset: int) -> None:
        if self._payload is not None:
            start = offset - _HEADER.size
            buffer[...] = np.frombuffer(self._payload[start:start + buffer.size], dtype=np.uint8)
            return
        view = memoryview(buffer)
        done = 0
        while done < len(view):
            count = os.preadv(self._file.fileno(), [view[done:]], offset + done)
            if count <= 0:
                raise StackFormatError(f"{self.path}: payload ends at byte {offset + done}, "
                                       f"before the {len(view)} bytes at byte {offset}")
            done += count

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "StackReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def read_stack(path) -> tuple[np.ndarray, dict]:
    """Read a stack file; returns ((K, H, W) float32 planes, metadata dict).

    Metadata values come back as strings; a missing sidecar yields an empty
    dict. Malformed files raise StackFormatError naming the offending byte
    ranges. The planes are one new, writable array, read through StackReader.
    """
    with StackReader(path) as reader:
        return reader.read(0, reader.shape[0]), reader.metadata


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
