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

StackWriter writes a stack block by block: each plane's rows of a block go
to their place in the file as they come, so a writer holds the float32 copy
of one plane's rows (none when they are contiguous little-endian float32
already, as `aspi reconstruct`'s chunks are), never the stack; `aspi
reconstruct` streams its volume this way, `aspi simulate` its frames, and
write_stack a whole array. Either commits the file and its sidecar only
when the whole payload was written exactly once.

StackReader is its read-side twin: it checks the header and the payload
length once, then indexes like the (K, H, W) array it stores, reading just
the window reader[k0:k1, r0:r1] into a new array, one plane's rows at a
time; so it holds one window, never the stack, and its callers keep no read
buffer. Indexing is its only read: `aspi reconstruct` reads one row chunk of
every frame at a time, `aspi depthmap` one window of rows of every plane
at a time, each voxel once, read_stack reader[:]. A FIFO is read header
first, then its declared payload into one (K, H, W) array that serves
every window.

A volume file holds reconstructed sections, SENTINEL where a voxel's
coverage fell below the floor. VolumeStack binds such sections, an array
or a StackReader of the file, to their depth grid; both live here, so the
depth map needs none of the reconstructor's code.
"""

from __future__ import annotations

import math
import os
import stat
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import StackFormatError

if TYPE_CHECKING:
    from .rig import ZGrid

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "StackWriter",
    "StackReader",
    "write_stack",
    "read_stack",
    "sidecar_path",
    "write_pgm",
    "SENTINEL",
    "VolumeStack",
]

MAGIC = b"ASPI"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHIIIB13x")
_DTYPE_F32 = 0
_F4 = np.dtype("<f4")  # the payload's values
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
        # _read_sidecar splits lines with str.splitlines, at more than "\n"
        if "".join(value.splitlines()) != value:
            raise ValueError(f"metadata value for {key!r} contains a line break")
        lines.append(f"{key}={value}\n")
    return "".join(lines)


def _read_sidecar(path) -> dict:
    p = sidecar_path(path)
    if not p.exists():
        return {}
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise StackFormatError(f"sidecar {p} is not UTF-8 text: byte {exc.start} is "
                               f"{exc.object[exc.start]:#04x}") from None
    meta = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise StackFormatError(f"malformed sidecar line {line!r} in {p}")
        if key in meta:
            raise StackFormatError(f"sidecar {p} repeats key {key!r}")
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
            self._pwrite(self._header, len(self._header), 0)
        except BaseException:
            self.close()
            raise

    def _pwrite(self, data, size: int, offset: int) -> None:
        # data (bytes or a C-contiguous array of `size` bytes) goes to pwrite
        # as it is; only a short write takes a byte view of the rest
        done = 0
        while done < size:
            rest = data if done == 0 else memoryview(data).cast("B")[done:]
            count = os.pwrite(self._fd, rest, offset + done)
            if count <= 0:
                raise OSError(f"{self.path}: wrote {done} of {size} bytes at offset {offset}")
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
        # one plane's float32 rows at a time, not the block's, each as it is
        # when it is already contiguous little-endian float32; a block with
        # no rows or no columns has no bytes (and memoryview cannot cast it)
        f4, size = b.dtype == _F4, b.shape[1] * w * 4
        for j, plane in enumerate(b if b.size else ()):
            if not (f4 and plane.flags.c_contiguous):
                plane = np.ascontiguousarray(plane, dtype=_F4)
            self._pwrite(plane, size, offset + j * h * w * 4)
        rows += 1

    def commit(self) -> None:
        """Close the payload and move it and its sidecar into place."""
        missing = int(np.count_nonzero(self._written == 0))
        if missing:
            raise ValueError(f"{self.path}: {missing} of {self._written.size} plane rows "
                             "were never written; not committed")
        fd, self._fd = self._fd, None
        os.close(fd)
        self._tmp_meta.write_text(self._text, encoding="utf-8")
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
    as K=1); values are stored as little-endian float32, one plane at a
    time. Bad metadata is rejected before anything is written.
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
    Indexing it, or iterating over its planes, reads a new array; that is
    its only read. A regular file is read with one os.preadv per plane's
    rows, straight into the array; a file with no size (a FIFO) is read
    header first, then its declared payload into one (K, H, W) array, and
    any bytes past it are counted, not kept. Used as a context manager it
    closes the file when the block ends.
    """

    dtype = _F4

    def __init__(self, path):
        self.path = path
        self._file = open(path, "rb")
        try:
            self.shape = _check_header(self._file.read(_HEADER.size))
            st = os.fstat(self._file.fileno())
            if stat.S_ISREG(st.st_mode):
                self._payload = None
                actual = st.st_size - _HEADER.size
            else:
                # a pipe reports no size: its header says how much to read
                try:
                    self._payload = np.empty(self.shape, dtype=self.dtype)
                except (MemoryError, ValueError):
                    raise StackFormatError(f"header declares a {self.shape} stack, too large to hold")
                actual = self._file.readinto(self._payload.reshape(-1).view(np.uint8))
                while extra := len(self._file.read(1 << 16)):
                    actual += extra
            self.size = math.prod(self.shape)
            expected = self.size * 4
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

    def __getitem__(self, index) -> np.ndarray:
        """reader[k], reader[k0:k1] or reader[k0:k1, r0:r1]: that window as a new float32 array.

        Indices mean what they mean for the (K, H, W) array, except that
        planes take only an integer or a slice, rows only a slice, and a
        slice only a unit step; any other index, and a plane index outside
        the stack, raises IndexError. Slice bounds clip as numpy clips them.
        """
        pair = isinstance(index, tuple) and len(index) == 2
        planes, rows = index if pair else (index, slice(None))
        k, h, w = self.shape
        if isinstance(planes, slice):
            k0, k1 = _span(planes, k)
        elif not isinstance(planes, (int, np.integer)):
            raise IndexError(f"expected a plane or a slice of planes, got {index!r}")
        elif -k <= planes < k:
            k0, k1 = planes % k, planes % k + 1
        else:
            raise IndexError(f"plane {planes} outside a stack of {k}")
        r0, r1 = _span(rows, h)
        if self._payload is not None:
            out = self._payload[k0:k1, r0:r1].copy()
        else:
            out = np.empty((k1 - k0, r1 - r0, w), dtype=self.dtype)
            for j, plane in enumerate(out.reshape(k1 - k0, (r1 - r0) * w).view(np.uint8)):
                self._read_into(plane, _HEADER.size + ((k0 + j) * h + r0) * w * 4)
        return out if isinstance(planes, slice) else out[0]

    def _read_into(self, buffer: np.ndarray, offset: int) -> None:
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
        return reader[:], reader.metadata


SENTINEL = -1.0


@dataclass(frozen=True)
class VolumeStack:
    """Reconstructed confocal sections bound to their depth grid."""

    # (K, H, W) float64 as reconstructed, float32 as read from a stack file,
    # or a StackReader of one, which indexes like that array (extract_depth_map
    # takes any); SENTINEL where coverage failed
    sections: np.ndarray | StackReader
    grid: ZGrid
    coverage_floor_used: float
    masks_source: str = ""

    def __post_init__(self):
        if len(self.sections.shape) != 3 or self.sections.shape[0] != self.grid.count:
            raise ValueError(
                f"sections shape {self.sections.shape} inconsistent with grid count {self.grid.count}"
            )


def _span(index, size: int) -> tuple[int, int]:
    """start, stop of a unit-step slice over size items, clipped as numpy clips it."""
    span = range(size)[index] if isinstance(index, slice) else None
    if span is None or span.step != 1:
        raise IndexError(f"expected a slice with a unit step, got {index!r}")
    return span.start, max(span.start, span.stop)


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
