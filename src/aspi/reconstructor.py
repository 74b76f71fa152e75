"""Virtual-confocal volume reconstruction from one lateral pattern scan.

Every depth section is recovered from the same acquisition by pointwise
multiplication with that section's mask bank:

    I_z(p) = sum_i O_i(p) * M_iz(p) / sum_i M_iz(p)

The numerator keeps only light that was modulated by the slit pattern at
depth z; the denominator normalizes the non-uniform illumination dose.
Pixels whose denominator falls below a floor were never usefully
illuminated at that depth; they carry the sentinel value -1.0 and are
excluded from downstream statistics. (With noisy inputs the quotient itself
can dip slightly below zero; the sentinel remains the exact value -1.0.)
Frames with a NaN or an infinity are rejected.

Two kernels compute the volume, both in float64 whatever the frame dtype:

* The reference kernel, reconstruct_section, accumulates in fixed order
  i = 0..n-1 per pixel. It takes any bank, full (n, H, W) or row-compressed
  (n, 1, W), and reconstruct_volume uses it for banks that vary along y.
* The GEMM kernel serves banks that are constant along y: those whose
  row_bank() returns the whole (n, K, W) bank, geometric or calibrated.
  The bank is normalised once: each column M_iz(x) divided by its
  coverage, the uncovered ones 0. For every column x all sections are then
  one matrix product, (rows x n) . (n x K), plus a sentinel plane that is
  -1.0 where the column is uncovered and 0 elsewhere, computed in row
  bands of _GEMM_ROWS rows by batched matmuls over tiles of _GEMM_COLS
  columns. Its summation order is the BLAS one and it divides before it
  sums, so it agrees with the reference kernel to within (n+1)*eps of
  sum_i |O_i| * M_iz / sum_i M_iz per voxel rather than bit for bit.
  Coverage (mask_coverage) and the floor rule (_floor_rule) are shared, so
  coverage and sentinels are identical.

Both kernels run behind one stream, VolumeStream, which takes the (n, H, W)
frames and one TranslationMasks bank of that shape, whose grid names the
sections. It computes the volume in (K, rows, W) row chunks of every
section, top to bottom, and computes every chunk the same way: threads take
pieces of it, and no sum is ever split between them, so each kernel's
output is bit-identical for any thread count. A GEMM chunk is one fixed
_GEMM_ROWS (16-row) band, which workers take in tiles of _GEMM_COLS (64)
columns; the reference kernel's chunks hold up to _BAND_PIXELS pixels of a
section and are split into their sections, each built from only the
chunk's rows of that section's masks.
Each chunk needs only its own rows of the frames, frames[:, r0:r1]: a view
of an array, or a read of a StackReader, which indexes like the array it
stores, so the stream holds no read buffer. Chunks are float32 unless asked
for in float64: the kernels store their float64 voxels straight into the
chunk, which rounds each one once, so a float32 chunk holds the bytes of
the float64 one cast to float32. The chunks alternate between two buffers,
so a chunk stays as it is while the next one is computed; with threads > 1,
VolumeStream.consume hands each one to one more thread meanwhile.
reconstruct_volume copies float64 chunks into one (K, H, W) array;
`aspi reconstruct` writes float32 ones to the stack file and `aspi bench`
checksums them, both through consume. So besides the frames (none when
they are read from a file) these hold two chunks of every section and the
chunk's rows of the frames (float32 as read), never the volume; the GEMM
kernel also holds the (n, K, W) bank, divided by its coverage, one (K, W)
sentinel plane and, per worker, one tile's frame rows and products in
float64, the reference kernel the chunk's frame rows in float64 and, per
worker, the float64 masks of one section's chunk rows. The number of
SENTINEL voxels, VolumeStream.sentinels, comes from the coverage, not from
the voxels: a covered voxel whose quotient happens to be exactly -1.0 is
not counted. A thread count below 1, a floor that is not finite and > 0,
and frames of another shape than the bank's are each a ValueError.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from functools import partial

import numpy as np

from .calibration import MaskModel
from .errors import check_threads
from .imaging_model import GeometryMasks, TranslationMasks, ZGrid, mask_coverage
from .stack_io import StackReader

__all__ = [
    "SENTINEL",
    "VolumeStack",
    "CoverageReport",
    "GeometryMasks",
    "ModelMasks",
    "default_floor",
    "reconstruct_section",
    "reconstruct_volume",
    "VolumeStream",
    "coverage_report",
]

SENTINEL = -1.0

# Pixels per row chunk of the reference kernel (128 rows at 512 wide): small
# enough for a chunk's masks to stay near the cache, large enough that each
# array operation outlasts the workers' hand-offs of the interpreter lock.
_BAND_PIXELS = 128 * 512

# Row-band height of the GEMM kernel, one band per chunk. Fixed, so the
# bands and each band's products are the same for every thread count.
_GEMM_ROWS = 16

# Columns per tile of a GEMM band, one batched matmul each: every column is
# its own product, so this bounds a worker's memory without changing any bit.
_GEMM_COLS = 64


def default_floor(base_mask, n: int) -> float:
    """Denominator floor: 1e-3 of the base mask peak times the shift count."""
    return 1e-3 * float(np.max(base_mask)) * n


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


@dataclass(frozen=True)
class CoverageReport:
    """Per-section illumination denominators plus summary statistics."""

    coverage: np.ndarray  # (K, H, W)
    floor: float
    min_coverage: float
    mean_coverage: float
    sentinel_fraction: float
    ambiguous: bool | None = None


class ModelMasks(TranslationMasks):
    """Mask provider backed by a calibrated mask model."""

    def __init__(self, model: MaskModel, grid: ZGrid, shift_count: int):
        super().__init__(model.base_mask, (model.lateral_dx, model.lateral_dy),
                         (model.axial_dx, model.axial_dy), shift_count, grid)

    def describe(self) -> str:
        return "calibrated-model"


def _as_frames(frames):
    if not isinstance(frames, StackReader):
        frames = np.asarray(frames)
    if len(frames.shape) != 3:
        raise ValueError(f"expected (n, H, W) frames, got shape {frames.shape}")
    if frames.shape[0] == 0:
        raise ValueError("empty frame list")
    return frames


def _as_masks(masks, n: int, h: int, w: int) -> np.ndarray:
    m = np.asarray(masks, dtype=np.float64)
    if m.ndim != 3:
        raise ValueError(f"expected (n, H, W) masks, got shape {m.shape}")
    if m.shape[0] != n:
        raise ValueError(f"mask count {m.shape[0]} != frame count {n}")
    if m.shape[2] != w or m.shape[1] not in (1, h):
        raise ValueError(f"mask shape {m.shape[1:]} incompatible with frames ({h}, {w})")
    return m


def reconstruct_section(frames, masks, floor: float) -> tuple[np.ndarray, np.ndarray]:
    """Recover one confocal section; returns (section, coverage).

    frames is an (n, H, W) array; masks is the (n, H, W) or broadcastable
    (n, 1, W) bank for the target depth. Pixels whose coverage sum falls
    below `floor` (finite and > 0) carry SENTINEL in the section.
    """
    frames = _as_frames(frames)
    n, h, w = frames.shape
    m = _as_masks(masks, n, h, w)
    _check_floor(floor)

    num = np.zeros((h, w), dtype=np.float64)
    prod = np.empty((h, w), dtype=np.float64)
    for i in range(n):
        np.multiply(frames[i], m[i], out=prod)
        num += prod

    coverage = mask_coverage(m)
    den, uncovered = _floor_rule(coverage, floor)
    num /= den
    np.copyto(num, SENTINEL, where=uncovered)
    return num, np.ascontiguousarray(np.broadcast_to(coverage, (h, w)))


def _floor_rule(den: np.ndarray, floor: float) -> tuple[np.ndarray, np.ndarray]:
    """den with 1.0 where it is below the floor or NaN, and that mask: where SENTINEL goes."""
    uncovered = ~(den >= floor)
    return np.where(uncovered, 1.0, den), uncovered


def _check_finite(frames) -> None:
    # frame by frame: the flags of one frame at a time, not of the stack
    bad = sum(frame.size - int(np.count_nonzero(np.isfinite(frame))) for frame in frames)
    if bad:
        raise ValueError(f"acquisition has {bad} non-finite frame pixels (NaN or Inf)")


def _check_floor(floor: float) -> None:
    if not (0 < floor < math.inf):
        raise ValueError(f"floor must be > 0 and finite, got {floor}")


class VolumeStream:
    """A checked reconstruction whose row chunks are computed as they are read.

    frames is an (n, H, W) array or a StackReader of one, masks a
    TranslationMasks bank of the same (shift_count,) + base shape, whose grid
    names the sections. The constructor makes all the checks (threads,
    floor, frame shape, NaN or Inf pixels), so a caller can reject bad input
    before it opens an output; frames read from a StackReader are checked in
    one pass over the file, frame by frame. It also prepares the kernel once:
    for the GEMM kernel, the bank divided by its coverage and the sentinel
    plane. `blocks` computes the volume chunk by chunk, each chunk in pieces
    shared among `threads` workers. `shape` is the volume's (K, H, W).

    `sentinels` is the number of SENTINEL voxels in the volume, counted from
    the coverage: for the GEMM kernel H times the uncovered (section, column)
    pairs, known from the constructor on; for the reference kernel the
    uncovered pixels of every section as blocks() computes them, complete
    once it is exhausted. A covered voxel whose quotient is exactly -1.0 is
    not a sentinel and is not counted.
    """

    def __init__(self, frames, masks: TranslationMasks, floor: float | None = None,
                 threads: int = 1):
        check_threads(threads)
        if floor is None:
            floor = default_floor(masks.base, masks.shift_count)
        _check_floor(floor)
        frames = _as_frames(frames)
        expected = (masks.shift_count,) + masks.base.shape
        if frames.shape != expected:
            raise ValueError(f"frames of shape {frames.shape} for a mask bank of {expected}")
        _check_finite(frames)
        self.grid = masks.grid
        self.floor = float(floor)
        self.masks_source = masks.describe()
        self.shape = (masks.grid.count,) + frames.shape[1:]
        self._frames = frames
        self._masks = masks
        self._threads = threads
        self.sentinels = 0
        bank = masks.row_bank()
        self._counted = bank is None
        if bank is None:
            # one exact float64 upcast per chunk, not one in each of the K * n multiplies
            self._rows, self._work, self._dtype = self._section_rows(), self._section, np.float64
            self._items = range(self.shape[0])
            return
        # each bank column divided by its coverage and the uncovered ones 0
        # (a copy, not a multiply), in place in the bank's new (W, n, K)
        # storage, so that a tile's product plus the sentinel plane is the
        # finished voxel: +0.0 where covered, -1.0 exactly where not
        self._masks_x = masks_x = bank.transpose(2, 0, 1)
        den, uncovered = _floor_rule(mask_coverage(masks_x.transpose(1, 0, 2)), self.floor)
        masks_x /= den[:, None, :]
        np.copyto(masks_x, 0.0, where=uncovered[:, None, :])
        self._sentinel = np.where(uncovered, SENTINEL, 0.0).T.copy()[:, None, :]  # (K, 1, W)
        self.sentinels = self.shape[1] * int(np.count_nonzero(uncovered))
        # tiles cast their own columns of the chunk's frames
        self._rows, self._work, self._dtype = _GEMM_ROWS, self._tile, None
        self._items = range(0, self.shape[2], _GEMM_COLS)

    def blocks(self, dtype=np.float32):
        """Yield (r0, chunk): (K, rows, W) row chunks of every section, from row r0.

        Chunks come top to bottom (the last one shorter), each computed only
        after the one before it was taken, from only its rows of the frames:
        one _GEMM_ROWS band from the GEMM kernel, whole _GEMM_ROWS bands of
        at most _BAND_PIXELS pixels from the reference kernel. dtype is
        float32 or float64; both kernels compute in float64 and store each
        voxel into the chunk, which rounds it once. The chunks alternate
        between two buffers: a chunk stays as it is while the next one is
        computed and yielded, and the one after overwrites it, so consume it
        before asking for that. One executor serves the whole stream and is
        shut down when the stream ends, is closed or raises.
        """
        k, h, w = self.shape
        rows = min(self._rows, h)
        buffers = np.empty((2, k * rows * w), dtype=dtype)
        if self._counted:
            self.sentinels = 0
        pool = ThreadPoolExecutor(max_workers=self._threads) if self._threads > 1 else None
        try:
            for c0 in range(0, h, rows):
                c1 = min(c0 + rows, h)
                chunk = buffers[c0 // rows % 2, :k * (c1 - c0) * w].reshape(k, c1 - c0, w)
                frames = np.asarray(self._frames[:, c0:c1], dtype=self._dtype)
                done = _run(pool, partial(self._work, frames, (c0, c1), chunk), self._items)
                if self._counted:
                    self.sentinels += sum(done)
                yield c0, chunk
        finally:
            if pool is not None:
                pool.shutdown(cancel_futures=True)

    def consume(self, work) -> None:
        """Call work(r0, chunk) on every float32 chunk of blocks(), in order.

        With threads > 1 the calls run on one more thread, each while the
        kernel computes the next chunk; a chunk is handed over only after
        work has returned for the one before, so the two chunk buffers
        suffice. With one thread they run on the calling thread, after each
        chunk. An exception of work or of the kernel is raised here, once
        both have stopped and no thread of theirs is left.
        """
        with closing(self.blocks()) as chunks:
            if self._threads == 1:
                for r0, chunk in chunks:
                    work(r0, chunk)
                return
            with ThreadPoolExecutor(max_workers=1) as consumer:
                pending = None
                for r0, chunk in chunks:
                    if pending is not None:
                        pending.result()
                    pending = consumer.submit(work, r0, chunk)
                pending.result()

    def _tile(self, frames, rows: tuple[int, int], chunk, x0: int) -> None:
        # one batched matmul over _GEMM_COLS columns of a _GEMM_ROWS band
        n, w = frames.shape[0], frames.shape[2]
        x1 = min(x0 + _GEMM_COLS, w)
        obs = np.empty((x1 - x0, rows[1] - rows[0], n), dtype=np.float64)
        # cast first: a contiguous float64 band transposes twice as fast
        obs[...] = frames[:, :, x0:x1].astype(np.float64).transpose(2, 1, 0)
        np.add(np.matmul(obs, self._masks_x[x0:x1]).transpose(2, 1, 0),
               self._sentinel[:, :, x0:x1], out=chunk[:, :, x0:x1])

    def _section_rows(self) -> int:
        # whole GEMM bands of at most _BAND_PIXELS pixels, and at least
        # 2 * threads chunks down the frame, so that the workers' masks
        # together stay within half a section's (n, H, W) bank
        n, h, w = self._frames.shape
        bands = min(_BAND_PIXELS // (_GEMM_ROWS * w), h // (2 * self._threads * _GEMM_ROWS))
        return _GEMM_ROWS * max(1, bands)

    def _section(self, frames, rows: tuple[int, int], chunk, z: int) -> int:
        # each section's sums stay on one worker; returns its uncovered pixels
        section, coverage = reconstruct_section(frames, self._masks.section_masks(z, rows),
                                                self.floor)
        chunk[z] = section
        return int(np.count_nonzero(_floor_rule(coverage, self.floor)[1]))


def _run(pool, work, items) -> list:
    if pool is None or len(items) < 2:
        return [work(item) for item in items]
    # reading every result re-raises a worker's exception here
    return list(pool.map(work, items))


def reconstruct_volume(frames, masks: TranslationMasks, floor: float | None = None,
                       threads: int = 1) -> VolumeStack:
    """Recover every section of the bank's grid from one acquisition.

    frames and masks are VolumeStream's, and so are the checks. A bank
    whose row_bank() returns an (n, K, W) bank takes the GEMM kernel; any
    other takes reconstruct_section once per section of every row chunk.
    Frames of any float dtype are read as float64. With threads > 1 each
    chunk's work is split among workers, and the result is bit-identical to
    the serial one. The volume is VolumeStream's float64 row chunks, copied
    into one array.
    """
    stream = VolumeStream(frames, masks, floor, threads)
    sections = np.empty(stream.shape, dtype=np.float64)
    for r0, chunk in stream.blocks(np.float64):
        sections[:, r0:r0 + chunk.shape[1]] = chunk
    return VolumeStack(
        sections=sections,
        grid=stream.grid,
        coverage_floor_used=stream.floor,
        masks_source=stream.masks_source,
    )


def coverage_report(masks: TranslationMasks, floor: float | None = None) -> CoverageReport:
    """Exact per-pixel illumination denominators for every section of a bank.

    The ambiguity flag is the bank's (True when its grid spans more shear
    than one slit period encodes; None when it does not know its geometry).
    """
    if floor is None:
        floor = default_floor(masks.base, masks.shift_count)

    # row-compressed banks yield (1, W) planes; the statistics are
    # identical to the broadcast (H, W) form
    coverage = np.stack([mask_coverage(masks.section_masks(j))
                         for j in range(masks.grid.count)])
    return CoverageReport(
        coverage=coverage,
        floor=float(floor),
        min_coverage=float(coverage.min()),
        mean_coverage=float(coverage.mean()),
        sentinel_fraction=float(np.mean(coverage < floor)),
        ambiguous=masks.ambiguous,
    )
