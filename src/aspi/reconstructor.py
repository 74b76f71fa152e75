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
  The bank is normalised once, in (W, n + 1, K) storage: each column
  M_iz(x) divided by its coverage, the uncovered ones 0, and as its last
  row n a sentinel plane that is -1.0 where the column is uncovered and
  +0.0 elsewhere. Each tile's frame rows carry a last column of ones, so
  for every column x all sections are one matrix product,
  (rows x (n + 1)) . ((n + 1) x K), which is the finished voxel; it is
  computed in row bands of _GEMM_ROWS rows by batched matmuls over tiles
  of _GEMM_COLS columns. Its summation order is the BLAS one and it
  divides before it sums, so it agrees with the reference kernel to within
  (n+1)*eps of sum_i |O_i| * M_iz / sum_i M_iz per voxel rather than bit
  for bit.
  Coverage (mask_coverage) and the floor rule (_floor_rule) are shared, so
  coverage and sentinels are identical.

Both kernels run behind one stream, VolumeStream, which takes the (n, H, W)
frames and one TranslationMasks bank of that shape, whose grid names the
sections. It computes the volume in (K, rows, W) row chunks of every
section, top to bottom, each chunk whole on one worker thread
(errors.run_ahead) while the caller uses the one before, so no sum is ever
split between threads and each kernel's output is bit-identical for any
thread count. A GEMM chunk is one fixed _GEMM_ROWS (16-row) band, computed
in tiles of _GEMM_COLS (64) columns through buffers made once per chunk
and reused by each tile: its frame rows are cast into one with one
strided copy, the product goes to another, and a float32 chunk takes the
product cast in its own layout, then transposed. The reference kernel's
chunks hold up to _BAND_PIXELS pixels of a section and are computed
section by section, each from only the chunk's rows of that section's
masks. Each chunk needs only its own rows of the frames, frames[:, r0:r1]:
a read of a StackReader, which indexes like the array it stores, or of an
array, a contiguous copy for the GEMM kernel (the layout a StackReader
reads) and a view for the reference kernel, so the stream holds no read
buffer; the rows are read on the calling thread as the chunk is handed to
a worker. The kernels store their float64 voxels straight into the chunk:
float32 chunks from a ring of one per worker, which rounds each voxel
once, so a float32 chunk holds the bytes of the float64 one cast to
float32, and a chunk is valid until the caller asks for the next one.
`aspi reconstruct` writes them to the stack file and `aspi bench`
checksums them; reconstruct_volume has them computed straight into the
rows of its float64 (K, H, W) array. So besides the frames (none when they
are read from a file) these hold, per worker thread, one float32 chunk of
every section and the chunk's rows of the frames (float32 as read, float64
for the reference kernel), never the volume; the GEMM kernel also holds
the (W, n + 1, K) bank, divided by its coverage, with its sentinel row
and, per worker, one tile's frame rows and products in float64 and the
products' float32 cast, the reference kernel per worker the float64 masks
of one section's chunk rows. The number of SENTINEL voxels,
VolumeStream.sentinels, comes from the coverage, not from the voxels: a
covered voxel whose quotient happens to be exactly -1.0 is not counted. A
thread count below 1, a floor that is not finite and > 0, and frames of
another shape than the bank's are each a ValueError.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import check_threads, run_ahead
from .imaging_model import GeometryMasks, TranslationMasks, mask_coverage
from .rig import ZGrid
from .stack_io import SENTINEL, StackReader, VolumeStack

if TYPE_CHECKING:  # only the commands that fit or read a mask model load calibration
    from .calibration import MaskModel

__all__ = [
    "SENTINEL",
    "VolumeStack",
    "GeometryMasks",
    "ModelMasks",
    "default_floor",
    "reconstruct_section",
    "reconstruct_volume",
    "VolumeStream",
]

# Pixels per row chunk of the reference kernel (128 rows at 512 wide): small
# enough for a chunk's masks to stay near the cache, large enough that each
# array operation outlasts the workers' hand-offs of the interpreter lock.
_BAND_PIXELS = 128 * 512

# Row-band height of the GEMM kernel, one band per chunk. Fixed, so the
# bands and each band's products are the same for every thread count.
_GEMM_ROWS = 16

# Columns per tile of a GEMM band, one batched matmul each: every column is
# its own product, so this bounds a worker's memory without changing any bit.
# 64 measured as fast as any of 32 to 128 at K = 48 and K = 100, and wider
# tiles raise the peak RSS (BENCH_gemm_sentinel.json).
_GEMM_COLS = 64


def default_floor(base_mask, n: int) -> float:
    """Denominator floor: 1e-3 of the base mask peak times the shift count."""
    return 1e-3 * float(np.max(base_mask)) * n


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
    for the GEMM kernel, the bank divided by its coverage with the sentinel
    plane as its last row. `blocks` computes the volume chunk by chunk, up
    to `threads` chunks at once, each on one worker. `shape` is the
    volume's (K, H, W).

    `sentinels` is the number of SENTINEL voxels in the volume, counted from
    the coverage: for the GEMM kernel H times the uncovered (section, column)
    pairs, known from the constructor on; for the reference kernel the
    uncovered pixels of every section as blocks() computes them, complete
    once it is exhausted. A covered voxel whose quotient is exactly -1.0 is
    not a sentinel and is not counted.

    `products` is the number of multiplies O_i * M_iz the kernel has made,
    counted from the shapes of its calls as blocks() computes them: n per
    voxel, K * H * W * n once the stream is exhausted (the GEMM kernel's
    column of ones, which adds the sentinel row, makes none). Unlike a
    time, it does not drift with the host.
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
        self.products = 0
        # the GEMM kernel's bank, in (W, n + 1, K) storage: rows 0..n-1 the
        # masks, row n the sentinel plane, which each tile's column of ones
        # adds to the product. np.empty only reserves the pages; a bank that
        # varies along y (no row bank: the reference kernel) never touches them
        n, k, w = masks.shift_count, masks.grid.count, frames.shape[2]
        self._bank = np.empty((w, n + 1, k))
        bank = masks.row_bank(self._bank[:, :n])
        if bank is None:
            # one exact float64 upcast per chunk, not one in each of the K * n multiplies
            self._bank = None
            self._rows = self._section_rows()
            self._read = lambda band: np.asarray(band, dtype=np.float64)
            return
        # each bank column divided by its coverage and the uncovered ones 0
        # (a copy, not a multiply), in place, so that a tile's product is the
        # finished voxel: the sentinel row adds +0.0 where covered and -1.0
        # exactly where not
        masks_x, sentinel = self._bank[:, :n], self._bank[:, n]
        den, uncovered = _floor_rule(mask_coverage(masks_x.transpose(1, 0, 2)), self.floor)
        masks_x /= den[:, None, :]
        np.copyto(masks_x, 0.0, where=uncovered[:, None, :])
        sentinel[...] = 0.0
        np.copyto(sentinel, SENTINEL, where=uncovered)
        self.sentinels = self.shape[1] * int(np.count_nonzero(uncovered))
        # tiles read their columns of a contiguous band of the frames
        self._rows, self._read = _GEMM_ROWS, np.ascontiguousarray

    def blocks(self, out=None):
        """Yield (r0, chunk): (K, rows, W) row chunks of every section, from row r0.

        Chunks come top to bottom (the last one shorter): one _GEMM_ROWS
        band from the GEMM kernel, whole _GEMM_ROWS bands of at most
        _BAND_PIXELS pixels from the reference kernel. Each is computed
        whole on one worker (errors.run_ahead), from only its rows of the
        frames, which are read on the calling thread as the chunk is
        submitted; up to `threads` chunks are computed at once, the next
        ones while the caller uses one. Both kernels compute in float64 and
        store each voxel into the chunk, which rounds it once. The chunks
        are float32, in a ring of min(threads, chunk count) buffers, so a
        chunk is valid until the caller asks for the next one; or, when out
        is given (a (K, H, W) array), they are its rows, out[:, r0:r1]. The
        workers are shut down when the stream ends, is closed or raises.
        """
        k, h, w = self.shape
        rows = min(self._rows, h)
        spans = [(r0, min(r0 + rows, h)) for r0 in range(0, h, rows)]
        threads = min(self._threads, len(spans))
        if out is None:
            ring = np.empty((threads, k * rows * w), dtype=np.float32)
            outs = (ring[i % threads, :k * (r1 - r0) * w].reshape(k, r1 - r0, w)
                    for i, (r0, r1) in enumerate(spans))
        else:
            outs = (out[:, r0:r1] for r0, r1 in spans)
        reads = (((r0, r1), self._read(self._frames[:, r0:r1])) for r0, r1 in spans)
        if self._bank is None:
            self.sentinels = 0
        self.products = 0
        for r0, chunk, uncovered, products in run_ahead(self._chunk, reads, outs, threads):
            self.sentinels += uncovered
            self.products += products
            yield r0, chunk

    def _chunk(self, read, chunk) -> tuple[int, np.ndarray, int, int]:
        # one row chunk of every section; returns (r0, chunk, uncovered pixels
        # the reference kernel found, 0 for the GEMM kernel, products made)
        (r0, r1), frames = read
        products = 0
        if self._bank is None:
            # section by section, each from only the chunk's rows of its masks
            uncovered = 0
            for z in range(self.shape[0]):
                chunk[z], coverage = reconstruct_section(
                    frames, self._masks.section_masks(z, (r0, r1)), self.floor)
                uncovered += int(np.count_nonzero(_floor_rule(coverage, self.floor)[1]))
                products += frames.size
            return r0, chunk, uncovered, products
        # one batched matmul per _GEMM_COLS columns, through buffers made once
        # per chunk: the tile's frame rows with a last column of ones, the
        # products, and their float32 cast when the chunk is float32
        (n, rows, w), k = frames.shape, self.shape[0]
        cols = min(_GEMM_COLS, w)
        obs = np.empty((cols, rows, n + 1))
        obs[..., n] = 1.0
        prod = np.empty((cols, rows, k))
        cast = prod if chunk.dtype == prod.dtype else np.empty(prod.shape, chunk.dtype)
        for x0 in range(0, w, cols):
            x1 = min(x0 + cols, w)
            c = x1 - x0
            # one strided cast-copy in; the product cast in its own layout,
            # then one transpose out
            np.copyto(obs[:c, :, :n], frames[:, :, x0:x1].transpose(2, 1, 0))
            np.matmul(obs[:c], self._bank[x0:x1], out=prod[:c])
            if cast is not prod:
                np.copyto(cast[:c], prod[:c])
            chunk[:, :, x0:x1] = cast[:c].transpose(2, 1, 0)
            products += c * rows * n * k
        return r0, chunk, 0, products

    def _section_rows(self) -> int:
        # whole GEMM bands of at most _BAND_PIXELS pixels, and at least
        # 2 * threads chunks down the frame, so that the workers' masks
        # together stay within half a section's (n, H, W) bank
        n, h, w = self._frames.shape
        bands = min(_BAND_PIXELS // (_GEMM_ROWS * w), h // (2 * self._threads * _GEMM_ROWS))
        return _GEMM_ROWS * max(1, bands)


def reconstruct_volume(frames, masks: TranslationMasks, floor: float | None = None,
                       threads: int = 1) -> VolumeStack:
    """Recover every section of the bank's grid from one acquisition.

    frames and masks are VolumeStream's, and so are the checks. A bank
    whose row_bank() returns an (n, K, W) bank takes the GEMM kernel; any
    other takes reconstruct_section once per section of every row chunk.
    Frames of any float dtype are read as float64. With threads > 1 the
    row chunks are computed on workers, each whole on one, and the result
    is bit-identical to the serial one. VolumeStream computes them straight
    into the float64 volume.
    """
    stream = VolumeStream(frames, masks, floor, threads)
    sections = np.empty(stream.shape, dtype=np.float64)
    for _ in stream.blocks(sections):
        pass
    return VolumeStack(
        sections=sections,
        grid=stream.grid,
        coverage_floor_used=stream.floor,
        masks_source=stream.masks_source,
    )
