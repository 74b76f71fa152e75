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

Two kernels compute the volume:

* The reference kernel, reconstruct_section, computes in float64 whatever
  the frame dtype and accumulates in fixed order i = 0..n-1 per pixel. It
  takes any bank, full (n, H, W) or row-compressed (n, 1, W), and
  reconstruct_volume uses it for banks that vary along y. It is the oracle.
* The GEMM kernel serves banks that are constant along y: those whose
  column_blocks() gives the whole bank, geometric or calibrated, block by
  block. It computes in float32. The bank is normalised once, in float64,
  one column block at a time, into float32 (W, n + 1, K) storage: each
  column M_iz(x) divided by its coverage, the uncovered ones 0, each
  rounded once to float32, and as its last row n a sentinel plane that is
  -1.0 where the column is uncovered and +0.0 elsewhere. Each tile's frame
  rows, rounded to float32 if they are float64, carry a last column of
  ones, so for every column x all sections are one float32 matrix
  product, (rows x (n + 1)) . ((n + 1) x K), which is the finished voxel;
  it is computed in row bands of _GEMM_ROWS rows by batched matmuls over
  tiles of _GEMM_COLS columns. The bound: with u = 2**-24, float32's unit
  roundoff, a covered voxel is within (n + 4) * u * sum_i |O_i| * M_iz /
  sum_i M_iz of the reference kernel's, for a dot product of n + 1 terms
  in any summation order is within (n + 1) * u of its exact value relative
  to the sum of its absolute terms (Higham, Accuracy and Stability of
  Numerical Algorithms, 2nd ed., 2002, section 3.1), the rounded frames
  and masks add u each, and the last u covers the reference's own float64
  error and the second-order terms. The summation order is that of the
  sgemm kernel OpenBLAS picks for the CPU, so the bytes are the same for
  any thread count on one machine but may differ between CPUs. Coverage
  (mask_coverage) and the floor rule (_floor_rule) are shared and computed
  in float64, so coverage and sentinels are identical, and a sentinel is
  exactly -1.0, never -0.0.

Both kernels run behind one stream, VolumeStream, which takes the (n, H, W)
frames and one TranslationMasks bank of that shape, whose grid names the
sections. It computes the volume in (K, rows, W) row chunks of every
section, top to bottom, each chunk whole on one worker thread
(errors.run_ahead) while the caller uses the one before, so no sum is ever
split between threads and each kernel's output is bit-identical for any
thread count. A GEMM chunk is one fixed _GEMM_ROWS (16-row) band, computed
in tiles of _GEMM_COLS (64) columns through buffers made once per chunk
and reused by each tile: its frame rows are copied into one with one
strided copy, and the product goes to another, which is transposed into
the chunk. The reference kernel's chunks hold up to _BAND_PIXELS pixels
of a section and are computed section by section, each from only the
chunk's rows of that section's masks. Each chunk needs only its own rows
of the frames, frames[:, r0:r1]: a read of a StackReader, which indexes
like the array it stores, or of an array, a contiguous copy for the GEMM
kernel (the layout a StackReader reads) and a view for the reference
kernel, so the stream holds no read buffer; the rows are read on the
calling thread as the chunk is handed to a worker. The kernels store
their voxels straight into the chunk: float32 chunks from a ring of one
per worker, which hold the GEMM kernel's voxels as they are and the
reference kernel's float64 ones rounded once, and a chunk is valid until
the caller asks for the next one. `aspi reconstruct` writes them to the
stack file and `aspi bench` checksums them; reconstruct_volume has them
computed straight into the rows of its float64 (K, H, W) array, which so
holds the GEMM kernel's float32 values exactly and the reference kernel's
float64 ones. So besides the frames (none when they are read from a
file) these hold, per worker thread, one float32 chunk of every section
and the chunk's rows of the frames (float32 as read, float64 for the
reference kernel), never the volume; the GEMM kernel also holds the
float32 (W, n + 1, K) bank and, per worker, one tile's float32 frame rows
and products, the reference kernel per worker the float64 masks of one
section's chunk rows. The number of SENTINEL voxels,
VolumeStream.sentinels, is counted chunk by chunk from the coverage, not
from the voxels, and is complete once the stream is exhausted: a covered
voxel whose quotient happens to be exactly -1.0 is not counted. A
thread count below 1, a floor that is not finite and > 0, and frames of
another shape than the bank's are each a ValueError.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import check_threads, run_ahead
from .imaging_model import TranslationMasks, mask_coverage
from .rig import ZGrid
from .stack_io import SENTINEL, StackReader, VolumeStack

if TYPE_CHECKING:  # only the commands that fit or read a mask model load calibration
    from .calibration import MaskModel

__all__ = [
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
    """Denominator floor: 1e-3 of the base mask peak times n, read off one row at row stride 0."""
    m = np.asarray(base_mask)
    return 1e-3 * float(np.max(m[:1] if m.ndim and m.strides[0] == 0 else m)) * n


class ModelMasks(TranslationMasks):
    """Mask provider backed by a calibrated mask model."""

    def __init__(self, model: MaskModel, grid: ZGrid, shift_count: int):
        super().__init__(model.base_mask, (model.lateral_dx, model.lateral_dy),
                         (model.axial_dx, model.axial_dy), shift_count, grid)

    def describe(self) -> str:
        return "calibrated-model"


def _as_frames(frames, masks: TranslationMasks | None = None):
    # an (n, H, W) array or StackReader, of the bank's (shift_count,) + base shape if given
    if not isinstance(frames, StackReader):
        frames = np.asarray(frames)
    if len(frames.shape) != 3:
        raise ValueError(f"expected (n, H, W) frames, got shape {frames.shape}")
    if frames.shape[0] == 0:
        raise ValueError("empty frame list")
    if masks is not None and frames.shape != (bank := (masks.shift_count,) + masks.base.shape):
        raise ValueError(f"frames of shape {frames.shape} for a mask bank of {bank}")
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
    for the GEMM kernel, the float32 bank divided by its coverage with the
    sentinel plane as its last row. `blocks` computes the volume chunk by
    chunk, up to `threads` chunks at once, each on one worker. `shape` is the
    volume's (K, H, W).

    `sentinels` is the number of SENTINEL voxels in the volume, counted from
    the coverage chunk by chunk as blocks() computes them: a GEMM chunk's
    rows times the uncovered (section, column) pairs, a reference chunk's
    uncovered pixels of every section. A covered voxel whose quotient is
    exactly -1.0 is not a sentinel and is not counted.

    `products` is the number of multiplies O_i * M_iz the kernel has made,
    counted from the shapes of its calls as blocks() computes them: n per
    voxel, K * H * W * n in all (the GEMM kernel's column of ones, which
    adds the sentinel row, makes none). Unlike a time, it does not drift
    with the host. Both counts start afresh with each blocks() pass and are
    complete once it is exhausted.
    """

    def __init__(self, frames, masks: TranslationMasks, floor: float | None = None,
                 threads: int = 1):
        check_threads(threads)
        if floor is None:
            floor = default_floor(masks.base, masks.shift_count)
        _check_floor(floor)
        frames = _as_frames(frames, masks)
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
        blocks = masks.column_blocks()
        if blocks is None:
            # one exact float64 upcast per chunk, not one in each of the K * n multiplies
            self._bank = None
            self._rows = self._section_rows()
            self._read = lambda band: np.asarray(band, dtype=np.float64)
            return
        # the GEMM kernel's float32 bank, in (W, n + 1, K) storage: rows
        # 0..n-1 the masks, each column divided by its coverage and the
        # uncovered ones 0, row n the sentinel plane, -1.0 exactly where a
        # column is uncovered and +0.0 elsewhere, which each tile's column of
        # ones adds to the product, so that the product is the finished voxel.
        # Built one float64 column block at a time, each rounded once into
        # it, so no float64 bank exists
        n, k, w = masks.shift_count, masks.grid.count, frames.shape[2]
        self._bank = np.empty((w, n + 1, k), dtype=np.float32)
        self._uncovered = 0
        for x0, block in blocks:
            den, uncovered = _floor_rule(mask_coverage(block.transpose(1, 0, 2)), self.floor)
            block /= den[:, None, :]
            np.copyto(block, 0.0, where=uncovered[:, None, :])
            columns = self._bank[x0:x0 + len(block)]
            columns[:, :n] = block
            columns[:, n] = np.where(uncovered, SENTINEL, 0.0)
            self._uncovered += int(np.count_nonzero(uncovered))
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
        ones while the caller uses one. The GEMM kernel computes in
        float32, the reference kernel in float64, and each stores its voxels
        into the chunk, a float64 voxel into a float32 chunk rounded once.
        The chunks are float32, in a ring of min(threads, chunk count)
        buffers, so a chunk is valid until the caller asks for the next one;
        or, when out is given (a (K, H, W) array), they are its rows,
        out[:, r0:r1]. The workers are shut down when the stream ends, is
        closed or raises.
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
        self.sentinels = self.products = 0
        for r0, chunk, uncovered, products in run_ahead(self._chunk, reads, outs, threads):
            self.sentinels += uncovered
            self.products += products
            yield r0, chunk

    def _chunk(self, read, chunk) -> tuple[int, np.ndarray, int, int]:
        # one row chunk of every section; returns (r0, chunk, its uncovered
        # voxels, products made)
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
        # one batched float32 matmul per _GEMM_COLS columns, through buffers
        # made once per chunk: the tile's frame rows with a last column of
        # ones, and the products, which are the finished voxels
        (n, rows, w), k = frames.shape, self.shape[0]
        cols = min(_GEMM_COLS, w)
        obs = np.empty((cols, rows, n + 1), dtype=np.float32)
        obs[..., n] = 1.0
        prod = np.empty((cols, rows, k), dtype=np.float32)
        for x0 in range(0, w, cols):
            x1 = min(x0 + cols, w)
            c = x1 - x0
            # one strided copy in, which rounds float64 frames to float32;
            # one transpose out
            np.copyto(obs[:c, :, :n], frames[:, :, x0:x1].transpose(2, 1, 0))
            np.matmul(obs[:c], self._bank[x0:x1], out=prod[:c])
            chunk[:, :, x0:x1] = prod[:c].transpose(2, 1, 0)
            products += c * rows * n * k
        return r0, chunk, rows * self._uncovered, products

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
    kept as one row (column_blocks() is not None) takes the float32 GEMM
    kernel, whose values the float64 volume holds exactly, within the
    module's bound of the reference kernel's; any other takes
    reconstruct_section once per section of every row chunk, which reads
    frames of any float dtype as float64. With threads > 1 the
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
