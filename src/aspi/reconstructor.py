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
* The GEMM kernel serves banks that are constant along y: providers whose
  row_bank() returns the whole (n, K, W) bank, geometric or calibrated.
  For every column x the numerator of all sections is one matrix product,
  (rows x n) . (n x K), computed in row bands of _GEMM_ROWS rows by a
  batched matmul. Its summation order is the BLAS one, so it agrees with
  the reference kernel to within 2*n*eps of sum_i |O_i| * M_iz / sum_i M_iz
  per voxel rather than bit for bit. Coverage (mask_coverage) and the floor
  rule (_floor_rule) are shared, so coverage and sentinels are identical.

Both kernels run behind one stream, VolumeStream, which computes the volume
in (K, rows, W) row chunks of every section, top to bottom, and computes
every chunk the same way: threads take pieces of it, and no sum is ever
split between them, so each kernel's output is bit-identical for any thread
count. The GEMM kernel's chunks are STREAM_ROWS rows, split into fixed
_GEMM_ROWS bands; the reference kernel's chunks hold up to _BAND_PIXELS
pixels of a section and are split into their sections, each built from
only the chunk's rows of that section's masks. Each chunk needs only its
own rows of the frames, frames[:, r0:r1]: a view of an array, or a read of
a StackReader, which indexes like the array it stores, so the stream holds
no read buffer. reconstruct_volume copies the chunks into one (K, H, W)
array; `aspi reconstruct` writes them to the stack file and `aspi bench`
checksums them. So besides the frames (none when they are read
from a file) these hold one chunk of every section in float64 and the
chunk's rows of the frames (float32 as read), never the volume; the GEMM
kernel also holds the (n, K, W) bank, the reference kernel the chunk's
frame rows in float64 and, per worker, the float64 masks of one section's
chunk rows. A thread count below 1 is a ValueError.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .calibration import MaskModel
from .imaging_model import GeometryMasks, TranslationMasks, ZGrid, mask_coverage
from .stack_io import StackReader

__all__ = [
    "SENTINEL",
    "VolumeStack",
    "CoverageReport",
    "GeometryMasks",
    "ModelMasks",
    "PrecomputedMasks",
    "default_floor",
    "reconstruct_section",
    "reconstruct_volume",
    "VolumeStream",
    "STREAM_ROWS",
    "coverage_report",
]

SENTINEL = -1.0

# Pixels per row chunk of the reference kernel (128 rows at 512 wide): small
# enough for a chunk's masks to stay near the cache, large enough that each
# array operation outlasts the workers' hand-offs of the interpreter lock.
_BAND_PIXELS = 128 * 512

# Row-band height of the GEMM kernel. Fixed, so the bands and each band's
# products are the same for every thread count.
_GEMM_ROWS = 16

# Columns per batched matmul of a GEMM band: each column is its own product,
# so this bounds a worker's memory without changing any bit.
_GEMM_COLS = 256

# Rows per chunk of a streamed volume: whole GEMM bands, so the chunks hold
# the bits of a whole pass.
STREAM_ROWS = 2 * _GEMM_ROWS


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


class PrecomputedMasks:
    """Mask provider over already-materialized per-section banks."""

    def __init__(self, banks, grid: ZGrid):
        self.banks = [np.asarray(b, dtype=np.float64) for b in banks]
        if len(self.banks) != grid.count:
            raise ValueError(f"{len(self.banks)} mask banks for a {grid.count}-section grid")
        self.grid = grid
        self.shift_count = self.banks[0].shape[0]
        self.base = self.banks[0][0]
        self.ambiguous = None

    def section_masks(self, z_index: int, rows: tuple[int, int] | None = None) -> np.ndarray:
        bank = self.banks[z_index]
        return bank if rows is None or bank.shape[1] == 1 else bank[:, rows[0]:rows[1]]

    def row_bank(self) -> np.ndarray | None:
        """(n, K, W) masks of every scan step and section; None unless all banks are (n, 1, W)."""
        if any(b.ndim != 3 or b.shape[1] != 1 for b in self.banks):
            return None
        return np.stack([b[:, 0] for b in self.banks], axis=1)

    def describe(self) -> str:
        return "precomputed"


def _as_frames(acq):
    frames = getattr(acq, "frames", acq)
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


def reconstruct_section(acq, masks, floor: float) -> tuple[np.ndarray, np.ndarray]:
    """Recover one confocal section; returns (section, coverage).

    acq is an AcquisitionSet or a raw (n, H, W) array; masks is the (n, H, W)
    or broadcastable (n, 1, W) bank for the target depth. Pixels whose
    coverage sum falls below `floor` carry SENTINEL in the section.
    """
    frames = _as_frames(acq)
    n, h, w = frames.shape
    m = _as_masks(masks, n, h, w)
    if not (floor > 0):
        raise ValueError(f"floor must be > 0, got {floor}")

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


def _resolve_provider(acq, masks, grid: ZGrid):
    if isinstance(masks, MaskModel):
        return ModelMasks(masks, grid, acq.spec.num_shifts_n)
    if hasattr(masks, "section_masks"):
        return masks
    return PrecomputedMasks(masks, grid)


def _check_finite(frames) -> None:
    # frame by frame: the flags of one frame at a time, not of the stack
    bad = sum(frame.size - int(np.count_nonzero(np.isfinite(frame))) for frame in frames)
    if bad:
        raise ValueError(f"acquisition has {bad} non-finite frame pixels (NaN or Inf)")


def _check_threads(threads: int) -> None:
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")


class VolumeStream:
    """A checked reconstruction whose row chunks are computed as they are read.

    The constructor takes reconstruct_volume's arguments and makes all of
    its checks (threads, frames, NaN or Inf pixels, floor, mask bank), so a
    caller can reject bad input before it opens an output; frames read from
    a StackReader are checked in one pass over the file, frame by frame.
    `blocks` computes the volume chunk by chunk, each chunk in pieces shared
    among `threads` workers. `shape` is the volume's (K, H, W).
    """

    def __init__(self, acq, masks, grid: ZGrid | None = None,
                 floor: float | None = None, threads: int = 1):
        _check_threads(threads)
        if grid is None:
            grid = getattr(masks, "grid", None) or acq.grid
        provider = _resolve_provider(acq, masks, grid)
        if floor is None:
            floor = default_floor(provider.base, provider.shift_count)
        if not (floor > 0):
            raise ValueError(f"floor must be > 0, got {floor}")
        frames = _as_frames(acq)
        _check_finite(frames)
        row_bank = getattr(provider, "row_bank", None)
        bank = row_bank() if row_bank is not None else None
        if bank is not None:
            n, _, w = frames.shape
            if bank.ndim != 3 or bank.shape[0] != n or bank.shape[2] != w:
                raise ValueError(f"mask bank shape {bank.shape} incompatible with frames {frames.shape}")
            if bank.shape[1] < grid.count:
                raise ValueError(f"mask bank has {bank.shape[1]} sections for a {grid.count}-section grid")
            bank = bank[:, :grid.count]
        self.grid = grid
        self.floor = float(floor)
        self.masks_source = provider.describe()
        self.shape = (grid.count,) + frames.shape[1:]
        self._frames = frames
        self._provider = provider
        self._bank = bank
        self._threads = threads

    def blocks(self):
        """Yield (r0, chunk): float64 (K, rows, W) row chunks of every section, from row r0.

        Chunks come top to bottom (the last one shorter), each computed only
        after the one before it was taken, from only its rows of the frames:
        STREAM_ROWS rows from the GEMM kernel, whole _GEMM_ROWS bands of at
        most _BAND_PIXELS pixels from the reference kernel. The next chunk
        may overwrite this one, so consume it first. One executor serves the
        whole stream and is shut down when the stream ends, is closed or
        raises.
        """
        _, h, w = self._frames.shape
        if self._bank is not None:
            rows, kernel = STREAM_ROWS, self._gemm_kernel()
        else:
            rows, kernel = self._section_rows(), self._section_kernel()
        rows = min(rows, h)
        sections = np.empty(self.shape[0] * rows * w, dtype=np.float64)
        pool = ThreadPoolExecutor(max_workers=self._threads) if self._threads > 1 else None
        try:
            for c0 in range(0, h, rows):
                c1 = min(c0 + rows, h)
                chunk = sections[:self.shape[0] * (c1 - c0) * w].reshape(-1, c1 - c0, w)
                kernel(pool, self._frames[:, c0:c1], c0, chunk)
                yield c0, chunk
        finally:
            if pool is not None:
                pool.shutdown(cancel_futures=True)

    def _gemm_kernel(self):
        # one batched matmul per _GEMM_ROWS row band of every chunk
        masks_x = np.ascontiguousarray(self._bank.transpose(2, 0, 1))     # (W, n, K)
        den_x = mask_coverage(masks_x.transpose(1, 0, 2))[:, None, :]     # (W, 1, K)
        den_x, uncovered_x = _floor_rule(den_x, self.floor)
        uncovered = uncovered_x.transpose(2, 1, 0)                         # (K, 1, W)

        def chunk(pool, frames, c0: int, sections):
            n, rows, w = frames.shape

            def band(b0: int):
                b1 = min(b0 + _GEMM_ROWS, rows)
                # column by column the same products, _GEMM_COLS columns at a time
                for x0 in range(0, w, _GEMM_COLS):
                    x1 = min(x0 + _GEMM_COLS, w)
                    obs = np.empty((x1 - x0, b1 - b0, n), dtype=np.float64)
                    # cast first: a contiguous float64 band transposes twice as fast
                    obs[...] = frames[:, b0:b1, x0:x1].astype(np.float64).transpose(2, 1, 0)
                    num = np.matmul(obs, masks_x[x0:x1])                  # (cols, rows, K)
                    num /= den_x[x0:x1]
                    block = sections[:, b0:b1, x0:x1]
                    block[...] = num.transpose(2, 1, 0)
                    np.copyto(block, SENTINEL, where=uncovered[:, :, x0:x1])

            _run(pool, band, range(0, rows, _GEMM_ROWS))

        return chunk

    def _section_rows(self) -> int:
        # whole GEMM bands of at most _BAND_PIXELS pixels, and at least
        # 2 * threads chunks down the frame, so that the workers' masks
        # together stay within half a section's (n, H, W) bank
        n, h, w = self._frames.shape
        bands = min(_BAND_PIXELS // (_GEMM_ROWS * w), h // (2 * self._threads * _GEMM_ROWS))
        return _GEMM_ROWS * max(1, bands)

    def _section_kernel(self):
        provider, floor, k = self._provider, self.floor, self.shape[0]

        def chunk(pool, frames, c0: int, sections):
            # one exact upcast per chunk, not one in each of the K * n
            # multiplies; each section's sums stay on one worker
            frames = frames.astype(np.float64, copy=False)
            rows = (c0, c0 + frames.shape[1])

            def section(z: int):
                sections[z] = reconstruct_section(frames, provider.section_masks(z, rows), floor)[0]

            _run(pool, section, range(k))

        return chunk


def _run(pool, work, items) -> None:
    if pool is None or len(items) < 2:
        for item in items:
            work(item)
    else:
        # reading every result re-raises a worker's exception here
        list(pool.map(work, items))


def reconstruct_volume(acq, masks, grid: ZGrid | None = None,
                       floor: float | None = None, threads: int = 1) -> VolumeStack:
    """Recover every section of the grid from one acquisition.

    masks may be a MaskModel, a mask provider (GeometryMasks / ModelMasks /
    PrecomputedMasks), or a sequence of per-section banks. A provider whose
    row_bank() returns an (n, K, W) bank takes the GEMM kernel; any other
    takes reconstruct_section once per section of every row chunk. Frames
    (an array, an AcquisitionSet or a StackReader) of any float dtype are
    read as float64; a NaN or an infinity in them raises ValueError. With
    threads > 1 each chunk's work is split among workers, and the result is
    bit-identical to the serial one. The volume is VolumeStream's row
    chunks, copied into one array.
    """
    stream = VolumeStream(acq, masks, grid, floor, threads)
    sections = np.empty(stream.shape, dtype=np.float64)
    for r0, chunk in stream.blocks():
        sections[:, r0:r0 + chunk.shape[1]] = chunk
    return VolumeStack(
        sections=sections,
        grid=stream.grid,
        coverage_floor_used=stream.floor,
        masks_source=stream.masks_source,
    )


def coverage_report(masks, floor: float | None = None) -> CoverageReport:
    """Exact per-pixel illumination denominators for every section.

    masks is a provider or a sequence of per-section banks. The ambiguity
    flag is carried over from the provider when it knows its geometry
    (True when the grid spans more shear than one slit period encodes).
    """
    if hasattr(masks, "section_masks"):
        provider = masks
    else:
        banks = list(masks)
        if not banks:
            raise ValueError("empty mask list")
        provider = PrecomputedMasks(banks, ZGrid(z0=0.0, z_step=1.0, count=len(banks)))
    if floor is None:
        floor = default_floor(provider.base, provider.shift_count)

    # row-compressed providers yield (1, W) planes; the statistics are
    # identical to the broadcast (H, W) form
    coverage = np.stack([mask_coverage(provider.section_masks(j))
                         for j in range(provider.grid.count)])
    return CoverageReport(
        coverage=coverage,
        floor=float(floor),
        min_coverage=float(coverage.min()),
        mean_coverage=float(coverage.mean()),
        sentinel_fraction=float(np.mean(coverage < floor)),
        ambiguous=getattr(provider, "ambiguous", None),
    )
