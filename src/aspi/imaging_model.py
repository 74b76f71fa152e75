"""Slit-array pattern geometry and virtual-mask synthesis.

A periodic slit-array pattern is projected at a tilt angle with respect to
the detection axis, so the pattern seen by the camera slides laterally as a
function of depth. Everything downstream (simulation, calibration, and the
confocal reconstruction) is built on the two primitives in this module:
generating the pattern at a given lateral scan position, and translating a
mask image by the sub-pixel amount that corresponds to a given (scan, depth)
pair. The slits are constant along their length, so the camera sees one
row-constant pattern: the projector's slit row, resampled once onto the
camera plane (base_camera_pattern). TranslationMasks combines the two
primitives into the one bank of (scan, depth) masks, each the base shifted;
GeometryMasks, which the simulator and the reconstructor read, and
calibrated models are that bank with rig-derived or fitted steps.

Conventions
-----------
* Images ("frames") are 2D float64 arrays indexed [row, column] = [y, x].
* Increasing depth section shifts the mask toward +x by default; the sign is
  configurable through ``GeometryConfig.shift_sign``.
* Content shifted in from outside the frame is zero (a pattern leaving the
  field of view goes dark, it does not wrap).
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyMaskError

# the rig's values live in their own small module, which `aspi depthmap`
# loads without this one; they stay importable from here
from .rig import (
    GeometryConfig,
    PatternSpec,
    ZGrid,
    axial_range,
    camera_period_px,
    camera_shape,
    is_axially_ambiguous,
)

__all__ = [
    "PatternSpec",
    "GeometryConfig",
    "ZGrid",
    "validate_frame",
    "sample_row",
    "shift_image",
    "make_slit_pattern",
    "axial_range",
    "synthesize_mask",
    "threshold_mask",
    "is_axially_ambiguous",
    "camera_shape",
    "base_camera_pattern",
    "mask_coverage",
    "TranslationMasks",
    "GeometryMasks",
]


def validate_frame(frame, name: str = "frame") -> np.ndarray:
    """Coerce to a float64 2D intensity image and check basic sanity.

    Raises ValueError if the array is not 2D with positive dimensions, or
    contains negative or non-finite values.
    """
    a = np.asarray(frame, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"{name} must be a 2D image, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite values")
    if a.min() < 0:
        raise ValueError(f"{name} contains negative intensities")
    return a


def _lerp(positions, n: int):
    """Clipped source indices i0, i1 and weights w0, w1 of n samples at real positions.

    A weight is 0 where its index falls outside [0, n): zero outside.
    """
    pos = np.asarray(positions, dtype=np.float64)
    i0 = np.floor(pos).astype(np.int64)
    frac = pos - i0
    i1 = i0 + 1
    w0 = np.where((i0 >= 0) & (i0 < n), 1.0 - frac, 0.0)
    w1 = np.where((i1 >= 0) & (i1 < n), frac, 0.0)
    return np.clip(i0, 0, n - 1), np.clip(i1, 0, n - 1), w0, w1


def _interpolate(a, i0, i1, w0, w1, axis: int, out=None) -> np.ndarray:
    """w0 * a[i0] + w1 * a[i1] along axis, into out if given: the one interpolation kernel."""
    out = np.take(a, i0, axis=axis, out=out, mode="clip")
    out *= w0
    v1 = np.take(a, i1, axis=axis, mode="clip")
    v1 *= w1
    out += v1
    return out


def sample_row(row: np.ndarray, positions) -> np.ndarray:
    """Linearly interpolate a 1D signal at real-valued positions, zero outside.

    Shifted masks (shift_image, TranslationMasks) and point probes of the
    same mask all go through _interpolate, so they agree bit for bit at
    integer positions and to rounding at fractional ones.
    """
    row = np.asarray(row, dtype=np.float64)
    return _interpolate(row, *_lerp(positions, row.shape[-1]), axis=-1)


def _translate_rows(a: np.ndarray, dx, dy, rows: tuple[int, int]) -> np.ndarray:
    """Rows r0:r1 of `a` moved by (dx[i], dy[i]) for each i: an (len(dx), r1 - r0, W) array.

    Each copy moves along x, then along y; a zero shift copies instead of
    interpolating. Only the source rows the window reads move along x.
    """
    h, w = a.shape
    r0, r1 = rows
    x0, x1, xw0, xw1 = _lerp(np.arange(w, dtype=np.float64) - dx[:, None], w)
    y0, y1, yw0, yw1 = _lerp(np.arange(r0, r1, dtype=np.float64) - dy[:, None], h)
    out = np.empty((len(dx), r1 - r0, w), dtype=np.float64)
    for i in range(len(dx)):
        # clipped indices do not decrease, so a window moved along y reads rows lo:hi
        lo, hi = (r0, r1) if dy[i] == 0.0 else (y0[i, 0], y1[i, -1] + 1)
        src = a[lo:hi] if dx[i] == 0.0 else _interpolate(a[lo:hi], x0[i], x1[i], xw0[i], xw1[i], 1)
        if dy[i] == 0.0:
            out[i] = src
        else:
            _interpolate(src, y0[i] - lo, y1[i] - lo, yw0[i, :, None], yw1[i, :, None], 0, out[i])
    return out


def shift_image(frame, dx: float, dy: float = 0.0) -> np.ndarray:
    """Translate an image by (dx, dy) with separable linear interpolation.

    out(y, x) = in(y - dy, x - dx); samples falling outside the input are
    zero. Integer shifts reproduce an exact column/row displacement with
    zero fill, with no interpolation error.
    """
    a = np.asarray(frame, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2D image, got shape {a.shape}")
    return _translate_rows(a, np.array([dx], dtype=np.float64),
                           np.array([dy], dtype=np.float64), (0, a.shape[0]))[0]


def make_slit_pattern(spec: PatternSpec, shift_index: int) -> np.ndarray:
    """Binary slit-array pattern at the given lateral scan position.

    Column c is lit iff ((c - shift_index*shift_step) mod period_d) is less
    than linewidth_w; all rows are identical.
    """
    if not (0 <= shift_index < spec.num_shifts_n):
        raise ValueError(
            f"shift_index {shift_index} out of range [0, {spec.num_shifts_n})"
        )
    cols = np.arange(spec.proj_width, dtype=np.int64)
    on = ((cols - shift_index * spec.shift_step) % spec.period_d) < spec.linewidth_w
    row = on.astype(np.float64)
    return np.broadcast_to(row, (spec.proj_height, spec.proj_width)).copy()


def synthesize_mask(
    base,
    x_shift: float,
    z_index: int,
    geom: GeometryConfig,
    grid: ZGrid,
) -> np.ndarray:
    """Virtual confocal mask at lateral shift x_shift and depth section z_index.

    The base mask is taken to live at section 0 of the grid; the output is
    the base translated along x by x_shift + z_index * shear (signed).
    Sub-pixel amounts use linear interpolation and content entering from
    outside the frame is zero.
    """
    a = np.asarray(base, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"base must be 2D, got shape {a.shape}")
    if not (0 <= z_index < grid.count):
        raise ValueError(f"z_index {z_index} out of range [0, {grid.count})")
    total = float(x_shift) + z_index * geom.signed_shear
    return shift_image(a, total)


# columns brighter than this fraction of the profile's peak belong to a slit
_BACKGROUND_FRAC = 0.1


def threshold_mask(mask) -> np.ndarray:
    """Reduce each slit of a mask to its single brightest column.

    Slits are located as connected runs of columns whose mean intensity
    exceeds _BACKGROUND_FRAC times the peak of the column profile; within
    each run only the column of maximum mean intensity is kept (ties go to
    the lower column index), and that column is set to 1 over the full
    frame height. Idempotent on its own output.
    """
    a = validate_frame(mask, "mask")
    profile = a.mean(axis=0)
    peak = profile.max()
    if peak <= 0.0:
        raise EmptyMaskError("mask has no column with positive energy")
    above = profile > _BACKGROUND_FRAC * peak
    out = np.zeros_like(a)
    w = a.shape[1]
    c = 0
    while c < w:
        if not above[c]:
            c += 1
            continue
        run_start = c
        while c < w and above[c]:
            c += 1
        best = run_start + int(np.argmax(profile[run_start:c]))
        out[:, best] = 1.0
    return out


def base_camera_pattern(spec: PatternSpec, geom: GeometryConfig) -> np.ndarray:
    """Unshifted slit row resampled once onto the camera plane, copied to every row.

    Camera column c samples projector column c / magnification with linear
    weights; samples past the last column clamp to it. The pattern is
    constant along the slits, so the base is row-constant at any magnification.
    """
    row = make_slit_pattern(spec, 0)[0]
    shape = camera_shape(spec, geom)
    pos = np.arange(shape[1], dtype=np.float64) / geom.magnification
    i0 = np.clip(np.floor(pos).astype(np.int64), 0, row.size - 1)
    frac = pos - i0
    row = _interpolate(row, i0, np.clip(i0 + 1, 0, row.size - 1), 1 - frac, frac, axis=-1)
    return np.broadcast_to(row, shape).copy()


def mask_coverage(bank) -> np.ndarray:
    """Sum of an (n, ...) mask bank over its scan axis, in scan order i = 0..n-1."""
    den = np.zeros(np.shape(bank)[1:], dtype=np.float64)
    for mask in bank:
        den += mask
    return den


class TranslationMasks:
    """Bank of masks: at scan step i and section z, the base moved by i * step + z * shear.

    step and shear are (dx, dy) in camera pixels, applied with shift_image's
    arithmetic. A row-constant base moved only along x is kept as one row,
    whose (n, 1, W) masks broadcast to exactly the full (n, H, W) ones;
    `base` is then that row broadcast to the base's shape (read-only). A base
    with NaN or Inf pixels is a ValueError.
    """

    ambiguous = None

    def __init__(self, base, step, shear, shift_count: int, grid: ZGrid):
        self.base = b = np.asarray(base, dtype=np.float64)
        bad = b.size - int(np.count_nonzero(np.isfinite(b)))
        if bad:
            raise ValueError(f"mask base has {bad} non-finite pixels (NaN or Inf)")
        self.grid = grid
        self.shift_count = shift_count
        i = np.arange(shift_count, dtype=np.float64)
        self._steps = (i * step[0], i * step[1])
        self._shear = shear
        row_constant = np.array_equal(b, np.broadcast_to(b[:1], b.shape))
        self._row = b[0].copy() if step[1] == shear[1] == 0.0 and row_constant else None
        if self._row is not None:
            self.base = np.broadcast_to(self._row, b.shape)

    def section_masks(self, z_index: int, rows: tuple[int, int] | None = None) -> np.ndarray:
        """(n, 1, W) or (n, H, W) bank of every scan step's mask at section z_index.

        rows=(r0, r1) builds only those rows of an (n, H, W) bank, bit for bit;
        an (n, 1, W) bank, which broadcasts to any rows, comes whole.
        """
        if not (0 <= z_index < self.grid.count):
            raise ValueError(f"z_index {z_index} out of range [0, {self.grid.count})")
        dx = self._steps[0] + z_index * self._shear[0]
        if self._row is not None:
            positions = np.arange(self._row.size, dtype=np.float64) - dx[:, None]
            return sample_row(self._row, positions)[:, None, :]
        dy = self._steps[1] + z_index * self._shear[1]
        return _translate_rows(self.base, dx, dy, rows or (0, self.base.shape[0]))

    def row_bank(self, out: np.ndarray | None = None) -> np.ndarray | None:
        """(n, K, W) masks of every step and section; None unless kept as one row.

        A view of (W, n, K) storage, the GEMM kernel's layout: `out` when
        given (a float64 array of that shape, or a view of one, such as the
        first n rows of a larger bank), else new storage on every call. It
        is filled in blocks of whole columns, each at most one section's
        n * W values (one column at least), with section_masks' arithmetic.
        Without a row, out is left untouched.
        """
        if self._row is None:
            return None
        w, n, k = self._row.size, self.shift_count, self.grid.count
        # dx[i, z], as section_masks(z) computes it for every step i
        dx = self._steps[0][:, None] + np.arange(k) * self._shear[0]
        store = np.empty((w, n, k), dtype=np.float64) if out is None else out
        cols = max(1, w // k)
        for x0 in range(0, w, cols):
            positions = np.arange(x0, min(x0 + cols, w), dtype=np.float64)[:, None, None] - dx
            _interpolate(self._row, *_lerp(positions, w), axis=-1, out=store[x0:x0 + cols])
        return store.transpose(1, 2, 0)

    def describe(self) -> str:
        return "translation"


class GeometryMasks(TranslationMasks):
    """Bank of geometric masks, shared by the simulator and the reconstructor.

    The camera-plane pattern moves along x by step * magnification per scan
    step and by the signed shear per section, as synthesize_mask computes.
    Set threshold=True to reduce the base to 1-pixel slits first.
    """

    def __init__(self, spec: PatternSpec, geom: GeometryConfig, grid: ZGrid,
                 base=None, threshold: bool = False):
        self.spec = spec
        self.geom = geom
        base = base_camera_pattern(spec, geom) if base is None else base
        if threshold:
            base = threshold_mask(base)
        super().__init__(base, (spec.shift_step * geom.magnification, 0.0),
                         (geom.signed_shear, 0.0), spec.num_shifts_n, grid)
        self._thresholded = threshold

    @property
    def ambiguous(self) -> bool:
        return is_axially_ambiguous(self.spec, self.geom, self.grid)

    def describe(self) -> str:
        kind = "thresholded" if self._thresholded else "grayscale"
        return f"geometry({kind})"
