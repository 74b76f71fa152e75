"""Axial response curves, FWHM measurement, and depth-map extraction.

The axial point spread function of the tilted-pattern rig at a pixel is the
cross-correlation between the imaged pattern and the virtual mask as the
mask slides with depth. For a slit of width w and a shear of s pixels per
section, that is the autocorrelation of a rectangle: a triangle whose full
width at half maximum spans w / s sections. `axial_psf` evaluates the sum
directly (no FFT): it samples the mask once at every (scan step, section)
position with the reconstruction's interpolation kernel and sums over the
scan with its coverage sum, `mask_coverage` (float64, i ascending), so the
curve matches a reconstructed single-layer response to rounding error after
peak normalization.

Depth maps take the per-pixel argmax of the reconstructed sections (ties to
the lower section) with an optional 3-point parabolic refinement between
sections. The depth sentinel is NaN: depth values in z units may
legitimately be negative, so the volume's -1.0 sentinel cannot double here.
A depth is valid by default when one peak dominates the pixel's response,
by the primary-peak ratio used to judge cross-correlation peaks (Charonko
& Vlachos, Meas. Sci. Technol. 24:065301, 2013; see extract_depth_map):
folded aliases as strong as the peak fail it, and it needs no volume-wide
level, which haze cancellation can push below zero.

Volumes are read in their stored dtype, float32 (as read from a stack file)
or float64 (as reconstructed in-process), and never copied whole to
float64. Every value that enters arithmetic is widened to float64 first,
which is exact, so both dtypes of the same volume give the same depth map
bit for bit. A volume with a NaN or an infinity is rejected.

The depth map walks the volume in at most two passes over runs of
sections, each run sections[j:j + step]. So a volume may also be a
StackReader of a stack file (as `aspi depthmap` passes it), which indexes
like the array it stores: it is then read run by run into new arrays,
never held whole, and the passes hold no read buffer. The first pass is
the running argmax: a plain running max over every value, sentinels
included, walked a cache-sized strip of _RUN_VOXELS pixels of each plane
at a time with no masked copy, so that its cost per voxel does not depend
on how many pixels rise at each section; the rare pixels whose max is at
or below SENTINEL are resolved exactly at the end (see _first_pass). The
second keeps each pixel's runner-up and gathers its neighbouring sections
for refinement. Besides one run (two while the next is read) they hold
per-pixel planes: the best value and the runner-up in the stored dtype,
the best section (in the narrowest integer type that holds the last
one), the first pass's flag of a non-sentinel value, the neighbours, the
pixels' order by best section and which lie outside the window; then the
validity flags, the depth and the confidence. The first pass's
temporaries are strips; float64 temporaries come in blocks of rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CoverageError, DegenerateInputError, FwhmRangeError
from .imaging_model import GeometryConfig, PatternSpec, ZGrid, mask_coverage, sample_row
from .reconstructor import SENTINEL, VolumeStack, default_floor

__all__ = [
    "AxialCurve",
    "DepthMap",
    "axial_psf",
    "fwhm",
    "predicted_fwhm_sections",
    "CONTRAST_TAU",
    "contrast_window",
    "extract_depth_map",
]


@dataclass(frozen=True)
class AxialCurve:
    """Response versus depth."""

    z: np.ndarray
    response: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z, dtype=np.float64)
        r = np.asarray(self.response, dtype=np.float64)
        if z.ndim != 1 or z.shape != r.shape:
            raise ValueError("z and response must be 1D arrays of equal length")
        if z.size > 1 and not np.all(np.diff(z) > 0):
            raise ValueError("z values must be strictly increasing")
        if r.min() < 0:
            raise ValueError("responses must be >= 0")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "response", r)


@dataclass(frozen=True)
class DepthMap:
    """Per-pixel recovered depth (NaN where undetermined) and peak intensity."""

    depth: np.ndarray
    confidence: np.ndarray
    grid: ZGrid


# A pixel's depth is valid under the contrast rule when its peak exceeds
# the runner-up outside the peak's own window by at least this share of it.
CONTRAST_TAU = 0.25

# Voxels per run of sections in the passes over a volume: bounded memory.
# The first pass walks each plane in strips of as many pixels, small enough
# to stay in cache, and the float64 temporaries after the passes come in
# blocks of whole rows of about as many.
_RUN_VOXELS = 1 << 16


def predicted_fwhm_sections(linewidth_px: float, shear_px_per_section: float) -> float:
    """Rectangle-autocorrelation FWHM, in sections: linewidth / shear."""
    if linewidth_px <= 0 or shear_px_per_section <= 0:
        raise ValueError("linewidth and shear must be > 0")
    return linewidth_px / shear_px_per_section


def axial_psf(
    base_pattern,
    base_mask,
    spec: PatternSpec,
    geom: GeometryConfig,
    grid: ZGrid,
    probe: tuple[int, int],
    floor: float | None = None,
) -> AxialCurve:
    """Axial response at a probe pixel by direct summation over the scan.

    base_pattern is the camera image of the pattern on the object
    (the first acquired frame); base_mask is the virtual mask at section 0.
    For each section the mask is slid by the shear and correlated with the
    pattern over all scan steps at the probe pixel only. The probe must be
    illuminated above the coverage floor at every section. The curve is
    normalized to peak 1.
    """
    o = np.asarray(base_pattern, dtype=np.float64)
    m = np.asarray(base_mask, dtype=np.float64)
    if o.ndim != 2 or m.ndim != 2:
        raise ValueError("base_pattern and base_mask must be 2D")
    px, py = probe
    if not (0 <= py < o.shape[0] and 0 <= px < o.shape[1]):
        raise ValueError(f"probe {probe} outside frame {o.shape[::-1]}")
    if floor is None:
        floor = default_floor(m, spec.num_shifts_n)

    o_row = o[py]
    m_row = m[py % m.shape[0]]
    step_px = spec.shift_step * geom.magnification
    shear = geom.signed_shear
    scan = np.arange(spec.num_shifts_n, dtype=np.float64) * step_px

    o_vals = sample_row(o_row, px - scan)
    # (n, K): scan step i, section j
    m_vals = sample_row(m_row, px - scan[:, None] - np.arange(grid.count) * shear)
    den = mask_coverage(m_vals)
    low = np.flatnonzero(den < floor)
    if low.size:
        j = int(low[0])
        raise CoverageError(
            f"probe {probe} below coverage floor at section {j} ({den[j]:.3g} < {floor:.3g})"
        )
    response = mask_coverage(o_vals[:, None] * m_vals)
    peak = response.max()
    if peak <= 0:
        raise DegenerateInputError("probe response is identically zero")
    return AxialCurve(z=grid.z_values(), response=response / peak)


def fwhm(curve: AxialCurve) -> float:
    """Full width at half maximum, crossings located by linear interpolation.

    The half level is half the global maximum. If the maximum is a plateau,
    the outermost crossings are used. Raises FwhmRangeError when either
    flank never falls below the half level inside the sampled range.
    """
    r = curve.response
    z = curve.z
    if r.size < 3:
        raise FwhmRangeError("curve too short to bracket half-maximum crossings")
    peak = float(r.max())
    if peak <= 0:
        raise ValueError("curve has no positive response")
    half = peak / 2.0
    peak_idx = np.flatnonzero(r == peak)
    left_peak, right_peak = int(peak_idx[0]), int(peak_idx[-1])

    i = left_peak
    while i > 0 and r[i - 1] >= half:
        i -= 1
    if i == 0:
        raise FwhmRangeError("left half-maximum crossing outside sampled range")
    z_left = z[i - 1] + (half - r[i - 1]) / (r[i] - r[i - 1]) * (z[i] - z[i - 1])

    i = right_peak
    last = r.size - 1
    while i < last and r[i + 1] >= half:
        i += 1
    if i == last:
        raise FwhmRangeError("right half-maximum crossing outside sampled range")
    z_right = z[i] + (r[i] - half) / (r[i] - r[i + 1]) * (z[i + 1] - z[i])
    return float(z_right - z_left)


def _planes(sections):
    """The sections of a (K, H, W) array or StackReader, in order, read in runs."""
    step = max(1, _RUN_VOXELS // max(1, math.prod(sections.shape[1:])))
    for j in range(0, sections.shape[0], step):
        yield from sections[j:j + step]


def _strips(size: int):
    """Slices of a flat plane of size pixels, _RUN_VOXELS at a time."""
    for s0 in range(0, size, _RUN_VOXELS):
        yield slice(s0, min(s0 + _RUN_VOXELS, size))


def _first_pass(sections) -> tuple[np.ndarray, np.ndarray]:
    """Each pixel's largest non-sentinel value and its section, in one pass.

    The value is in the stored dtype, -inf if there is none; the section in
    the narrowest signed integer type that holds the last one, ties to the
    lower. A NaN or an infinity raises ValueError naming the count.

    Each plane is walked in strips of _RUN_VOXELS pixels, small enough that
    a strip of the plane and of the running planes stays in cache across
    its few whole-strip operations, none of them masked: a running max over
    every value, sentinels included, the section of each strict rise, and
    whether the pixel has any non-sentinel value. A running max above
    SENTINEL is the largest non-sentinel value, first reached at that
    section, since the sentinels lie below it. The pixels whose max is at
    or below SENTINEL are resolved exactly afterwards: -inf and section 0
    where every value is a sentinel, else the argmax of their non-sentinel
    values, read again from their own rows.
    """
    k = sections.shape[0]
    best = np.full(sections.shape[1:], -np.inf, dtype=sections.dtype)
    jbest = np.zeros(sections.shape[1:], dtype=np.min_scalar_type(-k))
    seen = np.zeros(sections.shape[1:], dtype=bool)
    flat_best, flat_jbest, flat_seen = best.reshape(-1), jbest.reshape(-1), seen.reshape(-1)
    strip = min(_RUN_VOXELS, best.size)
    better = np.empty(strip, dtype=bool)
    flags = np.empty_like(better)
    rise = np.empty(strip, dtype=jbest.dtype)
    nonfinite = 0
    for j, plane in enumerate(_planes(sections)):
        values = plane.reshape(-1)
        section = jbest.dtype.type(j)
        for s in _strips(values.size):
            v, b, jb = values[s], flat_best[s], flat_jbest[s]
            n = v.size
            nonfinite += n - np.count_nonzero(np.isfinite(v, out=flags[:n]))
            # strict: a tie keeps the lower section
            np.greater(v, b, out=better[:n])
            # on a tie of zeros of opposite sign np.maximum returns its
            # second operand: the earlier section's bits stay, as its section does
            np.maximum(v, b, out=b)
            # the section where the max rose, else 0: sections only grow,
            # so the running max of that is the section of the last rise
            np.maximum(jb, np.multiply(better[:n], section, out=rise[:n]), out=jb)
            flat_seen[s] |= np.not_equal(v, SENTINEL, out=flags[:n])
    if nonfinite:
        raise ValueError(f"volume has {nonfinite} non-finite voxels (NaN or Inf)")
    _resolve_at_or_below_sentinel(sections, best, jbest, seen)
    return best, jbest


def _resolve_at_or_below_sentinel(sections, best, jbest, seen) -> None:
    """Give the pixels whose running max is at or below SENTINEL the first pass's result.

    A pixel with no non-sentinel value gets -inf and section 0. Any other
    has only values below SENTINEL besides its sentinels: it gets the
    largest of those and its first section, from its row of every section,
    read again. Both are rare; they are found a strip at a time.
    """
    w = best.shape[1]
    flat_best, flat_jbest, flat_seen = best.reshape(-1), jbest.reshape(-1), seen.reshape(-1)
    for s in _strips(flat_best.size):
        low = flat_best[s] <= SENTINEL
        if not low.any():
            continue
        none = low & ~flat_seen[s]
        flat_best[s][none] = -np.inf
        flat_jbest[s][none] = 0
        pixels = s.start + np.flatnonzero(low & flat_seen[s])
        if not pixels.size:
            continue
        # row by row, split where the row changes (np.unique imports numpy.ma)
        for row in np.split(pixels, np.flatnonzero(np.diff(pixels // w)) + 1):
            y, x = row[0] // w, row % w
            values = sections[:, y:y + 1][:, 0, x]
            j = np.where(values != SENTINEL, values, -np.inf).argmax(axis=0)
            best[y, x] = values[j, np.arange(x.size)]
            jbest[y, x] = j


def _second_pass(sections, jbest: np.ndarray, window: int | None, refine: bool):
    """Each pixel's runner-up and neighbours, as planes in the stored dtype, or None.

    The runner-up (when window is not None) is the largest value more than
    window sections from jbest, or 0 when none is larger: a sentinel never
    is, and a negative runner-up gives a contrast of at least 1 as 0 does.
    The neighbours (when refine) are the values in the sections before and
    after jbest, 0 where there is none. The pixels are grouped by jbest
    once; section j then gives its values to the pixels whose best section
    is j + 1 and j - 1, and to those outside the window, a set that gains
    one group and loses another per section.
    """
    k = sections.shape[0]
    flat = jbest.reshape(-1)
    # a stable sort of 8- or 16-bit keys is a radix sort
    order = np.argsort(flat, kind="stable")
    # where each section's run of sorted keys starts, found in the keys' own type
    starts = np.append(np.searchsorted(flat[order], np.arange(k, dtype=flat.dtype)), flat.size)
    group = [order[starts[j]:starts[j + 1]] for j in range(k)]
    runner = outside = rm = rp = None
    if window is not None:
        # no pixel has a section more than k - 1 away; jbest's type holds k - 1
        window = min(window, k - 1)
        runner = np.zeros(flat.size, dtype=sections.dtype)
        outside = flat > window
    if refine:
        rm = np.zeros(flat.size, dtype=sections.dtype)
        rp = np.zeros_like(rm)
    for j, plane in enumerate(_planes(sections)):
        values = plane.reshape(-1)
        if runner is not None:
            # outside: best section below j - window or above j + window
            if 0 < j and j + window < k:
                outside[group[j + window]] = False
            if j > window:
                outside[group[j - window - 1]] = True
            np.maximum(runner, values, out=runner, where=outside)
        if refine:
            if j + 1 < k:
                rm[group[j + 1]] = values[group[j + 1]]
            if j > 0:
                rp[group[j - 1]] = values[group[j - 1]]
    return tuple(None if a is None else a.reshape(jbest.shape) for a in (runner, rm, rp))


def _kept(best: np.ndarray, runner, min_confidence) -> np.ndarray:
    """Which pixels' depths are valid by extract_depth_map's rule, in float64 blocks of rows."""
    keep = np.empty(best.shape, dtype=bool)
    for block in _row_blocks(best.shape):
        peak = best[block].astype(np.float64)
        if min_confidence is not None:
            np.greater_equal(peak, min_confidence, out=keep[block])
            continue
        positive = peak > 0
        share = np.subtract(peak, runner[block])
        np.divide(share, peak, out=share, where=positive)
        np.logical_and(positive, share >= CONTRAST_TAU, out=keep[block])
    return keep


def _row_blocks(shape):
    """Blocks of whole rows of a plane of about _RUN_VOXELS pixels."""
    rows = max(1, _RUN_VOXELS // max(1, shape[1]))
    for r0 in range(0, shape[0], rows):
        yield slice(r0, r0 + rows)


def _parabolic_offset(rm, rp, peak, jbest, k: int) -> np.ndarray:
    """The 3-point parabolic peak offset of pixels, in sections, within +-0.5.

    rm and rp are the values in the sections before and after jbest, peak
    the value at jbest in float64 (wherever jbest is interior, the best
    section's value); pixels that are not interior concave peaks with valid
    neighbours get 0.
    """
    interior = (jbest > 0) & (jbest < k - 1) & (rm != SENTINEL) & (rp != SENTINEL)
    # widen before any arithmetic: float32 planes would keep it float32
    rm, rp = rm.astype(np.float64), rp.astype(np.float64)
    # in place, in the order of rm - 2.0 * peak + rp, then of
    # where(interior & concave, 0.5 * (rm - rp) / safe, 0.0)
    safe = np.multiply(peak, 2.0)
    np.subtract(rm, safe, out=safe)
    safe += rp
    concave = safe < 0
    np.copyto(safe, -1.0, where=~concave)
    delta = np.subtract(rm, rp, out=rm)
    delta *= 0.5
    delta /= safe
    np.copyto(delta, 0.0, where=~(interior & concave))
    return np.clip(delta, -0.5, 0.5, out=delta)


def contrast_window(linewidth_px: float, shear_px_per_section: float) -> int:
    """The contrast rule's window h: the predicted FWHM in sections, rounded up.

    The width is first rounded to 1e-9 sections, so that a width that is an
    integer but for rounding (2.0000000000000004 for a slit of 2 px at a
    shear of 1 px per section) stays that integer.
    """
    return math.ceil(round(predicted_fwhm_sections(linewidth_px, shear_px_per_section), 9))


def extract_depth_map(
    volume: VolumeStack,
    min_confidence: float | None = None,
    refine: bool = False,
    window: int = 1,
) -> DepthMap:
    """Per-pixel depth of the strongest section response.

    Sentinel-valued entries are skipped; argmax ties break toward lower z.
    By default a depth is valid when the peak is positive and its contrast
    (peak - runner_up) / peak is at least CONTRAST_TAU. The runner-up is
    the pixel's largest value more than `window` sections from its best
    section, 0 when there is none; `window` is the half-width of one peak's
    own response, contrast_window of the rig. An explicit min_confidence is
    an absolute floor on the peak instead. Pixels that are not valid get a
    NaN depth but keep their peak as confidence. With refine=True, interior
    peaks with valid neighbors are sharpened by a 3-point parabolic fit
    across adjacent sections. A NaN or an infinity in the volume raises
    ValueError naming the count, as do a min_confidence that is not finite
    and a negative window.
    """
    if min_confidence is not None and not math.isfinite(min_confidence):
        raise ValueError(f"min_confidence must be finite, got {min_confidence}")
    if window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    data = volume.sections
    grid = volume.grid
    k = data.shape[0]
    best, jbest = _first_pass(data)
    contrast = min_confidence is None
    runner, rm, rp = (_second_pass(data, jbest, window if contrast else None, refine)
                      if contrast or refine else (None, None, None))
    keep = _kept(best, runner, min_confidence)
    del runner
    # z0 + depth_sections * z_step where kept, NaN elsewhere
    depth = jbest.astype(np.float64)
    for block in _row_blocks(depth.shape) if refine else ():
        depth[block] += _parabolic_offset(rm[block], rp[block], best[block].astype(np.float64),
                                          jbest[block], k)
    del rm, rp, jbest
    depth *= grid.z_step
    depth += grid.z0
    np.copyto(depth, np.nan, where=~keep)
    # the peak, 0 where every section is a sentinel
    confidence = best.astype(np.float64)
    np.copyto(confidence, 0.0, where=confidence == -np.inf)
    return DepthMap(depth=depth, confidence=confidence, grid=grid)
