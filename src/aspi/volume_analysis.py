"""Axial response curves, FWHM measurement, and depth-map extraction.

The axial point spread function of the tilted-pattern rig at a pixel is the
cross-correlation between the imaged pattern and the virtual mask as the
mask slides with depth. For a slit of width w and a shear of s pixels per
section, that is the autocorrelation of a rectangle: a triangle whose full
width at half maximum spans w / s sections. `axial_psf` evaluates the sum
directly (no FFT) from the scan and the mask bank a reconstruction reads,
whose masks at the probe (`pixel_masks`) are its `section_masks` bit for
bit, in the order of its coverage sum (`mask_coverage`): the curve is the
reconstruction at the probe before it is normalised, equal to the
reconstructed response only where the coverage is the same at every section.

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

The depth map is computed a window of whole rows at a time,
sections[:, r0:r1] of about _WINDOW_VOXELS voxels over all the sections, so
a window's size does not grow with the section count. Every step is per
pixel, so a window's depth map is those rows of the volume's.
So a volume may also be a StackReader of a stack file (as `aspi depthmap`
passes it), which indexes like the array it stores: each window is then
read once into a new array, so each voxel is read once and the volume is
held a window at a time. Each question about a window is one reduction
over its sections, with no loop over them: the max of every value,
sentinels included, and the first section at it (see _first_pass; the
rare pixels whose max is at or below SENTINEL are resolved exactly
afterwards), then a masked max for each pixel's runner-up, and one gather
of the sections next to its best one for refinement. Besides one window,
one byte a voxel of it for ranks or offsets (two past 255 sections, four
past 32767), and its per-pixel temporaries, only the depth and the
confidence span the volume's pixels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CoverageError, DegenerateInputError, FwhmRangeError
from .rig import ZGrid
from .stack_io import SENTINEL, VolumeStack

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

# Voxels in a window of whole rows of every section: this // (K * W) rows,
# at least one: 2 MB of float32 values. Each pass is a few reductions over
# the whole window, so the size matters little; measured on 2 vCPUs, twice
# this ran 0-10% faster on 48- and 100-section volumes, and half of it
# 5-15% slower.
_WINDOW_VOXELS = 1 << 19


def predicted_fwhm_sections(linewidth_px: float, shear_px_per_section: float) -> float:
    """Rectangle-autocorrelation FWHM, in sections: linewidth / shear."""
    if linewidth_px <= 0 or shear_px_per_section <= 0:
        raise ValueError("linewidth and shear must be > 0")
    return linewidth_px / shear_px_per_section


def axial_psf(frames, masks, probe: tuple[int, int], floor: float | None = None) -> AxialCurve:
    """Axial response at a probe pixel: its reconstruction before normalisation, peak 1.

    frames and masks are reconstruct_volume's: an (n, H, W) scan and the
    TranslationMasks bank of its shape. Section z's response at probe (x, y)
    is sum_i frames[i, y, x] * M_iz(x, y), the voxel times its coverage, so
    it equals the reconstructed response only where the coverage is the same
    at every section. The probe must lie in the frame and be covered at or
    above the floor (the bank's default_floor unless given) at every
    section; a NaN or an infinity in its frame values is a ValueError.
    """
    # the mask code loads only with the PSF: `aspi depthmap` runs without it
    from .imaging_model import mask_coverage
    from .reconstructor import _as_frames, default_floor

    frames = _as_frames(frames, masks)
    px, py = probe
    if not (0 <= py < frames.shape[1] and 0 <= px < frames.shape[2]):
        raise ValueError(f"probe {probe} outside frame {frames.shape[:0:-1]}")
    m = masks.pixel_masks(px, py)  # (n, K): scan step i, section z
    o = np.asarray(frames[:, py:py + 1], dtype=np.float64)[:, 0, px]
    if not np.isfinite(o).all():
        raise ValueError(f"frames have non-finite values (NaN or Inf) at probe {probe}")
    if floor is None:
        floor = default_floor(masks.base, masks.shift_count)
    den = mask_coverage(m)
    low = np.flatnonzero(den < floor)
    if low.size:
        j = int(low[0])
        raise CoverageError(
            f"probe {probe} below coverage floor at section {j} ({den[j]:.3g} < {floor:.3g})"
        )
    response = mask_coverage(o[:, None] * m)
    peak = response.max()
    if peak <= 0:
        raise DegenerateInputError("probe response is identically zero")
    return AxialCurve(z=masks.grid.z_values(), response=response / peak)


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


def _first_pass(values) -> tuple[np.ndarray | None, np.ndarray | None, int]:
    """Each pixel's largest non-sentinel value and its section, and the non-finite count.

    values is an in-memory (K, pixels) window. The value is in its dtype,
    -inf if there is none; the section in the narrowest signed integer type
    that holds the last one, ties to the lower. When the window has a value
    that is not finite, only the count is returned, with two Nones.

    No operation is masked: the max of every value, sentinels included, and
    the first section at it. A max above SENTINEL is the largest
    non-sentinel value, since the sentinels lie below it. The rare pixels
    whose max is at or below SENTINEL then take the argmax of their
    non-sentinel values: -inf and section 0 where there is none.
    """
    k, n = values.shape
    nonfinite = values.size - np.count_nonzero(np.isfinite(values))
    if nonfinite:
        return None, None, nonfinite
    best = values.max(axis=0)
    # the first section at the max has the largest rank k - j of the
    # sections at it; one byte a voxel, two past 255 sections
    rank = np.equal(values, best, out=np.empty(values.shape, np.min_scalar_type(k)))
    rank *= np.arange(k, 0, -1, dtype=rank.dtype)[:, None]
    jbest = (k - rank.max(axis=0)).astype(np.min_scalar_type(-k))
    del rank  # freed before the per-pixel planes below
    # on a tie of +0.0 and -0.0, the earlier section's bits, as its section
    best = values[jbest, np.arange(n)]
    low = np.flatnonzero(best <= SENTINEL)
    if low.size:
        ranked = values[:, low]
        np.copyto(ranked, -np.inf, where=ranked == SENTINEL)
        j = ranked.argmax(axis=0)
        best[low] = ranked[j, np.arange(low.size)]
        jbest[low] = j
    return best, jbest, nonfinite


def _runner_up(values, jbest: np.ndarray, window: int) -> np.ndarray:
    """Each pixel's largest value more than window sections from jbest, or 0 when none is larger.

    A sentinel never is, and a negative runner-up gives a contrast of at
    least 1 as 0 does. Section j counts for the pixels whose jbest - j +
    window, taken as unsigned, exceeds 2 * window. The offsets are in
    jbest's dtype, which holds -k, so its unsigned view holds 2(k - 1) and
    a negative offset wraps exactly past 2 * window.
    """
    k = len(values)
    # no pixel has a section more than k - 1 away
    window = min(window, k - 1)
    offset = np.add(jbest, np.arange(window, window - k, -1, dtype=jbest.dtype)[:, None])
    # the flags overwrite the offsets they are read from, one byte each
    outside = np.greater(offset.view(f"u{offset.itemsize}"), 2 * window,
                         out=np.ndarray(offset.shape, bool, offset))
    return values.max(axis=0, where=outside, initial=0)


def _parabolic_offset(values, jbest: np.ndarray, peak: np.ndarray) -> np.ndarray:
    """The 3-point parabolic peak offset of pixels, in sections, within +-0.5.

    The fit takes the values in the sections before and after jbest and
    peak, the value at jbest in float64; pixels that are not interior
    concave peaks with non-sentinel neighbours get 0.
    """
    k, n = values.shape
    cols = np.arange(n)
    # the neighbours, clamped to the volume; a pixel at either end gets 0 below
    rm = values[np.maximum(jbest, 1) - 1, cols]
    rp = values[np.minimum(jbest, k - 2) + 1, cols]
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


def _window_depth(values, grid: ZGrid, min_confidence, refine: bool, window: int,
                  depth: np.ndarray, confidence: np.ndarray) -> int:
    """Write a (K, pixels) window's depths and peaks to depth and confidence, as extract_depth_map.

    Returns the window's count of non-finite values; when it has one,
    nothing is written.
    """
    best, jbest, nonfinite = _first_pass(values)
    if nonfinite:
        return nonfinite
    peak = best.astype(np.float64)
    if min_confidence is not None:
        keep = peak >= min_confidence
    else:
        positive = peak > 0
        share = np.subtract(peak, _runner_up(values, jbest, window))
        np.divide(share, peak, out=share, where=positive)
        keep = positive & (share >= CONTRAST_TAU)
    # z0 + depth_sections * z_step where kept, NaN elsewhere
    np.copyto(depth, jbest)
    if refine:
        depth += _parabolic_offset(values, jbest, peak)
    depth *= grid.z_step
    depth += grid.z0
    np.copyto(depth, np.nan, where=~keep)
    # the peak, 0 where every section is a sentinel
    np.copyto(confidence, peak)
    np.copyto(confidence, 0.0, where=peak == -np.inf)
    return 0


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
    and a negative window; a volume with no pixels raises
    DegenerateInputError.
    """
    if min_confidence is not None and not math.isfinite(min_confidence):
        raise ValueError(f"min_confidence must be finite, got {min_confidence}")
    if window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    data = volume.sections
    grid = volume.grid
    k, h, w = data.shape
    if h * w == 0:
        raise DegenerateInputError(f"volume has no pixels: its sections are {h}x{w}")
    depth = np.empty(h * w)
    confidence = np.empty(h * w)
    rows = max(1, _WINDOW_VOXELS // (k * w))
    nonfinite = 0
    for r0 in range(0, h, rows):
        # the window, a view of an array or a new array read from a file, is
        # passed and not kept: it is freed before the next one is read
        out = slice(r0 * w, min(r0 + rows, h) * w)
        nonfinite += _window_depth(data[:, r0:r0 + rows].reshape(k, -1), grid, min_confidence,
                                   refine, window, depth[out], confidence[out])
    if nonfinite:
        raise ValueError(f"volume has {nonfinite} non-finite voxels (NaN or Inf)")
    return DepthMap(depth=depth.reshape(h, w), confidence=confidence.reshape(h, w), grid=grid)
