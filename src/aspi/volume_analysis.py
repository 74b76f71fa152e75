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

Volumes are read in their stored dtype, float32 (as read from a stack file)
or float64 (as reconstructed in-process), and never copied whole to
float64. Every value that enters arithmetic is widened to float64 first,
which is exact, so both dtypes of the same volume give the same depth map
bit for bit. A volume with a NaN or an infinity is rejected.
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
    "estimate_background",
    "extract_depth_map",
]


@dataclass(frozen=True)
class AxialCurve:
    """Response versus depth, optionally normalized to peak 1."""

    z: np.ndarray
    response: np.ndarray
    normalized: bool = False

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


# Bins of the background histogram: the top 16 bits of a value's key.
_KEY_BINS = 1 << 16

# Voxels per run of sections in the background passes: bounded memory, and
# few 65536-bin histograms when sections are small.
_BACKGROUND_RUN = 1 << 16


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
    return AxialCurve(z=grid.z_values(), response=response / peak, normalized=True)


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


def estimate_background(sections: np.ndarray) -> float:
    """Mean of the lowest-decile non-sentinel intensities of a volume.

    The decile is np.percentile's linear one and the mean is taken over the
    low values in C order as float64, so the result has the bits of the
    float64 computation whatever the stored dtype. Values must be finite
    (extract_depth_map checks).

    The decile is selected exactly, by bucket selection (as in Alabi et
    al., "Fast k-selection algorithms for graphics processing units", ACM
    JEA 17, 2012), in passes over runs of sections; the volume is never
    copied whole. A histogram of the top 16 bits of order-preserving
    integer keys finds the bins that hold the two order statistics; the
    second pass gathers the values of those bins and counts the values
    below them, so a partition of the gathered values yields the order
    statistics; the third pass gathers the low values, widened to float64,
    for the mean. Extra memory is the gathered bins, the low values as
    float64 and one run's keys.
    """
    dtype = sections.dtype
    k = sections.shape[0]
    step = max(1, _BACKGROUND_RUN // max(1, math.prod(sections.shape[1:])))

    def runs():
        for j in range(0, k, step):
            yield sections[j:j + step].reshape(-1)

    # a float's bits as an unsigned integer ascend with positive values and
    # descend with negative ones; the histogram is reordered to match
    udtype = np.dtype(dtype.str.replace("f", "u"))
    shift = 8 * dtype.itemsize - 16
    counts = np.zeros(_KEY_BINS, dtype=np.int64)
    sentinels = 0
    for run in runs():
        counts += np.bincount((run.view(udtype) >> shift).astype(np.intp, copy=False),
                              minlength=_KEY_BINS)
        sentinels += int(np.count_nonzero(run == SENTINEL))
    counts[int(np.asarray(SENTINEL, dtype=dtype).view(udtype)) >> shift] -= sentinels
    half = _KEY_BINS // 2
    cumulative = np.concatenate([counts[:half - 1:-1], counts[:half]])
    del counts
    np.cumsum(cumulative, out=cumulative)
    n = int(cumulative[-1])
    if n == 0:
        return 0.0
    # np.percentile(vals, 10.0): lerp between the order statistics that
    # bracket the virtual index (n - 1) * 0.1, in float64
    index = (n - 1) * 0.1
    lo = math.floor(index)
    hi = min(lo + 1, n - 1)

    def bin_edge(rank: int, largest: bool):
        # the smallest or largest value of the bin that holds rank
        b = int(np.searchsorted(cumulative, rank, side="right"))
        ones = (1 << shift) - 1
        if b >= half:
            bits = ((b - half) << shift) | (ones if largest else 0)
        else:
            bits = ((_KEY_BINS - 1 - b) << shift) | (0 if largest else ones)
        return np.asarray(bits, dtype=udtype).view(dtype)[()]

    lower, upper = bin_edge(lo, False), bin_edge(hi, True)
    # every value below `lower` ranks below lo, every value above `upper`
    # above hi, so lo and hi index the gathered values after the `below` ones
    below = -sentinels if SENTINEL < lower else 0
    pieces = []
    for run in runs():
        under = run < lower
        below += int(np.count_nonzero(under))
        pieces.append(np.compress(~under & (run <= upper) & (run != SENTINEL), run))
    edge = np.concatenate(pieces)
    del pieces
    edge.partition((lo - below, hi - below))
    a, b = float(edge[lo - below]), float(edge[hi - below])
    g = index - lo
    q10 = b - (b - a) * (1.0 - g) if g >= 0.5 else a + (b - a) * g
    # the largest stored value <= q10: a stored-dtype value is <= it exactly
    # when it is <= q10 in float64
    cut = dtype.type(q10)
    if float(cut) > q10:
        cut = np.nextafter(cut, dtype.type(-np.inf))
    # cut >= a >= lower: the low values are the `below` ones and the gathered
    # ones up to cut, a among them
    low = np.empty(below + int(np.count_nonzero(edge <= cut)), dtype=np.float64)
    del edge
    filled = 0
    for run in runs():
        piece = np.compress((run <= cut) & (run != SENTINEL), run)
        low[filled:filled + piece.size] = piece
        filled += piece.size
    return float(low.mean())


def extract_depth_map(
    volume: VolumeStack,
    min_confidence: float | None = None,
    refine: bool = False,
) -> DepthMap:
    """Per-pixel depth of the strongest section response.

    Sentinel-valued entries are skipped; argmax ties break toward lower z.
    Pixels whose peak falls under min_confidence (default: 5x the estimated
    background level) get a NaN depth but keep their measured peak as
    confidence. With refine=True, interior peaks with valid neighbors are
    sharpened by a 3-point parabolic fit across adjacent sections. The
    argmax runs section by section over the volume as stored; a NaN or an
    infinity in it raises ValueError naming the count.
    """
    data = volume.sections
    grid = volume.grid
    k = data.shape[0]
    best = np.full(data.shape[1:], -np.inf, dtype=data.dtype)
    jbest = np.zeros(data.shape[1:], dtype=np.intp)
    better = np.empty(data.shape[1:], dtype=bool)
    scratch = np.empty_like(better)
    nonfinite = 0
    for j, plane in enumerate(data):
        nonfinite += plane.size - np.count_nonzero(np.isfinite(plane, out=scratch))
        # strict: a tie keeps the lower section
        np.greater(plane, best, out=better)
        better &= np.not_equal(plane, SENTINEL, out=scratch)
        np.copyto(best, plane, where=better)
        np.copyto(jbest, j, where=better)
    if nonfinite:
        raise ValueError(f"volume has {nonfinite} non-finite voxels (NaN or Inf)")
    any_valid = best > -np.inf
    peak = best.astype(np.float64)

    if min_confidence is None:
        min_confidence = 5.0 * estimate_background(data)
    keep = any_valid & (peak >= min_confidence)

    depth_sections = jbest.astype(np.float64)
    if refine and k >= 3:
        jm = np.clip(jbest - 1, 0, k - 1)
        jp = np.clip(jbest + 1, 0, k - 1)
        # widen before any arithmetic: float32 planes would keep it float32
        rm, r0, rp = (np.take_along_axis(data, j[None], axis=0)[0].astype(np.float64)
                      for j in (jm, jbest, jp))
        interior = (jbest > 0) & (jbest < k - 1) & (rm != SENTINEL) & (rp != SENTINEL)
        denom = rm - 2.0 * r0 + rp
        concave = denom < 0
        safe = np.where(concave, denom, -1.0)
        delta = np.where(interior & concave, 0.5 * (rm - rp) / safe, 0.0)
        depth_sections = depth_sections + np.clip(delta, -0.5, 0.5)

    depth = np.where(keep, grid.z0 + depth_sections * grid.z_step, np.nan)
    confidence = np.where(any_valid, peak, 0.0)
    return DepthMap(depth=depth, confidence=confidence, grid=grid)
