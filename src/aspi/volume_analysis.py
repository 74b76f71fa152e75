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

The depth map walks the volume in passes over runs of sections, each run
sections[j:j + step]. So a volume may also be a StackReader of a stack file
(as `aspi depthmap` passes it), which indexes like the array it stores: it
is then read run by run into new arrays, never held whole, and the passes
hold no read buffer. The first pass is the running argmax, with the
background's key histogram taken from the same runs; refinement gathers
each pixel's neighbouring sections in one more pass, and the background's
selection and sum take two. Besides one run (two while the next is read)
they hold per-pixel planes: the best value, the best section (in the
narrowest integer type that holds the last one), the neighbours and the
pixels' order by best section, the depth and the confidence. Refinement
takes its float64 temporaries in blocks of rows.
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

# Voxels per run of sections in the passes over a volume: bounded memory,
# and few 65536-bin histograms when sections are small. Refinement takes
# its float64 temporaries in blocks of whole rows of about as many pixels.
_BACKGROUND_RUN = 1 << 16

# Values per block of the background's streamed sum. numpy sums up to 128
# values without splitting them, so any block of at least 128 has the bits
# of numpy's own sum of those values.
_SUM_BLOCK = 1 << 16


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


def _runs(sections):
    """Runs of whole sections of a (K, H, W) array or StackReader, in order."""
    step = max(1, _BACKGROUND_RUN // max(1, math.prod(sections.shape[1:])))
    for j in range(0, sections.shape[0], step):
        yield sections[j:j + step]


def _key_bits(dtype) -> tuple[np.dtype, int]:
    """The unsigned integer type of a float dtype's bits, and the shift to their top 16."""
    return np.dtype(dtype.str.replace("f", "u")), 8 * dtype.itemsize - 16


def _count_keys(run, counts: np.ndarray) -> int:
    """Add the keys of a run's values to the histogram counts; returns its sentinel count."""
    udtype, shift = _key_bits(run.dtype)
    flat = run.reshape(-1)
    # shifted straight into the intp keys bincount takes, with no other temporary
    keys = np.empty(flat.size, dtype=np.intp)
    np.right_shift(flat.view(udtype), shift, out=keys, casting="unsafe")
    counts += np.bincount(keys, minlength=_KEY_BINS)
    return int(np.count_nonzero(flat == SENTINEL))


class _Values:
    """The values of an iterable of 1-D arrays, in order, taken count by count as float64."""

    def __init__(self, pieces):
        self._pieces = iter(pieces)
        self._pending = np.empty(0)

    def take(self, count: int) -> np.ndarray:
        parts, size = [], 0
        while size < count:
            if not self._pending.size:
                self._pending = next(self._pieces)
            parts.append(self._pending[:count - size])
            self._pending = self._pending[parts[-1].size:]
            size += parts[-1].size
        return np.concatenate(parts, dtype=np.float64)


def _pairwise_sum(values: _Values, count: int):
    """np.add.reduce over the next count float64 values, holding one block of them.

    numpy sums a contiguous float64 array pairwise: more than 128 values
    split at half their count, rounded down to a multiple of 8, and each
    half is summed the same way. Splitting so down to blocks of at most
    _SUM_BLOCK values, each summed by np.add.reduce, gives the same bits.
    """
    if count <= _SUM_BLOCK:
        return np.add.reduce(values.take(count))
    half = count // 2
    half -= half % 8
    return _pairwise_sum(values, half) + _pairwise_sum(values, count - half)


def estimate_background(sections) -> float:
    """Mean of the lowest-decile non-sentinel intensities of a volume.

    sections is a (K, H, W) array or a StackReader of one. The decile is
    np.percentile's linear one and the mean is taken over the low values in
    C order as float64, so the result has the bits of the float64
    computation whatever the stored dtype. Values must be finite
    (extract_depth_map checks).

    The decile is selected exactly, by bucket selection (as in Alabi et
    al., "Fast k-selection algorithms for graphics processing units", ACM
    JEA 17, 2012), in three passes over runs of sections; the volume is
    never held whole. The first pass histograms the top 16 bits of
    order-preserving integer keys, which finds the bins that hold the two
    order statistics; the second counts the values below those bins and
    the values in them, value by value, which yields the order statistics;
    the third sums the low values, widened to float64, the way np.mean
    does. Extra memory is the histogram, the distinct values of the two
    bins with their counts, and one run.
    """
    counts = np.zeros(_KEY_BINS, dtype=np.int64)
    sentinels = sum(_count_keys(run, counts) for run in _runs(sections))
    return _background(sections, counts, sentinels)


def _background(sections, counts: np.ndarray, sentinels: int) -> float:
    """estimate_background's second and third passes, after its key histogram."""
    dtype = sections.dtype
    udtype, shift = _key_bits(dtype)
    # a float's bits as an unsigned integer ascend with positive values and
    # descend with negative ones; the histogram is reordered to match
    counts[int(np.asarray(SENTINEL, dtype=dtype).view(udtype)) >> shift] -= sentinels
    half = _KEY_BINS // 2
    cumulative = np.concatenate([counts[:half - 1:-1], counts[:half]])
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
    # above hi, so lo and hi rank among the values in between after the
    # `below` ones; those are kept as distinct values and their counts
    below, values, tally = _between(sections, lower, upper)
    below -= sentinels if SENTINEL < lower else 0
    rank = np.cumsum(tally)
    a, b = (float(values[np.searchsorted(rank, r - below, side="right")]) for r in (lo, hi))
    g = index - lo
    q10 = b - (b - a) * (1.0 - g) if g >= 0.5 else a + (b - a) * g
    # the largest stored value <= q10: a stored-dtype value is <= it exactly
    # when it is <= q10 in float64
    cut = dtype.type(q10)
    if float(cut) > q10:
        cut = np.nextafter(cut, dtype.type(-np.inf))
    # cut >= a >= lower: the low values are the `below` ones and the
    # in-between ones up to cut, a among them
    low = below + int(tally[values <= cut].sum())

    def low_values():
        for run in _runs(sections):
            flat = run.reshape(-1)
            yield np.compress((flat <= cut) & (flat != SENTINEL), flat)

    return float(_pairwise_sum(_Values(low_values()), low)) / low


def _between(sections, lower, upper) -> tuple[int, np.ndarray, np.ndarray]:
    """The count of values below lower, and the distinct non-sentinel values
    from lower to upper, ascending, with their counts (as float64).

    The values are gathered run by run and folded into the distinct ones
    whenever they outnumber a run, so ties take no more than a run's memory.
    """
    below = 0
    values, tally = np.empty(0, dtype=sections.dtype), np.empty(0)
    gathered, size = [], 0
    for run in _runs(sections):
        flat = run.reshape(-1)
        under = flat < lower
        below += int(np.count_nonzero(under))
        gathered.append(np.compress(~under & (flat <= upper) & (flat != SENTINEL), flat))
        size += gathered[-1].size
        if size >= _BACKGROUND_RUN:
            values, tally = _fold(values, tally, gathered)
            gathered, size = [], 0
    if gathered:
        values, tally = _fold(values, tally, gathered)
    return below, values, tally


def _fold(values, tally, gathered) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values and their counts, with the gathered values added."""
    distinct, count = np.unique(np.concatenate(gathered), return_counts=True)
    values, inverse = np.unique(np.concatenate([values, distinct]), return_inverse=True)
    return values, np.bincount(inverse, weights=np.concatenate([tally, count]))


def _neighbours(sections, jbest: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each pixel's values in the sections before and after jbest, in one pass.

    The pixels are grouped by jbest once; section j then gives its values
    to the pixels whose best section is j + 1 and j - 1. A pixel whose best
    section is the first or the last has no neighbour there, and gets 0.
    """
    k = sections.shape[0]
    flat = jbest.reshape(-1)
    # a stable sort of 8- or 16-bit keys is a radix sort
    order = np.argsort(flat, kind="stable")
    # where each section's run of sorted keys starts, found in the keys' own type
    starts = np.append(np.searchsorted(flat[order], np.arange(k, dtype=flat.dtype)), flat.size)
    group = [order[starts[j]:starts[j + 1]] for j in range(k)]
    rm = np.zeros(flat.size, dtype=sections.dtype)
    rp = np.zeros_like(rm)
    for j, plane in enumerate(p for run in _runs(sections) for p in run):
        values = plane.reshape(-1)
        if j + 1 < k:
            rm[group[j + 1]] = values[group[j + 1]]
        if j > 0:
            rp[group[j - 1]] = values[group[j - 1]]
    return rm.reshape(jbest.shape), rp.reshape(jbest.shape)


def _refined_sections(sections, jbest: np.ndarray, peak: np.ndarray) -> np.ndarray:
    """Each pixel's best section in float64, plus its parabolic offset.

    The float64 plane is made only after the neighbours are gathered, and
    the offsets are computed block by block of rows: they are elementwise,
    so the blocks give the bits of the whole plane.
    """
    k, _, w = sections.shape
    rm, rp = _neighbours(sections, jbest)
    depth = jbest.astype(np.float64)
    rows = max(1, _BACKGROUND_RUN // max(1, w))
    for r0 in range(0, depth.shape[0], rows):
        block = slice(r0, r0 + rows)
        depth[block] += _parabolic_offset(rm[block], rp[block], peak[block], jbest[block], k)
    return depth


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
    infinity in it raises ValueError naming the count, as does a
    min_confidence that is not finite.
    """
    if min_confidence is not None and not math.isfinite(min_confidence):
        raise ValueError(f"min_confidence must be finite, got {min_confidence}")
    data = volume.sections
    grid = volume.grid
    k = data.shape[0]
    refine = refine and k >= 3
    best = np.full(data.shape[1:], -np.inf, dtype=data.dtype)
    # the narrowest signed integer type that holds k - 1 (int16 below 32768 sections)
    jbest = np.zeros(data.shape[1:], dtype=np.min_scalar_type(-k))
    better = np.empty(data.shape[1:], dtype=bool)
    scratch = np.empty_like(better)
    # the background's key histogram, of the same runs
    counts = np.zeros(_KEY_BINS, dtype=np.int64) if min_confidence is None else None
    sentinels = 0
    nonfinite = 0
    j = 0
    for run in _runs(data):
        if counts is not None:
            sentinels += _count_keys(run, counts)
        for plane in run:
            nonfinite += plane.size - np.count_nonzero(np.isfinite(plane, out=scratch))
            # strict: a tie keeps the lower section
            np.greater(plane, best, out=better)
            better &= np.not_equal(plane, SENTINEL, out=scratch)
            np.copyto(best, plane, where=better)
            np.copyto(jbest, j, where=better)
            j += 1
    if nonfinite:
        raise ValueError(f"volume has {nonfinite} non-finite voxels (NaN or Inf)")
    del better, scratch
    any_valid = best > -np.inf
    peak = best.astype(np.float64)
    del best

    if min_confidence is None:
        min_confidence = 5.0 * _background(data, counts, sentinels)
    del counts

    # z0 + depth_sections * z_step where kept, NaN elsewhere
    depth = _refined_sections(data, jbest, peak) if refine else jbest.astype(np.float64)
    depth *= grid.z_step
    depth += grid.z0
    np.copyto(depth, np.nan, where=~(any_valid & (peak >= min_confidence)))
    confidence = peak
    np.copyto(confidence, 0.0, where=~any_valid)
    return DepthMap(depth=depth, confidence=confidence, grid=grid)
