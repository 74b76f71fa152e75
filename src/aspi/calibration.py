"""Mask calibration from three reference frames.

The lateral scan and the depth shear both move the projected pattern by a
fixed translation per step, so the full bank of virtual confocal masks can
be regenerated from a single base mask plus two displacement estimates: one
from a pair of masks at different scan positions, one from a pair at
different depths. The estimates are obtained by normalized cross-correlation,
computed through the FFT, with parabolic sub-pixel refinement.

The model is two per-step translations, (lateral_dx, lateral_dy) per scan
step and (axial_dx, axial_dy) per depth section. Two frames of a periodic
pattern expose no other observable degrees of freedom, and the translation
is itself only determined modulo the slit period: anchor pairs MUST be
displaced by less than half a period (in camera pixels) or the estimate
aliases onto the wrong branch. Larger spans have to be chained through
intermediate pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError
from .imaging_model import shift_image

__all__ = [
    "MaskModel",
    "estimate_translation",
    "fit_mask_model",
    "predict_mask",
]

# Anchor displacements smaller than this are indistinguishable from "no
# displacement" and rejected as degenerate.
_MIN_ANCHOR_DISP = 1e-9


@dataclass(frozen=True)
class MaskModel:
    """Base mask plus per-step translations recovered from three references.

    (lateral_dx, lateral_dy) moves the mask by one scan step, (axial_dx,
    axial_dy) by one depth section, in camera pixels. The residuals are the
    RMS mismatch between each anchor frame and the base shifted by the full
    fitted displacement. Each translation must be finite.
    """

    base_mask: np.ndarray
    lateral_dx: float
    lateral_dy: float
    axial_dx: float
    axial_dy: float
    anchors: tuple[int, int]
    lateral_residual_rms: float
    axial_residual_rms: float

    def __post_init__(self):
        for key in ("lateral_dx", "lateral_dy", "axial_dx", "axial_dy"):
            value = getattr(self, key)
            if not math.isfinite(value):
                raise ValueError(f"mask model {key} must be finite, got {value}")


def _ncc_surface(na: np.ndarray, nb: np.ndarray) -> np.ndarray:
    """Circular cross-correlation of two zero-mean frames, at every shift."""
    cross_power = np.conj(np.fft.fft2(na)) * np.fft.fft2(nb)
    return np.fft.ifft2(cross_power).real


def _parabolic_offset(cm: float, c0: float, cp: float) -> float:
    denom = cm - 2.0 * c0 + cp
    if denom >= 0.0:
        # flat or non-concave triple; no refinement possible
        return 0.0
    delta = 0.5 * (cm - cp) / denom
    return float(np.clip(delta, -0.5, 0.5))


def _wrap_signed(value: float, n: int) -> float:
    half = n / 2.0
    return ((value + half) % n) - half


def estimate_translation(frame_a, frame_b) -> tuple[float, float]:
    """Sub-pixel displacement (dx, dy) such that frame_b ~ frame_a shifted by it.

    The displacement maximizes the circular normalized cross-correlation of
    the two frames; the integer peak is refined per axis by a parabolic fit
    over its immediate neighbors. Results are wrapped into
    [-size/2, size/2) per axis, so displacements at or beyond half the frame
    (or half the pattern period, for periodic content) alias. Frames with no
    pixels, or a NaN or Inf pixel in either frame, are a ValueError.
    """
    a = np.asarray(frame_a, dtype=np.float64)
    b = np.asarray(frame_b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("frames must be 2D")
    if a.shape != b.shape:
        raise ValueError(f"frame shapes differ: {a.shape} vs {b.shape}")
    if a.size == 0:
        raise DegenerateInputError(f"reference frames have no pixels: their shape is {a.shape}")
    bad = np.count_nonzero(~np.isfinite(a)) + np.count_nonzero(~np.isfinite(b))
    if bad:
        raise ValueError(f"reference frames contain {bad} NaN or Inf pixels")
    na = a - a.mean()
    nb = b - b.mean()
    sa = np.sqrt(np.mean(na * na))
    sb = np.sqrt(np.mean(nb * nb))
    if sa == 0.0 or sb == 0.0:
        raise DegenerateInputError("constant frame carries no displacement signal")

    h, w = a.shape
    surf = _ncc_surface(na, nb)
    surf /= h * w * sa * sb

    iy, ix = np.unravel_index(int(np.argmax(surf)), surf.shape)
    dy = iy + _parabolic_offset(
        surf[(iy - 1) % h, ix], surf[iy, ix], surf[(iy + 1) % h, ix]
    )
    dx = ix + _parabolic_offset(
        surf[iy, (ix - 1) % w], surf[iy, ix], surf[iy, (ix + 1) % w]
    )
    return _wrap_signed(dx, w), _wrap_signed(dy, h)


def fit_mask_model(ref_x1z1, ref_xNz1, ref_x1zK, anchors: tuple[int, int]) -> MaskModel:
    """Fit per-step lateral and axial translations from three reference masks.

    ref_x1z1 is the base; ref_xNz1 sits N-1 scan steps away at the same
    depth; ref_x1zK sits K-1 depth sections away at the same scan position.
    Anchor displacements must stay under half a slit period (see module
    docstring) and must be nonzero.
    """
    n_anchor, k_anchor = anchors
    if n_anchor < 2 or k_anchor < 2:
        raise ValueError(f"anchors must be >= 2 steps/sections apart, got {anchors}")
    base = np.asarray(ref_x1z1, dtype=np.float64)

    dx_lat, dy_lat = estimate_translation(ref_x1z1, ref_xNz1)
    if float(np.hypot(dx_lat, dy_lat)) < _MIN_ANCHOR_DISP:
        raise DegenerateInputError("lateral anchor pair shows no displacement")
    dx_ax, dy_ax = estimate_translation(ref_x1z1, ref_x1zK)
    if float(np.hypot(dx_ax, dy_ax)) < _MIN_ANCHOR_DISP:
        raise DegenerateInputError("axial anchor pair shows no displacement")

    lat_res = float(
        np.sqrt(np.mean((shift_image(base, dx_lat, dy_lat) - np.asarray(ref_xNz1)) ** 2))
    )
    ax_res = float(
        np.sqrt(np.mean((shift_image(base, dx_ax, dy_ax) - np.asarray(ref_x1zK)) ** 2))
    )
    return MaskModel(
        base_mask=base.copy(),
        lateral_dx=float(dx_lat / (n_anchor - 1)),
        lateral_dy=float(dy_lat / (n_anchor - 1)),
        axial_dx=float(dx_ax / (k_anchor - 1)),
        axial_dy=float(dy_ax / (k_anchor - 1)),
        anchors=(n_anchor, k_anchor),
        lateral_residual_rms=lat_res,
        axial_residual_rms=ax_res,
    )


def predict_mask(model: MaskModel, x_index: int, z_index: int) -> np.ndarray:
    """Mask at scan step x_index and depth section z_index.

    The lateral and axial per-step translations are accumulated into a
    single displacement and applied once, so repeated prediction does not
    stack interpolation blur. (0, 0) returns an exact copy of the base mask.
    """
    dx = x_index * model.lateral_dx + z_index * model.axial_dx
    dy = x_index * model.lateral_dy + z_index * model.axial_dy
    return shift_image(model.base_mask, dx, dy)
