"""The rig: the slit pattern, the projection geometry and the depth grid.

These are the plain values every command reads from its flags or from a
sidecar, with the quantities derived from them alone: the camera shape,
the unambiguous axial range and whether a grid exceeds it. The module is
small on purpose: `aspi depthmap` loads it, and none of the mask code in
imaging_model. Import these names from here or from `aspi`; no other module
exports them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PatternSpec",
    "GeometryConfig",
    "ZGrid",
    "camera_period_px",
    "camera_shape",
    "axial_range",
    "is_axially_ambiguous",
]


@dataclass(frozen=True)
class PatternSpec:
    """Slit-array geometry on the projector.

    period_d is the column spacing between adjacent slits, linewidth_w the
    width of each slit, both in projector pixels. The lateral scan moves the
    pattern by shift_step pixels per step for num_shifts_n steps; the scan
    never exceeds one period (equality means the scan tiles the period).
    """

    proj_width: int
    proj_height: int
    period_d: int
    linewidth_w: int
    shift_step: int = 1
    num_shifts_n: int = 1

    def __post_init__(self):
        if self.proj_width < 1 or self.proj_height < 1:
            raise ValueError("projector dimensions must be >= 1")
        if not (1 <= self.linewidth_w <= self.period_d):
            raise ValueError(
                f"linewidth_w must satisfy 1 <= w <= period_d, got w={self.linewidth_w} d={self.period_d}"
            )
        if self.shift_step < 1 or self.num_shifts_n < 1:
            raise ValueError("shift_step and num_shifts_n must be >= 1")
        if self.num_shifts_n * self.shift_step > self.period_d:
            raise ValueError(
                f"scan span n*step = {self.num_shifts_n * self.shift_step} exceeds one period ({self.period_d})"
            )


@dataclass(frozen=True)
class GeometryConfig:
    """Projection tilt and the pixel-scale factors that derive the shear.

    tilt_theta is the angle between projection and detection paths, in
    radians. z_step and camera_pixel_pitch share one length unit;
    magnification converts projector pixels to camera pixels. shift_sign
    selects the direction the mask moves for increasing depth (+1 = +x).
    """

    tilt_theta: float
    z_step: float
    camera_pixel_pitch: float = 1.0
    magnification: float = 1.0
    shift_sign: int = 1

    def __post_init__(self):
        if not (0.0 < self.tilt_theta < math.pi / 2):
            raise ValueError(f"tilt_theta must lie in (0, pi/2), got {self.tilt_theta}")
        if not all(math.isfinite(v) and v > 0
                   for v in (self.z_step, self.camera_pixel_pitch, self.magnification)):
            raise ValueError("z_step, camera_pixel_pitch and magnification must be finite and > 0")
        if self.shift_sign not in (1, -1):
            raise ValueError("shift_sign must be +1 or -1")
        s = self.shear_px_per_section
        if not (math.isfinite(s) and s > 0):
            raise ValueError(f"derived shear must be finite and > 0, got {s}")

    @property
    def shear_px_per_section(self) -> float:
        """Mask displacement per z section, in camera pixels (always positive)."""
        return self.z_step * math.tan(self.tilt_theta) / self.camera_pixel_pitch

    @property
    def signed_shear(self) -> float:
        return self.shift_sign * self.shear_px_per_section


@dataclass(frozen=True)
class ZGrid:
    """Uniform depth sampling: section j sits at z0 + j*z_step, 0 <= j < count."""

    z0: float
    z_step: float
    count: int

    def __post_init__(self):
        if not math.isfinite(self.z0):
            raise ValueError(f"z0 must be finite, got {self.z0}")
        if not (math.isfinite(self.z_step) and self.z_step > 0):
            raise ValueError(f"z_step must be finite and > 0, got {self.z_step}")
        if self.count < 1:
            raise ValueError("count must be >= 1")

    def z_values(self) -> np.ndarray:
        return self.z0 + self.z_step * np.arange(self.count, dtype=np.float64)


def camera_shape(spec: PatternSpec, geom: GeometryConfig) -> tuple[int, int]:
    """Camera-plane (height, width) for a projector spec under a geometry."""
    return (
        max(1, int(round(spec.proj_height * geom.magnification))),
        max(1, int(round(spec.proj_width * geom.magnification))),
    )


def camera_period_px(spec: PatternSpec, geom: GeometryConfig) -> float:
    """Slit period as seen on the camera, in camera pixels."""
    return spec.period_d * geom.magnification


def axial_range(spec: PatternSpec, geom: GeometryConfig) -> float:
    """Depth span over which the mask shift stays within one slit period.

    The period, expressed as a camera-plane length, divided by tan(tilt).
    Beyond this range a section is indistinguishable from one a full period
    of shear away.
    """
    lateral_period = camera_period_px(spec, geom) * geom.camera_pixel_pitch
    return lateral_period / math.tan(geom.tilt_theta)


def is_axially_ambiguous(spec: PatternSpec, geom: GeometryConfig, grid: ZGrid) -> bool:
    """True when the grid spans more shear than one slit period can encode."""
    return grid.count * geom.shear_px_per_section > camera_period_px(spec, geom)
