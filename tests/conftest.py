"""Shared rig builders for the test suite."""

import math

import numpy as np
from hypothesis import settings

from aspi import GeometryConfig

# Example run times vary with host load; a slow example is not a failure.
settings.register_profile("aspi", deadline=None)
settings.load_profile("aspi")


def geometry_with_shear(shear, z_step=1.0, theta_deg=25.0, magnification=1.0, shift_sign=1):
    """GeometryConfig whose derived shear equals `shear`.

    The pixel pitch is set to z_step*tan(theta)/shear, so the derived value
    t / (t / shear) is exact for power-of-two shears (1.0, 0.5, 0.25, ...)
    and within one ulp otherwise.
    """
    t = z_step * math.tan(math.radians(theta_deg))
    return GeometryConfig(
        tilt_theta=math.radians(theta_deg),
        z_step=z_step,
        camera_pixel_pitch=t / shear,
        magnification=magnification,
        shift_sign=shift_sign,
    )


def roll_zero_fill(frame, shift):
    """Independent integer-shift oracle: displace columns with zero fill."""
    out = np.zeros_like(frame)
    if shift == 0:
        out[:] = frame
    elif shift > 0:
        out[:, shift:] = frame[:, :-shift]
    else:
        out[:, :shift] = frame[:, -shift:]
    return out


def slit_coverage_constant(period, linewidth, step, n):
    """Brute-force per-column count of scan positions lighting each residue.

    Returns the set of distinct counts over one period; full-coverage specs
    yield a single value.
    """
    counts = []
    for c in range(period):
        counts.append(sum(1 for i in range(n) if ((c - i * step) % period) < linewidth))
    return set(counts)
