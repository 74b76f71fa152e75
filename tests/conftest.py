"""Shared rig builders for the test suite."""

import ctypes
import functools
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import aspi
from aspi import SENTINEL, GeometryConfig, reconstruct_section
from aspi.imaging_model import TranslationMasks

# Example run times vary with host load; a slow example is not a failure.
settings.register_profile("aspi", deadline=None)
settings.load_profile("aspi")


def python(*args):
    """Run a fresh interpreter that imports this checkout's aspi; returns the completed process."""
    src = str(Path(aspi.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=120)


def modules_after(code):
    """The names in sys.modules after `code` runs in a fresh interpreter."""
    proc = python("-c", code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


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


def geometry_bank(base, spec, geom, grid):
    """The bank GeometryMasks builds for a rig, moving `base` in place of the slit pattern."""
    return TranslationMasks(base, (spec.shift_step * geom.magnification, 0.0),
                            (geom.signed_shear, 0.0), spec.num_shifts_n, grid)


def reference_volume(frames, provider, floor):
    """Every section of the bank's grid from the float64 reference kernel, the oracle."""
    return np.stack([reconstruct_section(frames, provider.section_masks(j), floor)[0]
                     for j in range(provider.grid.count)])


def assert_within_gemm_bound(gemm, ref, frames, bank):
    """GEMM sections vs reference ones: same sentinels, (n + 4) * u * sum|O_i|M_i/den apart.

    u = eps32 / 2, float32's unit roundoff. A GEMM voxel is a float32 dot
    product of n + 1 terms, within gamma_{n+1} ~ (n + 1) * u of its exact
    value relative to the sum of the absolute terms (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 2002, section 3.1), whatever
    the summation order; its frames are rounded once to float32 (u, 0 when
    they are float32) and its masks divided by their coverage in float64 and
    rounded once to float32 (u + u64): (n + 3) * u to first order. The
    reference kernel's float64 sum and divide add (n + 1) * u64, which the
    last u covers with the second-order terms.
    """
    n = frames.shape[0]
    den = np.broadcast_to(bank.sum(axis=0)[:, None, :], ref.shape)
    magnitude = np.einsum("iyx,ijx->jyx", np.abs(frames.astype(np.float64)), bank)
    covered = ref != SENTINEL
    assert np.array_equal(gemm != SENTINEL, covered)
    assert covered.mean() > 0.5
    bound = (n + 4) * np.finfo(np.float32).eps / 2 * magnitude[covered] / den[covered]
    assert np.all(np.abs(gemm - ref)[covered] <= bound)


@functools.cache
def blas_core():
    """The core OpenBLAS picked its kernels for ("SkylakeX", "Haswell", ...), or None.

    Read from the OpenBLAS that numpy wheels bundle, whose pick follows the
    CPU or OPENBLAS_CORETYPE; None for a numpy on another BLAS. The GEMM
    kernel sums in the order of that core's kernel, so its bytes are pinned
    per core.
    """
    for lib in sorted((Path(np.__file__).resolve().parents[1] / "numpy.libs").glob("*openblas*")):
        for name in ("scipy_openblas_get_corename64_", "openblas_get_corename64_"):
            corename = getattr(ctypes.CDLL(str(lib)), name, None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode()
    return None


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


@pytest.fixture
def started_threads(monkeypatch):
    """The worker threads errors.run_ahead starts from now on, in the order started.

    Each has the ident of the thread that started it as `starter`.
    """
    started = []

    class RecordingThread(threading.Thread):
        def start(self):
            self.starter = threading.get_ident()
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", RecordingThread)
    return started
