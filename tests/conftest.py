"""Shared rig builders for the test suite."""

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
from aspi import GeometryConfig

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
