"""Reconstruction throughput benchmark.

Synthesizes float32 frames in memory (no file I/O inside the timed region)
and measures how fast the VolumeStream that `aspi reconstruct` runs for
geometry masks (frame check, GEMM kernel) produces output sections.
Throughput is reported as output megapixels per second: width * height *
sections / wall time. The float32 row chunks of every section, the bytes
`aspi reconstruct` writes, are checksummed in row order with CRC32 and
discarded as `aspi reconstruct` writes them: on the calling thread, while
the workers compute the next chunks. So besides frames and masks memory
holds one chunk per worker, and the checksum makes thread-count
determinism checkable. The timed region includes the frame
check, mask synthesis and checksumming, all part of producing verified
output. Its CPU time over all threads is reported too: a spell of other
work on a shared host lengthens the wall time, not the CPU time. So is the
number of multiplies the kernel made (VolumeStream.products), a count of
its work that does not drift with the host at all.
"""

from __future__ import annotations

import math
import time
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import check_threads
from .imaging_model import GeometryMasks
from .reconstructor import VolumeStream
from .rig import GeometryConfig, PatternSpec, ZGrid

__all__ = ["BenchReport", "bench_reconstruction"]

# Synthetic rig used for all benchmark runs: one-pixel scan steps over one
# slit period, quarter-pixel shear per section.
_BENCH_SHEAR = 0.25
_BENCH_THETA = math.radians(25.0)


@dataclass(frozen=True)
class BenchReport:
    width: int
    height: int
    shifts: int
    sections: int
    threads: int
    wall_seconds: float
    cpu_seconds: float
    megapixels_per_second: float
    per_section_seconds: float
    checksum: int
    products: int

    def summary(self) -> str:
        return (
            f"megapixels_per_second={self.megapixels_per_second:.1f} "
            f"wall_seconds={self.wall_seconds:.3f} "
            f"cpu_seconds={self.cpu_seconds:.3f} "
            f"per_section_seconds={self.per_section_seconds:.5f} "
            f"width={self.width} height={self.height} shifts={self.shifts} "
            f"sections={self.sections} threads={self.threads} "
            f"checksum={self.checksum:08x}"
        )


def bench_reconstruction(
    width: int,
    height: int,
    n: int,
    sections: int,
    threads: int = 1,
    seed: int = 1,
) -> BenchReport:
    """Time the reconstruction of `sections` planes from an n-frame scan."""
    if min(width, height, n, sections) < 1:
        raise ValueError("width, height, n and sections must be >= 1")
    check_threads(threads)  # before hundreds of MB of frames are drawn

    period = max(16, n)  # scan of n unit steps must fit one period
    spec = PatternSpec(proj_width=width, proj_height=height, period_d=period,
                       linewidth_w=max(1, period // 8), shift_step=1, num_shifts_n=n)
    geom = GeometryConfig(tilt_theta=_BENCH_THETA, z_step=_BENCH_SHEAR / math.tan(_BENCH_THETA),
                          camera_pixel_pitch=1.0, magnification=1.0)
    grid = ZGrid(z0=0.0, z_step=geom.z_step, count=sections)

    rng = np.random.default_rng(seed)
    frames = rng.random((n, height, width), dtype=np.float32)
    provider = GeometryMasks(spec, geom, grid)

    crc = 0
    start, cpu_start = time.perf_counter(), time.process_time()
    stream = VolumeStream(frames, provider, threads=threads)
    for _, chunk in stream.blocks():
        crc = zlib.crc32(np.ascontiguousarray(chunk, dtype="<f4"), crc)
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu_start

    out_mp = width * height * sections / 1e6
    return BenchReport(
        width=width,
        height=height,
        shifts=n,
        sections=sections,
        threads=threads,
        wall_seconds=wall,
        cpu_seconds=cpu,
        megapixels_per_second=out_mp / wall,
        per_section_seconds=wall / sections,
        checksum=crc,
        products=stream.products,
    )
