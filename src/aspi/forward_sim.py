"""Synthetic acquisition rig: scenes, tilted-pattern projection, camera stacks.

Stands in for the physical projector/camera pair. A scene is a list of
semi-transparent height fields: a reflectance image and the depth section
of each of its pixels. A flat layer is a field at one section; a tilted
plane is one field whose section grows along x. Each camera frame is the
sum of every field's reflectance multiplied by the slit mask as it appears
at each pixel's section, mixed with an unmodulated haze term and optional
noise. The haze term is the per-pixel mean of the modulated signal over
every section of every field and all scan positions, standing in for light
scattered by turbid media: it carries no slit structure, which is exactly
what the confocal multiplication rejects.

Fields combine additively with no occlusion or attenuation between them.
Noise is an optional Poisson resampling (photon statistics) followed by
additive Gaussian; Gaussian draws are NOT clipped at zero, so noisy frames
can contain small negative excursions (clipping would bias the zero-mean
statistics the reconstruction tests rely on). Frame i draws from a fresh
generator seeded with seed + i, so stacks are reproducible and frames can
be rendered in any order.

Masks come from the shared GeometryMasks bank: the same row-compressed
(scan, depth) masks the reconstructor multiplies with, so the simulator
cannot drift from the reconstruction model. Each field gathers the masks of
its pixels' sections once, so a frame costs one multiply-add per field
whatever the number of sections. With threads > 1 a pool of workers
renders and noises frames ahead of the one being consumed, at most
`threads` of them; since each frame is a function of its own scan step,
every frame has the same bytes for any thread count. A caller that uses
each frame at once (`aspi simulate` writes it) has them rendered into a
ring of threads + 1 arrays made once, not into a new array each.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import cycle, repeat

import numpy as np

from .errors import check_threads
from .imaging_model import (
    GeometryConfig,
    GeometryMasks,
    PatternSpec,
    ZGrid,
    camera_shape,
    mask_coverage,
    validate_frame,
)

__all__ = [
    "NoiseSpec",
    "Scene",
    "render_frame",
    "render_frames",
    "acquire_stack",
    "make_tilted_plane_scene",
    "tilted_plane_sections",
]

# Values per noise draw (a block of rows, 512 KB of float64): small enough to
# stay in cache, large enough that each draw outlasts its call overhead.
_NOISE_BLOCK = 1 << 16


@dataclass(frozen=True)
class NoiseSpec:
    """Sensor noise knobs; all off by default.

    poisson_scale is the photon count per unit intensity (0 disables the
    Poisson stage); gaussian_sigma is additive read noise in intensity
    units. All randomness derives from `seed`.
    """

    gaussian_sigma: float = 0.0
    poisson_scale: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not all(math.isfinite(v) and v >= 0 for v in (self.gaussian_sigma, self.poisson_scale)):
            raise ValueError(f"noise parameters must be finite and >= 0, got gaussian_sigma="
                             f"{self.gaussian_sigma}, poisson_scale={self.poisson_scale}")

    @property
    def enabled(self) -> bool:
        return self.gaussian_sigma > 0 or self.poisson_scale > 0


class Scene:
    """Semi-transparent object: a list of height fields.

    layers: (section_map, reflectance) pairs. reflectance is an image with
    values in [0, 1]; section_map is an integer, or an integer array that
    broadcasts to the image, naming the depth section of every pixel (a flat
    layer is a field at one section). Each field's sections are all greater
    than the previous field's. All fields share one shape, which must match
    the camera plane of the geometry they are rendered under. haze_fraction
    in [0, 1) is the fraction of detected light that is unmodulated
    background.
    """

    def __init__(self, layers, haze_fraction: float = 0.0, noise: NoiseSpec | None = None):
        if not layers:
            raise ValueError("scene must contain at least one layer")
        self.fields = []
        for section_map, refl in layers:
            m = np.asarray(section_map)
            r = validate_frame(refl, "reflectance")
            if m.dtype.kind not in "iu" or np.broadcast_shapes(m.shape, r.shape) != r.shape:
                raise ValueError(f"section map must be integers broadcasting to {r.shape}")
            if self.fields and m.min() <= self.fields[-1][0].max():
                raise ValueError("layer z_indices must be strictly increasing")
            if r.max() > 1.0:
                raise ValueError("reflectance values must lie in [0, 1]")
            if self.fields and r.shape != self.shape:
                raise ValueError(f"layer shapes differ: {r.shape} vs {self.shape}")
            self.fields.append((m, r))
        if not (0.0 <= haze_fraction < 1.0):
            raise ValueError(f"haze_fraction must lie in [0, 1), got {haze_fraction}")
        self.haze_fraction = haze_fraction
        self.noise = noise if noise is not None else NoiseSpec()

    @property
    def shape(self) -> tuple[int, int]:
        return self.fields[0][1].shape


def _check_scene(scene: Scene, spec: PatternSpec, geom: GeometryConfig, grid: ZGrid):
    shape = camera_shape(spec, geom)
    if scene.shape != shape:
        raise ValueError(f"scene shape {scene.shape} != camera shape {shape}")
    for section_map, _ in scene.fields:
        if section_map.min() < 0 or section_map.max() >= grid.count:
            raise ValueError(f"scene sections [{section_map.min()}, {section_map.max()}] "
                             f"outside grid [0, {grid.count})")


def _apply_noise(frame: np.ndarray, noise: NoiseSpec, shift_index: int) -> np.ndarray:
    """The frame with noise, drawn into `frame` itself in blocks of rows.

    A generator fills values in the order they are asked for, so blocks
    drawn in row order get the values of one whole-frame draw, and no
    draw needs a frame-sized temporary.
    """
    if not noise.enabled:
        return frame
    rng = np.random.default_rng(noise.seed + shift_index)
    rows = max(1, _NOISE_BLOCK // frame.shape[1])
    blocks = [frame[r:r + rows] for r in range(0, frame.shape[0], rows)]
    if noise.poisson_scale > 0:
        for block in blocks:
            block[...] = rng.poisson(np.maximum(block, 0.0) * noise.poisson_scale) / noise.poisson_scale
    if noise.gaussian_sigma > 0:
        for block in blocks:
            block += rng.normal(0.0, noise.gaussian_sigma, size=block.shape)
    return frame


def render_frames(scene: Scene, spec: PatternSpec, geom: GeometryConfig, grid: ZGrid,
                  shift_indices=None, threads: int = 1, ring: bool = False):
    """An iterator of the frames at the given scan steps (default: all), in that order.

    Each frame is the same whichever others are asked for, and for any
    thread count. Every field first gathers, at each pixel, the masks of
    that pixel's section: one (n, 1, W) bank for a tilted plane of
    row-constant masks. The arguments are checked here, before any frame is
    rendered; with threads > 1 up to `threads` workers render frames ahead
    of the one the caller takes, so with the frame the caller holds at most
    threads + 1 frames are alive. Their pool is shut down when the iterator
    ends, is closed or raises. Each frame is a new array, unless ring=True:
    then the frames are rendered into a ring of threads + 1 arrays that the
    iterator makes once, so a frame is overwritten when the caller asks for
    the one after next, and must be used (written, copied) before then.
    """
    check_threads(threads)
    _check_scene(scene, spec, geom, grid)
    n, h = spec.num_shifts_n, scene.haze_fraction
    steps = range(n) if shift_indices is None else list(shift_indices)
    for i in steps:
        if not (0 <= i < n):
            raise ValueError(f"shift_index {i} out of range [0, {n})")
    masks = GeometryMasks(spec, geom, grid)
    fields, count = [], 0
    for section_map, refl in scene.fields:
        sections = np.unique(section_map)
        bank = masks.section_masks(int(sections[0]))
        if len(sections) > 1:
            bank = np.broadcast_to(bank, np.broadcast_shapes(bank.shape, section_map.shape)).copy()
            for j in sections[1:]:
                np.copyto(bank, masks.section_masks(int(j)), where=section_map == j)
        fields.append((refl, bank))
        count += len(sections)
    haze = None
    if h > 0.0:
        haze = np.zeros(scene.shape, dtype=np.float64)
        for refl, bank in fields:
            haze += refl * mask_coverage(bank)
        haze /= count * n
        haze *= h
    buffers = [np.empty(scene.shape) for _ in range(threads + 1)] if ring else None
    return _frames(partial(_render_frame, fields, haze, h, scene.noise), steps, threads, buffers)


def _render_frame(fields, haze, h: float, noise: NoiseSpec, i: int,
                  out: np.ndarray | None) -> np.ndarray:
    """Frame i, in out or in a new array."""
    (refl, bank), *rest = fields
    # the first field's product straight into the frame; adding 0.0 turns a
    # -0.0 into 0.0, as the sum of the fields from zero does
    frame = np.multiply(refl, bank[i], out=out)
    frame += 0.0
    for refl, bank in rest:
        frame += refl * bank[i]
    if haze is not None:
        frame *= 1.0 - h
        frame += haze
    return _apply_noise(frame, noise, i)


def _frames(render, steps, threads: int, buffers):
    """Yield render(i, out) for each step in order; with threads > 1, up to `threads` on workers.

    out is None, or else each of the threads + 1 buffers in turn.
    """
    outs = cycle(buffers) if buffers else repeat(None)
    if threads == 1:
        yield from map(render, steps, outs)
        return
    pool = ThreadPoolExecutor(max_workers=threads)
    try:
        # the next step goes to a worker only when the caller asks for the
        # next frame, so the frame it still holds is one of threads + 1
        ahead = deque()
        for i, out in zip(steps, outs):
            ahead.append(pool.submit(render, i, out))
            if len(ahead) == threads:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def render_frame(
    scene: Scene,
    shift_index: int,
    spec: PatternSpec,
    geom: GeometryConfig,
    grid: ZGrid,
) -> np.ndarray:
    """Camera image for one scan position of the pattern."""
    return next(render_frames(scene, spec, geom, grid, [shift_index]))


def acquire_stack(
    scene: Scene,
    spec: PatternSpec,
    geom: GeometryConfig,
    grid: ZGrid,
) -> np.ndarray:
    """The full lateral scan as float64 (n, H, W) frames, bit-identical to render_frame's."""
    frames = np.empty((spec.num_shifts_n,) + scene.shape, dtype=np.float64)
    for frame, rendered in zip(frames, render_frames(scene, spec, geom, grid)):
        frame[...] = rendered
    return frames


def tilted_plane_sections(width: int, slope: float, z_start: int = 0) -> np.ndarray:
    """Ground-truth section index per column for a tilted-plane scene."""
    return z_start + np.floor(slope * np.arange(width, dtype=np.float64)).astype(np.int64)


def make_tilted_plane_scene(
    grid: ZGrid,
    slope: float,
    reflectance,
    z_start: int = 0,
    haze_fraction: float = 0.0,
    noise: NoiseSpec | None = None,
) -> Scene:
    """Scene whose depth varies linearly along x.

    Column c sits at section z_start + floor(slope * c): one height field of
    the reflectance over tilted_plane_sections. Every column must land
    inside the grid.
    """
    refl = validate_frame(reflectance, "reflectance")
    if not math.isfinite(slope):
        raise ValueError(f"slope must be finite, got {slope}")
    secs = tilted_plane_sections(refl.shape[1], slope, z_start)
    if secs.min() < 0 or secs.max() >= grid.count:
        raise ValueError(
            f"slope maps columns to sections [{secs.min()}, {secs.max()}] "
            f"outside grid [0, {grid.count})"
        )
    return Scene([(secs[None, :], refl)], haze_fraction=haze_fraction, noise=noise)
