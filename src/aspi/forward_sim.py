"""Synthetic acquisition rig: scenes, tilted-pattern projection, camera stacks.

Stands in for the physical projector/camera pair. A scene is a set of
semi-transparent layers pinned to depth sections; each camera frame is the
sum of every layer's reflectance multiplied by the slit mask as it appears
at that layer's depth, mixed with an unmodulated haze term and optional
noise. The haze term is the per-pixel mean of the modulated signal over all
layers and scan positions, standing in for light scattered by turbid media:
it carries no slit structure, which is exactly what the confocal
multiplication rejects.

Layers combine additively with no occlusion or attenuation between them.
Noise is an optional Poisson resampling (photon statistics) followed by
additive Gaussian; Gaussian draws are NOT clipped at zero, so noisy frames
can contain small negative excursions (clipping would bias the zero-mean
statistics the reconstruction tests rely on). Frame i draws from a fresh
generator seeded with seed + i, so stacks are reproducible and frames can
be rendered in any order.

Masks come from the shared GeometryMasks bank, one section_masks(z) call
per layer: the same row-compressed (scan, depth) masks the reconstructor
multiplies with, so the simulator cannot drift from the reconstruction model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
    "AcquisitionSet",
    "render_frame",
    "acquire_stack",
    "make_tilted_plane_scene",
    "tilted_plane_sections",
]


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
        if self.gaussian_sigma < 0 or self.poisson_scale < 0:
            raise ValueError("noise parameters must be >= 0")

    @property
    def enabled(self) -> bool:
        return self.gaussian_sigma > 0 or self.poisson_scale > 0


@dataclass
class Scene:
    """Layered semi-transparent object.

    layers: ordered (z_index, reflectance) pairs with strictly increasing
    z_index and reflectance values in [0, 1]; all layers share one shape,
    which must match the camera plane of the geometry they are rendered
    under. haze_fraction in [0, 1) is the fraction of detected light that is
    unmodulated background.
    """

    layers: list
    haze_fraction: float = 0.0
    noise: NoiseSpec = field(default_factory=NoiseSpec)

    def __post_init__(self):
        if not self.layers:
            raise ValueError("scene must contain at least one layer")
        norm = []
        prev = None
        shape = None
        for z_index, refl in self.layers:
            z_index = int(z_index)
            if prev is not None and z_index <= prev:
                raise ValueError("layer z_indices must be strictly increasing")
            prev = z_index
            r = validate_frame(refl, "reflectance")
            if r.max() > 1.0:
                raise ValueError("reflectance values must lie in [0, 1]")
            if shape is None:
                shape = r.shape
            elif r.shape != shape:
                raise ValueError(f"layer shapes differ: {r.shape} vs {shape}")
            norm.append((z_index, r))
        self.layers = norm
        if not (0.0 <= self.haze_fraction < 1.0):
            raise ValueError(f"haze_fraction must lie in [0, 1), got {self.haze_fraction}")

    @property
    def shape(self) -> tuple[int, int]:
        return self.layers[0][1].shape


@dataclass(frozen=True)
class AcquisitionSet:
    """One full lateral scan: frames[i] is the camera image at scan step i."""

    frames: np.ndarray  # (n, H, W)
    spec: PatternSpec
    geom: GeometryConfig
    grid: ZGrid

    def __post_init__(self):
        if self.frames.ndim != 3:
            raise ValueError("frames must be a (n, H, W) array")
        if self.frames.shape[0] != self.spec.num_shifts_n:
            raise ValueError(
                f"frame count {self.frames.shape[0]} != num_shifts_n {self.spec.num_shifts_n}"
            )

    @property
    def frame_shape(self) -> tuple[int, int]:
        return self.frames.shape[1:]


def _check_scene(scene: Scene, spec: PatternSpec, geom: GeometryConfig, grid: ZGrid):
    shape = camera_shape(spec, geom)
    if scene.shape != shape:
        raise ValueError(f"scene shape {scene.shape} != camera shape {shape}")
    for z_index, _ in scene.layers:
        if not (0 <= z_index < grid.count):
            raise ValueError(f"layer z_index {z_index} outside grid [0, {grid.count})")


def _apply_noise(frame: np.ndarray, noise: NoiseSpec, shift_index: int) -> np.ndarray:
    if not noise.enabled:
        return frame
    rng = np.random.default_rng(noise.seed + shift_index)
    out = frame
    if noise.poisson_scale > 0:
        out = rng.poisson(np.maximum(out, 0.0) * noise.poisson_scale) / noise.poisson_scale
    if noise.gaussian_sigma > 0:
        out = out + rng.normal(0.0, noise.gaussian_sigma, size=out.shape)
    return out


def _render(scene: Scene, spec: PatternSpec, geom: GeometryConfig, grid: ZGrid,
            shift_indices) -> np.ndarray:
    """Frames at the given scan steps; each is the same whichever others are asked for.

    Every pixel accumulates its layers in scene order. The haze background
    is the per-pixel mean of the modulated term over all layers and all
    scan steps, so it needs every layer's full mask bank.
    """
    _check_scene(scene, spec, geom, grid)
    masks = GeometryMasks(spec, geom, grid)
    n = spec.num_shifts_n
    h = scene.haze_fraction
    frames = np.zeros((len(shift_indices),) + scene.shape, dtype=np.float64)
    background = np.zeros(scene.shape, dtype=np.float64)
    for z_index, refl in scene.layers:
        bank = masks.section_masks(z_index)
        for frame, i in zip(frames, shift_indices):
            frame += refl * bank[i]
        if h > 0.0:
            background += refl * mask_coverage(bank)
    background /= len(scene.layers) * n
    for k, i in enumerate(shift_indices):
        if h > 0.0:
            frames[k] = (1.0 - h) * frames[k] + h * background
        frames[k] = _apply_noise(frames[k], scene.noise, i)
    return frames


def render_frame(
    scene: Scene,
    shift_index: int,
    spec: PatternSpec,
    geom: GeometryConfig,
    grid: ZGrid,
) -> np.ndarray:
    """Camera image for one scan position of the pattern."""
    if not (0 <= shift_index < spec.num_shifts_n):
        raise ValueError(
            f"shift_index {shift_index} out of range [0, {spec.num_shifts_n})"
        )
    return _render(scene, spec, geom, grid, [shift_index])[0]


def acquire_stack(
    scene: Scene,
    spec: PatternSpec,
    geom: GeometryConfig,
    grid: ZGrid,
) -> AcquisitionSet:
    """Render the full lateral scan. Bit-identical to per-frame render_frame calls."""
    frames = _render(scene, spec, geom, grid, range(spec.num_shifts_n))
    return AcquisitionSet(frames=frames, spec=spec, geom=geom, grid=grid)


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

    Column c sits at section z_start + floor(slope * c); the scene is built
    as one layer per occupied section, each masking the reflectance to its
    contiguous column band. Every column must land inside the grid.
    """
    refl = validate_frame(reflectance, "reflectance")
    secs = tilted_plane_sections(refl.shape[1], slope, z_start)
    if secs.min() < 0 or secs.max() >= grid.count:
        raise ValueError(
            f"slope maps columns to sections [{secs.min()}, {secs.max()}] "
            f"outside grid [0, {grid.count})"
        )
    layers = []
    for j in np.unique(secs):
        band = refl * (secs == j)[None, :]
        layers.append((int(j), band))
    return Scene(
        layers=layers,
        haze_fraction=haze_fraction,
        noise=noise if noise is not None else NoiseSpec(),
    )
