"""`aspi simulate`: render a synthetic acquisition to a stack file, frame by frame."""

from __future__ import annotations

import math
from contextlib import closing

import numpy as np

from ..forward_sim import NoiseSpec, Scene, make_tilted_plane_scene, render_frames
from ..rig import camera_shape
from ..stack_io import StackWriter
from . import print_summary, rig_from_metadata, rig_metadata


def _parse_layer_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"--layer-z expects comma-separated integers, got {text!r}") from exc


def _build_scene(args, spec, geom, grid) -> Scene:
    shape = camera_shape(spec, geom)
    noise = NoiseSpec(
        gaussian_sigma=args.noise_sigma,
        poisson_scale=args.poisson_scale,
        seed=args.seed,
    )
    if args.scene == "tilted":
        return make_tilted_plane_scene(
            grid, args.slope, np.ones(shape), z_start=args.z_start,
            haze_fraction=args.haze, noise=noise,
        )
    z_list = _parse_layer_list(args.layer_z)
    if not z_list:
        raise ValueError("--layer-z must name at least one section")
    layers = []
    if args.scene == "uniform":
        for z in z_list:
            layers.append((z, np.ones(shape)))
    else:  # bands: one horizontal stripe per layer
        bounds = np.linspace(0, shape[0], len(z_list) + 1).astype(int)
        for (z, r0, r1) in zip(z_list, bounds[:-1], bounds[1:]):
            band = np.zeros(shape)
            band[r0:r1, :] = 1.0
            layers.append((z, band))
    return Scene(layers=layers, haze_fraction=args.haze, noise=noise)


def run(args) -> int:
    spec, geom, grid = rig_from_metadata({**vars(args), "theta_rad": math.radians(args.theta_deg)})
    scene = _build_scene(args, spec, geom, grid)
    # checked here, before the output is opened; the workers start with the first frame
    frames = render_frames(scene, spec, geom, grid, threads=args.threads)
    meta = rig_metadata(spec, geom, grid)
    meta.update(
        kind="acquisition",
        scene=args.scene,
        haze=args.haze,
        noise_sigma=args.noise_sigma,
        poisson_scale=args.poisson_scale,
        seed=args.seed,
    )
    # each frame goes to the file as it is rendered; the stack is never held,
    # and the workers are gone when the block ends, whether it raised or not
    with closing(frames), StackWriter(args.out, (spec.num_shifts_n,) + scene.shape, meta) as out:
        for i, frame in enumerate(frames):
            out.write(i, 0, frame[None])
    h, w = scene.shape
    print_summary(kind="acquisition", frames=spec.num_shifts_n, width=w, height=h,
                  sections=grid.count, path=args.out)
    return 0
