"""Command-line interface.

Subcommands cover the full pipeline: `simulate` renders a synthetic
acquisition, `calibrate` fits a mask model from three reference frames,
`reconstruct` recovers the confocal volume, `depthmap` and `psf` analyze it,
and `bench` measures reconstruction throughput. Every subcommand prints a
single machine-parsable ``key=value`` summary line to stdout on success.
`reconstruct` and `depthmap` reject an input file of the wrong kind (an
acquisition, a mask model, a volume), as its sidecar's ``kind`` names it.
`calibrate`, `reconstruct` and `depthmap` refuse an output that names the
same file as an input or as another output, or as either's sidecar,
before they write anything.

Exit codes: 0 success, 1 runtime failure (bad data, violated invariants,
I/O problems; a diagnostic goes to stderr), 2 usage errors (argparse).
The worker thread count of `simulate`, `reconstruct` and `bench` falls back
to the ASPI_THREADS environment variable when --threads is not given, and
to the number of CPUs this process may run on when neither is; either one
must be an integer.

A command is a short process, so this module imports at its top only what
every command uses (argparse, numpy, stack_io, imaging_model, errors);
each command imports the modules it runs when it runs. `main` freezes the
objects the command leaves before the interpreter exits, which leaves them
out of its final garbage collections.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from contextlib import closing
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .errors import CoverageError
from .imaging_model import (
    GeometryConfig,
    GeometryMasks,
    PatternSpec,
    ZGrid,
    axial_range,
    camera_shape,
    is_axially_ambiguous,
)
from .stack_io import StackReader, StackWriter, read_stack, sidecar_path, write_pgm, write_stack

# the other modules are imported by the commands that run them
if TYPE_CHECKING:
    from .calibration import MaskModel
    from .forward_sim import Scene

__all__ = ["run_cli", "main"]


class _Sidecar(dict):
    """Sidecar metadata of one file; a missing key or a bad value is a ValueError naming both."""

    def __init__(self, path, meta: dict):
        super().__init__(meta)
        self.path = path

    def __missing__(self, key):
        raise ValueError(f"{self.path}: sidecar metadata missing key {key!r}")

    def value(self, key: str, kind: type):
        """self[key] as an int or a float."""
        text = self[key]
        try:
            return kind(text)
        except (TypeError, ValueError):
            raise ValueError(f"{self.path}: sidecar value of {key!r} is not "
                             f"{'an int' if kind is int else 'a float'}: {text!r}") from None


def _open(path, kind: str) -> tuple[StackReader, _Sidecar]:
    """A reader of a stack file, which must be of the given kind, and its sidecar."""
    reader = StackReader(path)
    if reader.metadata.get("kind") != kind:
        reader.close()
        article = "an" if kind[0] in "aeiou" else "a"
        raise ValueError(f"{path} is not {article} {kind} file")
    return reader, _Sidecar(sidecar_path(path), reader.metadata)


def _distinct_files(args, *options: str) -> None:
    """A ValueError if two of the given path options name one file, before anything is written.

    Every option but pgm names a stack, and so also its sidecar. Two paths
    name one file when os.path.samefile says so, or, while either file does
    not exist yet, when they resolve to the same path.
    """
    given = []
    for option in options:
        if path := getattr(args, option):
            given.append((option, path))
            if option != "pgm":
                given.append((option, sidecar_path(path)))
    for i, (option, path) in enumerate(given):
        for other, other_path in given[:i]:
            if other == option:
                continue
            try:
                same = os.path.samefile(path, other_path)
            except OSError:
                same = os.path.realpath(path) == os.path.realpath(other_path)
            if same:
                raise ValueError(f"--{other.replace('_', '-')} and --{option.replace('_', '-')} "
                                 f"name the same file: {other_path}, {path}")


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _add_threads_arg(p: argparse.ArgumentParser):
    # a string default goes through type=int like a command-line value, so a
    # bad ASPI_THREADS is the same usage error as a bad --threads
    p.add_argument("--threads", type=int, default=os.environ.get("ASPI_THREADS", str(_cpus())),
                   help="worker threads (default: $ASPI_THREADS, else the CPUs this "
                        "process may run on)")


def _add_rig_args(p: argparse.ArgumentParser):
    g = p.add_argument_group("pattern")
    g.add_argument("--proj-width", type=int, default=256, help="projector width, pixels")
    g.add_argument("--proj-height", type=int, default=256, help="projector height, pixels")
    # each rig flag stores its value under its sidecar key
    g.add_argument("--period", dest="period_d", metavar="PERIOD", type=int, default=30,
                   help="slit period d, projector pixels")
    g.add_argument("--linewidth", dest="linewidth_w", metavar="LINEWIDTH", type=int, default=2,
                   help="slit linewidth w, projector pixels")
    g.add_argument("--shift-step", type=int, default=1, help="scan step, projector pixels")
    g.add_argument("--shifts", dest="num_shifts_n", metavar="SHIFTS", type=int, default=30,
                   help="number of scan positions n")
    g = p.add_argument_group("geometry")
    g.add_argument("--theta-deg", type=float, default=25.0, help="projection tilt, degrees")
    g.add_argument("--z-step", type=float, default=1.0, help="depth section spacing, length units")
    g.add_argument("--pixel-pitch", type=float, default=1.0, help="camera pixel size, length units")
    g.add_argument("--magnification", type=float, default=1.0, help="camera pixels per projector pixel")
    g.add_argument("--shift-sign", type=int, choices=(1, -1), default=1,
                   help="mask shift direction for increasing depth")
    g = p.add_argument_group("depth grid")
    g.add_argument("--z0", type=float, default=0.0, help="depth of section 0")
    g.add_argument("--sections", type=int, default=100, help="number of depth sections K")


def _rig_metadata(spec: PatternSpec, geom: GeometryConfig, grid: ZGrid) -> dict:
    return {
        "proj_width": spec.proj_width,
        "proj_height": spec.proj_height,
        "period_d": spec.period_d,
        "linewidth_w": spec.linewidth_w,
        "shift_step": spec.shift_step,
        "num_shifts_n": spec.num_shifts_n,
        "theta_rad": geom.tilt_theta,
        "z_step": geom.z_step,
        "pixel_pitch": geom.camera_pixel_pitch,
        "magnification": geom.magnification,
        "shift_sign": geom.shift_sign,
        "z0": grid.z0,
        "sections": grid.count,
    }


def _rig_from_metadata(meta: dict) -> tuple[PatternSpec, GeometryConfig, ZGrid]:
    """The rig of a sidecar, or of the rig flags (stored under the same keys)."""
    meta = meta if isinstance(meta, _Sidecar) else _Sidecar("rig", meta)
    spec = PatternSpec(**{key: meta.value(key, int) for key in (
        "proj_width", "proj_height", "period_d", "linewidth_w", "shift_step", "num_shifts_n")})
    geom = GeometryConfig(
        tilt_theta=meta.value("theta_rad", float),
        z_step=meta.value("z_step", float),
        camera_pixel_pitch=meta.value("pixel_pitch", float),
        magnification=meta.value("magnification", float),
        shift_sign=meta.value("shift_sign", int),
    )
    grid = ZGrid(z0=meta.value("z0", float), z_step=geom.z_step, count=meta.value("sections", int))
    return spec, geom, grid


def _parse_layer_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"--layer-z expects comma-separated integers, got {text!r}") from exc


def _build_scene(args, spec, geom, grid) -> Scene:
    from .forward_sim import NoiseSpec, Scene, make_tilted_plane_scene

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


def _print_summary(**kv):
    print(" ".join(f"{key}={value}" for key, value in kv.items()))


def cmd_simulate(args) -> int:
    from .forward_sim import render_frames

    spec, geom, grid = _rig_from_metadata({**vars(args), "theta_rad": math.radians(args.theta_deg)})
    scene = _build_scene(args, spec, geom, grid)
    # checked here, before the output is opened; the workers start with the first frame
    frames = render_frames(scene, spec, geom, grid, threads=args.threads)
    meta = _rig_metadata(spec, geom, grid)
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
    _print_summary(kind="acquisition", frames=spec.num_shifts_n, width=w, height=h,
                   sections=grid.count, path=args.out)
    return 0


def cmd_calibrate(args) -> int:
    from .calibration import fit_mask_model

    _distinct_files(args, "refs", "out")
    planes, _ = read_stack(args.refs)
    if planes.shape[0] != 3:
        raise ValueError(f"calibration needs exactly 3 reference planes, got {planes.shape[0]}")
    refs = [p.astype(np.float64) for p in planes]
    if args.normalize:
        # a NaN or Inf peak leaves its plane as it is, for the fit to reject
        refs = [r / r.max() if 0 < r.max() < math.inf else r for r in refs]
    model = fit_mask_model(refs[0], refs[1], refs[2], (args.anchor_x, args.anchor_z))
    meta = {
        "kind": "mask-model",
        "lateral_dx": model.lateral_dx,
        "lateral_dy": model.lateral_dy,
        "axial_dx": model.axial_dx,
        "axial_dy": model.axial_dy,
        "anchor_x": model.anchors[0],
        "anchor_z": model.anchors[1],
        "lateral_residual_rms": model.lateral_residual_rms,
        "axial_residual_rms": model.axial_residual_rms,
    }
    write_stack(model.base_mask, meta, args.out)
    _print_summary(kind="mask-model",
                   lateral_dx=f"{model.lateral_dx:.6f}", lateral_dy=f"{model.lateral_dy:.6f}",
                   axial_dx=f"{model.axial_dx:.6f}", axial_dy=f"{model.axial_dy:.6f}",
                   path=args.out)
    return 0


def _load_model(path) -> MaskModel:
    from .calibration import MaskModel

    reader, meta = _open(path, "mask-model")
    with reader:
        base = reader[0].astype(np.float64)
    return MaskModel(
        base_mask=base,
        lateral_dx=meta.value("lateral_dx", float),
        lateral_dy=meta.value("lateral_dy", float),
        axial_dx=meta.value("axial_dx", float),
        axial_dy=meta.value("axial_dy", float),
        anchors=(meta.value("anchor_x", int), meta.value("anchor_z", int)),
        lateral_residual_rms=meta.value("lateral_residual_rms", float),
        axial_residual_rms=meta.value("axial_residual_rms", float),
    )


def cmd_reconstruct(args) -> int:
    from .reconstructor import SENTINEL, ModelMasks, VolumeStream

    # a model that is also the input fails as a file of the wrong kind
    _distinct_files(args, "input", "out")
    _distinct_files(args, "model", "out")
    frames, meta = _open(args.input, "acquisition")
    with frames:
        spec, geom, grid = _rig_from_metadata(meta)
        if frames.shape[0] != spec.num_shifts_n:
            raise ValueError(
                f"acquisition has {frames.shape[0]} frames but metadata declares "
                f"{spec.num_shifts_n} scan positions"
            )
        expected_shape = camera_shape(spec, geom)
        if frames.shape[1:] != expected_shape:
            raise ValueError(
                f"acquisition planes are {frames.shape[1:]} but the rig implies {expected_shape}"
            )
        if args.model:
            provider = ModelMasks(_load_model(args.model), grid, spec.num_shifts_n)
        else:
            provider = GeometryMasks(spec, geom, grid, threshold=args.threshold)
        # the frames are checked in one pass over the file, then read chunk by chunk
        stream = VolumeStream(frames, provider, floor=args.floor, threads=args.threads)
        out_meta = _rig_metadata(spec, geom, grid)
        out_meta.update(kind="volume", floor=stream.floor, sentinel=SENTINEL,
                        masks_source=stream.masks_source)
        # the volume goes to the file chunk by chunk and is never held whole;
        # with more than one thread, each chunk is written while the next ones compute
        with StackWriter(args.out, stream.shape, out_meta) as out, \
                closing(stream.blocks()) as chunks:
            for r0, chunk in chunks:
                out.write(0, r0, chunk)
    sentinel_fraction = stream.sentinels / math.prod(stream.shape)
    ambiguous = provider.ambiguous
    _print_summary(kind="volume", sections=grid.count,
                   floor=f"{stream.floor:.6g}",
                   sentinel_fraction=f"{sentinel_fraction:.6g}",
                   ambiguous="n/a" if ambiguous is None else str(bool(ambiguous)).lower(),
                   masks_source=stream.masks_source, path=args.out)
    return 0


def cmd_depthmap(args) -> int:
    from .reconstructor import VolumeStack
    from .volume_analysis import CONTRAST_TAU, contrast_window, extract_depth_map

    _distinct_files(args, "input", "out", "confidence_out", "pgm")
    # the volume is read once, a window of rows of every plane at a time
    planes, meta = _open(args.input, "volume")
    with planes:
        spec, geom, grid = _rig_from_metadata(meta)
        if planes.shape[0] != grid.count:
            raise ValueError(f"volume has {planes.shape[0]} planes, metadata declares {grid.count}")
        floor = meta.value("floor", float) if meta.get("floor") else 0.0
        volume = VolumeStack(sections=planes, grid=grid, coverage_floor_used=floor)
        # the contrast rule's window: one peak's own response, from the rig
        window = contrast_window(spec.linewidth_w * geom.magnification, geom.shear_px_per_section)
        dm = extract_depth_map(volume, min_confidence=args.min_confidence, refine=args.refine,
                               window=window)
    # depths beyond one slit period of shear fold into [z0, z0 + that range)
    ambiguous = str(is_axially_ambiguous(spec, geom, grid)).lower()
    unambiguous = f"{axial_range(spec, geom) / grid.z_step:.6g}"
    rule = ({"valid_rule": "contrast", "contrast_tau": CONTRAST_TAU, "contrast_window": window}
            if args.min_confidence is None else {"valid_rule": "min_confidence"})
    out_meta = {"kind": "depthmap", "z0": grid.z0, "z_step": grid.z_step,
                "sections": grid.count, "refine": int(args.refine),
                "ambiguous": ambiguous, "unambiguous_sections": unambiguous, **rule}
    write_stack(dm.depth, out_meta, args.out)
    if args.confidence_out:
        write_stack(dm.confidence, {"kind": "confidence"}, args.confidence_out)
    if args.pgm:
        write_pgm(dm.depth, args.pgm, invalid_value=float(grid.z0))
    valid_fraction = float(np.mean(np.isfinite(dm.depth)))
    _print_summary(kind="depthmap", valid_fraction=f"{valid_fraction:.6g}",
                   valid_rule=rule["valid_rule"], ambiguous=ambiguous,
                   unambiguous_sections=unambiguous, path=args.out)
    return 0


def cmd_psf(args) -> int:
    from .forward_sim import Scene, render_frame
    from .volume_analysis import axial_psf, fwhm

    spec, geom, grid = _rig_from_metadata({**vars(args), "theta_rad": math.radians(args.theta_deg)})
    shape = camera_shape(spec, geom)
    layer_z = args.layer_z if args.layer_z is not None else grid.count // 2
    scene = Scene(layers=[(layer_z, np.ones(shape))])
    pattern = render_frame(scene, 0, spec, geom, grid)
    mask = GeometryMasks(spec, geom, grid, threshold=args.threshold).base
    probe_x = args.probe_x if args.probe_x is not None else (3 * shape[1]) // 4
    probe_y = args.probe_y if args.probe_y is not None else shape[0] // 2
    try:
        curve = axial_psf(pattern, mask, spec, geom, grid, (probe_x, probe_y))
    except CoverageError as exc:
        if not args.threshold:
            raise
        raise CoverageError(
            f"{exc}; --threshold leaves 1-pixel slits, which need a scan step of about one "
            f"camera pixel, and this rig's, shift_step x magnification, is "
            f"{spec.shift_step * geom.magnification:.6g} camera pixels") from None
    width = fwhm(curve)
    if args.out:
        with open(args.out, "w") as fh:
            for zv, rv in zip(curve.z, curve.response):
                fh.write(f"{float(zv)!r} {float(rv)!r}\n")
    _print_summary(kind="psf", fwhm_z=f"{width:.6g}",
                   fwhm_sections=f"{width / grid.z_step:.6g}",
                   probe_x=probe_x, probe_y=probe_y,
                   path=args.out if args.out else "-")
    return 0


def cmd_bench(args) -> int:
    from .bench import bench_reconstruction

    report = bench_reconstruction(
        width=args.width, height=args.height, n=args.shifts,
        sections=args.sections, threads=args.threads, seed=args.seed,
    )
    print(report.summary())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aspi",
        description="Virtual volumetric confocal imaging from one lateral slit-pattern scan.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="render a synthetic acquisition stack")
    _add_rig_args(p)
    p.add_argument("--scene", choices=("uniform", "bands", "tilted"), default="uniform")
    p.add_argument("--layer-z", default="0", help="comma-separated layer sections (uniform/bands)")
    p.add_argument("--slope", type=float, default=0.0, help="sections per pixel (tilted)")
    p.add_argument("--z-start", type=int, default=0, help="section of column 0 (tilted)")
    p.add_argument("--haze", type=float, default=0.0)
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--poisson-scale", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", required=True)
    _add_threads_arg(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("calibrate", help="fit a mask model from 3 reference planes")
    p.add_argument("--refs", required=True, help="stack with planes (x1z1, xNz1, x1zK)")
    p.add_argument("--anchor-x", type=int, required=True, help="scan index N of the second plane")
    p.add_argument("--anchor-z", type=int, required=True, help="section index K of the third plane")
    p.add_argument("--normalize", action="store_true", help="peak-normalize references before fitting")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("reconstruct", help="recover the confocal volume from an acquisition")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    masks = p.add_mutually_exclusive_group()
    masks.add_argument("--model", help="mask-model file; omit to synthesize masks from geometry")
    masks.add_argument("--threshold", action="store_true",
                       help="reduce the geometric mask to 1-pixel slits first; needs a scan "
                            "step (shift step x magnification) of about one camera pixel")
    p.add_argument("--floor", type=float, default=None, help="coverage floor (default: derived)")
    _add_threads_arg(p)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("depthmap", help="extract a depth map from a volume")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--confidence-out", default=None)
    p.add_argument("--min-confidence", type=float, default=None)
    p.add_argument("--refine", action="store_true", help="3-point parabolic sub-section refinement")
    p.add_argument("--pgm", default=None, help="also export a 16-bit PGM preview")
    p.set_defaults(func=cmd_depthmap)

    p = sub.add_parser("psf", help="axial response curve at a probe pixel")
    _add_rig_args(p)
    p.add_argument("--layer-z", type=int, default=None,
                   help="section of the probed uniform layer (default: mid grid)")
    p.add_argument("--probe-x", type=int, default=None)
    p.add_argument("--probe-y", type=int, default=None)
    p.add_argument("--threshold", action="store_true",
                   help="reduce the mask to 1-pixel slits first; needs a scan step "
                        "(shift step x magnification) of about one camera pixel")
    p.add_argument("--out", default=None, help="write the curve as two-column text")
    p.set_defaults(func=cmd_psf)

    p = sub.add_parser("bench", help="reconstruction throughput benchmark")
    p.add_argument("--width", type=int, default=2048)
    p.add_argument("--height", type=int, default=2048)
    p.add_argument("--shifts", type=int, default=30)
    p.add_argument("--sections", type=int, default=100)
    _add_threads_arg(p)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_bench)
    return parser


def run_cli(argv=None) -> int:
    """Parse and execute; returns the process exit status (0/1/2)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    try:
        return args.func(args) or 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    status = run_cli()
    # Every file is closed and every worker thread joined by now. Frozen objects
    # are left out of the collections the interpreter makes as it exits,
    # which would otherwise walk all of numpy's objects for nothing.
    gc.freeze()
    sys.exit(status)
