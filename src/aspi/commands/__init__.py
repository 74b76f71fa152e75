"""The bodies of the `aspi` subcommands, one module each, and what they share.

`aspi.cli` parses a command line and imports only the module of the
subcommand it names, which runs it with `run(args)` and returns the exit
status: so a process compiles one command's body, and loads the modules
that command runs and no others. This package holds what every command
that reads or writes a stack file shares: the checks on its inputs and
outputs, the rig's sidecar keys, and the summary line.
"""

from __future__ import annotations

import os

from ..rig import GeometryConfig, PatternSpec, ZGrid
from ..stack_io import StackReader, sidecar_path

__all__ = ["Sidecar", "open_stack", "distinct_files", "rig_metadata", "rig_from_metadata",
           "print_summary"]


class Sidecar(dict):
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


def open_stack(path, kind: str) -> tuple[StackReader, Sidecar]:
    """A reader of a stack file, which must be of the given kind, and its sidecar."""
    reader = StackReader(path)
    if reader.metadata.get("kind") != kind:
        reader.close()
        article = "an" if kind[0] in "aeiou" else "a"
        raise ValueError(f"{path} is not {article} {kind} file")
    return reader, Sidecar(sidecar_path(path), reader.metadata)


def distinct_files(args, *options: str) -> None:
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


def rig_metadata(spec: PatternSpec, geom: GeometryConfig, grid: ZGrid) -> dict:
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


def rig_from_metadata(meta: dict) -> tuple[PatternSpec, GeometryConfig, ZGrid]:
    """The rig of a sidecar, or of the rig flags (stored under the same keys).

    A value the rig rejects is a ValueError, prefixed with the sidecar's
    path when it comes from one.
    """
    sidecar = meta if isinstance(meta, Sidecar) else Sidecar("rig", meta)
    spec = {key: sidecar.value(key, int) for key in (
        "proj_width", "proj_height", "period_d", "linewidth_w", "shift_step", "num_shifts_n")}
    geom = {"tilt_theta": sidecar.value("theta_rad", float),
            "z_step": sidecar.value("z_step", float),
            "camera_pixel_pitch": sidecar.value("pixel_pitch", float),
            "magnification": sidecar.value("magnification", float),
            "shift_sign": sidecar.value("shift_sign", int)}
    z0, count = sidecar.value("z0", float), sidecar.value("sections", int)
    try:
        spec, geom = PatternSpec(**spec), GeometryConfig(**geom)
        return spec, geom, ZGrid(z0=z0, z_step=geom.z_step, count=count)
    except ValueError as exc:
        if sidecar is not meta:
            raise
        raise ValueError(f"{sidecar.path}: {exc}") from None


def print_summary(**kv):
    print(" ".join(f"{key}={value}" for key, value in kv.items()))
