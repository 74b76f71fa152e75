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
I/O problems, too little memory; a one-line diagnostic goes to stderr), 2
usage errors (argparse, a negative --seed among them).
The worker thread count of `simulate`, `reconstruct` and `bench` falls back
to the ASPI_THREADS environment variable when --threads is not given, and
to the number of CPUs this process may run on when neither is; either one
must be an integer.

A command is a short process, so it pays only for what it runs. This
module holds the argument parser and imports nothing but the standard
library: `--help`, `--version` and a usage error load no numpy. The parser
lists every subcommand but adds the arguments of the one named on the
command line only. Each subcommand's body is its own module,
`aspi.commands.<name>`, imported when it runs; it imports the modules it
runs, and no command compiles another's body. `main` freezes the objects
the command leaves before the interpreter exits, which leaves them out of
its final garbage collections. `python -m aspi` (aspi.__main__) also pins
numpy's BLAS to one thread unless the caller chose a count.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import os
import sys

from . import __version__

__all__ = ["run_cli", "main"]


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


def non_negative_int(text: str) -> int:
    """An argparse type: an int >= 0, so a negative value is a usage error naming its option."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


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


def _simulate_args(p: argparse.ArgumentParser):
    _add_rig_args(p)
    p.add_argument("--scene", choices=("uniform", "bands", "tilted"), default="uniform")
    p.add_argument("--layer-z", default="0", help="comma-separated layer sections (uniform/bands)")
    p.add_argument("--slope", type=float, default=0.0, help="sections per pixel (tilted)")
    p.add_argument("--z-start", type=int, default=0, help="section of column 0 (tilted)")
    p.add_argument("--haze", type=float, default=0.0)
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--poisson-scale", type=float, default=0.0)
    p.add_argument("--seed", type=non_negative_int, default=1)
    p.add_argument("--out", required=True)
    _add_threads_arg(p)


def _calibrate_args(p: argparse.ArgumentParser):
    p.add_argument("--refs", required=True, help="stack with planes (x1z1, xNz1, x1zK)")
    p.add_argument("--anchor-x", type=int, required=True, help="scan index N of the second plane")
    p.add_argument("--anchor-z", type=int, required=True, help="section index K of the third plane")
    p.add_argument("--normalize", action="store_true", help="peak-normalize references before fitting")
    p.add_argument("--out", required=True)


def _reconstruct_args(p: argparse.ArgumentParser):
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    masks = p.add_mutually_exclusive_group()
    masks.add_argument("--model", help="mask-model file; omit to synthesize masks from geometry")
    masks.add_argument("--threshold", action="store_true",
                       help="reduce the geometric mask to 1-pixel slits first; needs a scan "
                            "step (shift step x magnification) of about one camera pixel")
    p.add_argument("--floor", type=float, default=None, help="coverage floor (default: derived)")
    _add_threads_arg(p)


def _depthmap_args(p: argparse.ArgumentParser):
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--confidence-out", default=None)
    p.add_argument("--min-confidence", type=float, default=None)
    p.add_argument("--refine", action="store_true", help="3-point parabolic sub-section refinement")
    p.add_argument("--pgm", default=None, help="also export a 16-bit PGM preview")


def _psf_args(p: argparse.ArgumentParser):
    _add_rig_args(p)
    p.add_argument("--layer-z", type=int, default=None,
                   help="section of the probed uniform layer (default: mid grid)")
    p.add_argument("--probe-x", type=int, default=None)
    p.add_argument("--probe-y", type=int, default=None)
    p.add_argument("--threshold", action="store_true",
                   help="reduce the mask to 1-pixel slits first; needs a scan step "
                        "(shift step x magnification) of about one camera pixel")
    p.add_argument("--out", default=None, help="write the curve as two-column text")


def _bench_args(p: argparse.ArgumentParser):
    p.add_argument("--width", type=int, default=2048)
    p.add_argument("--height", type=int, default=2048)
    p.add_argument("--shifts", type=int, default=30)
    p.add_argument("--sections", type=int, default=100)
    _add_threads_arg(p)
    p.add_argument("--seed", type=non_negative_int, default=1)


# each subcommand, in the order the help lists them: its help line and
# what adds its arguments; its body is the module aspi.commands.<name>
_SUBCOMMANDS = {
    "simulate": ("render a synthetic acquisition stack", _simulate_args),
    "calibrate": ("fit a mask model from 3 reference planes", _calibrate_args),
    "reconstruct": ("recover the confocal volume from an acquisition", _reconstruct_args),
    "depthmap": ("extract a depth map from a volume", _depthmap_args),
    "psf": ("axial response curve at a probe pixel", _psf_args),
    "bench": ("reconstruction throughput benchmark", _bench_args),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `aspi` parser: every subcommand, each with its arguments when command is None.

    Given a command, only that subcommand gets its arguments (none does for
    a name that is not one); the others are listed for the help and the
    usage errors, which read as the full parser's.
    """
    parser = argparse.ArgumentParser(
        prog="aspi",
        description="Virtual volumetric confocal imaging from one lateral slit-pattern scan.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        if command is None or command == name:
            add_arguments(p)
    return parser


def run_cli(argv=None) -> int:
    """Parse and execute; returns the process exit status (0/1/2)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top level's options take no value, so its first other word is
    # the subcommand, if argparse is to accept one
    command = next((word for word in argv if not word.startswith("-")), "")
    try:
        args = build_parser(command).parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    try:
        return importlib.import_module(f".commands.{args.command}", __package__).run(args) or 0
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


def main() -> None:
    status = run_cli()
    # Every file is closed and every worker thread joined by now. Frozen objects
    # are left out of the collections the interpreter makes as it exits,
    # which would otherwise walk all of numpy's objects for nothing.
    gc.freeze()
    sys.exit(status)
