#!/usr/bin/env python3
"""Benchmark of the aspi command-line pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bands_volume --seed 1 --seconds 20 --trace 0

One driver process makes every input from --seed. It runs each timed
`python -m aspi` command as its own child process, one at a time, and takes
the child's wall time and peak RSS from os.wait4. Nothing under src/aspi is
changed; the program is measured from outside.

--trace 0 sets the workload up at least three times, then repeats its
timed commands for --seconds, alternating with a fixed numpy reference job,
and prints the end-to-end metrics, each the median over the repetitions
(set-up time: over the set-ups). Times of the pipeline are reported as
multiples of the reference job's time, which cancels the drift of the
host's speed; the seconds are printed too. --trace 1 makes one untraced
pass in child processes (for RSS and the thread-count CRC check), one
untraced and one traced pass in-process through `aspi.cli.run_cli`, and
prints the per-layer metrics; the span wrappers live in perfbench/tracer.py.
Every output is checked against the scene's ground truth, and every
command and check counts as one operation.

Human-readable lines come first; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics. Metric names and units
are those declared in BENCHMARK.json. A copy of the result with the
environment, the samples and (traced) the spans goes to .perfbench_out/.
Why each workload exists, and which layer metric should move which
end-to-end metric on which workload, is in perfbench/predictions.json.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
import zlib
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracer import Hooks, Tracer, layer_metrics  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Shared rig: non-dyadic shear of 0.2332 px/section; 48 sections span
# 11.2 px, well inside one 30 px slit period, so depth stays unambiguous.
PERIOD, LINEWIDTH, SHIFTS = 30, 2, 30
THETA_DEG, Z_STEP, PIXEL_PITCH = 25.0, 1.0, 2.0
RIG_ARGS = ["--period", str(PERIOD), "--linewidth", str(LINEWIDTH), "--shifts", str(SHIFTS),
            "--theta-deg", str(THETA_DEG), "--z-step", str(Z_STEP), "--pixel-pitch", str(PIXEL_PITCH)]
FRAME_ARGS = ["--haze", "0.3", "--noise-sigma", "0.01"]
ANCHOR_X = 10  # calibrate's second reference sits ANCHOR_X - 1 scan steps away

# Set up at least SETUP_REPEATS times and for at least SETUP_MIN_S seconds,
# so that a set-up of one fast import still yields a steady median.
SETUP_REPEATS = 3
SETUP_MIN_S = 3.0
CHILD_TIMEOUT_S = 150.0

# A fixed numpy-only job, run in a child before and after every repetition.
# On a shared 2-vCPU host the speed of the whole machine drifts by 20% and
# more in phases of seconds to minutes, longer than a run; the pipeline's
# time divided by this job's time, taken right around it, does not.
# It does the same kinds of work as the pipeline: interpreter start and
# numpy import, shifted copies and FFTs of small frames, and fresh
# allocations of a few hundred MB. It never imports aspi.
REFERENCE_JOB = """
import numpy as np
frame = np.random.default_rng(0).random((144, 144))
for _ in range(150):
    shifted = np.roll(frame, 3, axis=1) * 0.5 + frame
    spectrum = np.fft.rfft2(shifted)
planes = [np.full(1_000_000, 1.0) + i for i in range(25)]
"""
THREADS = min(2, len(os.sched_getaffinity(0)))

# Correctness limits. At the seed commit the mean depth errors are 0.79
# (tilted_pipeline) and 0.91 (bands_volume) sections with geometry masks and
# 1.30 with the calibrated model, whatever the seed, and the fitted shear is
# off by about 0.001 px/section; a depth map off by one section fails.
MIN_VALID_FRAC = 0.99
MAX_SHEAR_ERR = 0.005

KIND = {"simulate": "acquisition", "calibrate": "mask-model",
        "reconstruct": "volume", "depthmap": "depthmap"}


@dataclass(frozen=True)
class Workload:
    size: int                    # camera frames are size x size
    sections: int
    slope: float | None          # tilted-plane scene when set
    layers: tuple[int, ...]      # bands scene otherwise: one band per layer
    timed: tuple[str, ...]       # commands timed on every repetition, in order
    max_depth_err: float         # allowed mean |depth - truth|, sections

    @property
    def setup(self) -> tuple[str, ...]:
        return () if "simulate" in self.timed else ("simulate",)

    @property
    def calibrated(self) -> bool:
        return "calibrate" in self.timed


# Shapes are small enough for a repetition to take two to three seconds, so
# that a run holds about ten of them.
WORKLOADS = {
    # Non-integer shear defeats the simulator's mask cache: the forward model
    # does most of the work, the reconstructor little.
    "tilted_pipeline": Workload(144, 48, 0.3125, (),
                                ("simulate", "reconstruct", "depthmap"), 1.0),
    # A 50 MB volume: the reconstruction kernel, stack I/O and the
    # whole-volume depth map; the simulator only runs in set-up.
    "bands_volume": Workload(512, 48, None, (6, 18, 30, 42),
                             ("reconstruct", "depthmap"), 1.0),
    # The only workload that calibrates; its reconstruction uses full 2D
    # model masks, one shift_image per (scan, section).
    "calibrated_bands": Workload(192, 40, None, (5, 15, 25, 35),
                                 ("calibrate", "reconstruct", "depthmap"), 1.4),
}


class Ledger:
    """Counts operations (commands and checks) and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


@dataclass
class Run:
    """One CLI command's outcome."""

    ok: bool
    wall_s: float
    rss_mb: float = 0.0


def cli_args(wl: Workload, cmd: str, seed: int, work: Path, threads: int = THREADS,
             volume: str = "vol.aspi") -> list[str]:
    if cmd == "simulate":
        scene = (["--scene", "tilted", "--slope", repr(wl.slope)] if wl.slope is not None else
                 ["--scene", "bands", "--layer-z", ",".join(map(str, wl.layers))])
        return ["simulate", *scene, "--sections", str(wl.sections),
                "--proj-width", str(wl.size), "--proj-height", str(wl.size),
                *RIG_ARGS, *FRAME_ARGS, "--seed", str(seed), "--out", str(work / "acq.aspi")]
    if cmd == "calibrate":
        return ["calibrate", "--refs", str(work / "refs.aspi"), "--anchor-x", str(ANCHOR_X),
                "--anchor-z", str(wl.sections), "--out", str(work / "model.aspi")]
    if cmd == "reconstruct":
        model = ["--model", str(work / "model.aspi")] if wl.calibrated else []
        return ["reconstruct", "--input", str(work / "acq.aspi"), "--out", str(work / volume),
                "--threads", str(threads), *model]
    return ["depthmap", "--input", str(work / "vol.aspi"), "--out", str(work / "depth.aspi"),
            "--refine"]


def parse_summary(stdout: str, cmd: str) -> dict:
    """The command's key=value summary line, or {} when it is missing or malformed."""
    lines = stdout.strip().splitlines()
    if not lines:
        return {}
    try:
        kv = dict(token.split("=", 1) for token in lines[-1].split())
    except ValueError:
        return {}
    return kv if kv.get("kind") == KIND[cmd] else {}


def discard_output(argv: list[str]) -> None:
    """Remove the file a command is about to write, and its sidecar.

    Done outside the timed region: rewriting an existing file truncates it
    first, and truncation waits for any write-back of the old pages.
    """
    out = Path(argv[argv.index("--out") + 1])
    out.unlink(missing_ok=True)
    Path(f"{out}.meta").unlink(missing_ok=True)


def spawn(argv: list[str], work: Path, env: dict) -> tuple[int, float, float, str, str]:
    """Run a child to completion; returns (exit code, wall s, peak RSS MB, stdout, stderr)."""
    out_path, err_path = work / "child.out", work / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=work, env=env, stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_maxrss / 1024.0,
            out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


def run_child(cmd: str, argv: list[str], work: Path, env: dict, ledger: Ledger) -> Run:
    discard_output(argv)
    rc, wall, rss, out, err = spawn([sys.executable, "-m", "aspi", *argv], work, env)
    ok = ledger.check(rc == 0 and bool(parse_summary(out, cmd)),
                      f"{cmd} exited {rc} with summary {out.strip()[-200:]!r}: {err.strip()[-500:]}")
    return Run(ok, wall, rss)


def run_inprocess(run_cli, cmd: str, argv: list[str], ledger: Ledger,
                  tracer: Tracer | None = None) -> Run:
    """Run one command through run_cli; with a tracer, inside a cli.<cmd> span."""
    discard_output(argv)
    buf = io.StringIO()
    scope = tracer.span(f"cli.{cmd}") if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with scope, contextlib.redirect_stdout(buf):
            rc = run_cli(argv)
    except Exception:  # a crash is one failed operation, not the end of the run
        traceback.print_exc()
        rc = -1
    wall = time.perf_counter() - start
    ok = ledger.check(rc == 0 and bool(parse_summary(buf.getvalue(), cmd)),
                      f"in-process {cmd} exited {rc}")
    return Run(ok, wall)


# ------------------------------------------------------------------ inputs

class Program:
    """The aspi package of the checkout, imported into the driver."""

    def __init__(self):
        sys.path.insert(0, str(SRC))
        import numpy as np
        import aspi

        if not Path(aspi.__file__).resolve().is_relative_to(SRC.resolve()):
            raise SystemExit(f"error: imported aspi from {aspi.__file__}, not from {SRC}")
        self.np = np
        self.aspi = aspi

    def rig(self, wl: Workload):
        a = self.aspi
        spec = a.PatternSpec(proj_width=wl.size, proj_height=wl.size, period_d=PERIOD,
                             linewidth_w=LINEWIDTH, shift_step=1, num_shifts_n=SHIFTS)
        geom = a.GeometryConfig(tilt_theta=math.radians(THETA_DEG), z_step=Z_STEP,
                                camera_pixel_pitch=PIXEL_PITCH)
        grid = a.ZGrid(z0=0.0, z_step=Z_STEP, count=wl.sections)
        return spec, geom, grid

    def write_refs(self, wl: Workload, path: Path) -> None:
        """Calibration references: the base mask, the mask ANCHOR_X - 1 scan
        steps on, and the mask at the last section. They are noise-free: the
        masks are constant along y, so noise alone would set the fitted dy."""
        spec, geom, grid = self.rig(wl)
        base = self.aspi.base_camera_pattern(spec, geom)
        step = spec.shift_step * geom.magnification
        planes = [base,
                  self.aspi.synthesize_mask(base, (ANCHOR_X - 1) * step, 0, geom, grid),
                  self.aspi.synthesize_mask(base, 0.0, wl.sections - 1, geom, grid)]
        self.aspi.write_stack(self.np.stack(planes), {"kind": "references"}, path)

    def truth(self, wl: Workload):
        """Ground-truth depth, in sections, of every camera pixel."""
        np = self.np
        if wl.slope is not None:
            cols = self.aspi.tilted_plane_sections(wl.size, wl.slope).astype(np.float64)
            return np.broadcast_to(cols, (wl.size, wl.size))
        # bands: the same row split as the CLI's bands scene
        bounds = np.linspace(0, wl.size, len(wl.layers) + 1).astype(int)
        rows = np.empty(wl.size, dtype=np.float64)
        for z, r0, r1 in zip(wl.layers, bounds[:-1], bounds[1:]):
            rows[r0:r1] = z
        return np.broadcast_to(rows[:, None], (wl.size, wl.size))

    def check_outputs(self, wl: Workload, work: Path, truth, ledger: Ledger) -> dict | None:
        np = self.np
        planes, _ = self.aspi.read_stack(work / "depth.aspi")
        depth = planes[0].astype(np.float64)
        finite = np.isfinite(depth)
        valid = float(finite.mean())
        err = float(np.abs(depth - truth)[finite].mean()) if finite.any() else math.inf
        ok = ledger.check(valid >= MIN_VALID_FRAC and err <= wl.max_depth_err,
                          f"depth map: valid fraction {valid:.4f} (min {MIN_VALID_FRAC}), "
                          f"mean error {err:.3f} sections (max {wl.max_depth_err})")
        quality = {"depth_err_sections": err, "depth_valid_frac": valid}
        if wl.calibrated:
            _, meta = self.aspi.read_stack(work / "model.aspi")
            shear = self.rig(wl)[1].signed_shear
            shear_err = abs(float(meta["axial_dx"]) - shear)
            ok = ledger.check(shear_err <= MAX_SHEAR_ERR,
                              f"calibrated shear {meta['axial_dx']} vs true {shear:.6f}") and ok
            quality["calib_shear_err_px"] = shear_err
        return quality if ok else None

    def volume_counts(self, path: Path) -> dict:
        np = self.np
        planes, _ = self.aspi.read_stack(path)
        sentinel = float(np.mean(planes == self.aspi.SENTINEL))
        return {"reconstructor.sentinel_frac": sentinel,
                "reconstructor.nonfinite_voxels": int(np.count_nonzero(~np.isfinite(planes)))}


def crc32_file(path: Path) -> int:
    crc = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 22):
            crc = zlib.crc32(chunk, crc)
    return crc


def child_env() -> dict:
    """The caller's environment with the checkout's src first on the path.
    Thread-count variables are left exactly as the caller's shell set them."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def environment(prog: Program, seed: int) -> dict:
    try:
        blas = prog.np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas}
    except Exception:  # older numpy has no dict form of its build config
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": prog.np.__version__,
        "blas": blas,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": THREADS,
        "seed": seed,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS") or k == "ASPI_THREADS"},
    }


# ---------------------------------------------------------------- workflow

def set_up(prog: Program, wl: Workload, seed: int, work: Path, env: dict,
           ledger: Ledger) -> tuple[float, Run | None]:
    """Fresh-interpreter `import aspi` plus the workload's inputs; returns
    (seconds, the set-up simulate run if any)."""
    rc, wall, _, out, err = spawn([sys.executable, "-c", "import aspi; print(aspi.__file__)"],
                                  work, env)
    where = Path(out.strip() or ".").resolve()
    if rc != 0 or not where.is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: a fresh interpreter imported aspi from {out.strip()!r} "
                         f"(exit {rc}), not from {SRC}: {err.strip()[-300:]}")
    seconds = wall
    if wl.calibrated:
        start = time.perf_counter()
        prog.write_refs(wl, work / "refs.aspi")
        seconds += time.perf_counter() - start
    sim = None
    for cmd in wl.setup:
        sim = run_child(cmd, cli_args(wl, cmd, seed, work), work, env, ledger)
        seconds += sim.wall_s
    return seconds, sim


def child_pass(prog, wl, seed, work, env, truth, ledger) -> dict | None:
    """The timed commands once, each in a child; None if anything failed."""
    runs = {}
    for cmd in wl.timed:
        run = run_child(cmd, cli_args(wl, cmd, seed, work), work, env, ledger)
        if not run.ok:
            return None
        runs[cmd] = run
    quality = prog.check_outputs(wl, work, truth, ledger)
    if quality is None:
        return None
    return {"runs": runs, **quality}


def reference(work: Path, env: dict, ledger: Ledger) -> float | None:
    """Wall time of one run of REFERENCE_JOB in a child, or None if it failed."""
    rc, wall, _, _, err = spawn([sys.executable, "-c", REFERENCE_JOB], work, env)
    ok = ledger.check(rc == 0, f"reference job exited {rc}: {err.strip()[-300:]}")
    return wall if ok else None


def measure(prog: Program, wl: Workload, args, work: Path, env: dict, ledger: Ledger):
    """End-to-end metrics, tracing off."""
    truth = prog.truth(wl)
    setups, attempts = [], 0
    start = time.perf_counter()
    while attempts < SETUP_REPEATS or time.perf_counter() - start < SETUP_MIN_S:
        attempts += 1
        seconds, sim = set_up(prog, wl, args.seed, work, env, ledger)
        if sim is None or sim.ok:  # a failed set-up reports no time
            setups.append((seconds, sim))
    # Repetitions alternate with the reference job: ref, pass, ref, pass, ref.
    # Each pass is set against the mean of the two reference runs around it.
    passes = []
    refs = [reference(work, env, ledger)]
    deadline = time.perf_counter() + args.seconds
    while True:
        result = child_pass(prog, wl, args.seed, work, env, truth, ledger)
        refs.append(reference(work, env, ledger))
        if result is not None and None not in refs[-2:]:
            result["ref_s"] = (refs[-2] + refs[-1]) / 2
            passes.append(result)
        if time.perf_counter() >= deadline:
            break
    if not passes or not setups:
        return None, {}

    def med(fn):
        return statistics.median(fn(p) for p in passes)

    def wall(p):
        return sum(r.wall_s for r in p["runs"].values())

    def cmd_wall(cmd):
        return lambda p: p["runs"][cmd].wall_s

    voxels = wl.sections * wl.size * wl.size
    sim_walls = ([p["runs"]["simulate"].wall_s for p in passes] if "simulate" in wl.timed
                 else [sim.wall_s for _, sim in setups])
    metrics = {
        "setup_s": statistics.median(seconds for seconds, _ in setups),
        "wall_vs_ref": med(lambda p: wall(p) / p["ref_s"]),
        "reconstruct_vs_ref": med(lambda p: cmd_wall("reconstruct")(p) / p["ref_s"]),
        "depthmap_vs_ref": med(lambda p: cmd_wall("depthmap")(p) / p["ref_s"]),
        "peak_rss_mb": med(lambda p: max(r.rss_mb for r in p["runs"].values())),
        "depth_err_sections": med(lambda p: p["depth_err_sections"]),
        "depth_valid_frac": med(lambda p: p["depth_valid_frac"]),
    }
    # Printed, not declared: seconds follow the host's drift (see
    # REFERENCE_JOB), and on two workloads simulate only runs in set-up,
    # where it is part of setup_s.
    extra = {
        "wall_s": med(wall),
        "reconstruct_s": med(cmd_wall("reconstruct")),
        "depthmap_s": med(cmd_wall("depthmap")),
        "recon_mvox_s": med(lambda p: voxels / 1e6 / cmd_wall("reconstruct")(p)),
        "reference_s": med(lambda p: p["ref_s"]),
        "simulate_s": statistics.median(sim_walls),
    }
    if wl.calibrated:
        extra["calibrate_s"] = med(cmd_wall("calibrate"))
        extra["calib_shear_err_px"] = med(lambda p: p["calib_shear_err_px"])
    samples = {
        "repetitions": len(passes),
        "setup_s": [seconds for seconds, _ in setups],
        "reference_s": refs,
        "simulate_s": sim_walls,
        **{f"{cmd}_s": [p["runs"][cmd].wall_s for p in passes] for cmd in wl.timed},
        **{f"{cmd}_rss_mb": [p["runs"][cmd].rss_mb for p in passes] for cmd in wl.timed},
    }
    return metrics, {"extra": extra, "samples": samples}


def trace(prog: Program, tracer: Tracer, wl: Workload, args, work: Path, env: dict,
          ledger: Ledger):
    """Per-layer metrics from one traced in-process pass."""
    truth = prog.truth(wl)
    _, sim = set_up(prog, wl, args.seed, work, env, ledger)
    rss = {f"cli.{cmd}_rss_mb": 0.0 for cmd in KIND}
    if sim is not None:
        rss["cli.simulate_rss_mb"] = sim.rss_mb
    children = child_pass(prog, wl, args.seed, work, env, truth, ledger)
    if children is None:
        return None, {}
    for cmd, run in children["runs"].items():
        rss[f"cli.{cmd}_rss_mb"] = run.rss_mb

    # The reconstruction must be bit-identical for any thread count.
    crc = crc32_file(work / "vol.aspi")
    single = run_child("reconstruct", cli_args(wl, "reconstruct", args.seed, work, threads=1,
                                               volume="vol_1thread.aspi"), work, env, ledger)
    crc_1 = crc32_file(work / "vol_1thread.aspi") if single.ok else None
    ledger.check(crc_1 == crc, f"volume CRC32 with 1 thread {crc_1} != with {THREADS} {crc}")

    untraced = 0.0
    for cmd in wl.timed:
        gc.collect()
        run = run_inprocess(prog.aspi.run_cli, cmd, cli_args(wl, cmd, args.seed, work), ledger)
        untraced += run.wall_s

    hooks = Hooks(tracer)
    try:
        for cmd in wl.setup + wl.timed:
            gc.collect()
            run = run_inprocess(prog.aspi.run_cli, cmd, cli_args(wl, cmd, args.seed, work),
                                ledger, tracer)
            if not run.ok:
                return None, {}
    finally:
        hooks.remove()
    for point in hooks.missing:
        print(f"trace: hook point {point} not found; its layer reads zero")
    quality = prog.check_outputs(wl, work, truth, ledger)
    traced_crc = crc32_file(work / "vol.aspi")
    ledger.check(traced_crc == crc, f"traced volume CRC32 {traced_crc} != untraced {crc}")
    if quality is None:
        return None, {}

    layer = layer_metrics(tracer.spans, wl.timed, THREADS)
    wall = layer["trace.wall_s"]
    layer.update(rss)
    layer.update(prog.volume_counts(work / "vol.aspi"))
    layer.update({
        "cli.import_s": next(s.seconds for s in tracer.spans if s.name == "cli.import"),
        # Shares of the traced wall time: a layer that does not run on a
        # workload reads 0 here, which is not a measured time.
        "cli.calibrate_self_frac": layer["cli.calibrate_self_s"] / wall,
        "calibration.estimate_translation_frac": layer["calibration.estimate_translation_s"] / wall,
        "calibration.fit_frac": layer["calibration.fit_s"] / wall,
        "calibration.predict_mask_frac": layer["calibration.predict_mask_s"] / wall,
        "calibration.shear_err_px": quality.get("calib_shear_err_px", 0.0),
        "trace.untraced_wall_s": untraced,
        "trace.overhead_s": wall - untraced,
    })
    return layer, {"volume_crc32": f"{crc:08x}", "spans": tracer.records()}


# --------------------------------------------------------------------- main

def declared(section: str) -> list[dict]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)[section]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "aspi" / "__init__.py").is_file():
        print(f"error: no aspi sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    # On SIGTERM unwind normally, so that a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    wl = WORKLOADS[args.workload]
    wanted = declared("per_layer" if args.trace else "end_to_end")

    tracer = Tracer()
    with tracer.span("cli.import"):
        prog = Program()
    env = child_env()
    ledger = Ledger()
    work = OUT / f"work_{args.workload}_{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            values, detail = trace(prog, tracer, wl, args, work, env, ledger)
        else:
            values, detail = measure(prog, wl, args, work, env, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if values is None:
        print(f"error: {ledger.failed} of {ledger.attempted} operations failed and no "
              "repetition completed; no metrics to report", file=sys.stderr)
        return 1

    info = environment(prog, args.seed)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} threads={THREADS}")
    print("env " + json.dumps(info, sort_keys=True))
    units = {m["name"]: m["unit"] for m in wanted}
    for name, value in sorted(values.items()) if args.trace else values.items():
        print(f"  {name:<44} {value:>14.6g} {units.get(name, 's' if name.endswith('_s') else '')}")
    for name, value in detail.get("extra", {}).items():
        print(f"  {name:<44} {value:>14.6g} (printed only)")
    if "samples" in detail:
        print(f"  medians over {detail['samples']['repetitions']} repetitions "
              f"and {len(detail['samples']['setup_s'])} set-ups")
    print(f"  failed_frac {ledger.failed / ledger.attempted:.6g} "
          f"({ledger.failed} of {ledger.attempted} operations)")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    record = OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    record.write_text(json.dumps({"result": result, "env": info, "all_metrics": values,
                                  **detail}, indent=1, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
