import argparse
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from aspi import (
    SENTINEL,
    GeometryConfig,
    GeometryMasks,
    ModelMasks,
    PatternSpec,
    ZGrid,
    bench_reconstruction,
    make_slit_pattern,
    read_stack,
    run_cli,
    synthesize_mask,
    write_stack,
)
from aspi import StackWriter, bench, forward_sim, reconstructor, volume_analysis
from aspi.cli import build_parser
from aspi.commands import reconstruct as reconstruct_command
from aspi.commands import rig_from_metadata
from aspi.stack_io import StackReader, sidecar_path
from conftest import geometry_with_shear, modules_after, python


def parse_summary(line):
    return dict(part.split("=", 1) for part in line.strip().split())


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SHEAR1_PITCH = "0.46630765815499863"  # tan(25 deg): shear of exactly 1 px/section


class TestPipeline:
    def test_simulate_reconstruct_depthmap(self, tmp_path, capsys):
        acq = tmp_path / "acq.aspi"
        vol = tmp_path / "vol.aspi"
        dep = tmp_path / "depth.aspi"
        code, out, _ = run(
            capsys, "simulate", "--scene", "uniform", "--layer-z", "6",
            "--proj-width", "96", "--proj-height", "12", "--period", "16",
            "--linewidth", "2", "--shifts", "16", "--sections", "12",
            "--pixel-pitch", SHEAR1_PITCH, "--out", str(acq),
        )
        assert code == 0
        summary = parse_summary(out)
        assert summary["frames"] == "16" and summary["kind"] == "acquisition"

        code, out, _ = run(capsys, "reconstruct", "--input", str(acq), "--out", str(vol))
        assert code == 0
        summary = parse_summary(out)
        assert summary["sections"] == "12"
        assert summary["ambiguous"] == "false"

        # explicit confidence floor: a clean synthetic volume has zero
        # background, so the derived default threshold would be 0
        code, out, _ = run(capsys, "depthmap", "--input", str(vol), "--out", str(dep),
                           "--min-confidence", "0.5",
                           "--confidence-out", str(tmp_path / "conf.aspi"),
                           "--pgm", str(tmp_path / "depth.pgm"))
        assert code == 0
        planes, meta = read_stack(dep)
        assert planes.shape[0] == 1
        finite = planes[0][np.isfinite(planes[0])]
        assert finite.size > 0
        assert np.all(np.abs(finite - 6.0) < 1e-6)
        assert (tmp_path / "depth.pgm").exists()

    def test_bands_scene(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "simulate", "--scene", "bands", "--layer-z", "2,5,8",
            "--proj-width", "64", "--proj-height", "24", "--period", "16",
            "--linewidth", "2", "--shifts", "16", "--sections", "10",
            "--pixel-pitch", SHEAR1_PITCH, "--out", str(tmp_path / "b.aspi"),
        )
        assert code == 0
        planes, meta = read_stack(tmp_path / "b.aspi")
        assert planes.shape == (16, 24, 64)
        assert meta["scene"] == "bands"

    def test_tilted_scene_summary(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "simulate", "--scene", "tilted", "--slope", "0.1",
            "--proj-width", "80", "--proj-height", "8", "--period", "16",
            "--linewidth", "2", "--shifts", "16", "--sections", "8",
            "--pixel-pitch", SHEAR1_PITCH, "--out", str(tmp_path / "t.aspi"),
        )
        assert code == 0
        assert parse_summary(out)["kind"] == "acquisition"

    def test_rig_flags_equal_the_rig_read_back_from_the_sidecar(self, tmp_path, capsys):
        acq = tmp_path / "acq.aspi"
        code, *_ = run(
            capsys, "simulate", "--proj-width", "40", "--proj-height", "6", "--period", "12",
            "--linewidth", "3", "--shift-step", "2", "--shifts", "6", "--theta-deg", "30",
            "--z-step", "0.5", "--pixel-pitch", "0.8", "--magnification", "1.5",
            "--shift-sign", "-1", "--z0", "-2.5", "--sections", "7", "--out", str(acq),
        )
        assert code == 0
        spec = PatternSpec(40, 6, period_d=12, linewidth_w=3, shift_step=2, num_shifts_n=6)
        geom = GeometryConfig(tilt_theta=math.radians(30.0), z_step=0.5, camera_pixel_pitch=0.8,
                              magnification=1.5, shift_sign=-1)
        grid = ZGrid(z0=-2.5, z_step=0.5, count=7)
        planes, meta = read_stack(acq)
        assert rig_from_metadata(meta) == (spec, geom, grid)
        assert planes.shape == (6, 9, 60)


class TestCalibrateCli:
    def test_calibrate_then_reconstruct_with_model(self, tmp_path, capsys):
        spec = PatternSpec(96, 12, period_d=16, linewidth_w=2, shift_step=1, num_shifts_n=16)
        geom = geometry_with_shear(0.5)
        grid = ZGrid(z0=0.0, z_step=1.0, count=12)
        base = make_slit_pattern(spec, 0).astype(np.float64)
        refs = np.stack([
            base,
            synthesize_mask(base, 4.0, 0, geom, grid),
            synthesize_mask(base, 0.0, 11, geom, grid),
        ])
        refs_path = tmp_path / "refs.aspi"
        write_stack(refs, {"kind": "references"}, refs_path)

        model_path = tmp_path / "model.aspi"
        code, out, _ = run(capsys, "calibrate", "--refs", str(refs_path),
                           "--anchor-x", "5", "--anchor-z", "12", "--out", str(model_path))
        assert code == 0
        summary = parse_summary(out)
        assert float(summary["lateral_dx"]) == pytest.approx(1.0, abs=1e-3)
        assert float(summary["axial_dx"]) == pytest.approx(0.5, abs=0.01)

        acq_path = tmp_path / "acq.aspi"
        code, *_ = run(
            capsys, "simulate", "--scene", "uniform", "--layer-z", "4",
            "--proj-width", "96", "--proj-height", "12", "--period", "16",
            "--linewidth", "2", "--shifts", "16", "--sections", "12",
            "--pixel-pitch", str(geom.camera_pixel_pitch), "--out", str(acq_path),
        )
        assert code == 0
        code, out, _ = run(capsys, "reconstruct", "--input", str(acq_path),
                           "--model", str(model_path), "--out", str(tmp_path / "vol.aspi"))
        assert code == 0
        assert parse_summary(out)["masks_source"] == "calibrated-model"

    def test_calibrate_requires_three_planes(self, tmp_path, capsys):
        refs_path = tmp_path / "refs.aspi"
        write_stack(np.random.default_rng(0).random((2, 8, 8)), {}, refs_path)
        code, _, err = run(capsys, "calibrate", "--refs", str(refs_path),
                           "--anchor-x", "2", "--anchor-z", "2",
                           "--out", str(tmp_path / "m.aspi"))
        assert code == 1
        assert "3 reference planes" in err


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "simulate", "--no-such-flag")
        assert code == 2

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert run(capsys)[0] == 2

    def test_dimension_mismatch_is_runtime_error(self, tmp_path, capsys):
        acq = tmp_path / "acq.aspi"
        code, *_ = run(
            capsys, "simulate", "--scene", "uniform", "--layer-z", "0",
            "--proj-width", "64", "--proj-height", "8", "--period", "16",
            "--linewidth", "2", "--shifts", "16", "--sections", "4",
            "--pixel-pitch", SHEAR1_PITCH, "--out", str(acq),
        )
        assert code == 0
        planes, meta = read_stack(acq)
        write_stack(planes[:5], meta, acq)  # drop frames; metadata still says 16
        code, _, err = run(capsys, "reconstruct", "--input", str(acq),
                           "--out", str(tmp_path / "v.aspi"))
        assert code == 1
        assert "frames" in err and "16" in err

    def test_missing_input_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "reconstruct", "--input", str(tmp_path / "nope.aspi"),
                           "--out", str(tmp_path / "v.aspi"))
        assert code == 1
        assert err.startswith("error:")

    def test_depthmap_rejects_non_volume(self, tmp_path, capsys):
        path = tmp_path / "x.aspi"
        write_stack(np.ones((1, 4, 4)), {"kind": "acquisition"}, path)
        code, _, err = run(capsys, "depthmap", "--input", str(path),
                           "--out", str(tmp_path / "d.aspi"))
        assert code == 1
        assert "volume" in err


SMALL_SIMULATE = (
    "simulate", "--scene", "uniform", "--layer-z", "1",
    "--proj-width", "64", "--proj-height", "8", "--period", "16",
    "--linewidth", "2", "--shifts", "16", "--sections", "4",
    "--pixel-pitch", SHEAR1_PITCH,
)


def small_acquisition(capsys, path):
    code, *_ = run(capsys, *SMALL_SIMULATE, "--out", str(path))
    assert code == 0


def drop_sidecar_key(path, key):
    planes, meta = read_stack(path)
    del meta[key]
    write_stack(planes, meta, path)


class TestMissingSidecarKey:
    """A sidecar without a required key is one error line and exit 1."""

    def test_reconstruct_acquisition(self, tmp_path, capsys):
        acq = tmp_path / "acq.aspi"
        small_acquisition(capsys, acq)
        drop_sidecar_key(acq, "z0")
        code, out, err = run(capsys, "reconstruct", "--input", str(acq),
                             "--out", str(tmp_path / "v.aspi"))
        assert code == 1 and out == ""
        assert err.startswith("error:") and "missing key 'z0'" in err
        assert len(err.strip().splitlines()) == 1

    def test_reconstruct_model(self, tmp_path, capsys):
        acq = tmp_path / "acq.aspi"
        small_acquisition(capsys, acq)
        base = make_slit_pattern(PatternSpec(64, 8, period_d=16, linewidth_w=2), 0)
        refs = tmp_path / "refs.aspi"
        write_stack(np.stack([base, np.roll(base, 1, axis=1), np.roll(base, 3, axis=1)]),
                    {"kind": "references"}, refs)
        model = tmp_path / "model.aspi"
        code, *_ = run(capsys, "calibrate", "--refs", str(refs), "--anchor-x", "2",
                       "--anchor-z", "4", "--out", str(model))
        assert code == 0
        drop_sidecar_key(model, "axial_dy")
        code, out, err = run(capsys, "reconstruct", "--input", str(acq), "--model", str(model),
                             "--out", str(tmp_path / "v.aspi"))
        assert code == 1 and out == ""
        assert err.startswith("error:") and "missing key 'axial_dy'" in err
        assert len(err.strip().splitlines()) == 1

    def test_depthmap_volume(self, tmp_path, capsys):
        acq = tmp_path / "acq.aspi"
        vol = tmp_path / "vol.aspi"
        small_acquisition(capsys, acq)
        assert run(capsys, "reconstruct", "--input", str(acq), "--out", str(vol))[0] == 0
        drop_sidecar_key(vol, "sections")
        code, out, err = run(capsys, "depthmap", "--input", str(vol),
                             "--out", str(tmp_path / "d.aspi"))
        assert code == 1 and out == ""
        assert err.startswith("error:") and "missing key 'sections'" in err
        assert len(err.strip().splitlines()) == 1


def small_model(capsys, tmp_path):
    base = make_slit_pattern(PatternSpec(64, 8, period_d=16, linewidth_w=2), 0)
    refs = tmp_path / "refs.aspi"
    write_stack(np.stack([base, np.roll(base, 1, axis=1), np.roll(base, 3, axis=1)]),
                {"kind": "references"}, refs)
    model = tmp_path / "model.aspi"
    code, *_ = run(capsys, "calibrate", "--refs", str(refs), "--anchor-x", "2",
                   "--anchor-z", "4", "--out", str(model))
    assert code == 0
    return model


class TestNonFiniteFrames:
    """A NaN or Inf acquisition pixel is one error line and exit 1, not a NaN voxel."""

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("masks", ["geometry", "model"])
    def test_reconstruct_rejects(self, tmp_path, capsys, value, masks):
        acq = tmp_path / "acq.aspi"
        small_acquisition(capsys, acq)
        model = ["--model", str(small_model(capsys, tmp_path))] if masks == "model" else []
        planes, meta = read_stack(acq)
        planes[3, 2, 40] = value
        planes[7, 5, 10] = -value
        write_stack(planes, meta, acq)
        vol = tmp_path / "v.aspi"
        code, out, err = run(capsys, "reconstruct", "--input", str(acq), *model,
                             "--out", str(vol))
        assert code == 1 and out == ""
        assert err.startswith("error:") and "2 non-finite frame pixels" in err
        assert len(err.strip().splitlines()) == 1
        assert not vol.exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_depthmap_rejects(self, tmp_path, capsys, value):
        acq, vol = tmp_path / "acq.aspi", tmp_path / "vol.aspi"
        small_acquisition(capsys, acq)
        assert run(capsys, "reconstruct", "--input", str(acq), "--out", str(vol))[0] == 0
        planes, meta = read_stack(vol)
        planes[1, 3, 30] = value
        write_stack(planes, meta, vol)
        dep = tmp_path / "d.aspi"
        code, out, err = run(capsys, "depthmap", "--input", str(vol), "--out", str(dep))
        assert code == 1 and out == ""
        assert err.startswith("error:") and "1 non-finite voxels" in err
        assert len(err.strip().splitlines()) == 1
        assert not dep.exists()


class TestPsfCli:
    def test_default_layer_sits_mid_grid(self, capsys):
        # the probed layer defaults away from the grid edge so both
        # half-maximum crossings stay in range
        code, out, _ = run(capsys, "psf", "--sections", "40")
        assert code == 0
        assert float(parse_summary(out)["fwhm_sections"]) > 0

    def test_curve_file_and_summary(self, tmp_path, capsys):
        curve_path = tmp_path / "curve.txt"
        code, out, _ = run(
            capsys, "psf", "--proj-width", "128", "--proj-height", "8",
            "--period", "16", "--linewidth", "2", "--shifts", "16",
            "--sections", "12", "--layer-z", "4",
            "--pixel-pitch", SHEAR1_PITCH, "--out", str(curve_path),
        )
        assert code == 0
        summary = parse_summary(out)
        assert float(summary["fwhm_sections"]) == pytest.approx(2.0, abs=0.05)
        rows = np.loadtxt(curve_path)
        assert rows.shape == (12, 2)
        assert rows[:, 1].max() == pytest.approx(1.0)

    @pytest.mark.parametrize("layer", ["-1", "40"])
    def test_layer_outside_the_grid(self, tmp_path, capsys, layer):
        # the mask bank has no section there
        curve_path = tmp_path / "curve.txt"
        result = run(capsys, "psf", "--sections", "40", "--layer-z", layer,
                     "--out", str(curve_path))
        assert_one_error_line(result, f"z_index {layer} out of range [0, 40)", curve_path)


class TestBench:
    def test_summary_line(self, capsys):
        code, out, _ = run(capsys, "bench", "--width", "64", "--height", "48",
                           "--shifts", "8", "--sections", "6", "--threads", "1")
        assert code == 0
        summary = parse_summary(out)
        assert float(summary["megapixels_per_second"]) > 0
        assert summary["sections"] == "6"

    def test_thread_counts_give_identical_checksums(self, monkeypatch):
        # the bench runs the GEMM kernel that `reconstruct` runs, never the
        # per-section reference kernel
        def no_reference_kernel(*args, **kwargs):
            raise AssertionError("the bench must not take the reference kernel")

        monkeypatch.setattr(reconstructor, "reconstruct_section", no_reference_kernel)
        monkeypatch.setattr(bench, "reconstruct_section", no_reference_kernel, raising=False)
        a = bench_reconstruction(96, 64, 8, 10, threads=1, seed=3)
        b = bench_reconstruction(96, 64, 8, 10, threads=2, seed=3)
        assert a.checksum == b.checksum

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            bench_reconstruction(0, 64, 8, 10)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_checksum_of_the_float32_volume_is_pinned(self, threads):
        # the CRC32 of the float32 bytes `reconstruct` writes, chunk by chunk
        assert bench_reconstruction(256, 96, 30, 24, threads=threads).checksum == 0x42c23ba3


def test_module_entrypoint_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "aspi", "--version"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "aspi" in proc.stdout


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_threads_after_the_entry_point():
    """(the BLAS variables, the thread count) of a fresh process that imported
    aspi.__main__ and then numpy; the count is None off Linux."""
    proc = python("-c", "import json, os, aspi.__main__, numpy\n"
                        f"names = {BLAS_THREADS!r}\n"
                        "tasks = '/proc/self/task'\n"
                        "print(json.dumps([{n: os.environ.get(n) for n in names},\n"
                        "                  len(os.listdir(tasks)) if os.path.isdir(tasks) "
                        "else None]))")
    assert proc.returncode == 0, proc.stderr
    return tuple(json.loads(proc.stdout))


def test_the_entry_point_pins_blas_to_one_thread(monkeypatch):
    for name in BLAS_THREADS:
        monkeypatch.delenv(name, raising=False)
    variables, threads = blas_threads_after_the_entry_point()
    assert variables == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None,
                         "MKL_NUM_THREADS": None}
    if threads is None:
        pytest.skip("no /proc/self/task on this platform")
    assert threads == 1


@pytest.mark.parametrize("name", BLAS_THREADS)
def test_the_entry_point_keeps_a_blas_thread_count_the_caller_set(monkeypatch, name):
    for other in BLAS_THREADS:
        monkeypatch.delenv(other, raising=False)
    monkeypatch.setenv(name, "2")
    variables, _ = blas_threads_after_the_entry_point()
    assert variables == {other: "2" if other == name else None for other in BLAS_THREADS}


# no command uses these: np.unique imports numpy.ma, and a ThreadPoolExecutor
# concurrent.futures with logging
NEVER_LOADED = {"numpy.ma", "concurrent.futures", "logging"}


@pytest.mark.parametrize("command,threads,runs,skips", [
    ("simulate", None, {"aspi.forward_sim", "aspi.commands.simulate"},
     {"aspi.reconstructor", "aspi.volume_analysis", "aspi.calibration", "aspi.bench",
      "aspi.commands.reconstruct"}),
    ("reconstruct", "1", {"aspi.reconstructor", "aspi.commands.reconstruct"},
     {"aspi.calibration", "aspi.volume_analysis", "aspi.forward_sim", "aspi.commands.simulate"}),
    ("reconstruct", "2", {"aspi.reconstructor"},
     {"aspi.calibration", "aspi.volume_analysis", "aspi.forward_sim"}),
    ("reconstruct --model", "1", {"aspi.reconstructor", "aspi.calibration"},
     {"aspi.volume_analysis", "aspi.forward_sim", "aspi.bench"}),
    ("bench", "2", {"aspi.bench", "aspi.reconstructor", "aspi.commands.bench"},
     {"aspi.calibration", "aspi.volume_analysis", "aspi.forward_sim", "aspi.commands.reconstruct"}),
    ("depthmap", None, {"aspi.volume_analysis", "aspi.rig", "aspi.commands.depthmap"},
     {"aspi.forward_sim", "aspi.bench", "aspi.calibration", "aspi.imaging_model",
      "aspi.reconstructor", "aspi.commands.reconstruct", "queue"}),
    ("psf", None, {"aspi.imaging_model", "aspi.volume_analysis", "aspi.commands.psf"},
     {"aspi.forward_sim", "aspi.commands.simulate", "aspi.calibration", "aspi.bench", "queue"}),
])
def test_a_command_loads_only_the_modules_it_runs(tmp_path, capsys, command, threads, runs,
                                                  skips):
    # simulate at its default thread count, the others at the one given
    acq, vol = tmp_path / "acq.aspi", tmp_path / "vol.aspi"
    small_acquisition(capsys, acq)
    assert run(capsys, "reconstruct", "--input", str(acq), "--out", str(vol))[0] == 0
    model = small_model(capsys, tmp_path) if command == "reconstruct --model" else None
    argv = {
        "simulate": [*SMALL_SIMULATE, "--out", str(tmp_path / "acq2.aspi")],
        "reconstruct": ["reconstruct", "--input", str(acq), "--out", str(tmp_path / "vol2.aspi")],
        "reconstruct --model": ["reconstruct", "--input", str(acq), "--model", str(model),
                                "--out", str(tmp_path / "vol2.aspi")],
        "bench": ["bench", "--width", "64", "--height", "48", "--shifts", "8", "--sections", "6"],
        "depthmap": ["depthmap", "--input", str(vol), "--out", str(tmp_path / "depth.aspi")],
        "psf": ["psf"],
    }[command] + (["--threads", threads] if threads else [])
    loaded = modules_after(f"from aspi.cli import run_cli\nassert run_cli({argv!r}) == 0")
    assert runs <= loaded
    assert sorted(loaded & (skips | NEVER_LOADED)) == []


@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["depthmap", "--help"],
                                  ["reconstruct", "--help"]])
def test_help_and_version_load_no_command_module(argv):
    # nor numpy: only the parser runs
    loaded = modules_after(f"from aspi.cli import run_cli\nassert run_cli({argv!r}) == 0")
    assert sorted(name for name in loaded if name.startswith("aspi.")) == ["aspi.cli"]
    assert "numpy" not in loaded


def test_commands_in_a_process_exit_and_write_as_in_process(tmp_path, capsys):
    # python -m aspi, stdout piped: the path through main() and its exit
    def pipeline(d):
        d.mkdir()
        return [[*SMALL_SIMULATE, "--out", str(d / "acq.aspi")],
                ["reconstruct", "--input", str(d / "acq.aspi"), "--out", str(d / "vol.aspi")],
                ["depthmap", "--input", str(d / "vol.aspi"), "--out", str(d / "depth.aspi"),
                 "--refine"]]

    here, there = tmp_path / "in_process", tmp_path / "process"
    for argv, child_argv in zip(pipeline(here), pipeline(there)):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        proc = python("-m", "aspi", *child_argv)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert parse_summary(proc.stdout.replace(str(there), str(here))) == parse_summary(out)
    for name in ("acq.aspi", "vol.aspi", "depth.aspi"):
        for path in (here / name, sidecar_path(here / name)):
            assert (there / path.name).read_bytes() == path.read_bytes(), path.name

    proc = python("-m", "aspi", "depthmap", "--input", str(there / "acq.aspi"),
                  "--out", str(there / "wrong.aspi"))
    assert_one_error_line((proc.returncode, proc.stdout, proc.stderr),
                          "is not a volume file", there / "wrong.aspi")
    assert python("-m", "aspi", "simulate", "--no-such-flag").returncode == 2


def test_env_thread_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ASPI_THREADS", "2")
    acq = tmp_path / "acq.aspi"
    code, *_ = run(
        capsys, "simulate", "--scene", "uniform", "--layer-z", "0",
        "--proj-width", "64", "--proj-height", "8", "--period", "16",
        "--linewidth", "2", "--shifts", "16", "--sections", "4",
        "--pixel-pitch", SHEAR1_PITCH, "--out", str(acq),
    )
    assert code == 0
    code, out, _ = run(capsys, "reconstruct", "--input", str(acq),
                       "--out", str(tmp_path / "v.aspi"))
    assert code == 0


def threaded_commands():
    """The subcommands with a --threads flag, each with its required flags filled in."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {name: [name] + [token for action in p._actions if action.required
                            for token in (action.option_strings[0], "x.aspi")]
            for name, p in sub.choices.items() if "--threads" in p._option_string_actions}


def full_parser_result(capsys, argv):
    """(exit code, stdout, stderr) of the parser with every subcommand's arguments."""
    try:
        build_parser().parse_args(argv)
        code = 0
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SUBCOMMANDS = ["simulate", "calibrate", "reconstruct", "depthmap", "psf", "bench"]


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["--version"], [], ["nosuch"],
                                  ["nosuch", "--out", "x"], ["--bogus"], ["-1", "depthmap"],
                                  ["depthmap"], ["depthmap", "--bogus", "1"],
                                  ["--", "psf", "--help"],
                                  *([name, "--help"] for name in SUBCOMMANDS)])
def test_the_parser_of_one_subcommand_answers_as_the_full_parser(capsys, argv):
    # run_cli adds the arguments of the subcommand it runs only
    expected = full_parser_result(capsys, argv)
    assert run(capsys, *argv) == expected


def test_build_parser_with_no_command_has_every_subcommand():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == SUBCOMMANDS
    assert all(len(p._actions) > 1 for p in sub.choices.values())  # more than its --help


def test_threaded_commands():
    assert sorted(threaded_commands()) == ["bench", "reconstruct", "simulate"]


@pytest.mark.parametrize("command", sorted(threaded_commands()))
def test_threads_default_to_the_cpus_this_process_may_use(capsys, monkeypatch, command):
    argv = threaded_commands()[command]
    monkeypatch.delenv("ASPI_THREADS", raising=False)
    assert build_parser().parse_args(argv).threads == len(os.sched_getaffinity(0))
    monkeypatch.setenv("ASPI_THREADS", "3")
    assert build_parser().parse_args(argv).threads == 3
    assert build_parser().parse_args(argv + ["--threads", "5"]).threads == 5
    # only the argument parse runs: it fails before any command starts
    monkeypatch.setenv("ASPI_THREADS", "abc")
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"aspi {command}: error: argument --threads: invalid int value: 'abc'"
    ]


SIMULATE_NOISY = ["simulate", "--scene", "bands", "--layer-z", "1,3", "--proj-width", "96",
                  "--proj-height", "24", "--period", "16", "--shifts", "16", "--sections", "6",
                  "--pixel-pitch", SHEAR1_PITCH, "--haze", "0.3", "--noise-sigma", "0.01",
                  "--poisson-scale", "50"]


def test_simulate_file_is_the_same_for_any_thread_count(tmp_path, capsys):
    files = []
    for threads in ("1", "2"):
        files.append(tmp_path / f"acq{threads}.aspi")
        code, *_ = run(capsys, *SIMULATE_NOISY, "--threads", threads, "--out", str(files[-1]))
        assert code == 0
    assert files[0].read_bytes() == files[1].read_bytes()
    assert sidecar_path(files[0]).read_bytes() == sidecar_path(files[1]).read_bytes()


def test_simulate_write_failure_leaves_no_worker(tmp_path, capsys, monkeypatch):
    write = StackWriter.write

    def failing_write(self, k0, r0, block):
        if k0 == 3:
            raise OSError("disk full")
        write(self, k0, r0, block)

    monkeypatch.setattr(StackWriter, "write", failing_write)
    before = threading.active_count()
    acq = tmp_path / "acq.aspi"
    code, out, err = run(capsys, *SIMULATE_NOISY, "--threads", "3", "--out", str(acq))
    assert (code, out, err) == (1, "", "error: disk full\n")
    assert threading.active_count() == before
    assert list(tmp_path.iterdir()) == []


class TestStreamedReconstruct:
    """`reconstruct` writes the volume chunk by chunk and commits it whole or not at all."""

    def inputs(self, capsys, tmp_path):
        # 80 rows: five 16-row chunks of every section
        acq, vol = tmp_path / "acq.aspi", tmp_path / "vol.aspi"
        code, *_ = run(capsys, "simulate", "--scene", "uniform", "--layer-z", "1",
                       "--proj-width", "64", "--proj-height", "80", "--period", "16",
                       "--linewidth", "2", "--shifts", "16", "--sections", "4",
                       "--pixel-pitch", SHEAR1_PITCH, "--out", str(acq))
        assert code == 0
        write_stack(np.full((2, 3, 4), 7.0), {"kind": "volume", "old": 1}, vol)
        return acq, vol, (vol.read_bytes(), vol.with_name("vol.aspi.meta").read_bytes())

    def assert_untouched(self, tmp_path, vol, before):
        assert (vol.read_bytes(), vol.with_name("vol.aspi.meta").read_bytes()) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "acq.aspi", "acq.aspi.meta", "vol.aspi", "vol.aspi.meta"]

    def test_volume_and_summary_equal_the_whole_volume(self, capsys, tmp_path):
        acq, vol, _ = self.inputs(capsys, tmp_path)
        code, out, _ = run(capsys, "reconstruct", "--input", str(acq), "--out", str(vol))
        assert code == 0
        planes, frames_meta = read_stack(acq)
        whole = reconstructor.reconstruct_volume(
            planes, GeometryMasks(*rig_from_metadata(frames_meta)))
        streamed, meta = read_stack(vol)
        assert streamed.tobytes() == whole.sections.astype("<f4").tobytes()
        summary = parse_summary(out)
        assert summary["sentinel_fraction"] == f"{np.mean(whole.sections == -1.0):.6g}"
        assert meta["floor"] == str(whole.coverage_floor_used)

    def test_kernel_failure_after_first_block_commits_nothing(self, capsys, tmp_path, monkeypatch):
        acq, vol, before = self.inputs(capsys, tmp_path)
        bands = []
        matmul = np.matmul

        def failing_matmul(*args, **kwargs):
            bands.append(1)
            # one call per 16-row chunk (its one 64-column tile): the third
            # chunk fails after two chunks have been written
            if len(bands) > 2:
                raise ValueError("kernel failure")
            return matmul(*args, **kwargs)

        monkeypatch.setattr(np, "matmul", failing_matmul)
        code, out, err = run(capsys, "reconstruct", "--input", str(acq), "--out", str(vol),
                             "--threads", "1")
        assert (code, out, err) == (1, "", "error: kernel failure\n")
        assert len(bands) == 3
        self.assert_untouched(tmp_path, vol, before)

    @pytest.mark.parametrize("failing", [2, 5])
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_write_failure_commits_nothing_and_leaves_no_thread(self, capsys, tmp_path,
                                                                   monkeypatch, threads, failing):
        # the second chunk's write fails (with two threads while the workers
        # compute the third and fourth), or the last's
        acq, vol, before = self.inputs(capsys, tmp_path)
        writes = []
        write = StackWriter.write

        def failing_write(self, k0, r0, block):
            writes.append(r0)
            if len(writes) == failing:
                raise OSError("disk full")
            write(self, k0, r0, block)

        monkeypatch.setattr(StackWriter, "write", failing_write)
        alive = threading.active_count()
        code, out, err = run(capsys, "reconstruct", "--input", str(acq), "--out", str(vol),
                             "--threads", threads)
        assert (code, out, err) == (1, "", "error: disk full\n")
        assert writes == [0, 16, 32, 48, 64][:failing]
        assert threading.active_count() == alive
        self.assert_untouched(tmp_path, vol, before)

    def test_nan_frames_rejected_before_the_file_is_opened(self, capsys, tmp_path, monkeypatch):
        acq, vol, before = self.inputs(capsys, tmp_path)
        planes, meta = read_stack(acq)
        planes[5, 40, 3] = np.nan
        write_stack(planes, meta, acq)

        def no_writer(*args, **kwargs):
            raise AssertionError("the output was opened")

        monkeypatch.setattr(reconstruct_command, "StackWriter", no_writer)
        code, out, err = run(capsys, "reconstruct", "--input", str(acq), "--out", str(vol))
        assert code == 1 and "1 non-finite frame pixels" in err
        self.assert_untouched(tmp_path, vol, before)

    def test_bad_metadata_commits_nothing(self, capsys, tmp_path, monkeypatch):
        acq, vol, before = self.inputs(capsys, tmp_path)
        rig_metadata = reconstruct_command.rig_metadata
        monkeypatch.setattr(reconstruct_command, "rig_metadata",
                            lambda *args: {**rig_metadata(*args), "bad key": 1})
        code, out, err = run(capsys, "reconstruct", "--input", str(acq), "--out", str(vol))
        assert (code, out, err) == (1, "", "error: invalid metadata key 'bad key'\n")
        self.assert_untouched(tmp_path, vol, before)

    def test_short_stream_commits_nothing(self, capsys, tmp_path, monkeypatch):
        acq, vol, before = self.inputs(capsys, tmp_path)
        blocks = reconstructor.VolumeStream.blocks

        def all_but_the_last_rows(self, *args, **kwargs):
            for r0, block in blocks(self, *args, **kwargs):
                yield r0, block if r0 + block.shape[1] < self.shape[1] else block[:, :-1]

        monkeypatch.setattr(reconstructor.VolumeStream, "blocks", all_but_the_last_rows)
        code, out, err = run(capsys, "reconstruct", "--input", str(acq), "--out", str(vol))
        assert code == 1 and out == ""
        assert "4 of 320 plane rows were never written; not committed" in err
        self.assert_untouched(tmp_path, vol, before)

    def test_memory_grows_by_less_than_the_extra_sections(self, capsys, tmp_path):
        # 512 rows, 16 chunk heights; the float32 volume of the 72 extra
        # sections is 4.7 MB, the float64 volume the parent held 9.4 MB
        peaks = {}
        for sections in (24, 96):
            acq = tmp_path / f"acq{sections}.aspi"
            code, *_ = run(capsys, "simulate", "--scene", "uniform", "--layer-z", "3",
                           "--proj-width", "32", "--proj-height", "512",
                           "--sections", str(sections), "--pixel-pitch", "2.0",
                           "--out", str(acq))
            assert code == 0
            tracemalloc.start()
            try:
                code, *_ = run(capsys, "reconstruct", "--input", str(acq),
                               "--out", str(tmp_path / f"vol{sections}.aspi"), "--threads", "2")
                _, peaks[sections] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert code == 0
        assert peaks[96] - peaks[24] < 72 * 512 * 32 * 4


def assert_one_error_line(result, needle, out_path):
    code, out, err = result
    assert code == 1 and out == ""
    assert err.startswith("error:") and needle in err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert not out_path.exists()


class TestRejectedInputs:
    """Bad input to each command is one error line, exit 1 and no output file."""

    @pytest.mark.parametrize("layers,needle", [
        ("1,x", "--layer-z expects comma-separated integers, got '1,x'"),
        (",", "--layer-z must name at least one section"),
    ])
    def test_simulate_bad_layer_list(self, tmp_path, capsys, layers, needle):
        acq = tmp_path / "acq.aspi"
        result = run(capsys, "simulate", "--scene", "bands", "--layer-z", layers,
                     "--proj-width", "64", "--proj-height", "8", "--shifts", "16",
                     "--period", "16", "--sections", "4", "--out", str(acq))
        assert_one_error_line(result, needle, acq)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("flags,needle", [
        (["--noise-sigma", "inf"], "noise parameters must be finite and >= 0"),
        (["--noise-sigma", "nan"], "noise parameters must be finite and >= 0"),
        (["--poisson-scale", "nan"], "noise parameters must be finite and >= 0"),
        (["--z0", "nan"], "z0 must be finite"),
        (["--z0=-inf"], "z0 must be finite"),
        (["--scene", "tilted", "--slope", "nan"], "slope must be finite"),
        (["--magnification", "inf"], "magnification must be finite and > 0"),
    ])
    def test_simulate_non_finite_value(self, tmp_path, capsys, flags, needle):
        acq = tmp_path / "acq.aspi"
        result = run(capsys, "simulate", "--proj-width", "64", "--proj-height", "8",
                     "--shifts", "16", "--period", "16", "--sections", "4", *flags,
                     "--out", str(acq))
        assert_one_error_line(result, needle, acq)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("normalize", [[], ["--normalize"]])
    def test_calibrate_non_finite_reference(self, tmp_path, capsys, value, normalize):
        base = make_slit_pattern(PatternSpec(96, 64, period_d=16, linewidth_w=2), 0)
        refs = np.stack([base, np.roll(base, 1, axis=1), np.roll(base, 3, axis=1)])
        refs[1, 10, 20] = value
        refs_path, model = tmp_path / "refs.aspi", tmp_path / "model.aspi"
        write_stack(refs, {"kind": "references"}, refs_path)
        result = run(capsys, "calibrate", "--refs", str(refs_path), "--anchor-x", "2",
                     "--anchor-z", "4", *normalize, "--out", str(model))
        assert_one_error_line(result, "reference frames contain 1 NaN or Inf pixels", model)

    @pytest.mark.parametrize("key,value", [("lateral_dx", "nan"), ("lateral_dy", "inf"),
                                           ("axial_dx", "-inf"), ("axial_dy", "nan")])
    def test_reconstruct_model_non_finite_translation(self, tmp_path, capsys, key, value):
        acq, vol = tmp_path / "acq.aspi", tmp_path / "vol.aspi"
        small_acquisition(capsys, acq)
        model = small_model(capsys, tmp_path)
        set_sidecar_value(model, key, value)
        result = run(capsys, "reconstruct", "--input", str(acq), "--model", str(model),
                     "--out", str(vol))
        assert_one_error_line(result, f"mask model {key} must be finite", vol)

    @pytest.mark.parametrize("floor", [[], ["--floor", "0.01"]])
    def test_reconstruct_model_non_finite_base(self, tmp_path, capsys, floor):
        # unchecked, it fails on a NaN default floor, and with --floor it
        # writes a volume
        acq, vol = tmp_path / "acq.aspi", tmp_path / "vol.aspi"
        small_acquisition(capsys, acq)
        model = small_model(capsys, tmp_path)
        planes, meta = read_stack(model)
        planes = planes.copy()
        planes[0, 5, 7] = np.nan
        write_stack(planes, meta, model)
        result = run(capsys, "reconstruct", "--input", str(acq), "--model", str(model),
                     *floor, "--out", str(vol))
        assert_one_error_line(result, "mask base has 1 non-finite pixels (NaN or Inf)", vol)
        assert not vol.with_name("vol.aspi.meta").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("shape", [(1, 0, 64), (1, 8, 0)])
    @pytest.mark.parametrize("dy", [(0.0, 0.0), (0.3, -0.2)])
    def test_reconstruct_model_with_no_pixels(self, tmp_path, capsys, shape, dy):
        # unchecked, a model of no rows fails with an IndexError traceback
        acq, vol = tmp_path / "acq.aspi", tmp_path / "vol.aspi"
        small_acquisition(capsys, acq)
        model = slit_model(tmp_path, dy=dy)
        write_stack(np.zeros(shape), read_stack(model)[1], model)
        result = run(capsys, "reconstruct", "--input", str(acq), "--model", str(model),
                     "--out", str(vol))
        assert_one_error_line(result, f"mask base has no pixels: its shape is {shape[1:]}", vol)
        assert not vol.with_name("vol.aspi.meta").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("shape", [(3, 0, 64), (3, 64, 0)])
    @pytest.mark.parametrize("normalize", [[], ["--normalize"]])
    def test_calibrate_references_with_no_pixels(self, tmp_path, capsys, shape, normalize):
        refs_path, model = tmp_path / "refs.aspi", tmp_path / "model.aspi"
        write_stack(np.zeros(shape), {"kind": "references"}, refs_path)
        result = run(capsys, "calibrate", "--refs", str(refs_path), "--anchor-x", "2",
                     "--anchor-z", "4", *normalize, "--out", str(model))
        assert_one_error_line(result, f"reference frames have no pixels: their shape is "
                              f"{shape[1:]}", model)

    def test_reconstruct_planes_not_the_camera_shape(self, tmp_path, capsys):
        acq, vol = tmp_path / "acq.aspi", tmp_path / "vol.aspi"
        small_acquisition(capsys, acq)
        planes, meta = read_stack(acq)
        write_stack(planes[:, :, :60], meta, acq)
        result = run(capsys, "reconstruct", "--input", str(acq), "--out", str(vol))
        assert_one_error_line(result, "acquisition planes are (8, 60) but the rig implies (8, 64)",
                              vol)

    def test_reconstruct_model_of_another_kind(self, tmp_path, capsys):
        acq, vol = tmp_path / "acq.aspi", tmp_path / "vol.aspi"
        small_acquisition(capsys, acq)
        result = run(capsys, "reconstruct", "--input", str(acq), "--model", str(acq),
                     "--out", str(vol))
        assert_one_error_line(result, f"{acq} is not a mask-model file", vol)

    @pytest.mark.parametrize("dy", [(0.0, 0.0), (0.3, -0.2)])
    def test_reconstruct_model_of_another_frame_height(self, tmp_path, capsys, dy):
        # 64 x 16 masks on 64 x 8 frames, row-constant (GEMM kernel) or
        # moving along y (reference kernel)
        acq, vol = tmp_path / "acq.aspi", tmp_path / "vol.aspi"
        small_acquisition(capsys, acq)
        model = slit_model(tmp_path, height=16, dy=dy)
        result = run(capsys, "reconstruct", "--input", str(acq), "--model", str(model),
                     "--out", str(vol))
        assert_one_error_line(result, "frames of shape (16, 8, 64) for a mask bank of "
                              "(16, 16, 64)", vol)
        assert not vol.with_name("vol.aspi.meta").exists()

    def test_reconstruct_infinite_floor(self, tmp_path, capsys):
        acq, vol = tmp_path / "acq.aspi", tmp_path / "vol.aspi"
        small_acquisition(capsys, acq)
        result = run(capsys, "reconstruct", "--input", str(acq), "--floor", "inf",
                     "--out", str(vol))
        assert_one_error_line(result, "floor must be > 0 and finite, got inf", vol)

    def test_reconstruct_model_with_threshold_is_usage_error(self, tmp_path, capsys):
        acq, vol = tmp_path / "acq.aspi", tmp_path / "vol.aspi"
        small_acquisition(capsys, acq)
        code, out, err = run(capsys, "reconstruct", "--input", str(acq),
                             "--model", str(slit_model(tmp_path)), "--threshold",
                             "--out", str(vol))
        assert code == 2 and out == ""
        assert "argument --threshold: not allowed with argument --model" in err
        assert not vol.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_depthmap_non_finite_min_confidence(self, tmp_path, capsys, value):
        acq, vol, dep = tmp_path / "acq.aspi", tmp_path / "vol.aspi", tmp_path / "d.aspi"
        small_acquisition(capsys, acq)
        assert run(capsys, "reconstruct", "--input", str(acq), "--out", str(vol))[0] == 0
        result = run(capsys, "depthmap", "--input", str(vol), f"--min-confidence={value}",
                     "--out", str(dep))
        assert_one_error_line(result, f"min_confidence must be finite, got {value}", dep)

    @pytest.mark.parametrize("command,flag,wrong,needle", [
        ("reconstruct", "--input", "vol", "is not an acquisition file"),
        ("reconstruct", "--input", "depth", "is not an acquisition file"),
        ("reconstruct", "--model", "depth", "is not a mask-model file"),
        ("depthmap", "--input", "depth", "is not a volume file"),
    ])
    def test_input_of_another_kind(self, tmp_path, capsys, command, flag, wrong, needle):
        # as many sections as scan steps: a volume has the frame count and
        # plane shape of an acquisition, and only its kind tells them apart
        files = {name: tmp_path / f"{name}.aspi" for name in ("acq", "vol", "depth", "out")}
        code, *_ = run(capsys, "simulate", "--scene", "uniform", "--layer-z", "1",
                       "--proj-width", "64", "--proj-height", "8", "--period", "16",
                       "--shifts", "16", "--sections", "16", "--out", str(files["acq"]))
        assert code == 0
        assert run(capsys, "reconstruct", "--input", str(files["acq"]),
                   "--out", str(files["vol"]))[0] == 0
        assert run(capsys, "depthmap", "--input", str(files["vol"]),
                   "--out", str(files["depth"]))[0] == 0
        inputs = {"--input": str(files["acq"]), flag: str(files[wrong])}
        result = run(capsys, command, *(arg for pair in inputs.items() for arg in pair),
                     "--out", str(files["out"]))
        assert_one_error_line(result, f"{files[wrong]} {needle}", files["out"])

    @pytest.mark.parametrize("command,first,second", [
        ("depthmap", "--out", "--confidence-out"),
        ("depthmap", "--out", "--pgm"),
        ("depthmap", "--confidence-out", "--pgm"),
        ("depthmap", "--input", "--out"),
        ("depthmap", "--input", "--confidence-out"),
        ("reconstruct", "--input", "--out"),
    ])
    @pytest.mark.parametrize("spelling", ["same", "dotted", "linked", "sidecar"])
    def test_one_file_named_twice(self, tmp_path, capsys, command, first, second, spelling):
        acq, vol = tmp_path / "acq.aspi", tmp_path / "vol.aspi"
        small_acquisition(capsys, acq)
        assert run(capsys, "reconstruct", "--input", str(acq), "--out", str(vol))[0] == 0
        inputs = {"reconstruct": acq, "depthmap": vol}[command]
        target = inputs if first == "--input" else tmp_path / "out.aspi"
        before = {path: path.read_bytes() for path in tmp_path.iterdir()}
        if spelling == "dotted":
            (tmp_path / "sub").mkdir()
            other = tmp_path / "sub" / ".." / target.name
        elif spelling == "linked":
            if not target.exists():
                target.write_bytes(b"")
                before[target] = b""
            other = tmp_path / "link.aspi"
            os.link(target, other)
            before[other] = before[target]
        elif spelling == "sidecar":  # the sidecar a stack named first writes or reads
            other = sidecar_path(target)
        else:
            other = target
        files = {"--input": inputs, "--out": tmp_path / "d.aspi", first: target, second: other}
        argv = [str(arg) for pair in files.items() for arg in pair]
        code, out, err = run(capsys, command, *argv)
        assert code == 1 and out == ""
        named = other if spelling == "sidecar" else target
        assert err.startswith(f"error: {first} and {second} name the same file: {named}, {other}")
        assert len(err.strip().splitlines()) == 1
        # nothing was written or replaced
        assert {path: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()} == before

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("shape", [(4, 0, 64), (4, 8, 0), (4, 0, 0)])
    def test_depthmap_volume_with_no_pixels(self, tmp_path, capsys, shape):
        acq, vol, dep = tmp_path / "acq.aspi", tmp_path / "vol.aspi", tmp_path / "d.aspi"
        small_acquisition(capsys, acq)
        assert run(capsys, "reconstruct", "--input", str(acq), "--out", str(vol))[0] == 0
        write_stack(np.zeros(shape), read_stack(vol)[1], vol)
        result = run(capsys, "depthmap", "--input", str(vol), "--out", str(dep))
        assert_one_error_line(result, f"volume has no pixels: its sections are {shape[1]}x"
                              f"{shape[2]}", dep)

    def test_depthmap_plane_count_not_the_sections(self, tmp_path, capsys):
        acq, vol, dep = tmp_path / "acq.aspi", tmp_path / "vol.aspi", tmp_path / "d.aspi"
        small_acquisition(capsys, acq)
        assert run(capsys, "reconstruct", "--input", str(acq), "--out", str(vol))[0] == 0
        planes, meta = read_stack(vol)
        write_stack(planes[:3], meta, vol)
        result = run(capsys, "depthmap", "--input", str(vol), "--out", str(dep))
        assert_one_error_line(result, "volume has 3 planes, metadata declares 4", dep)


def test_calibrate_normalize_summary(tmp_path, capsys):
    # references at 5x the pattern's intensity fit to a peak-1 base
    spec = PatternSpec(96, 12, period_d=16, linewidth_w=2, shift_step=1, num_shifts_n=16)
    geom = geometry_with_shear(0.5)
    grid = ZGrid(z0=0.0, z_step=1.0, count=12)
    base = make_slit_pattern(spec, 0).astype(np.float64)
    refs = 5.0 * np.stack([base, synthesize_mask(base, 4.0, 0, geom, grid),
                           synthesize_mask(base, 0.0, 11, geom, grid)])
    refs_path, model = tmp_path / "refs.aspi", tmp_path / "model.aspi"
    write_stack(refs, {"kind": "references"}, refs_path)
    code, out, _ = run(capsys, "calibrate", "--refs", str(refs_path), "--anchor-x", "5",
                       "--anchor-z", "12", "--normalize", "--out", str(model))
    assert code == 0
    summary = parse_summary(out)
    assert summary["kind"] == "mask-model" and summary["path"] == str(model)
    assert float(summary["lateral_dx"]) == pytest.approx(1.0, abs=1e-3)
    assert float(summary["axial_dx"]) == pytest.approx(0.5, abs=0.01)
    assert float(summary["lateral_dy"]) == float(summary["axial_dy"]) == 0.0
    assert read_stack(model)[0].max() == 1.0


def test_psf_threshold_summary(capsys):
    code, out, _ = run(capsys, "psf", "--proj-width", "128", "--proj-height", "8",
                       "--period", "16", "--linewidth", "2", "--shifts", "16",
                       "--sections", "12", "--layer-z", "4", "--threshold",
                       "--pixel-pitch", SHEAR1_PITCH)
    assert code == 0
    summary = parse_summary(out)
    assert summary["kind"] == "psf" and summary["path"] == "-"
    assert float(summary["fwhm_sections"]) == pytest.approx(2.0, abs=0.05)
    assert (int(summary["probe_x"]), int(summary["probe_y"])) == (96, 4)


def test_psf_threshold_error_names_the_scan_step(capsys):
    # 1-pixel slits stepped by 2.14 camera pixels leave pixels no slit lights
    argv = ("psf", "--magnification", "2.14")
    code, *_ = run(capsys, *argv)
    assert code == 0
    code, out, err = run(capsys, *argv, "--threshold")
    assert code == 1 and out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: probe (411, 274) below coverage floor at section 1")
    assert "1-pixel slits" in err and "shift_step x magnification" in err
    assert err.endswith(", is 2.14 camera pixels\n")


def slit_model(tmp_path, height=8, dy=(0.3, -0.2)):
    """A model file of a 64-wide slit base whose masks move by dy (lateral, axial) along y.

    Masks that move along y take the reference kernel, row-constant ones the GEMM kernel.
    """
    base = make_slit_pattern(PatternSpec(64, height, period_d=16, linewidth_w=2), 0)
    model = tmp_path / "model.aspi"
    write_stack(base, {"kind": "mask-model", "lateral_dx": 1.0, "lateral_dy": dy[0],
                       "axial_dx": 1.0, "axial_dy": dy[1], "anchor_x": 2, "anchor_z": 4,
                       "lateral_residual_rms": 0.0, "axial_residual_rms": 0.0}, model)
    return model


@pytest.mark.parametrize("threads", ["1", "2"])
def test_reconstruct_with_masks_that_vary_along_y_takes_the_reference_kernel(tmp_path, capsys,
                                                                             threads):
    # 80 rows: three row chunks with one thread, five with two
    acq, vol, model = tmp_path / "acq.aspi", tmp_path / "vol.aspi", tmp_path / "model.aspi"
    code, *_ = run(capsys, "simulate", "--scene", "bands", "--layer-z", "1,3",
                   "--proj-width", "64", "--proj-height", "80", "--period", "16",
                   "--shifts", "16", "--sections", "6", "--pixel-pitch", SHEAR1_PITCH,
                   "--noise-sigma", "0.01", "--out", str(acq))
    assert code == 0
    base = make_slit_pattern(PatternSpec(64, 80, period_d=16, linewidth_w=2), 0)
    base *= np.linspace(1.0, 0.5, 80)[:, None]
    write_stack(base, {"kind": "mask-model", "lateral_dx": 1.0, "lateral_dy": 0.0,
                       "axial_dx": 1.0, "axial_dy": 0.0, "anchor_x": 2, "anchor_z": 4,
                       "lateral_residual_rms": 0.0, "axial_residual_rms": 0.0}, model)
    code, out, _ = run(capsys, "reconstruct", "--input", str(acq), "--model", str(model),
                       "--threads", threads, "--out", str(vol))
    assert code == 0
    frames, meta = read_stack(acq)
    masks = ModelMasks(reconstruct_command._load_model(model), rig_from_metadata(meta)[2], 16)
    assert masks.row_bank() is None
    whole = reconstructor.reconstruct_volume(frames, masks)
    volume, _ = read_stack(vol)
    assert volume.tobytes() == whole.sections.astype("<f4").tobytes()
    sentinels = np.count_nonzero(volume == -1.0)
    assert sentinels > 0
    assert parse_summary(out)["sentinel_fraction"] == f"{sentinels / volume.size:.6g}"


class TestBadThreadCount:
    """--threads below 1 is one error line and exit 1, before any thread starts."""

    @pytest.fixture(autouse=True)
    def no_thread(self, monkeypatch):
        # the package's one thread start, in errors.run_ahead
        def fail(*args, **kwargs):
            raise AssertionError("no thread may be started")

        monkeypatch.setattr(threading, "Thread", fail)

    @pytest.mark.parametrize("threads", ["0", "-1"])
    @pytest.mark.parametrize("masks", ["geometry", "y_moving_model"])
    def test_reconstruct(self, tmp_path, capsys, monkeypatch, threads, masks):
        acq, vol = tmp_path / "acq.aspi", tmp_path / "vol.aspi"
        monkeypatch.setenv("ASPI_THREADS", "1")  # the set-up's simulate renders inline
        small_acquisition(capsys, acq)
        model = ["--model", str(slit_model(tmp_path))] if masks == "y_moving_model" else []
        result = run(capsys, "reconstruct", "--input", str(acq), *model,
                     "--threads", threads, "--out", str(vol))
        assert_one_error_line(result, f"threads must be >= 1, got {threads}", vol)

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_simulate(self, tmp_path, capsys, monkeypatch, threads):
        def fail(*args, **kwargs):
            raise AssertionError("no frame may be rendered")

        monkeypatch.setattr(forward_sim, "_render_frame", fail)
        acq = tmp_path / "acq.aspi"
        result = run(capsys, "simulate", "--proj-width", "64", "--proj-height", "8",
                     "--period", "16", "--shifts", "16", "--sections", "4",
                     "--threads", threads, "--out", str(acq))
        assert_one_error_line(result, f"threads must be >= 1, got {threads}", acq)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("threads", [0, -1])
    def test_bench_checks_before_drawing_frames(self, monkeypatch, threads):
        def no_frames(*args, **kwargs):
            raise AssertionError("frames were drawn")

        monkeypatch.setattr(bench.np.random, "default_rng", no_frames)
        with pytest.raises(ValueError, match=f"threads must be >= 1, got {threads}"):
            bench_reconstruction(64, 48, 8, 6, threads=threads)

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_bench(self, capsys, threads):
        code, out, err = run(capsys, "bench", "--width", "64", "--height", "48",
                             "--shifts", "8", "--sections", "6", "--threads", threads)
        assert code == 1 and out == ""
        assert err == f"error: threads must be >= 1, got {threads}\n"


def set_sidecar_value(path, key, value):
    planes, meta = read_stack(path)
    meta[key] = value
    write_stack(planes, meta, path)


# sidecar values of the right type that the rig or the mask model rejects
REJECTED = {("period_d", "3"): "scan span n*step = 16 exceeds one period (3)",
            ("theta_rad", "nan"): "tilt_theta must lie in (0, pi/2), got nan",
            ("axial_dx", "nan"): "mask model axial_dx must be finite, got nan",
            ("sections", "0"): "count must be >= 1"}


class TestBadSidecarValue:
    """A malformed sidecar value, or one the rig rejects, is one error line naming the sidecar.

    The sidecar's path comes once, right after "error:".
    """

    @staticmethod
    def message(key, value):
        return REJECTED.get((key, value), f"sidecar value of {key!r} is not")

    @pytest.mark.parametrize("key,value", [("proj_width", "3x2"), ("z0", "zero"),
                                           ("shift_sign", "1.0"), ("theta_rad", ""),
                                           ("period_d", "3"), ("theta_rad", "nan")])
    def test_reconstruct_acquisition(self, tmp_path, capsys, key, value):
        acq, vol = tmp_path / "acq.aspi", tmp_path / "vol.aspi"
        small_acquisition(capsys, acq)
        set_sidecar_value(acq, key, value)
        result = run(capsys, "reconstruct", "--input", str(acq), "--out", str(vol))
        assert_one_error_line(result, f"error: {acq}.meta: {self.message(key, value)}", vol)
        assert (key, value) in REJECTED or repr(value) in result[2]

    @pytest.mark.parametrize("key,value", [("axial_dx", "1,5"), ("anchor_z", "1,5"),
                                           ("axial_dx", "nan")])
    def test_reconstruct_model(self, tmp_path, capsys, key, value):
        acq, vol = tmp_path / "acq.aspi", tmp_path / "vol.aspi"
        small_acquisition(capsys, acq)
        model = small_model(capsys, tmp_path)
        set_sidecar_value(model, key, value)
        result = run(capsys, "reconstruct", "--input", str(acq), "--model", str(model),
                     "--out", str(vol))
        assert_one_error_line(result, f"error: {model}.meta: {self.message(key, value)}", vol)

    @pytest.mark.parametrize("key,value", [("floor", "4.5x"), ("sections", "4.5x"),
                                           ("period_d", "4.5x"), ("sections", "0")])
    def test_depthmap_volume(self, tmp_path, capsys, key, value):
        acq, vol, dep = tmp_path / "acq.aspi", tmp_path / "vol.aspi", tmp_path / "d.aspi"
        small_acquisition(capsys, acq)
        assert run(capsys, "reconstruct", "--input", str(acq), "--out", str(vol))[0] == 0
        set_sidecar_value(vol, key, value)
        result = run(capsys, "depthmap", "--input", str(vol), "--out", str(dep))
        assert_one_error_line(result, f"error: {vol}.meta: {self.message(key, value)}", dep)


class TestBinarySidecar:
    """A sidecar that is not UTF-8 text is one error line naming the .meta file."""

    def test_depthmap(self, tmp_path, capsys):
        acq, vol, dep = tmp_path / "acq.aspi", tmp_path / "vol.aspi", tmp_path / "d.aspi"
        small_acquisition(capsys, acq)
        assert run(capsys, "reconstruct", "--input", str(acq), "--out", str(vol))[0] == 0
        # a stack's bytes where its text belongs, as a stack written over a sidecar leaves
        sidecar_path(vol).write_bytes(b"kind=volume\n" + np.float32([-1.0]).tobytes())
        result = run(capsys, "depthmap", "--input", str(vol), "--out", str(dep))
        assert_one_error_line(result, f"sidecar {vol}.meta is not UTF-8 text: byte 14 is 0x80",
                              dep)


class TestDepthmapAmbiguity:
    """depthmap reports whether its rig folds depths, and over how many sections."""

    @pytest.mark.parametrize("period,sections,ambiguous,unambiguous", [
        ("30", "100", "true", "30"),    # 100 sections of 1 px shear over a 30 px period
        ("16", "12", "false", "16"),
    ])
    def test_summary_and_sidecar(self, tmp_path, capsys, period, sections, ambiguous,
                                 unambiguous):
        acq, vol, dep = tmp_path / "acq.aspi", tmp_path / "vol.aspi", tmp_path / "d.aspi"
        code, *_ = run(capsys, "simulate", "--scene", "uniform", "--layer-z", "6",
                       "--proj-width", "64", "--proj-height", "4", "--period", period,
                       "--shifts", period, "--sections", sections,
                       "--pixel-pitch", SHEAR1_PITCH, "--out", str(acq))
        assert code == 0
        code, out, _ = run(capsys, "reconstruct", "--input", str(acq), "--out", str(vol))
        assert code == 0 and parse_summary(out)["ambiguous"] == ambiguous
        code, out, _ = run(capsys, "depthmap", "--input", str(vol), "--out", str(dep),
                           "--refine")
        assert code == 0
        summary = parse_summary(out)
        assert (summary["ambiguous"], summary["unambiguous_sections"]) == (ambiguous, unambiguous)
        _, meta = read_stack(dep)
        assert (meta["ambiguous"], meta["unambiguous_sections"]) == (ambiguous, unambiguous)
        assert meta["sections"] == sections and meta["refine"] == "1"


class TestDepthmapValidRule:
    """depthmap names the rule that made its depths valid, in the summary and the sidecar."""

    def test_contrast_by_default_and_a_floor_when_given(self, tmp_path, capsys):
        acq, vol = tmp_path / "acq.aspi", tmp_path / "vol.aspi"
        code, *_ = run(capsys, "simulate", "--scene", "uniform", "--layer-z", "6",
                       "--proj-width", "64", "--proj-height", "4", "--period", "16",
                       "--shifts", "16", "--sections", "12",
                       "--pixel-pitch", SHEAR1_PITCH, "--out", str(acq))
        assert code == 0
        assert run(capsys, "reconstruct", "--input", str(acq), "--out", str(vol))[0] == 0
        confidence = {}
        for rule, flags in (("contrast", []), ("min_confidence", ["--min-confidence", "0.5"])):
            dep, conf = tmp_path / f"{rule}.aspi", tmp_path / f"{rule}-conf.aspi"
            code, out, _ = run(capsys, "depthmap", "--input", str(vol), "--out", str(dep),
                               "--confidence-out", str(conf), *flags)
            assert code == 0 and parse_summary(out)["valid_rule"] == rule
            _, meta = read_stack(dep)
            assert meta["valid_rule"] == rule
            confidence[rule] = read_stack(conf)[0]
            if rule == "contrast":
                # a 2 px slit at 1 px per section: a peak 2 sections wide
                assert (meta["contrast_tau"], meta["contrast_window"]) == ("0.25", "2")
            else:
                assert "contrast_tau" not in meta and "contrast_window" not in meta
        # the confidence map is the peak under either rule
        assert confidence["contrast"].tobytes() == confidence["min_confidence"].tobytes()

    def test_a_psf_wider_than_the_grid_keeps_its_depths(self, tmp_path, capsys):
        # 0.518 px of shear per section over 12 sections is 6.2 px, against
        # a 6.4 px camera slit: the peak is 12.4 sections wide, so no section
        # lies outside its window and no fold is possible
        acq, vol, dep = tmp_path / "acq.aspi", tmp_path / "vol.aspi", tmp_path / "d.aspi"
        code, *_ = run(capsys, "simulate", "--scene", "bands", "--layer-z", "2,5,9",
                       "--haze", "0.2", "--noise-sigma", "0.01", "--sections", "12",
                       "--proj-width", "45", "--proj-height", "19", "--period", "16",
                       "--linewidth", "3", "--shifts", "16", "--magnification", "2.14",
                       "--pixel-pitch", "0.9", "--out", str(acq))
        assert code == 0
        assert run(capsys, "reconstruct", "--input", str(acq), "--out", str(vol))[0] == 0
        code, out, _ = run(capsys, "depthmap", "--input", str(vol), "--out", str(dep))
        assert code == 0
        assert float(parse_summary(out)["valid_fraction"]) > 0.9
        planes, meta = read_stack(dep)
        assert planes.shape[1:] == (41, 96) and meta["contrast_window"] == "13"


def peak_of(call):
    call()  # first-use imports are not the call's memory
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def traced_peak(capsys, argv):
    def command():
        assert run(capsys, *argv)[0] == 0

    return peak_of(command)


def test_reconstruct_memory_does_not_grow_with_the_frames(tmp_path, capsys):
    # 512 x 32 frames: 48 more of them are 3.1 MB, which the whole stack held;
    # the mask bank and the chunks of frame rows grow by a third of that
    peaks = {}
    for shifts in (16, 64):
        acq = tmp_path / f"acq{shifts}.aspi"
        code, *_ = run(capsys, "simulate", "--scene", "uniform", "--layer-z", "3",
                       "--proj-width", "32", "--proj-height", "512", "--period", "64",
                       "--shifts", str(shifts), "--sections", "24", "--pixel-pitch", "2.0",
                       "--out", str(acq))
        assert code == 0
        peaks[shifts] = traced_peak(capsys, ["reconstruct", "--input", str(acq), "--out",
                                             str(tmp_path / "vol.aspi"), "--threads", "2"])
    frame = 512 * 32 * 4
    assert peaks[64] - peaks[16] < 48 * frame / 2, peaks


@pytest.mark.parametrize("build", ["psf", "psf --threshold", "bank", "bank --threshold"])
def test_mask_memory_does_not_grow_with_the_rows(capsys, build):
    # 2048 columns: 1984 more rows are 31 MB of a float64 pattern frame; the
    # bank, thresholded or not, and `psf` need only its one row
    kind, *threshold = build.split()
    peaks = {}
    for rows in (64, 2048):
        if kind == "psf":
            peaks[rows] = traced_peak(capsys, ["psf", "--proj-width", "2048", "--proj-height",
                                               str(rows), *threshold])
        else:
            spec = PatternSpec(2048, rows, period_d=30, linewidth_w=2, shift_step=1,
                               num_shifts_n=30)
            peaks[rows] = peak_of(lambda: GeometryMasks(
                spec, geometry_with_shear(0.2332), ZGrid(0.0, 1.0, 100), threshold=bool(threshold)))
    assert abs(peaks[2048] - peaks[64]) < 256 * 1024, peaks


@pytest.mark.parametrize("confidence", [[], ["--min-confidence", "0.5"]])
def test_depthmap_memory_does_not_grow_with_the_sections(tmp_path, capsys, confidence):
    # 512 x 32 planes: 72 more sections are 4.7 MB of volume, which the
    # whole-volume read held
    peaks = {}
    for sections in (24, 96):
        acq, vol = tmp_path / f"acq{sections}.aspi", tmp_path / f"vol{sections}.aspi"
        code, *_ = run(capsys, "simulate", "--scene", "uniform", "--layer-z", "3",
                       "--proj-width", "32", "--proj-height", "512", "--sections", str(sections),
                       "--haze", "0.2", "--pixel-pitch", "2.0", "--out", str(acq))
        assert code == 0
        assert run(capsys, "reconstruct", "--input", str(acq), "--out", str(vol))[0] == 0
        peaks[sections] = traced_peak(capsys, ["depthmap", "--input", str(vol), "--out",
                                               str(tmp_path / "d.aspi"), "--refine", *confidence])
    plane = 512 * 32 * 4
    assert peaks[96] - peaks[24] < 72 * plane / 8, peaks


@pytest.mark.parametrize("window", [None, 4 * 64])
@pytest.mark.parametrize("rule", [[], ["--min-confidence", "-2"]])
def test_depthmap_reads_the_payload_once(tmp_path, capsys, monkeypatch, window, rule):
    acq, vol = tmp_path / "acq.aspi", tmp_path / "vol.aspi"
    small_acquisition(capsys, acq)
    assert run(capsys, "reconstruct", "--input", str(acq), "--out", str(vol))[0] == 0
    planes, meta = read_stack(vol)
    # pixels with no value but sentinels, and with values only below them,
    # which are resolved from the window
    planes[:, 3:5, 5:9] = SENTINEL
    planes[1::2, 4, 5:9] = -1.5
    write_stack(planes, meta, vol)
    if window is not None:  # one row per window
        monkeypatch.setattr(volume_analysis, "_WINDOW_VOXELS", window)
    read = []
    read_into = StackReader._read_into

    def counted(self, buffer, offset):
        read.append(buffer.nbytes)
        read_into(self, buffer, offset)

    monkeypatch.setattr(StackReader, "_read_into", counted)
    code, *_ = run(capsys, "depthmap", "--input", str(vol), "--out", str(tmp_path / "d.aspi"),
                   "--refine", *rule)
    assert code == 0
    assert sum(read) == planes.nbytes == 4 * 8 * 64 * 4
