"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
measurements. Every tolerance is fixed here, not calibrated at runtime.
"""

import time

import numpy as np
import pytest

from aspi import (
    SENTINEL,
    GeometryMasks,
    ModelMasks,
    PatternSpec,
    NoiseSpec,
    Scene,
    ZGrid,
    acquire_stack,
    axial_psf,
    axial_range,
    base_camera_pattern,
    bench_reconstruction,
    camera_shape,
    extract_depth_map,
    fit_mask_model,
    fwhm,
    is_axially_ambiguous,
    make_tilted_plane_scene,
    predicted_fwhm_sections,
    read_stack,
    reconstruct_volume,
    run_cli,
    synthesize_mask,
    tilted_plane_sections,
    write_stack,
)
from conftest import geometry_bank, geometry_with_shear


def _report(num, name, detail):
    print(f"[PASS] criterion {num} ({name}): {detail}")


def uniform_scene(spec, geom, z_index, **kw):
    return Scene(layers=[(z_index, np.ones(camera_shape(spec, geom)))], **kw)


def test_criterion_1_psf_equivalence():
    # noise-free uniform layer, binary masks, integer shear: the
    # reconstructed axial response equals the direct cross-correlation
    # curve after peak normalization
    started = time.perf_counter()
    spec = PatternSpec(256, 256, period_d=30, linewidth_w=2, shift_step=1, num_shifts_n=30)
    geom = geometry_with_shear(1.0)
    grid = ZGrid(z0=0.0, z_step=1.0, count=100)
    layer_section = 10
    acq = acquire_stack(uniform_scene(spec, geom, layer_section), spec, geom, grid)
    volume = reconstruct_volume(acq, GeometryMasks(spec, geom, grid))

    probe = (200, 128)
    curve = axial_psf(acq[0], base_camera_pattern(spec, geom),
                      spec, geom, grid, probe=probe)
    response = volume.sections[:, probe[1], probe[0]]
    assert np.all(response != SENTINEL)
    response = response / response.max()
    deviation = float(np.max(np.abs(curve.response - response)))
    elapsed = time.perf_counter() - started

    assert int(np.argmax(response)) == layer_section
    assert deviation < 1e-6, f"max deviation {deviation:.3e}"
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s"
    _report(1, "reconstruction matches axial cross-correlation",
            f"max_deviation={deviation:.2e} runtime={elapsed:.2f}s")


def test_criterion_2_normalization_contract():
    spec = PatternSpec(256, 64, period_d=30, linewidth_w=2, shift_step=1, num_shifts_n=30)
    geom = geometry_with_shear(1.0)
    grid = ZGrid(z0=0.0, z_step=1.0, count=12)
    layer_section = 5
    acq = acquire_stack(uniform_scene(spec, geom, layer_section), spec, geom, grid)
    provider = GeometryMasks(spec, geom, grid)
    volume = reconstruct_volume(acq, provider)

    # fully covered: beyond every scan and shear displacement
    section = volume.sections[layer_section]
    fully_covered = section[:, 48:]
    cv = float(fully_covered.std() / fully_covered.mean())
    assert cv < 1e-9, f"coefficient of variation {cv:.3e}"

    floor = volume.coverage_floor_used
    # a power-of-two scale passes through the mask interpolation exactly
    scaled = geometry_bank(0.25 * provider.base, spec, geom, grid)
    scaled_masks = reconstruct_volume(acq, scaled, floor=0.25 * floor)
    assert np.array_equal(scaled_masks.sections, volume.sections), "mask-scale invariance"

    doubled = acquire_stack(uniform_scene(spec, geom, layer_section), spec, geom, grid)
    doubled_volume = reconstruct_volume(2.0 * doubled, provider, floor=floor)
    valid = volume.sections != SENTINEL
    assert np.array_equal(doubled_volume.sections[valid], 2.0 * volume.sections[valid]), \
        "object-scale equivariance"
    _report(2, "normalization contract",
            f"cv={cv:.2e} mask_scale=exact object_scale=exact")


def test_criterion_3_three_layer_sectioning():
    spec = PatternSpec(384, 64, period_d=120, linewidth_w=2, shift_step=1, num_shifts_n=120)
    geom = geometry_with_shear(0.5)
    grid = ZGrid(z0=0.0, z_step=1.0, count=60)
    shape = camera_shape(spec, geom)

    fwhm_pred = predicted_fwhm_sections(spec.linewidth_w, geom.shear_px_per_section)
    layer_sections = (15, 30, 45)
    assert np.all(np.diff(layer_sections) >= 3 * fwhm_pred)
    band_half = int(round(1.5 * fwhm_pred))  # +-6 sections around each layer

    bounds = np.linspace(0, shape[0], 4).astype(int)
    layers, supports = [], {}
    for z, r0, r1 in zip(layer_sections, bounds[:-1], bounds[1:]):
        refl = np.zeros(shape)
        refl[r0:r1, :] = 1.0
        layers.append((z, refl))
        supports[z] = refl > 0

    def band_energies(scene):
        volume = reconstruct_volume(acquire_stack(scene, spec, geom, grid),
                                    GeometryMasks(spec, geom, grid))
        ratios = []
        for z, support in supports.items():
            in_band = out_band = 0.0
            for j in range(grid.count):
                sec = volume.sections[j]
                vals = sec[support & (sec != SENTINEL)]
                if abs(j - z) <= band_half:
                    in_band += vals.sum()
                else:
                    out_band += vals.sum()
            ratios.append(out_band / in_band)
        return max(ratios)

    clean_ratio = band_energies(Scene(layers=layers))
    assert clean_ratio < 0.01, f"noise-free leakage {clean_ratio:.4f}"

    clean_acq = acquire_stack(Scene(layers=layers), spec, geom, grid)
    sigma = 0.01 * float(clean_acq.max())
    noisy_ratio = band_energies(Scene(layers=layers, haze_fraction=0.3,
                                      noise=NoiseSpec(gaussian_sigma=sigma, seed=11)))
    assert noisy_ratio < 0.05, f"hazy/noisy leakage {noisy_ratio:.4f}"
    _report(3, "three-layer sectioning",
            f"out_of_band/in_band clean={clean_ratio:.5f} haze0.3+noise={noisy_ratio:.4f}")


def test_criterion_4_affine_prediction_fidelity():
    # anchors at scan step 30 and section 100, so the period (180 px on the
    # camera) keeps both displacements under half a period and the long
    # axial span divides the sub-pixel estimation error by 99
    spec = PatternSpec(384, 48, period_d=180, linewidth_w=2, shift_step=1, num_shifts_n=30)
    geom = geometry_with_shear(0.8)
    grid = ZGrid(z0=0.0, z_step=1.0, count=100)
    base = base_camera_pattern(spec, geom)

    model = fit_mask_model(
        base,
        synthesize_mask(base, 29.0, 0, geom, grid),
        synthesize_mask(base, 0.0, 99, geom, grid),
        anchors=(30, 100),
    )
    shear_error = abs(model.axial_dx - geom.signed_shear)
    assert shear_error < 0.02, f"shear error {shear_error:.4f} px/section"

    shape = camera_shape(spec, geom)
    top = np.zeros(shape)
    top[:24, :] = 1.0
    bottom = np.zeros(shape)
    bottom[24:, :] = 1.0
    acq = acquire_stack(Scene(layers=[(10, top), (60, bottom)]), spec, geom, grid)

    synth_volume = reconstruct_volume(acq, GeometryMasks(spec, geom, grid))
    model_volume = reconstruct_volume(
        acq, ModelMasks(model, grid, spec.num_shifts_n),
        floor=synth_volume.coverage_floor_used,
    )
    peak = float(synth_volume.sections[synth_volume.sections != SENTINEL].max())
    worst = 0.0
    for j in range(grid.count):
        a = synth_volume.sections[j]
        b = model_volume.sections[j]
        both = (a != SENTINEL) & (b != SENTINEL)
        rms = float(np.sqrt(np.mean((a[both] - b[both]) ** 2)))
        worst = max(worst, rms / peak)
    assert worst < 0.02, f"worst per-section RMS {worst:.4f} of peak"
    _report(4, "affine mask prediction",
            f"shear_error={shear_error:.5f}px/section worst_section_rms={worst:.4f}")


def test_criterion_5_depth_map_accuracy():
    spec = PatternSpec(384, 24, period_d=128, linewidth_w=2, shift_step=1, num_shifts_n=128)
    geom = geometry_with_shear(1.0)
    grid = ZGrid(z0=0.0, z_step=1.0, count=100)
    shape = camera_shape(spec, geom)
    slope = grid.count / shape[1]
    truth = grid.z0 + grid.z_step * tilted_plane_sections(shape[1], slope)[None, :]

    def depth_rms(haze, refine):
        scene = make_tilted_plane_scene(grid, slope, np.ones(shape), haze_fraction=haze)
        volume = reconstruct_volume(acquire_stack(scene, spec, geom, grid),
                                    GeometryMasks(spec, geom, grid))
        dm = extract_depth_map(volume, min_confidence=0.3 * (1.0 - haze), refine=refine)
        valid = np.isfinite(dm.depth)
        assert valid.mean() > 0.9
        err = (dm.depth - truth)[valid]
        return float(np.sqrt(np.mean(err ** 2)))

    rms_argmax = depth_rms(0.0, refine=False)
    rms_refine = depth_rms(0.0, refine=True)
    rms_hazy = depth_rms(0.5, refine=False)
    assert rms_argmax < grid.z_step / 2, f"argmax RMS {rms_argmax:.4f}"
    assert rms_refine < grid.z_step / 10, f"refined RMS {rms_refine:.4f}"
    assert rms_hazy < grid.z_step, f"haze-0.5 RMS {rms_hazy:.4f}"
    _report(5, "tilted-plane depth recovery",
            f"rms/z_step: argmax={rms_argmax:.4f} refine={rms_refine:.4f} haze0.5={rms_hazy:.4f}")


def test_criterion_6_axial_range_aliasing():
    spec = PatternSpec(256, 16, period_d=30, linewidth_w=2, shift_step=1, num_shifts_n=30)
    geom = geometry_with_shear(1.0)
    grid = ZGrid(z0=0.0, z_step=1.0, count=50)

    range_sections = axial_range(spec, geom) / grid.z_step
    assert range_sections == pytest.approx(30.0, rel=1e-12)
    layer_section = 40  # beyond the 30-section unambiguous range

    acq = acquire_stack(uniform_scene(spec, geom, layer_section), spec, geom, grid)
    volume = reconstruct_volume(acq, GeometryMasks(spec, geom, grid))

    # masks one full period of shear apart are identical in the interior,
    # so the response at section 40 repeats exactly at section 10 and the
    # lower-z tie wins the argmax
    interior = np.s_[:, 120:]
    alias = layer_section - int(range_sections)
    assert np.array_equal(volume.sections[alias][interior],
                          volume.sections[layer_section][interior])
    dm = extract_depth_map(volume, min_confidence=0.3)
    depths = dm.depth[interior]
    depths = depths[np.isfinite(depths)]
    assert depths.size > 0
    assert np.all(depths == float(alias)), "aliased depth is exactly one period away"

    assert is_axially_ambiguous(spec, geom, grid) is True
    assert GeometryMasks(spec, geom, grid).ambiguous is True
    safe_grid = ZGrid(z0=0.0, z_step=1.0, count=30)
    assert is_axially_ambiguous(spec, geom, safe_grid) is False
    _report(6, "axial range and aliasing",
            f"range={range_sections:.0f} sections; layer@40 -> depth {alias}; "
            f"ambiguity flag K=50:true K=30:false")


def test_criterion_7_fwhm_parametric():
    # (a) measured FWHM vs the rectangle-autocorrelation prediction
    spec = PatternSpec(256, 8, period_d=30, linewidth_w=2, shift_step=1, num_shifts_n=30)
    geom = geometry_with_shear(0.5)
    grid = ZGrid(z0=0.0, z_step=1.0, count=40)
    layer_section = 20  # integer mask phase: 20 * 0.5 = 10 px
    acq = acquire_stack(uniform_scene(spec, geom, layer_section), spec, geom, grid)
    curve = axial_psf(acq[0], base_camera_pattern(spec, geom),
                      spec, geom, grid, probe=(180, 4))
    predicted = predicted_fwhm_sections(spec.linewidth_w, geom.shear_px_per_section)
    measured = fwhm(curve) / grid.z_step
    rel_err = abs(measured - predicted) / predicted
    assert rel_err < 0.02, f"FWHM {measured:.3f} vs predicted {predicted:.3f}"

    # (b) 50-um sections tuned for a 0.5-length-unit FWHM (10 sections)
    z_step = 0.05
    geom_05 = geometry_with_shear(0.2, z_step=z_step)
    grid_05 = ZGrid(z0=0.0, z_step=z_step, count=100)
    layer_section = 50  # phase 50 * 0.2 = 10 px
    acq = acquire_stack(uniform_scene(spec, geom_05, layer_section), spec, geom_05, grid_05)
    curve = axial_psf(acq[0], base_camera_pattern(spec, geom_05),
                      spec, geom_05, grid_05, probe=(180, 4))
    width_z = fwhm(curve)
    width_sections = width_z / z_step
    assert width_sections == pytest.approx(10.0, abs=0.2)
    assert width_z == pytest.approx(0.5, abs=0.01)
    _report(7, "FWHM parametric",
            f"rect-autocorr rel_err={rel_err:.4f}; tuned config: {width_z:.4f} z-units "
            f"({width_sections:.2f} sections)")


def test_criterion_8_throughput():
    # the reference shape's MP/s (2048 x 2048, 100 sections, 30 shifts) is
    # hardware-dependent and half a GB of frames: `aspi bench` measures it

    # property: the work scales linearly in section count. It is counted
    # as the multiplies the kernel makes, n per voxel, which the host's
    # speed does not move; the CPU time, which drifts with it, is reported
    products, cpu = {}, {24: [], 48: []}
    for _ in range(3):
        for sections, runs in cpu.items():
            report = bench_reconstruction(512, 512, 10, sections, threads=1)
            products[sections] = report.products
            runs.append(report.cpu_seconds)
    assert products[24] == 512 * 512 * 24 * 10
    assert products[48] == 2 * products[24]
    ratio = min(cpu[48]) / min(cpu[24])

    # property: identical output regardless of thread count
    single = bench_reconstruction(256, 128, 12, 16, threads=1, seed=5)
    multi = bench_reconstruction(256, 128, 12, 16, threads=4, seed=5)
    assert single.checksum == multi.checksum
    _report(8, "reconstruction throughput",
            f"section scaling: products x{products[48] / products[24]:.2f}, "
            f"CPU time x{ratio:.2f}; thread checksums equal")


def test_criterion_9_format_and_cli_integrity(tmp_path):
    # randomized corpus: 10^4 planes round-trip bit-exactly
    rng = np.random.default_rng(2024)
    planes_total = 0
    stacks = 125
    for s in range(stacks):
        bits = rng.integers(0, 2 ** 32, size=(80, 10, 7), dtype=np.uint32)
        planes = bits.view(np.float32)
        bad = ~np.isfinite(planes)
        planes[bad] = -1.0  # keep the corpus finite; sentinel is the edge case
        path = tmp_path / f"c{s}.aspi"
        write_stack(planes, {"case": s}, path)
        back, meta = read_stack(path)
        assert back.tobytes() == planes.tobytes()
        assert meta["case"] == str(s)
        planes_total += planes.shape[0]
    assert planes_total == 10_000

    # documented pipeline end to end at 256x256 scale in < 60 s
    started = time.perf_counter()
    acq = tmp_path / "acq.aspi"
    vol = tmp_path / "vol.aspi"
    dep = tmp_path / "depth.aspi"
    pitch = "0.46630765815499863"  # tan(25 deg): exactly one pixel per section
    assert run_cli([
        "simulate", "--scene", "tilted", "--slope", "0.09765625", "--sections", "25",
        "--proj-width", "256", "--proj-height", "256", "--period", "30",
        "--linewidth", "2", "--shifts", "30", "--theta-deg", "25",
        "--z-step", "1.0", "--pixel-pitch", pitch, "--out", str(acq),
    ]) == 0
    assert run_cli(["reconstruct", "--input", str(acq), "--out", str(vol)]) == 0
    assert run_cli(["depthmap", "--input", str(vol), "--out", str(dep),
                    "--min-confidence", "0.3"]) == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"pipeline took {elapsed:.1f}s"

    depth, meta = read_stack(dep)
    d = depth[0].astype(np.float64)
    truth = np.broadcast_to(
        tilted_plane_sections(256, 0.09765625)[None, :].astype(np.float64), d.shape
    )
    valid = np.isfinite(d)
    rms = float(np.sqrt(np.mean((d[valid] - truth[valid]) ** 2)))
    assert rms < 0.5, f"pipeline depth RMS {rms:.3f}"
    _report(9, "format and CLI integrity",
            f"corpus 10^4 planes bit-exact; pipeline {elapsed:.1f}s, depth rms {rms:.3f}")
