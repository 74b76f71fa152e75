import math
import re
import sys
import threading
import time
import tracemalloc
import zlib

import numpy as np
import pytest

from aspi import (
    SENTINEL,
    GeometryMasks,
    MaskModel,
    ModelMasks,
    PatternSpec,
    Scene,
    StackReader,
    ZGrid,
    acquire_stack,
    base_camera_pattern,
    camera_shape,
    default_floor,
    fit_mask_model,
    predict_mask,
    reconstruct_section,
    reconstruct_volume,
    shift_image,
    synthesize_mask,
    write_stack,
)
from aspi import reconstructor
from aspi.imaging_model import TranslationMasks, mask_coverage
from conftest import geometry_bank, geometry_with_shear


def rig(d=30, w=2, n=30, width=120, height=16, shear=1.0, sections=20):
    spec = PatternSpec(width, height, period_d=d, linewidth_w=w, shift_step=1,
                       num_shifts_n=n)
    geom = geometry_with_shear(shear)
    grid = ZGrid(z0=0.0, z_step=1.0, count=sections)
    return spec, geom, grid


def uniform_acquisition(spec, geom, grid, z_index=0, **scene_kw):
    scene = Scene(layers=[(z_index, np.ones(camera_shape(spec, geom)))], **scene_kw)
    return acquire_stack(scene, spec, geom, grid)


class TestReconstructSection:
    def test_perfect_reflector_gives_ones_on_covered(self):
        spec, geom, grid = rig()
        provider = GeometryMasks(spec, geom, grid)
        masks = provider.section_masks(0)
        frames = np.broadcast_to(masks, (spec.num_shifts_n,) + camera_shape(spec, geom)).copy()
        section, coverage = reconstruct_section(frames, masks, floor=0.5)
        covered = coverage >= 0.5
        assert covered.any()
        assert np.array_equal(section[covered], np.ones(covered.sum()))
        assert np.all(section[~covered] == SENTINEL)

    def test_uniform_layer_normalizes_to_one(self):
        spec, geom, grid = rig()
        frames = uniform_acquisition(spec, geom, grid, z_index=6)
        provider = GeometryMasks(spec, geom, grid)
        section, coverage = reconstruct_section(frames, provider.section_masks(6),
                                                floor=default_floor(provider.base, 30))
        interior = section[:, 40:]
        assert np.array_equal(interior, np.ones_like(interior))

    def test_object_scale_equivariance_exact(self):
        spec, geom, grid = rig()
        frames = uniform_acquisition(spec, geom, grid, z_index=3)
        provider = GeometryMasks(spec, geom, grid)
        masks = provider.section_masks(3)
        floor = default_floor(provider.base, 30)
        base_sec, _ = reconstruct_section(frames, masks, floor)
        scaled_sec, _ = reconstruct_section(2.0 * frames, masks, floor)
        covered = base_sec != SENTINEL
        assert np.array_equal(scaled_sec[covered], 2.0 * base_sec[covered])

    def test_mask_scale_invariance_exact(self):
        spec, geom, grid = rig()
        frames = uniform_acquisition(spec, geom, grid, z_index=3)
        provider = GeometryMasks(spec, geom, grid)
        masks = provider.section_masks(3)
        floor = default_floor(provider.base, 30)
        a, _ = reconstruct_section(frames, masks, floor)
        b, _ = reconstruct_section(frames, 0.25 * masks, 0.25 * floor)
        assert np.array_equal(a, b)

    def test_mask_scale_invariance_general_beta(self):
        spec, geom, grid = rig()
        frames = uniform_acquisition(spec, geom, grid, z_index=3)
        provider = GeometryMasks(spec, geom, grid)
        masks = provider.section_masks(3)
        floor = default_floor(provider.base, 30)
        a, _ = reconstruct_section(frames, masks, floor)
        b, _ = reconstruct_section(frames, 3.7 * masks, 3.7 * floor)
        valid = a != SENTINEL
        assert np.allclose(a[valid], b[valid], rtol=1e-12)

    def test_row_masks_equal_full_masks(self):
        spec, geom, grid = rig()
        frames = uniform_acquisition(spec, geom, grid, z_index=2)
        provider = GeometryMasks(spec, geom, grid)
        rows = provider.section_masks(2)
        assert rows.shape[1] == 1
        full = np.broadcast_to(rows, (rows.shape[0],) + camera_shape(spec, geom)).copy()
        floor = default_floor(provider.base, 30)
        a, cov_a = reconstruct_section(frames, rows, floor)
        b, cov_b = reconstruct_section(frames, full, floor)
        assert np.array_equal(a, b)
        assert np.array_equal(cov_a, cov_b)

    def test_dimension_and_argument_errors(self):
        spec, geom, grid = rig()
        provider = GeometryMasks(spec, geom, grid)
        masks = provider.section_masks(0)
        frames = np.ones((30,) + camera_shape(spec, geom))
        with pytest.raises(ValueError):
            reconstruct_section(frames[:10], masks, 1.0)
        with pytest.raises(ValueError):
            reconstruct_section(frames[:, :, :50], masks, 1.0)
        with pytest.raises(ValueError):
            reconstruct_section(np.empty((0, 4, 4)), np.empty((0, 4, 4)), 1.0)
        for floor in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="floor must be > 0 and finite"):
                reconstruct_section(frames, masks, floor)


class TestReconstructVolume:
    def test_single_section_volume_equals_section(self):
        spec, geom, grid = rig(sections=1)
        frames = uniform_acquisition(spec, geom, grid, z_index=0)
        provider = GeometryMasks(spec, geom, grid)
        volume = reconstruct_volume(frames, provider)
        section, _ = reconstruct_section(frames, provider.section_masks(0),
                                         volume.coverage_floor_used)
        assert np.array_equal(volume.sections[0], section)

    def test_three_layers_peak_at_their_own_sections(self):
        # integer shear keeps every mask binary, so each layer's response is
        # an exact triangle with a unique apex at its own section
        spec, geom, grid = rig(d=40, w=2, n=40, width=160, height=12, shear=1.0, sections=20)
        shape = camera_shape(spec, geom)
        layers = []
        supports = {}
        for k, z in enumerate((5, 10, 15)):
            refl = np.zeros(shape)
            refl[:, 40 * k + 50:40 * k + 80] = 1.0
            layers.append((z, refl))
            supports[z] = refl > 0
        frames = acquire_stack(Scene(layers=layers), spec, geom, grid)
        volume = reconstruct_volume(frames, GeometryMasks(spec, geom, grid))
        for z, support in supports.items():
            energies = []
            for j in range(grid.count):
                sec = volume.sections[j]
                vals = sec[support & (sec != SENTINEL)]
                energies.append(vals.sum())
            assert int(np.argmax(energies)) == z

    def test_threaded_sections_bit_identical(self):
        spec, geom, grid = rig(sections=12)
        frames = uniform_acquisition(spec, geom, grid, z_index=4)
        serial = reconstruct_volume(frames, GeometryMasks(spec, geom, grid), threads=1)
        threaded = reconstruct_volume(frames, GeometryMasks(spec, geom, grid), threads=4)
        assert np.array_equal(serial.sections, threaded.sections)

    def test_out_of_plane_rejection(self):
        # a single layer leaks < 1% of its in-plane energy to sections
        # more than 3 FWHM away (noise-free, haze 0)
        spec, geom, grid = rig(d=30, w=2, n=30, shear=0.5, sections=40)
        frames = uniform_acquisition(spec, geom, grid, z_index=10)
        volume = reconstruct_volume(frames, GeometryMasks(spec, geom, grid))
        fwhm_sections = 2 / 0.5
        in_plane = volume.sections[10][:, 60:]
        far = volume.sections[10 + int(3 * fwhm_sections)][:, 60:]
        assert far[far != SENTINEL].sum() < 0.01 * in_plane[in_plane != SENTINEL].sum()


def section_coverage(masks):
    # every section's sum of its masks: (K, 1, W) for a row-compressed bank
    return np.stack([mask_coverage(masks.section_masks(j)) for j in range(masks.grid.count)])


class TestCoverageReport:
    """The coverage of every section (mask_coverage) and the bank's ambiguity flag."""

    def test_full_coverage_equals_linewidth(self):
        spec, geom, grid = rig(d=10, w=2, n=10, width=80, sections=4)
        masks = GeometryMasks(spec, geom, grid)
        interior = section_coverage(masks)[:, :, 16:]
        assert np.allclose(interior, 2.0, atol=1e-12)
        assert masks.ambiguous is False

    def test_partial_scan_leaves_periodic_stripes(self):
        # n*step < d: enumerate the uncovered residues directly
        spec, geom, grid = rig(d=12, w=1, n=4, width=96, sections=1)
        coverage = section_coverage(GeometryMasks(spec, geom, grid))
        row = coverage[0, 0]
        covered_resid = {(i * 1 + 0) % 12 for i in range(4)}  # slit lands on shift residues
        for c in range(24, 96):
            assert (row[c] > 0) == ((c % 12) in covered_resid)
        assert np.mean(coverage < 0.5) > 0.5

    def test_shear_vacated_border_flagged(self):
        spec, geom, grid = rig(d=10, w=2, n=10, width=80, shear=1.0, sections=6)
        floor = default_floor(GeometryMasks(spec, geom, grid).base, 10)
        coverage = section_coverage(GeometryMasks(spec, geom, grid))
        last = coverage[-1, 0]
        vacated = int(np.ceil(grid.count - 1 + 0))  # (K-1) px of shear at 1 px/section
        assert np.all(last[:vacated] < floor)
        assert coverage.min() == 0.0

    def test_ambiguity_flag_tracks_period(self):
        spec, geom, _ = rig(d=10, w=2, n=10, width=80, shear=1.0)
        assert GeometryMasks(spec, geom, ZGrid(0.0, 1.0, 11)).ambiguous is True
        assert GeometryMasks(spec, geom, ZGrid(0.0, 1.0, 10)).ambiguous is False

def test_default_floor_value():
    base = 2.0 * np.ones((4, 4))
    assert default_floor(base, 30) == pytest.approx(1e-3 * 2.0 * 30)


def test_simulator_and_reconstructor_share_one_mask_bank():
    from aspi import forward_sim, imaging_model

    assert forward_sim.GeometryMasks is imaging_model.GeometryMasks


def noisy_frames(n, shape, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((n,) + shape) + rng.normal(0.0, 0.05, (n,) + shape)


def reference_volume(frames, provider, floor):
    return np.stack([reconstruct_section(frames, provider.section_masks(j), floor)[0]
                     for j in range(provider.grid.count)])


def no_reference_kernel(*args, **kwargs):
    raise AssertionError("row-constant banks must not take the reference kernel")


def assert_within_gemm_bound(gemm, ref, frames, bank, ulps=None):
    """GEMM sections vs reference ones: same sentinels, ulps*eps*sum|O_i|M_i/den apart.

    ulps is 2*n unless given.
    """
    n = frames.shape[0]
    ulps = 2 * n if ulps is None else ulps
    den = np.broadcast_to(bank.sum(axis=0)[:, None, :], ref.shape)
    magnitude = np.einsum("iyx,ijx->jyx", np.abs(frames), bank)
    eps = np.finfo(float).eps
    covered = ref != SENTINEL
    assert np.array_equal(gemm != SENTINEL, covered)
    assert covered.mean() > 0.5
    bound = ulps * eps * magnitude[covered] / den[covered]
    assert np.all(np.abs(gemm - ref)[covered] <= bound)


class TestGemmKernel:
    """Row-constant banks: the GEMM kernel against the reference kernel."""

    # 40 rows are three row bands; a non-dyadic shear makes inexact masks
    SHEAR = 0.2332

    def rig(self, threshold=False, shift_sign=1, sections=24):
        spec = PatternSpec(150, 40, period_d=30, linewidth_w=2, shift_step=1, num_shifts_n=30)
        geom = geometry_with_shear(self.SHEAR, shift_sign=shift_sign)
        grid = ZGrid(z0=0.0, z_step=1.0, count=sections)
        return spec, GeometryMasks(spec, geom, grid, threshold=threshold)

    @pytest.mark.parametrize("threshold", [False, True])
    def test_within_rounding_bound_of_reference(self, monkeypatch, threshold):
        spec, provider = self.rig(threshold)
        frames = noisy_frames(30, camera_shape(spec, provider.geom))
        floor = default_floor(provider.base, 30)
        ref = reference_volume(frames, provider, floor)
        monkeypatch.setattr(reconstructor, "reconstruct_section", no_reference_kernel)
        gemm = reconstruct_volume(frames, provider, floor=floor).sections
        assert_within_gemm_bound(gemm, ref, frames, provider.row_bank())

    def test_bit_identical_for_any_thread_count(self):
        spec, provider = self.rig()
        frames = noisy_frames(30, camera_shape(spec, provider.geom), seed=1)
        one = reconstruct_volume(frames, provider, threads=1).sections
        three = reconstruct_volume(frames, provider, threads=3).sections
        assert one.tobytes() == three.tobytes()

    @pytest.mark.parametrize("threshold,shift_sign", [(False, 1), (True, 1), (False, -1)])
    def test_row_bank_is_every_section_mask_bank(self, threshold, shift_sign):
        _, provider = self.rig(threshold, shift_sign)
        bank = provider.row_bank()
        assert bank.shape == (30, 24, 150)
        row = provider.base[:1]
        for z in range(24):
            masks = provider.section_masks(z)
            assert masks.shape == (30, 1, 150)
            assert masks.tobytes() == np.ascontiguousarray(bank[:, z, None]).tobytes()
            for i in (0, 7, 29):
                one = synthesize_mask(row, float(i), z, provider.geom, provider.grid)
                assert masks[i].tobytes() == one.tobytes()

    def test_float32_frames_equal_float64_on_both_kernels(self):
        for provider in (self.rig()[1], y_varying_provider("geometry_2d")[0]):
            f32 = noisy_frames(provider.shift_count, provider.base.shape, seed=3).astype(np.float32)
            f64 = f32.astype(np.float64)
            a = reconstruct_volume(f32, provider).sections
            b = reconstruct_volume(f64, provider).sections
            assert a.tobytes() == b.tobytes()

    def test_magnified_slit_pattern_stays_row_constant(self):
        # resampling keeps the slit pattern's rows identical, so a magnified
        # rig still takes the GEMM kernel; at 2.97, resampling every row
        # rounds some rows apart
        spec = PatternSpec(80, 12, period_d=16, linewidth_w=2, shift_step=1, num_shifts_n=16)
        for magnification, width in ((1.5, 120), (2.14, 171), (2.97, 238)):
            geom = geometry_with_shear(self.SHEAR, magnification=magnification)
            provider = GeometryMasks(spec, geom, ZGrid(z0=0.0, z_step=1.0, count=8))
            assert provider.row_bank().shape == (16, 8, width)

    def test_2d_base_keeps_full_bank_and_reference_kernel(self):
        # a magnified rig whose base falls off along y: masks vary by row;
        # test_reference_kernel_bands_equal_the_full_frame_oracle checks its volume
        provider, frames = y_varying_provider("geometry_2d")
        assert provider.row_bank() is None
        assert provider.section_masks(0).shape == (16, 18, 120) == frames.shape


@pytest.mark.parametrize("threshold", [False, True])
def test_gemm_kernel_within_n_plus_1_eps_of_reference(threshold):
    # the bank is divided by its coverage before the product: one rounding
    # per mask, then the product's own, against the reference's sum and divide
    spec, provider = TestGemmKernel().rig(threshold)
    frames = noisy_frames(30, camera_shape(spec, provider.geom), seed=2)
    floor = default_floor(provider.base, 30)
    ref = reference_volume(frames, provider, floor)
    gemm = reconstruct_volume(frames, provider, floor=floor).sections
    assert_within_gemm_bound(gemm, ref, frames, provider.row_bank(), ulps=30 + 1)


class TestModelMasks:
    """Calibrated models: the bank against predict_mask, the volume against the reference."""

    SHEAR = 0.2332

    def fitted(self, noise_sigma):
        # three references of a 96 x 64 rig; noise makes the base vary along
        # y and the fitted dy nonzero
        spec = PatternSpec(96, 64, period_d=30, linewidth_w=2, shift_step=1, num_shifts_n=30)
        geom = geometry_with_shear(self.SHEAR)
        grid = ZGrid(z0=0.0, z_step=1.0, count=12)
        base = base_camera_pattern(spec, geom)
        refs = np.stack([base, synthesize_mask(base, 9.0, 0, geom, grid),
                         synthesize_mask(base, 0.0, 11, geom, grid)])
        refs += np.random.default_rng(0).normal(0.0, noise_sigma, refs.shape)
        model = fit_mask_model(*refs, anchors=(10, 12))
        return model, ModelMasks(model, grid, spec.num_shifts_n)

    @pytest.mark.parametrize("noise_sigma", [0.0, 0.05])
    def test_section_masks_are_predict_mask(self, noise_sigma):
        model, provider = self.fitted(noise_sigma)
        moves_y = model.lateral_dy != 0.0 or model.axial_dy != 0.0
        assert moves_y == (noise_sigma > 0)
        assert (provider.row_bank() is None) == moves_y
        for z in (0, 5, 11):
            masks = provider.section_masks(z)
            for i in range(30):
                full = np.broadcast_to(masks[i], model.base_mask.shape)
                assert full.tobytes() == predict_mask(model, i, z).tobytes()

    def test_row_constant_model_takes_gemm_kernel(self, monkeypatch):
        model, provider = self.fitted(0.0)
        frames = noisy_frames(30, model.base_mask.shape, seed=5)
        floor = default_floor(provider.base, 30)
        ref = reference_volume(frames, provider, floor)
        monkeypatch.setattr(reconstructor, "reconstruct_section", no_reference_kernel)
        gemm = reconstruct_volume(frames, provider, floor=floor, threads=2).sections
        assert_within_gemm_bound(gemm, ref, frames, provider.row_bank())

    def test_model_moving_along_y_keeps_reference_kernel(self):
        # test_reference_kernel_bands_equal_the_full_frame_oracle checks its volume
        model, provider = self.fitted(0.05)
        assert provider.row_bank() is None
        frames = noisy_frames(30, model.base_mask.shape, seed=6)
        assert reconstruct_volume(frames, provider, threads=2).masks_source == "calibrated-model"


def y_varying_provider(kind):
    """A provider that takes the reference kernel, and frames for it."""
    if kind == "model":
        provider = TestModelMasks().fitted(0.05)[1]
    else:
        spec = PatternSpec(80, 12, period_d=16, linewidth_w=2, shift_step=1, num_shifts_n=16)
        geom = geometry_with_shear(0.2332, magnification=1.5)
        grid = ZGrid(z0=0.0, z_step=1.0, count=8)
        base = base_camera_pattern(spec, geom)
        falloff = np.linspace(1.0, 0.6, base.shape[0])[:, None]
        provider = geometry_bank(falloff * base, spec, geom, grid)
    assert provider.row_bank() is None
    return provider, noisy_frames(provider.shift_count, provider.base.shape, seed=9)


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("kind", ["model", "geometry_2d"])
def test_reference_kernel_bands_equal_the_full_frame_oracle(kind, threads):
    # band workers write disjoint rows of one section; switch threads often
    provider, frames = y_varying_provider(kind)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        volume = reconstruct_volume(frames, provider, threads=threads)
    finally:
        sys.setswitchinterval(interval)
    ref = reference_volume(frames, provider, volume.coverage_floor_used)
    assert volume.sections.tobytes() == ref.tobytes()


@pytest.mark.parametrize("threads", [1, 3])
def test_reference_kernel_tall_frames_span_several_bands(threads):
    # 150 x 1000: three row bands whatever the thread count, with masks
    # moving along y across the band edges
    base = np.random.default_rng(4).random((150, 1000))
    model = MaskModel(base, 0.6, 0.35, 0.25, -0.8, (10, 5), 0.0, 0.0)
    provider = ModelMasks(model, ZGrid(0.0, 1.0, 5), 10)
    frames = noisy_frames(10, base.shape, seed=8)
    assert base.size > 2 * reconstructor._BAND_PIXELS
    volume = reconstruct_volume(frames, provider, threads=threads)
    ref = reference_volume(frames, provider, volume.coverage_floor_used)
    assert volume.sections.tobytes() == ref.tobytes()


@pytest.mark.parametrize("step,shear", [
    ((0.7, -0.3), (0.4, 0.25)),    # both axes, fractional; step 0 at z = 0 moves nothing
    ((0.0, 0.6), (0.0, -1.5)),     # y only
    ((1.3, 0.0), (-0.45, 0.0)),    # x only, on a base that varies along y
    ((2.0, 1.0), (1.0, -3.0)),     # integer shifts
    ((9.0, 13.5), (-4.0, 21.0)),   # windows shifted past the frame edges
])
def test_section_mask_rows_are_rows_of_the_whole_bank(step, shear):
    base = np.random.default_rng(3).normal(0.0, 1.0, (23, 31))  # negative values too
    provider = TranslationMasks(base, step, shear, 6, ZGrid(0.0, 1.0, 4))
    for z in range(4):
        whole = provider.section_masks(z)
        dx = np.arange(6.0) * step[0] + z * shear[0]
        dy = np.arange(6.0) * step[1] + z * shear[1]
        per_step = np.stack([shift_image(base, dx[i], dy[i]) for i in range(6)])
        assert whole.tobytes() == per_step.tobytes()
        for r0, r1 in ((0, 1), (0, 7), (5, 14), (11, 12), (16, 23), (22, 23), (0, 23)):
            window = provider.section_masks(z, (r0, r1))
            assert window.tobytes() == np.ascontiguousarray(whole[:, r0:r1]).tobytes()


def test_row_bank_holds_no_transient_copies():
    spec = PatternSpec(512, 4, period_d=30, linewidth_w=2, shift_step=1, num_shifts_n=30)
    provider = GeometryMasks(spec, geometry_with_shear(0.2332), ZGrid(0.0, 1.0, 60))
    tracemalloc.start()
    try:
        bank = provider.row_bank()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert bank.shape == (30, 60, 512)
    assert peak <= 1.5 * bank.nbytes


class TestNonFiniteFrames:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_geometry_and_model_paths_reject(self, value):
        spec, geom, grid = rig(shear=0.5, sections=6)
        frames = uniform_acquisition(spec, geom, grid, z_index=2)
        frames[4, 3, 50] = value
        provider = GeometryMasks(spec, geom, grid)
        model = fit_mask_model(
            provider.base,
            synthesize_mask(provider.base, 5.0, 0, geom, grid),
            synthesize_mask(provider.base, 0.0, 5, geom, grid),
            anchors=(6, 6),
        )
        for masks in (provider, ModelMasks(model, grid, spec.num_shifts_n)):
            with pytest.raises(ValueError, match="1 non-finite frame pixels"):
                reconstruct_volume(frames, masks)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("layout", ["frame", "row"])
def test_non_finite_mask_base_rejected(value, layout):
    # unchecked, it gives a NaN default floor, or with a given floor a
    # sentinel wherever one of its masks moves the pixel; a base of row
    # stride 0 is checked on its one row, whose bad pixels recur on every row
    spec, geom, grid = rig(sections=6)
    base = base_camera_pattern(spec, geom)
    if layout == "frame":
        base[3, 50] = base[5, 7] = value
        count = 2
    else:
        row = base[0].copy()
        row[50] = row[7] = value
        base, count = np.broadcast_to(row, base.shape), 2 * base.shape[0]
    message = f"mask base has {count} non-finite pixels (NaN or Inf)"
    with pytest.raises(ValueError, match=re.escape(message)):
        geometry_bank(base, spec, geom, grid)


@pytest.mark.parametrize("step,shear", [((1.0, 0.5), (1.0, 0.0)), ((1.0, 0.0), (0.5, -0.25))],
                         ids=["step_dy", "shear_dy"])
def test_zero_stride_base_moved_along_y_keeps_the_full_bank(step, shear):
    # a row-constant base moved along y is not row-constant once moved: zero
    # comes in at the top or bottom edge
    spec, geom, grid = rig(sections=6)
    frame = base_camera_pattern(spec, geom)
    row_base = TranslationMasks(np.broadcast_to(frame[0], frame.shape), step, shear, 8, grid)
    frame_base = TranslationMasks(frame, step, shear, 8, grid)
    assert row_base.row_bank() is None
    for z in range(6):
        assert row_base.section_masks(z).tobytes() == frame_base.section_masks(z).tobytes()


class TestVolumeStream:
    """VolumeStream.blocks: the volume of reconstruct_volume, piece by piece."""

    def gemm_rig(self, height=70, sections=12):
        # 70 rows: four full 16-row bands and a short one
        spec = PatternSpec(90, height, period_d=30, linewidth_w=2, shift_step=1, num_shifts_n=30)
        geom = geometry_with_shear(0.2332)
        provider = GeometryMasks(spec, geom, ZGrid(z0=0.0, z_step=1.0, count=sections))
        return provider, noisy_frames(30, camera_shape(spec, geom), seed=7).astype(np.float32)

    def model_rig(self):
        provider = TestModelMasks().fitted(0.05)[1]
        return provider, noisy_frames(30, provider.base.shape, seed=8)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_gemm_chunks_assemble_the_volume(self, threads):
        provider, frames = self.gemm_rig()
        whole = reconstruct_volume(frames, provider, threads=threads).sections
        stream = reconstructor.VolumeStream(frames, provider, threads=threads)
        assert stream.shape == whole.shape
        offsets = []
        for r0, block in stream.blocks():
            offsets.append((r0, block.shape))
            # the float64 voxels, each rounded once to float32
            assert block.dtype == np.float32 and block.flags.c_contiguous
            rows = whole[:, r0:r0 + block.shape[1]]
            assert block.tobytes() == rows.astype("<f4").tobytes()
        assert offsets == [(r0, (12, 16, 90)) for r0 in range(0, 64, 16)] + [(64, (12, 6, 90))]

    @pytest.mark.parametrize("threads,rows", [(1, 32), (3, 16)])
    def test_reference_kernel_yields_row_chunks_in_order(self, threads, rows):
        # 64 rows: at least 2 * threads chunks of whole 16-row bands
        provider, frames = self.model_rig()
        whole = reconstruct_volume(frames, provider, threads=threads).sections
        stream = reconstructor.VolumeStream(frames, provider, threads=threads)
        blocks = [(r0, block.copy()) for r0, block in stream.blocks()]
        assert [(r0, b.shape, b.dtype) for r0, b in blocks] == [
            (r0, (12, rows, 96), np.float32) for r0 in range(0, 64, rows)]
        assert np.concatenate([b for *_, b in blocks], axis=1).tobytes() == \
            whole.astype("<f4").tobytes()
        # given a float64 volume, the chunks are its rows
        out = np.empty(stream.shape)
        for r0, block in stream.blocks(out):
            assert block.base is out and block.shape == (12, rows, 96)
            assert np.shares_memory(block, out[:, r0:r0 + rows])
        assert out.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("rig", ["gemm_rig", "model_rig"])
    def test_sentinels_counted_from_the_coverage(self, rig, threads):
        # noisy frames: every -1.0 voxel is a sentinel, and the count is the
        # uncovered voxels of the float64 volume
        provider, frames = getattr(self, rig)()
        whole = reconstruct_volume(frames, provider, threads=threads).sections
        stream = reconstructor.VolumeStream(frames, provider, threads=threads)
        for _ in stream.blocks():
            pass
        assert stream.sentinels == np.count_nonzero(whole == SENTINEL) > 0
        for _ in stream.blocks():  # a second pass counts afresh
            pass
        assert stream.sentinels == np.count_nonzero(whole == SENTINEL)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("rig", ["gemm_rig", "model_rig"])
    def test_products_counted_from_the_kernel_calls(self, rig, threads):
        # n multiplies per voxel, whichever kernel and thread count
        provider, frames = getattr(self, rig)()
        stream = reconstructor.VolumeStream(frames, provider, threads=threads)
        assert stream.products == 0
        chunks = 0
        for _ in stream.blocks():
            chunks += 1
        assert chunks > 1
        assert stream.products == math.prod(stream.shape) * frames.shape[0]
        for _ in stream.blocks():  # a second pass counts afresh
            pass
        assert stream.products == math.prod(stream.shape) * frames.shape[0]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rig", ["gemm_rig", "model_rig"])
    def test_a_chunk_stays_while_the_next_is_computed(self, rig, dtype):
        # more workers than cores and frequent switches: a slow caller reads
        # each chunk, float32 from the ring or rows of a float64 volume,
        # while the workers compute the next ones
        provider, frames = getattr(self, rig)()
        whole = reconstruct_volume(frames, provider).sections.astype(dtype)
        stream = reconstructor.VolumeStream(frames, provider, threads=3)
        out = None if dtype is np.float32 else np.empty(stream.shape)
        spans = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for r0, chunk in stream.blocks(out):
                time.sleep(0.02)  # longer than the workers take for a chunk
                r1 = r0 + chunk.shape[1]
                assert chunk.dtype == dtype
                assert chunk.tobytes() == whole[:, r0:r1].tobytes()
                spans.append((r0, r1))
        finally:
            sys.setswitchinterval(interval)
        # every chunk in order, each once
        assert len(spans) > 3 and spans[0][0] == 0 and spans[-1][1] == whole.shape[1]
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))

    @pytest.mark.parametrize("rig", ["gemm_rig", "model_rig"])
    def test_consume_sees_every_chunk_whole(self, rig):
        # more workers than cores and frequent switches: the caller keeps a
        # copy of each chunk, slowly, while the workers fill the ring
        provider, frames = getattr(self, rig)()
        whole = reconstruct_volume(frames, provider).sections.astype("<f4")
        seen = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for r0, chunk in reconstructor.VolumeStream(frames, provider, threads=3).blocks():
                time.sleep(0.02)  # longer than the workers take for a chunk
                seen.append((r0, chunk.copy()))
        finally:
            sys.setswitchinterval(interval)
        assert [r0 for r0, _ in seen] == sorted({r0 for r0, _ in seen}) and len(seen) > 2
        assert np.concatenate([c for _, c in seen], axis=1).tobytes() == whole.tobytes()

    def test_reference_kernel_submits_a_chunk_only_after_the_last_was_taken(self,
                                                                            started_threads):
        # a chunk is submitted whole, with its rows of the frames read on the
        # calling thread, when the caller asks for the chunk threads - 1 before it
        provider, frames = self.model_rig()
        submitted, caller = [], threading.get_ident()

        class RecordingFrames:
            def __getitem__(self, key):
                assert threading.get_ident() == caller
                submitted.append((key[1].start, key[1].stop))
                return frames[key]

        for threads in (2, 3):
            submitted.clear()
            started_threads.clear()
            stream = reconstructor.VolumeStream(frames, provider, threads=threads)
            stream._frames = RecordingFrames()
            chunks = 0
            for r0, chunk in stream.blocks():
                chunks += 1
                assert r0 == 16 * (chunks - 1) and chunk.shape == (12, 16, 96)
                # those up to this one, and `threads - 1` ahead of it
                expected = [(r, r + 16) for r in range(0, 64, 16)][:chunks + threads - 1]
                assert submitted == expected, threads
            # one worker per call in flight, started on the calling thread
            assert [t.starter for t in started_threads] == [caller] * threads
            assert chunks == 4

    def test_reference_kernel_holds_one_mask_bank(self):
        # two workers that each build a whole section's (n, H, W) bank peak
        # at about 2.45 banks on this rig; one bank split into two row bands
        # stays a bank below that
        provider, frames = self.model_rig()
        bank = frames.nbytes
        stream = reconstructor.VolumeStream(frames, provider, threads=2)
        tracemalloc.start()
        try:
            for _ in stream.blocks():
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.45 * bank

    @staticmethod
    def gemm_stream_peak(tmp_path, height, threads):
        # frames read from a file, 30 shifts, height x 512, 48 sections:
        # the traced peak of a pass, and what it may hold with `workers`
        # chunks in flight (those of the ring, each with its frame rows and
        # a tile on its worker)
        n, k, w = 30, 48, 512
        spec = PatternSpec(w, height, period_d=30, linewidth_w=2, shift_step=1, num_shifts_n=n)
        provider = GeometryMasks(spec, geometry_with_shear(0.2332), ZGrid(0.0, 1.0, k))
        frames = noisy_frames(n, camera_shape(spec, provider.geom), seed=5).astype(np.float32)
        assert frames.shape == (n, height, w)
        bank = n * k * w * 8                  # the (n, K, W) float64 masks
        coverage = k * w * (8 + 8 + 1)        # their sums, floored, and the uncovered flags
        chunk = 16 * w * (k * 4 + n * 4)      # one float32 band of every section, its frame rows
        tile = 16 * 64 * 8 * (n + n + k)      # a tile's frame rows, as float64 twice, products
        slack = 1 << 18                       # threads, futures, the reader's small arrays
        with stack_reader(tmp_path, frames) as reader:
            tracemalloc.start()
            try:
                for _ in reconstructor.VolumeStream(reader, provider, threads=threads).blocks():
                    pass
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        return peak, lambda workers: bank + coverage + workers * (chunk + tile) + slack

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_gemm_stream_holds_the_bank_one_band_and_a_tile_per_worker(self, tmp_path, threads):
        # four bands: a ring of one band per worker; one band with one
        # thread, where one more would not fit
        peak, bound = self.gemm_stream_peak(tmp_path, 64, threads)
        assert peak <= bound(threads), (peak - bound(threads)) / 1e6

    def test_no_more_bands_than_the_stream_has(self, tmp_path):
        # 8 threads over three bands: a ring of 3, not of 8 or 9
        peak, bound = self.gemm_stream_peak(tmp_path, 48, 8)
        assert peak <= bound(3), (peak - bound(3)) / 1e6

    def test_gemm_constructor_holds_one_bank_and_its_coverage(self, tmp_path):
        # the (W, n + 1, K) bank is filled in place, rows 0..n-1 by row_bank
        # and row n with the sentinel plane: no second copy of it exists at
        # any moment, and the stream keeps nothing else
        n, k, w = 30, 48, 512
        spec = PatternSpec(w, 64, period_d=30, linewidth_w=2, shift_step=1, num_shifts_n=n)
        provider = GeometryMasks(spec, geometry_with_shear(0.2332), ZGrid(0.0, 1.0, k))
        frames = noisy_frames(n, camera_shape(spec, provider.geom), seed=5).astype(np.float32)
        bank = w * (n + 1) * k * 8            # the float64 masks and the sentinel row
        coverage = k * w * (8 + 8 + 1)        # their sums, floored, and the uncovered flags
        block = 10 * n * w * 8                # row_bank's positions, indices and weights
        with stack_reader(tmp_path, frames) as reader:
            tracemalloc.start()
            try:
                stream = reconstructor.VolumeStream(reader, provider)
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert stream.shape == (k, 64, w)
        assert peak <= bank + coverage + block, (peak - bank - coverage - block) / 1e6
        assert current <= bank + (1 << 14), (current - bank) / 1e6

    @pytest.mark.parametrize("threads", [1, 2])
    def test_gemm_voxels_are_minus_one_where_uncovered_and_never_minus_zero(self, threads):
        # the sentinel row rides in the product against a column of ones:
        # -1.0 exactly where a column is uncovered, +0.0 added where it is
        # covered, so frames of -0.0 give +0.0 voxels; the ones column is
        # not counted as a multiply
        provider, frames = self.gemm_rig()
        frames[:, :, :40] = -0.0
        uncovered = ~(section_coverage(provider) >= default_floor(provider.base, 30))
        uncovered = np.broadcast_to(uncovered, (12,) + frames.shape[1:])
        stream = reconstructor.VolumeStream(frames, provider, threads=threads)
        sections = np.empty(stream.shape)
        chunks = [(r0, chunk.copy()) for r0, chunk in stream.blocks()]
        assert stream.sentinels == np.count_nonzero(uncovered) > 0
        assert stream.products == math.prod(stream.shape) * 30
        for _ in stream.blocks(sections):
            pass
        volume32 = np.concatenate([chunk for _, chunk in chunks], axis=1)
        for volume in (sections, volume32):
            assert np.array_equal(volume == SENTINEL, uncovered)
            assert np.all(volume[:, :, :40][~uncovered[:, :, :40]] == 0.0)
            assert not np.signbit(volume[volume == 0.0]).any()

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("rig", ["gemm_rig", "model_rig"])
    def test_a_second_pass_yields_the_same_chunks(self, rig, threads):
        # the kernel is prepared once, in the constructor: a GEMM bank
        # normalised again on every pass would change the second one
        provider, frames = getattr(self, rig)()
        stream = reconstructor.VolumeStream(frames, provider, threads=threads)
        first = [(r0, chunk.tobytes()) for r0, chunk in stream.blocks()]
        assert len(first) > 1
        assert [(r0, chunk.tobytes()) for r0, chunk in stream.blocks()] == first

    @pytest.mark.parametrize("rig", ["gemm_rig", "model_rig"])
    def test_one_executor_shut_down_on_close_and_error(self, monkeypatch, started_threads, rig):
        # each pass starts `threads` workers and joins them when it ends, is
        # closed or raises
        provider, frames = getattr(self, rig)()
        baseline = threading.active_count()

        def none_alive():
            return (not any(t.is_alive() for t in started_threads)
                    and threading.active_count() == baseline)

        stream = reconstructor.VolumeStream(frames, provider, threads=2)
        assert sum(1 for _ in stream.blocks()) > 2
        assert len(started_threads) == 2 and none_alive()

        started_threads.clear()
        blocks = stream.blocks()
        next(blocks)
        assert threading.active_count() == baseline + 2
        blocks.close()
        assert len(started_threads) == 2 and none_alive()

        def failing(*args, **kwargs):
            raise ValueError("kernel failure")

        started_threads.clear()
        monkeypatch.setattr(reconstructor, "reconstruct_section", failing)
        monkeypatch.setattr(reconstructor.np, "matmul", failing)
        with pytest.raises(ValueError, match="kernel failure"):
            for _ in stream.blocks():
                pass
        assert len(started_threads) == 2 and none_alive()

    def test_bad_input_rejected_before_any_block(self):
        provider, frames = self.gemm_rig()
        frames[2, 5, 7] = np.nan
        with pytest.raises(ValueError, match="1 non-finite frame pixels"):
            reconstructor.VolumeStream(frames, provider)
        for floor in (0.0, -np.inf, np.inf, np.nan):
            with pytest.raises(ValueError, match=f"floor must be > 0 and finite, got {floor}"):
                reconstructor.VolumeStream(frames, provider, floor=floor)

    @pytest.mark.parametrize("rig", ["gemm_rig", "model_rig"])
    def test_frames_of_another_shape_than_the_bank_rejected(self, rig):
        # a taller bank than the frames once took the GEMM kernel, or the
        # reference kernel's top rows of it
        provider, frames = getattr(self, rig)()
        n, h, w = frames.shape
        for shape in ((n - 1, h, w), (n, h - 1, w), (n, h, w - 1),
                      (n + 1, h, w), (n, h + 1, w), (n, h, w + 1)):
            message = re.escape(f"frames of shape {shape} for a mask bank of {(n, h, w)}")
            with pytest.raises(ValueError, match=message):
                reconstructor.VolumeStream(np.ones(shape, dtype=np.float32), provider)


def test_coverage_equal_to_the_floor_is_covered_by_both_kernels():
    # integer shear and steps: every coverage is an exact count of slit
    # pixels, so a floor of 1.0 equals the coverage of the edge columns
    spec, geom, grid = rig(n=20, sections=6)
    provider = GeometryMasks(spec, geom, grid)
    coverage = section_coverage(provider)
    at_floor = np.broadcast_to(coverage == 1.0, (grid.count,) + camera_shape(spec, geom))
    assert at_floor.any() and (coverage < 1.0).any()
    frames = noisy_frames(20, camera_shape(spec, geom), seed=3)
    for sections in (reconstruct_volume(frames, provider, floor=1.0).sections,
                     reference_volume(frames, provider, 1.0)):
        assert np.array_equal(sections == SENTINEL,
                              np.broadcast_to(coverage < 1.0, sections.shape))
        assert np.all(sections[at_floor] != SENTINEL)


class TestThreadCount:
    """A thread count below 1 is a ValueError on both kernels, before any thread starts."""

    @pytest.mark.parametrize("threads", [0, -1])
    @pytest.mark.parametrize("rig", ["gemm_rig", "model_rig"])
    def test_rejected_before_any_executor(self, monkeypatch, rig, threads):
        provider, frames = getattr(TestVolumeStream(), rig)()

        def no_thread(*args, **kwargs):
            raise AssertionError("no thread may be started")

        # the package's one thread start, in errors.run_ahead
        monkeypatch.setattr(threading, "Thread", no_thread)
        baseline = threading.active_count()
        message = f"threads must be >= 1, got {threads}"
        with pytest.raises(ValueError, match=message):
            reconstructor.VolumeStream(frames, provider, threads=threads)
        with pytest.raises(ValueError, match=message):
            reconstruct_volume(frames, provider, threads=threads)
        assert threading.active_count() == baseline


def stack_reader(tmp_path, frames):
    path = tmp_path / "acq.aspi"
    write_stack(frames, {"kind": "acquisition"}, path)
    return StackReader(path)


@pytest.mark.parametrize("threads", [1, 2])
def test_reference_kernel_chunks_from_a_file_equal_the_section_major_oracle(tmp_path, threads):
    # 150 rows: chunks of 64 rows (one thread) or 32 (two), the last one
    # short, with masks moving along y across the chunk edges
    base = np.random.default_rng(4).random((150, 200))
    model = MaskModel(base, 0.6, 0.35, 0.25, -0.8, (10, 5), 0.0, 0.0)
    provider = ModelMasks(model, ZGrid(0.0, 1.0, 5), 10)
    frames = noisy_frames(10, base.shape, seed=8).astype(np.float32)
    with stack_reader(tmp_path, frames) as reader:
        stream = reconstructor.VolumeStream(reader, provider, threads=threads)
        rows = [chunk.shape[1] for _, chunk in stream.blocks()]
        volume = reconstruct_volume(reader, provider, threads=threads)
    assert rows == ([64, 64, 22] if threads == 1 else [32] * 4 + [22])
    oracle = reference_volume(frames, provider, volume.coverage_floor_used)
    assert volume.sections.tobytes() == oracle.tobytes()


@pytest.mark.parametrize("threads", [1, 2])
def test_gemm_chunks_from_a_file_equal_those_of_the_array(tmp_path, monkeypatch, threads):
    # 600 columns: ten 64-column tiles in every band, the last one short
    spec = PatternSpec(600, 70, period_d=30, linewidth_w=2, shift_step=1, num_shifts_n=30)
    provider = GeometryMasks(spec, geometry_with_shear(0.2332), ZGrid(0.0, 1.0, 12))
    frames = noisy_frames(30, camera_shape(spec, provider.geom), seed=4).astype(np.float32)
    whole = reconstruct_volume(frames, provider, threads=threads).sections
    with stack_reader(tmp_path, frames) as reader:
        streamed = reconstruct_volume(reader, provider, threads=threads).sections
    assert streamed.tobytes() == whole.tobytes()
    # every column is its own product: tiles of any width have the same bits,
    # from one column each to one tile of all of them
    for cols in (1, 7, 64, 600):
        monkeypatch.setattr(reconstructor, "_GEMM_COLS", cols)
        tiled = reconstruct_volume(frames, provider, threads=threads).sections
        assert tiled.tobytes() == whole.tobytes(), cols


def test_gemm_kernel_reads_array_frames_as_contiguous_bands(monkeypatch):
    # the layout a StackReader returns, so an array times the tiles `aspi
    # reconstruct` runs; the reference kernel's float64 reads stay views
    seen = []
    chunk = reconstructor.VolumeStream._chunk

    def recording(self, read, out):
        seen.append(read[1])
        return chunk(self, read, out)

    monkeypatch.setattr(reconstructor.VolumeStream, "_chunk", recording)
    provider, frames = TestVolumeStream().gemm_rig()
    for _ in reconstructor.VolumeStream(frames, provider).blocks():
        pass
    assert len(seen) == 5
    assert all(band.flags.c_contiguous and band.dtype == np.float32
               and not np.shares_memory(band, frames) for band in seen)
    seen.clear()
    provider, frames = TestVolumeStream().model_rig()
    for _ in reconstructor.VolumeStream(frames, provider).blocks():
        pass
    assert len(seen) == 2 and all(np.shares_memory(band, frames) for band in seen)


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("rig,crcs", [
    # 72 sections, 150 columns (two 64-column tiles and a short one), 40 rows
    ("geometry", (0x2E5B0A36, 0xFB9CF89B)),
    # a row-constant calibrated model: the GEMM kernel on fitted steps
    ("model", (0x190F2F29, 0x8C5AB706)),
])
def test_gemm_volumes_keep_their_pinned_bytes(rig, crcs, threads):
    # the float32 volume of reconstruct_volume, and the float32 chunks of a
    # stream in row order, as the kernel that added a separate sentinel
    # plane to each tile's product wrote them
    if rig == "geometry":
        spec, provider = TestGemmKernel().rig(sections=72)
        frames = noisy_frames(30, provider.base.shape, seed=11).astype(np.float32)
    else:
        model, provider = TestModelMasks().fitted(0.0)
        frames = noisy_frames(30, model.base_mask.shape, seed=5)
    assert provider.row_bank() is not None
    volume = reconstruct_volume(frames, provider, threads=threads).sections
    crc = 0
    for _, chunk in reconstructor.VolumeStream(frames, provider, threads=threads).blocks():
        crc = zlib.crc32(chunk, crc)
    assert (zlib.crc32(volume.astype("<f4")), crc) == crcs


def test_stream_checks_the_file_frame_by_frame_then_reads_chunk_rows(tmp_path, monkeypatch):
    provider, frames = TestVolumeStream().gemm_rig()
    reads = []
    getitem = StackReader.__getitem__

    def recording(self, index):
        # after the read: iteration ends at the index that raises IndexError
        window = getitem(self, index)
        reads.append(index)
        return window

    monkeypatch.setattr(StackReader, "__getitem__", recording)
    with stack_reader(tmp_path, frames) as reader:
        stream = reconstructor.VolumeStream(reader, provider)
        assert reads == list(range(30))
        reads.clear()
        for r0, chunk in stream.blocks():
            assert reads[-1] == (slice(None), slice(r0, r0 + chunk.shape[1]))
    assert reads == [(slice(None), slice(r0, min(r0 + 16, 70))) for r0 in range(0, 70, 16)]
