import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aspi import (
    SENTINEL,
    AxialCurve,
    CoverageError,
    DegenerateInputError,
    FwhmRangeError,
    GeometryConfig,
    GeometryMasks,
    NoiseSpec,
    PatternSpec,
    Scene,
    StackReader,
    VolumeStack,
    ZGrid,
    acquire_stack,
    axial_psf,
    base_camera_pattern,
    camera_shape,
    contrast_window,
    default_floor,
    extract_depth_map,
    fwhm,
    make_tilted_plane_scene,
    predicted_fwhm_sections,
    reconstruct_volume,
    sample_row,
    tilted_plane_sections,
    write_stack,
)
from aspi import volume_analysis
from aspi.volume_analysis import CONTRAST_TAU
from conftest import geometry_with_shear


def rig(d=30, w=2, n=30, width=160, height=12, shear=1.0, sections=24):
    spec = PatternSpec(width, height, period_d=d, linewidth_w=w, shift_step=1,
                       num_shifts_n=n)
    geom = geometry_with_shear(shear)
    grid = ZGrid(z0=0.0, z_step=1.0, count=sections)
    return spec, geom, grid


def layer_acquisition(spec, geom, grid, z_index):
    scene = Scene(layers=[(z_index, np.ones(camera_shape(spec, geom)))])
    return acquire_stack(scene, spec, geom, grid)


class TestAxialPsf:
    def test_peak_at_layer_section(self):
        spec, geom, grid = rig()
        acq = layer_acquisition(spec, geom, grid, 8)
        curve = axial_psf(acq[0], base_camera_pattern(spec, geom),
                          spec, geom, grid, probe=(120, 6))
        assert int(np.argmax(curve.response)) == 8
        assert curve.response.max() == 1.0

    def test_rectangle_autocorrelation_is_triangular(self):
        # slit width w against itself: triangle spanning 2w/shear sections
        spec, geom, grid = rig(d=30, w=3, shear=1.0, sections=16)
        acq = layer_acquisition(spec, geom, grid, 6)
        curve = axial_psf(acq[0], base_camera_pattern(spec, geom),
                          spec, geom, grid, probe=(120, 4))
        delta = np.arange(grid.count) - 6.0
        expected = np.maximum(0.0, 1.0 - np.abs(delta) / 3.0)
        assert np.allclose(curve.response[:12], expected[:12], atol=1e-12)
        base_width = np.count_nonzero(curve.response[:12])
        assert base_width == 2 * 3 - 1

    def test_matches_reconstructed_response(self):
        spec, geom, grid = rig()
        acq = layer_acquisition(spec, geom, grid, 7)
        volume = reconstruct_volume(acq, GeometryMasks(spec, geom, grid))
        probe = (120, 5)
        curve = axial_psf(acq[0], base_camera_pattern(spec, geom),
                          spec, geom, grid, probe=probe)
        rec = volume.sections[:, probe[1], probe[0]]
        rec = rec / rec.max()
        assert np.max(np.abs(curve.response - rec)) < 1e-6

    def test_uncovered_probe_raises(self):
        spec, geom, grid = rig()
        acq = layer_acquisition(spec, geom, grid, 0)
        with pytest.raises(CoverageError):
            axial_psf(acq[0], base_camera_pattern(spec, geom),
                      spec, geom, grid, probe=(2, 3))

    def test_probe_bounds_checked(self):
        spec, geom, grid = rig()
        acq = layer_acquisition(spec, geom, grid, 0)
        with pytest.raises(ValueError):
            axial_psf(acq[0], base_camera_pattern(spec, geom),
                      spec, geom, grid, probe=(500, 3))


class TestAxialCurve:
    def test_validation(self):
        with pytest.raises(ValueError):
            AxialCurve(z=np.array([0.0, 1.0, 1.0]), response=np.zeros(3))
        with pytest.raises(ValueError):
            AxialCurve(z=np.arange(3.0), response=np.array([0.0, -1.0, 0.0]))


def triangle_curve(half_width, z0=0.0, z_step=1.0, count=21, peak=1.0, center=None):
    z = z0 + z_step * np.arange(count)
    center = z[count // 2] if center is None else center
    resp = peak * np.maximum(0.0, 1.0 - np.abs(z - center) / half_width)
    return AxialCurve(z=z, response=resp)


class TestFwhm:
    def test_exact_triangle(self):
        assert fwhm(triangle_curve(4.0)) == pytest.approx(4.0, abs=1e-12)

    def test_scale_invariance(self):
        assert fwhm(triangle_curve(3.0, peak=5.0)) == pytest.approx(
            fwhm(triangle_curve(3.0, peak=1.0)), abs=1e-12)

    def test_translation_invariance(self):
        assert fwhm(triangle_curve(3.0, z0=-17.0)) == pytest.approx(
            fwhm(triangle_curve(3.0, z0=4.0)), abs=1e-12)

    def test_off_sample_apex_measures_observed_peak(self):
        # the half level comes from the sampled maximum: a triangle of
        # half-width h with its apex delta off the nearest sample reads
        # p = 1 - delta/h and the level-p/2 crossings span h + delta
        curve = triangle_curve(4.0, center=10.4)
        assert fwhm(curve) == pytest.approx(4.0 + 0.4, abs=1e-9)

    def test_plateau_uses_outermost_crossings(self):
        z = np.arange(9.0)
        resp = np.array([0.0, 1.0, 2.0, 2.0, 2.0, 2.0, 1.0, 0.0, 0.0])
        width = fwhm(AxialCurve(z=z, response=resp))
        assert width == pytest.approx(5.0, abs=1e-12)  # crossings at z=1 and z=6

    def test_crossing_outside_range_raises(self):
        z = np.arange(5.0)
        with pytest.raises(FwhmRangeError):
            fwhm(AxialCurve(z=z, response=np.array([0.9, 1.0, 0.95, 0.9, 0.8])))
        with pytest.raises(FwhmRangeError):
            fwhm(AxialCurve(z=z, response=np.array([0.8, 0.9, 0.95, 1.0, 0.9])))

    def test_predicted_fwhm_from_rig(self):
        # synthetic rig tuned to a 10-section prediction
        spec, geom, grid = rig(d=30, w=2, shear=0.25, sections=120, width=200, height=6)
        pred = predicted_fwhm_sections(2, 0.25)
        assert pred == 8.0
        acq = layer_acquisition(spec, geom, grid, 40)  # phase 40*0.25 = integer
        curve = axial_psf(acq[0], base_camera_pattern(spec, geom),
                          spec, geom, grid, probe=(150, 3))
        assert fwhm(curve) == pytest.approx(pred, abs=0.2)


def volume_from_array(data, z0=0.0, z_step=1.0):
    data = np.asarray(data, dtype=np.float64)
    return VolumeStack(sections=data, grid=ZGrid(z0=z0, z_step=z_step, count=data.shape[0]),
                       coverage_floor_used=1e-3)


class TestExtractDepthMap:
    def test_single_section_maps_to_z0(self):
        volume = volume_from_array(np.full((1, 3, 4), 0.8), z0=2.5)
        dm = extract_depth_map(volume, min_confidence=0.1)
        assert np.all(dm.depth == 2.5)
        assert np.all(dm.confidence == pytest.approx(0.8))

    def test_ties_break_toward_lower_z(self):
        col = np.zeros((6, 1, 1))
        col[2] = col[4] = 1.0
        dm = extract_depth_map(volume_from_array(col), min_confidence=0.5)
        assert dm.depth[0, 0] == 2.0

    def test_sentinel_entries_skipped(self):
        col = np.zeros((5, 1, 1))
        col[1] = 0.4
        col[3] = SENTINEL  # would win if treated as ordinary data? no: it is skipped
        col[4] = 0.2
        dm = extract_depth_map(volume_from_array(col), min_confidence=0.0)
        assert dm.depth[0, 0] == 1.0

    def test_all_sentinel_pixel_yields_nan_not_error(self):
        data = np.full((4, 2, 2), SENTINEL)
        data[:, 0, 0] = [0.1, 0.9, 0.2, 0.1]
        dm = extract_depth_map(volume_from_array(data), min_confidence=0.05)
        assert dm.depth[0, 0] == 1.0
        assert np.isnan(dm.depth[1, 1])
        assert dm.confidence[1, 1] == 0.0

    def test_low_confidence_masked(self):
        data = np.zeros((3, 1, 2))
        data[1, 0, 0] = 1.0
        data[2, 0, 1] = 0.01
        dm = extract_depth_map(volume_from_array(data), min_confidence=0.5)
        assert dm.depth[0, 0] == 1.0
        assert np.isnan(dm.depth[0, 1])
        assert dm.confidence[0, 1] == pytest.approx(0.01)

    def test_parabolic_refinement_recovers_subsection_peak(self):
        # quadratic response sampled at sections: the 3-point parabola is exact
        true_peak = 7.3
        j = np.arange(16.0)
        resp = np.maximum(0.0, 1.0 - 0.05 * (j - true_peak) ** 2)
        data = np.tile(resp[:, None, None], (1, 2, 2))
        coarse = extract_depth_map(volume_from_array(data), min_confidence=0.1)
        fine = extract_depth_map(volume_from_array(data), min_confidence=0.1, refine=True)
        assert coarse.depth[0, 0] == 7.0
        assert fine.depth[0, 0] == pytest.approx(true_peak, abs=1e-9)

    def test_refine_noop_at_boundary_peak(self):
        data = np.zeros((4, 1, 1))
        data[0] = 1.0
        dm = extract_depth_map(volume_from_array(data), min_confidence=0.1, refine=True)
        assert dm.depth[0, 0] == 0.0

    @pytest.mark.parametrize("refine", [False, True])
    @pytest.mark.parametrize("sections,peaks", [(128, (127, 64)), (129, (128, 0)),
                                                (40000, (32768, 39999))])
    def test_deep_volumes_keep_their_section_indices(self, sections, peaks, refine):
        # best sections past the range of a narrower integer type than the
        # volume's: int8 holds 127, int16 32767
        data = np.zeros((sections, 1, 2))
        data[peaks[0], 0, 0] = data[peaks[1], 0, 1] = 1.0
        volume = volume_from_array(data, z0=0.5, z_step=0.25)
        dm = extract_depth_map(volume, min_confidence=0.5, refine=refine)
        assert dm.depth.tolist() == [[0.5 + 0.25 * p for p in peaks]]

    def test_argmax_invariant_under_scaling(self):
        rng = np.random.default_rng(0)
        data = rng.random((8, 5, 5))
        a = extract_depth_map(volume_from_array(data), min_confidence=0.0)
        b = extract_depth_map(volume_from_array(4.0 * data), min_confidence=0.0)
        assert np.array_equal(a.depth, b.depth)

    def test_default_confidence_threshold_from_background(self):
        spec, geom, grid = rig()
        acq = layer_acquisition(spec, geom, grid, 8)
        volume = reconstruct_volume(acq, GeometryMasks(spec, geom, grid))
        dm = extract_depth_map(volume)
        covered = np.isfinite(dm.depth[:, 60:])
        assert covered.mean() > 0.99
        assert np.all(dm.depth[:, 60:][covered] == 8.0)

    def test_monotone_flanks_single_slit(self):
        spec, geom, grid = rig(sections=16)
        acq = layer_acquisition(spec, geom, grid, 8)
        volume = reconstruct_volume(acq, GeometryMasks(spec, geom, grid))
        resp = volume.sections[:, 6, 120]
        below = resp[:9]
        above = resp[8:]
        assert np.all(np.diff(below) >= 0)
        assert np.all(np.diff(above) <= 0)


def test_predicted_fwhm_validation():
    with pytest.raises(ValueError):
        predicted_fwhm_sections(0, 1.0)
    with pytest.raises(ValueError):
        predicted_fwhm_sections(2, 0.0)


def reference_contrast(data, jbest, peak, window):
    """Whole-volume float64 contrast (peak - runner_up) / peak, the default rule's oracle.

    The runner-up is the largest non-sentinel value more than window
    sections from jbest, or 0 when there is none.
    """
    far = np.abs(np.arange(data.shape[0])[:, None, None] - jbest) > window
    runner = np.where(far & (data != SENTINEL), data, -np.inf).max(axis=0)
    runner = np.where(runner > -np.inf, runner, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (peak - runner) / peak


def reference_depth_map(volume, min_confidence=None, refine=False, window=1):
    """Whole-volume float64 argmax, the oracle of extract_depth_map."""
    data = np.asarray(volume.sections, dtype=np.float64)
    grid = volume.grid
    k = data.shape[0]
    valid = data != SENTINEL
    ranked = np.where(valid, data, -np.inf)
    jbest = np.argmax(ranked, axis=0)
    peak = np.take_along_axis(ranked, jbest[None], axis=0)[0]
    any_valid = valid.any(axis=0)

    if min_confidence is None:
        keep = (peak > 0) & (reference_contrast(data, jbest, peak, window) >= CONTRAST_TAU)
    else:
        keep = any_valid & (peak >= min_confidence)

    depth_sections = jbest.astype(np.float64)
    if refine and k >= 3:
        jm = np.clip(jbest - 1, 0, k - 1)
        jp = np.clip(jbest + 1, 0, k - 1)
        rm = np.take_along_axis(data, jm[None], axis=0)[0]
        rp = np.take_along_axis(data, jp[None], axis=0)[0]
        vm = np.take_along_axis(valid, jm[None], axis=0)[0]
        vp = np.take_along_axis(valid, jp[None], axis=0)[0]
        r0 = np.take_along_axis(data, jbest[None], axis=0)[0]
        interior = (jbest > 0) & (jbest < k - 1) & vm & vp
        denom = rm - 2.0 * r0 + rp
        concave = denom < 0
        safe = np.where(concave, denom, -1.0)
        delta = np.where(interior & concave, 0.5 * (rm - rp) / safe, 0.0)
        depth_sections = depth_sections + np.clip(delta, -0.5, 0.5)

    depth = np.where(keep, grid.z0 + depth_sections * grid.z_step, np.nan)
    confidence = np.where(any_valid, peak, 0.0)
    return depth, confidence


def stored_volume(data, z0=-3.25, z_step=0.7, dtype=np.float32):
    data = np.asarray(data, dtype=dtype)
    return VolumeStack(sections=data, grid=ZGrid(z0=z0, z_step=z_step, count=data.shape[0]),
                       coverage_floor_used=1e-3)


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def awkward_volume(seed, k=9, h=13, w=11):
    """Noisy float32 sections with sentinels, exact ties, all-sentinel pixels."""
    rng = np.random.default_rng(seed)
    data = rng.normal(1.0, 0.4, (k, h, w)).astype(np.float32)
    data[rng.random((k, h, w)) < 0.15] = SENTINEL
    data[:, 0, :] = np.round(data[:, 0, :], 1)           # ties in every pixel of a row
    data[3, 1, :] = data[5, 1, :] = data[:, 1, :].max() + 1.0  # exact tie at the peak
    data[:, 2, 2] = SENTINEL                             # no valid section
    data[:, 3, 3] = [SENTINEL] + [0.5] * (k - 1)         # flat: tie over all valid
    return data


class TestFloat32DepthMap:
    """The float32 path gives the float64 oracle's depth map bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("refine", [False, True])
    @pytest.mark.parametrize("min_confidence", [None, 0.0, 0.9, 1.3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_float64_oracle(self, seed, min_confidence, refine, dtype):
        volume = stored_volume(awkward_volume(seed), dtype=dtype)
        dm = extract_depth_map(volume, min_confidence=min_confidence, refine=refine)
        depth, confidence = reference_depth_map(volume, min_confidence, refine)
        assert_same_bits(dm.depth, depth)
        assert_same_bits(dm.confidence, confidence)
        assert np.isnan(dm.depth[2, 2]) and dm.confidence[2, 2] == 0.0

    @pytest.mark.parametrize("refine", [False, True])
    def test_reconstructed_volume_as_stored(self, refine):
        spec, geom, grid = rig(shear=0.5, sections=16)
        acq = layer_acquisition(spec, geom, grid, 7)
        stored = reconstruct_volume(acq, GeometryMasks(spec, geom, grid)).sections
        volume = VolumeStack(sections=stored.astype(np.float32), grid=grid,
                             coverage_floor_used=1e-3)
        assert np.any(volume.sections == SENTINEL)
        dm = extract_depth_map(volume, refine=refine)
        depth, confidence = reference_depth_map(volume, refine=refine)
        assert_same_bits(dm.depth, depth)
        assert_same_bits(dm.confidence, confidence)

    @given(st.integers(1, 6), st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1),
           st.booleans())
    def test_small_integer_volumes_match(self, k, h, w, seed, refine):
        # small integers: ties everywhere, sentinels among them
        rng = np.random.default_rng(seed)
        data = rng.integers(-1, 3, (k, h, w)).astype(np.float32)
        volume = stored_volume(data)
        dm = extract_depth_map(volume, refine=refine)
        depth, confidence = reference_depth_map(volume, refine=refine)
        assert_same_bits(dm.depth, depth)
        assert_same_bits(dm.confidence, confidence)

    def test_peak_memory_within_twice_the_volume(self):
        rng = np.random.default_rng(5)
        data = rng.random((48, 96, 96), dtype=np.float32)
        data[:, :, :4] = SENTINEL
        volume = stored_volume(data)
        tracemalloc.start()
        try:
            extract_depth_map(volume, refine=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * data.nbytes


class TestContrastRule:
    """By default a depth is valid when its peak has contrast CONTRAST_TAU over its runner-up."""

    @pytest.mark.parametrize("refine", [False, True])
    @pytest.mark.parametrize("window", [0, 1, 2, 3, 7, 8, 20])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_matches_the_oracle_for_every_window(self, seed, window, refine):
        # 9 sections: from windows that leave most sections outside to none
        volume = stored_volume(awkward_volume(seed))
        dm = extract_depth_map(volume, refine=refine, window=window)
        depth, confidence = reference_depth_map(volume, refine=refine, window=window)
        assert_same_bits(dm.depth, depth)
        assert_same_bits(dm.confidence, confidence)

    def column(self, values, window, dtype=np.float32):
        data = np.asarray(values, dtype=dtype).reshape(-1, 1, 1)
        return extract_depth_map(stored_volume(data, z0=0.0, z_step=1.0), window=window)

    def test_contrast_of_exactly_tau_is_valid(self):
        assert CONTRAST_TAU == 0.25
        assert self.column([0.75, 0.0, 1.0], window=1).depth[0, 0] == 2.0
        above = np.nextafter(np.float32(0.75), np.float32(1))
        assert np.isnan(self.column([above, 0.0, 1.0], window=1).depth[0, 0])

    @pytest.mark.parametrize("window,valid", [(0, False), (1, False), (2, False), (3, True)])
    def test_runner_up_lies_outside_the_window(self, window, valid):
        # best at section 1; 0.8 one section away, 0.9 three away
        dm = self.column([0.2, 1.0, 0.8, SENTINEL, 0.9], window)
        assert np.isfinite(dm.depth[0, 0]) == valid
        assert dm.confidence[0, 0] == 1.0

    def test_no_section_outside_the_window_is_a_runner_up_of_zero(self):
        # 5 sections within 2 of the best: a broad peak that cannot fold
        assert self.column([0.9, 0.95, 1.0, 0.95, 0.9], window=2).depth[0, 0] == 2.0
        assert np.isnan(self.column([0.9, 0.95, 1.0, 0.95, 0.9], window=1).depth[0, 0])

    @pytest.mark.parametrize("values", [[-0.5, -0.2, -0.4], [0.0, SENTINEL, 0.0], [SENTINEL] * 3])
    def test_a_peak_of_zero_or_less_is_not_valid(self, values):
        assert np.isnan(self.column(values, window=0).depth[0, 0])

    def test_negative_runner_up_is_valid(self):
        # haze-cancelled volumes sit below zero away from the layer
        dm = self.column([-0.02, -0.01, 0.05, 0.04, -0.03], window=1, dtype=np.float64)
        assert dm.depth[0, 0] == 2.0

    def test_negative_window_is_rejected(self):
        with pytest.raises(ValueError, match="window must be >= 0, got -1"):
            extract_depth_map(stored_volume(awkward_volume(0)), window=-1)

    def test_window_of_the_rig(self):
        # a 2 px slit at 1 px per section but for rounding: 2 sections, not 3
        geom = GeometryConfig(tilt_theta=np.radians(25.0), z_step=1.0,
                              camera_pixel_pitch=0.46630765815499863)
        assert predicted_fwhm_sections(2, geom.shear_px_per_section) > 2
        assert contrast_window(2, geom.shear_px_per_section) == 2
        assert contrast_window(2, 0.2331538290774993) == 9
        assert contrast_window(3 * 2.14, 0.5181196201722207) == 13

    def test_folded_depths_are_not_valid(self):
        # 90 sections of 1 px shear over a 30 px period: each depth has two
        # aliases a period away, which a plain argmax picks for most pixels
        spec = PatternSpec(960, 1, period_d=30, linewidth_w=2, shift_step=1, num_shifts_n=30)
        geom = geometry_with_shear(1.0)
        grid = ZGrid(z0=0.0, z_step=1.0, count=90)
        shape = camera_shape(spec, geom)
        slope = grid.count / shape[1]
        scene = make_tilted_plane_scene(grid, slope, np.ones(shape))
        volume = reconstruct_volume(acquire_stack(scene, spec, geom, grid),
                                    GeometryMasks(spec, geom, grid))
        truth = tilted_plane_sections(shape[1], slope)[None, :]
        floor = extract_depth_map(volume, min_confidence=0.0)
        assert np.mean(np.abs(floor.depth - truth) > 1) > 0.6
        window = contrast_window(spec.linewidth_w, geom.shear_px_per_section)
        dm = extract_depth_map(volume, refine=True, window=window)
        valid = np.isfinite(dm.depth)
        assert 0 < valid.mean() <= 0.05
        assert np.all(np.abs(dm.depth - truth)[valid] <= 1)

    def test_haze_cancelled_noisy_bands_stay_valid(self):
        # the rig of the bands benchmark volume at 256 x 32: the reconstruction
        # cancels the haze, so values away from the layers scatter about zero
        # and over a tenth of them are negative
        spec = PatternSpec(256, 32, period_d=30, linewidth_w=2, shift_step=1, num_shifts_n=30)
        geom = GeometryConfig(tilt_theta=np.radians(25.0), z_step=1.0, camera_pixel_pitch=2.0)
        grid = ZGrid(z0=0.0, z_step=1.0, count=48)
        shape = camera_shape(spec, geom)
        rows = np.repeat([6, 18, 30, 42], shape[0] // 4)
        layers = [(z, np.broadcast_to((rows == z)[:, None], shape).astype(float))
                  for z in (6, 18, 30, 42)]
        scene = Scene(layers=layers, haze_fraction=0.3,
                      noise=NoiseSpec(gaussian_sigma=0.01, seed=1))
        volume = reconstruct_volume(acquire_stack(scene, spec, geom, grid),
                                    GeometryMasks(spec, geom, grid))
        # the lowest decile lies below zero, so a floor from it would be negative
        assert np.percentile(volume.sections[volume.sections != SENTINEL], 10) < 0
        window = contrast_window(spec.linewidth_w, geom.shear_px_per_section)
        dm = extract_depth_map(volume, refine=True, window=window)
        assert np.mean(np.isfinite(dm.depth)) >= 0.99


def test_depth_map_from_a_file_holds_its_per_pixel_planes(tmp_path):
    # the best value of over half the pixels in one section: one neighbour
    # gather then takes the values of most of the plane at once
    rng = np.random.default_rng(8)
    data = rng.random((12, 384, 512), dtype=np.float32)
    data[6, :200] += 2.0
    data[:, :, :8] = SENTINEL
    path = tmp_path / "vol.aspi"
    write_stack(data, {"kind": "volume"}, path)
    pixels = 384 * 512
    # per pixel, in the second pass: the float32 peak (4) and runner-up (4),
    # the sort order (8), the best section (1) and the out-of-window flags
    # (1), the two float32 neighbour planes (8), two float32 planes read (8)
    # and one gathered (4)
    bound = (4 + 4 + 8 + 1 + 1 + 8 + 8 + 4) * pixels
    with StackReader(path) as reader:
        volume = VolumeStack(sections=reader, grid=ZGrid(0.0, 1.0, 12), coverage_floor_used=1e-3)
        tracemalloc.start()
        try:
            dm = extract_depth_map(volume, refine=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert np.count_nonzero(np.isfinite(dm.depth)) > pixels / 2
    assert peak <= bound


def below_sentinel_volume(seed):
    """awkward_volume with pixels whose non-sentinel values all lie below SENTINEL."""
    data = awkward_volume(seed)
    low = data[:, 4:7]  # three rows of them, their sentinels kept
    np.copyto(low, -1.01 - low ** 2, where=low != SENTINEL)
    k = data.shape[0]
    data[:, 5, 6] = [SENTINEL, -1.5, -3.0, SENTINEL, -1.25, -1.25, SENTINEL, -2.0, -1.75]
    data[:, 7, 2] = -1.5 - np.arange(k)  # no sentinel, all below it
    data[:, 8, 3] = [-2.0] * (k - 1) + [SENTINEL]
    return data


class TestFirstPassStrips:
    """The first pass, a running max over strips of each plane, gives the oracle's bits."""

    def check(self, data, **kw):
        volume = stored_volume(data, dtype=data.dtype)
        dm = extract_depth_map(volume, **kw)
        depth, confidence = reference_depth_map(volume, **kw)
        assert_same_bits(dm.depth, depth)
        assert_same_bits(dm.confidence, confidence)
        return dm

    @pytest.mark.parametrize("min_confidence", [None, 0.0])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("first", [0.0, -0.0])
    def test_a_tie_of_signed_zeros_keeps_the_earlier_bits(self, first, dtype, min_confidence):
        # np.maximum returns its second operand on a tie of +0.0 and -0.0,
        # the running max; the peak's bits are those of the earlier section
        data = np.array([-0.5, first, -first, SENTINEL, -first, -0.25], dtype=dtype)
        dm = self.check(data.reshape(-1, 1, 1), min_confidence=min_confidence)
        assert np.signbit(dm.confidence[0, 0]) == np.signbit(first)
        best, jbest = volume_analysis._first_pass(data.reshape(-1, 1, 1))
        assert jbest[0, 0] == 1 and best.tobytes() == data[1:2].tobytes()

    @pytest.mark.parametrize("refine", [False, True])
    @pytest.mark.parametrize("min_confidence", [None, -2.0])
    def test_values_below_the_sentinel_are_resolved_exactly(self, min_confidence, refine):
        data = below_sentinel_volume(4)
        dm = self.check(data, min_confidence=min_confidence, refine=refine)
        best, jbest = volume_analysis._first_pass(data)
        # next to sentinels: the largest, the first of a tie
        assert best[5, 6] == -1.25 and jbest[5, 6] == 4
        # no sentinel at all
        assert best[7, 2] == -1.5 and jbest[7, 2] == 0
        assert best[8, 3] == -2.0 and jbest[8, 3] == 0
        # and still -inf and section 0 where every value is a sentinel
        assert best[2, 2] == -np.inf and jbest[2, 2] == 0 and dm.confidence[2, 2] == 0.0
        if min_confidence is not None:
            assert dm.depth[5, 6] == dm.grid.z0 + 4 * dm.grid.z_step

    @pytest.mark.parametrize("values", [[np.nan] * 6, [np.inf] * 6, [-np.inf] * 6,
                                        [np.nan, np.inf, -np.inf, -np.inf, np.inf, np.nan]])
    def test_nonfinite_voxels_counted_across_strip_edges(self, values):
        data = awkward_volume(0)  # 13 x 11 = 143 pixels a section
        planes = data.reshape(data.shape[0], -1)
        # on each side of two edges of 7-pixel strips, and the last pixel
        planes[2, [6, 7, 13, 14, 142]] = values[:5]
        planes[8, 0] = values[5]
        with mock.patch.object(volume_analysis, "_RUN_VOXELS", 7):
            with pytest.raises(ValueError, match="volume has 6 non-finite voxels"):
                extract_depth_map(stored_volume(data))

    @pytest.mark.parametrize("min_confidence", [None, -2.0])
    @pytest.mark.parametrize("run", [1, 7, 100, 1 << 16])
    def test_every_strip_length_gives_the_same_bytes(self, tmp_path, run, min_confidence):
        # 143 pixels a section: strips of one pixel, of 7 and of 100 (neither
        # divides it), and one strip of every section at once
        data = below_sentinel_volume(5)
        path = tmp_path / "vol.aspi"
        write_stack(data, {"kind": "volume"}, path)
        array = stored_volume(data)
        depth, confidence = reference_depth_map(array, min_confidence, refine=True)
        with mock.patch.object(volume_analysis, "_RUN_VOXELS", run), StackReader(path) as reader:
            for sections in (array.sections, reader):
                volume = VolumeStack(sections=sections, grid=array.grid, coverage_floor_used=1e-3)
                dm = extract_depth_map(volume, min_confidence=min_confidence, refine=True)
                assert_same_bits(dm.depth, depth)
                assert_same_bits(dm.confidence, confidence)

    def test_holds_its_planes_and_strips_only(self, tmp_path):
        # all-sentinel columns and a row below the sentinel take the exact path
        rng = np.random.default_rng(9)
        data = rng.random((12, 384, 512), dtype=np.float32)
        data[:, :, :8] = SENTINEL
        data[:, 100, 200:210] = -1.5 - rng.random((12, 10), dtype=np.float32)
        data[::2, 100, 200:210] = SENTINEL
        path = tmp_path / "vol.aspi"
        write_stack(data, {"kind": "volume"}, path)
        pixels, strip = 384 * 512, 4096
        # per pixel: the float32 best (4), the best section (1) and the flag
        # of a non-sentinel value (1); two float32 planes read, the one in
        # use and the next (8); then a few flag and section strips and one
        # row of every section, read again
        bound = (4 + 1 + 1 + 8) * pixels + 8 * strip
        with mock.patch.object(volume_analysis, "_RUN_VOXELS", strip), StackReader(path) as reader:
            tracemalloc.start()
            try:
                best, jbest = volume_analysis._first_pass(reader)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert best[0, 0] == -np.inf and best[100, 200] < SENTINEL
        assert peak <= bound


class TestNonFiniteVolume:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_raises_naming_the_count(self, value):
        data = awkward_volume(0)
        data[1, 4, 4] = value
        data[6, 7, 2] = value
        data[6, 8, 2] = np.nan
        with pytest.raises(ValueError, match="3 non-finite voxels"):
            extract_depth_map(stored_volume(data), min_confidence=0.0)


def test_depth_map_of_a_reconstructed_volume_within_three_quarters_of_it():
    # two hazy layers, as an acquisition through turbid media
    spec = PatternSpec(192, 160, period_d=30, linewidth_w=2, shift_step=1, num_shifts_n=30)
    geom = geometry_with_shear(0.25)
    grid = ZGrid(z0=0.0, z_step=1.0, count=48)
    refl = np.random.default_rng(1).uniform(0.2, 1.0, camera_shape(spec, geom))
    scene = Scene(layers=[(12, 0.5 * refl), (30, refl)], haze_fraction=0.3)
    acq = acquire_stack(scene, spec, geom, grid)
    stored = reconstruct_volume(acq, GeometryMasks(spec, geom, grid)).sections.astype(np.float32)
    volume = VolumeStack(sections=stored, grid=grid, coverage_floor_used=1e-3)
    tracemalloc.start()
    try:
        extract_depth_map(volume, refine=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.75 * stored.nbytes


def axial_psf_oracle(base_pattern, base_mask, spec, geom, grid, probe, floor=None):
    """axial_psf's own double loop before it summed with mask_coverage."""
    o = np.asarray(base_pattern, dtype=np.float64)
    m = np.asarray(base_mask, dtype=np.float64)
    px, py = probe
    if floor is None:
        floor = default_floor(m, spec.num_shifts_n)
    o_row = o[py]
    m_row = m[py % m.shape[0]]
    step_px = spec.shift_step * geom.magnification
    shear = geom.signed_shear
    scan = np.arange(spec.num_shifts_n, dtype=np.float64) * step_px
    o_vals = sample_row(o_row, px - scan)
    response = np.empty(grid.count, dtype=np.float64)
    for j in range(grid.count):
        m_vals = sample_row(m_row, px - scan - j * shear)
        den = 0.0
        acc = 0.0
        for i in range(spec.num_shifts_n):
            den += m_vals[i]
            acc += o_vals[i] * m_vals[i]
        if den < floor:
            raise CoverageError(
                f"probe {probe} below coverage floor at section {j} ({den:.3g} < {floor:.3g})"
            )
        response[j] = acc
    peak = response.max()
    if peak <= 0:
        raise DegenerateInputError("probe response is identically zero")
    return AxialCurve(z=grid.z_values(), response=response / peak)


def test_axial_psf_equals_its_double_loop_oracle_bit_for_bit():
    rng = np.random.default_rng(77)
    raised = 0
    for case in range(160):
        d = int(rng.integers(4, 40))
        n = int(rng.integers(1, d + 1))
        step = int(rng.integers(1, d // n + 1))
        h, w = (int(s) for s in rng.integers(1, 30, size=2))
        spec = PatternSpec(w, h, period_d=d, linewidth_w=1, shift_step=step, num_shifts_n=n)
        geom = geometry_with_shear(float(rng.uniform(0.05, 2.0)),
                                   magnification=float(rng.choice([1.0, 0.7, 2.1236])),
                                   shift_sign=int(rng.choice([1, -1])))
        grid = ZGrid(z0=float(rng.uniform(-5, 5)), z_step=0.5, count=int(rng.integers(1, 30)))
        pattern = rng.random((h, w))
        # sparse masks, so that probes near an edge fall below the floor
        mask = np.where(rng.random((h, w)) < 0.6, rng.random((h, w)), 0.0)
        if case % 2:
            mask = np.broadcast_to(mask[:1], (h, w))  # row-constant
        probe = (int(rng.integers(0, w)), int(rng.integers(0, h)))
        floor = None if case % 3 else float(rng.uniform(0.01, 0.5)) * n
        args = (pattern, mask, spec, geom, grid, probe, floor)
        try:
            want = axial_psf_oracle(*args)
        except (CoverageError, DegenerateInputError) as exc:
            raised += 1
            with pytest.raises(type(exc)) as got:
                axial_psf(*args)
            assert str(got.value) == str(exc)
            continue
        got = axial_psf(*args)
        assert got.response.tobytes() == want.response.tobytes()
        assert got.z.tobytes() == want.z.tobytes()
    assert 40 <= raised <= 120  # both outcomes well represented


class TestVolumeFromAFile:
    """A StackReader of a volume gives the depth map of the volume as stored, bit for bit."""

    @pytest.mark.parametrize("sections_per_run", [1, 2, 4, 9])
    @pytest.mark.parametrize("refine", [False, True])
    @pytest.mark.parametrize("min_confidence", [None, 0.9])
    def test_equals_the_array_and_the_oracle(self, tmp_path, sections_per_run, refine,
                                             min_confidence):
        data = awkward_volume(1)
        path = tmp_path / "vol.aspi"
        write_stack(data, {"kind": "volume"}, path)
        array = stored_volume(data)
        run = sections_per_run * data.shape[1] * data.shape[2]
        with mock.patch.object(volume_analysis, "_RUN_VOXELS", run), StackReader(path) as reader:
            volume = VolumeStack(sections=reader, grid=array.grid, coverage_floor_used=1e-3)
            dm = extract_depth_map(volume, min_confidence=min_confidence, refine=refine)
        depth, confidence = reference_depth_map(array, min_confidence, refine)
        assert_same_bits(dm.depth, depth)
        assert_same_bits(dm.confidence, confidence)

    def test_nonfinite_voxels_raise(self, tmp_path):
        data = awkward_volume(2)
        data[4, 7, 3] = np.inf
        path = tmp_path / "vol.aspi"
        write_stack(data, {"kind": "volume"}, path)
        with StackReader(path) as reader:
            volume = VolumeStack(sections=reader, grid=stored_volume(data).grid,
                                 coverage_floor_used=1e-3)
            with pytest.raises(ValueError, match="1 non-finite voxels"):
                extract_depth_map(volume, refine=True)
