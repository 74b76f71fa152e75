import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from aspi import (
    SENTINEL,
    AxialCurve,
    CoverageError,
    DegenerateInputError,
    FwhmRangeError,
    GeometryMasks,
    PatternSpec,
    Scene,
    StackReader,
    VolumeStack,
    ZGrid,
    acquire_stack,
    axial_psf,
    base_camera_pattern,
    camera_shape,
    default_floor,
    estimate_background,
    extract_depth_map,
    fwhm,
    predicted_fwhm_sections,
    reconstruct_volume,
    sample_row,
    write_stack,
)
from aspi import volume_analysis
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


def reference_background(sections):
    """The float64 np.percentile background, the oracle of estimate_background."""
    sections = np.asarray(sections, dtype=np.float64)
    vals = sections[sections != SENTINEL]
    if vals.size == 0:
        return 0.0
    q10 = np.percentile(vals, 10.0)
    low = vals[vals <= q10]
    return float(low.mean()) if low.size else 0.0


def reference_depth_map(volume, min_confidence=None, refine=False):
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
        min_confidence = 5.0 * reference_background(data)
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
    # per pixel: the float64 peak (8) and sort order (8), the best section
    # (1) and the validity flags (1), the two float32 neighbour planes (8),
    # two float32 planes read (8) and one gathered (4); then the background's
    # 65536-bin histogram and the bincount added to it
    bound = (8 + 8 + 1 + 1 + 8 + 8 + 4) * pixels + 2 * 65536 * 8
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


class TestNonFiniteVolume:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_raises_naming_the_count(self, value):
        data = awkward_volume(0)
        data[1, 4, 4] = value
        data[6, 7, 2] = value
        data[6, 8, 2] = np.nan
        with pytest.raises(ValueError, match="3 non-finite voxels"):
            extract_depth_map(stored_volume(data), min_confidence=0.0)


class TestEstimateBackground:
    """estimate_background has the float64 np.percentile result's bits."""

    @given(n=st.integers(1, 3000), levels=st.one_of(st.integers(1, 50), st.none()),
           sentinels=st.integers(0, 100), scale=st.floats(1e-3, 1e5), seed=st.integers(0, 2**32 - 1))
    def test_matches_percentile_oracle(self, n, levels, sentinels, scale, seed):
        # levels: values rounded to that many steps per scale (many ties); None: continuous
        rng = np.random.default_rng(seed)
        data = rng.normal(0.2, 1.0, n) * scale
        if levels is not None:
            data = np.round(data / scale * levels) * (scale / levels)
        data = np.concatenate([data, np.full(sentinels, SENTINEL)])
        rng.shuffle(data)
        stored = data.astype(np.float32).reshape(1, 1, -1)
        got = estimate_background(stored)
        assert np.float64(got).tobytes() == np.float64(reference_background(stored)).tobytes()
        got64 = estimate_background(data.reshape(1, 1, -1))
        assert np.float64(got64).tobytes() == np.float64(reference_background(data)).tobytes()

    @staticmethod
    def specials(dtype):
        """Zeros of both signs, subnormals, and real values in the sentinel's bin."""
        info = np.finfo(dtype)
        one = dtype(SENTINEL)
        tiny = info.smallest_subnormal
        return np.array([0.0, -0.0, tiny, -tiny, info.tiny - tiny, -(info.tiny - tiny), info.tiny,
                         np.nextafter(one, dtype(-np.inf)), np.nextafter(one, dtype(np.inf)),
                         info.max, info.min], dtype=dtype)

    @given(dtype=st.sampled_from([np.float32, np.float64]),
           picks=st.lists(st.integers(0, 10), max_size=12),
           packed=st.integers(0, 400), spread=st.integers(0, 400), sentinels=st.integers(0, 60),
           base=st.floats(-1e3, 1e3), sections=st.integers(1, 4), run=st.integers(1, 70),
           seed=st.integers(0, 2**32 - 1))
    @example(dtype=np.float32, picks=[7], packed=0, spread=0, sentinels=0, base=0.0,
             sections=1, run=1, seed=0)                      # n = 1, just below -1.0
    @example(dtype=np.float64, picks=[], packed=0, spread=0, sentinels=9, base=0.0,
             sections=3, run=2, seed=0)                      # sentinels only
    def test_histogram_selection_matches_oracle(self, dtype, picks, packed, spread, sentinels,
                                                base, sections, run, seed):
        # packed: within a few hundred ulps of base, one or two bins; spread:
        # random bit patterns, so all bins, subnormals and huge magnitudes
        rng = np.random.default_rng(seed)
        utype = np.uint32 if dtype is np.float32 else np.uint64
        start = max(int(np.array(base, dtype=dtype).view(utype)) - 300, 0)
        near = utype(start) + rng.integers(0, 600, packed).astype(utype)
        bits = rng.integers(0, np.iinfo(utype).max, spread, dtype=utype, endpoint=True)
        values = np.concatenate([
            self.specials(dtype)[picks],
            near.view(dtype),
            bits.view(dtype),
            np.full(sentinels, SENTINEL, dtype=dtype),
        ])
        values = values[np.isfinite(values)]
        rng.shuffle(values)
        pad = -values.size % sections
        values = np.concatenate([values, np.full(pad, SENTINEL, dtype=dtype)])
        volume = values.reshape(sections, 1, -1)
        # short runs of sections: several histogram and gather passes; huge
        # float64 values may sum to an infinity, in both
        with mock.patch.object(volume_analysis, "_BACKGROUND_RUN", run), np.errstate(over="ignore"):
            got = estimate_background(volume)
            want = reference_background(volume)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_sentinel_only_volume(self):
        assert estimate_background(np.full((3, 2, 2), SENTINEL, dtype=np.float32)) == 0.0

    def test_decile_between_adjacent_float32_values(self):
        # 17 values: the decile lies 0.6 of the way from a to its float32
        # neighbor b, so rounding it to float32 would wrongly admit the b's
        a = np.float32(0.3)
        b = np.nextafter(a, np.float32(1))
        data = np.array([a, a] + [b] * 5 + [2.0] * 10, dtype=np.float32).reshape(1, 1, 17)
        assert estimate_background(data) == reference_background(data) == float(a)


def test_depth_map_of_a_reconstructed_volume_within_three_quarters_of_it():
    # two hazy layers, as an acquisition through turbid media; the low
    # decile's float64 copy grows with the values tied at the decile, which a
    # haze-free scene of exact zeros would have in most voxels
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
    return AxialCurve(z=grid.z_values(), response=response / peak, normalized=True)


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
        with mock.patch.object(volume_analysis, "_BACKGROUND_RUN", run), StackReader(path) as reader:
            volume = VolumeStack(sections=reader, grid=array.grid, coverage_floor_used=1e-3)
            dm = extract_depth_map(volume, min_confidence=min_confidence, refine=refine)
            assert estimate_background(reader) == estimate_background(data)
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


@given(sizes=st.lists(st.integers(0, 400), min_size=1, max_size=30), seed=st.integers(0, 2**32 - 1))
def test_streamed_sum_has_the_bits_of_numpy_sum(sizes, seed):
    # blocks of numpy's smallest unsplit size: every split of the tree is taken
    rng = np.random.default_rng(seed)
    total = sum(sizes)
    values = rng.normal(size=total) * 10.0 ** rng.integers(-20, 20, total)
    pieces = np.split(values, np.cumsum(sizes)[:-1])
    with mock.patch.object(volume_analysis, "_SUM_BLOCK", 128):
        got = volume_analysis._pairwise_sum(volume_analysis._Values(pieces), total) if total else 0.0
    assert np.float64(got).tobytes() == np.float64(np.add.reduce(values)).tobytes()


def test_background_of_a_large_volume_matches_the_oracle():
    # 800k values: the decile's 80k low values are summed in more than one block
    rng = np.random.default_rng(6)
    data = rng.lognormal(0.0, 3.0, (16, 224, 224)).astype(np.float32)
    data[:, :, :3] = SENTINEL
    assert 0.1 * np.count_nonzero(data != SENTINEL) > 1.2 * volume_analysis._SUM_BLOCK
    assert np.float64(estimate_background(data)).tobytes() == np.float64(
        reference_background(data)).tobytes()


def test_background_of_tied_values_holds_a_fraction_of_the_volume():
    # 60% of the values tie at the decile, zero: gathering them, or the low
    # values in float64, would take 0.6 and 1.2 times the volume's bytes;
    # the 65536-bin histogram and its bincounts take 1.5 MB
    rng = np.random.default_rng(7)
    data = rng.lognormal(0.0, 1.0, (48, 160, 160)).astype(np.float32)
    data[rng.random(data.shape) < 0.6] = 0.0
    tracemalloc.start()
    try:
        got = estimate_background(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == reference_background(data) == 0.0
    assert peak < data.nbytes / 2
