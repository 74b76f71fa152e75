import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from aspi import (
    EmptyMaskError,
    GeometryConfig,
    PatternSpec,
    ZGrid,
    axial_range,
    is_axially_ambiguous,
    magnify,
    make_slit_pattern,
    shift_image,
    synthesize_mask,
    threshold_mask,
    validate_frame,
)
from aspi.imaging_model import mask_coverage
from conftest import geometry_with_shear, roll_zero_fill, slit_coverage_constant


def spec30(w=1, n=30):
    return PatternSpec(proj_width=120, proj_height=8, period_d=30, linewidth_w=w,
                       shift_step=1, num_shifts_n=n)


class TestPatternSpec:
    def test_invariants_rejected(self):
        with pytest.raises(ValueError):
            PatternSpec(10, 10, period_d=4, linewidth_w=5)  # w > d
        with pytest.raises(ValueError):
            PatternSpec(10, 10, period_d=4, linewidth_w=0)
        with pytest.raises(ValueError):
            PatternSpec(10, 10, period_d=4, linewidth_w=1, shift_step=0)
        with pytest.raises(ValueError):
            # scan span exceeds one period
            PatternSpec(10, 10, period_d=4, linewidth_w=1, shift_step=2, num_shifts_n=3)

    def test_full_coverage_equality_allowed(self):
        PatternSpec(10, 10, period_d=4, linewidth_w=1, shift_step=1, num_shifts_n=4)


class TestGeometryConfig:
    def test_shear_derivation(self):
        g = GeometryConfig(tilt_theta=math.radians(25), z_step=2.0, camera_pixel_pitch=0.5)
        assert g.shear_px_per_section == pytest.approx(2.0 * math.tan(math.radians(25)) / 0.5)

    def test_angle_bounds(self):
        for theta in (0.0, math.pi / 2, -0.2):
            with pytest.raises(ValueError):
                GeometryConfig(tilt_theta=theta, z_step=1.0)

    def test_sign_convention(self):
        g = geometry_with_shear(1.0, shift_sign=-1)
        assert g.signed_shear == -1.0
        with pytest.raises(ValueError):
            GeometryConfig(tilt_theta=0.5, z_step=1.0, shift_sign=0)


class TestZGrid:
    def test_z_values(self):
        g = ZGrid(z0=-2.0, z_step=0.5, count=5)
        assert np.array_equal(g.z_values(), [-2.0, -1.5, -1.0, -0.5, 0.0])

    def test_invalid(self):
        with pytest.raises(ValueError):
            ZGrid(z0=0.0, z_step=0.0, count=3)
        with pytest.raises(ValueError):
            ZGrid(z0=0.0, z_step=1.0, count=0)


class TestMakeSlitPattern:
    def test_period30_columns(self):
        # 30-pixel gap: slits land on columns 0, 30, 60, 90
        pat = make_slit_pattern(spec30(), 0)
        assert np.array_equal(np.flatnonzero(pat[0]), [0, 30, 60, 90])
        assert np.array_equal(pat, np.broadcast_to(pat[0], pat.shape))

    def test_period1_all_ones(self):
        spec = PatternSpec(5, 3, period_d=1, linewidth_w=1)
        assert np.array_equal(make_slit_pattern(spec, 0), np.ones((3, 5)))

    def test_shifted_columns(self):
        pat = make_slit_pattern(spec30(), 7)
        assert np.array_equal(np.flatnonzero(pat[0]), [7, 37, 67, 97])

    def test_sum_of_shifts_d4_w2(self):
        spec = PatternSpec(16, 2, period_d=4, linewidth_w=2, shift_step=1, num_shifts_n=4)
        total = sum(make_slit_pattern(spec, i) for i in range(4))
        # brute-force column enumeration: each column covered by exactly w shifts
        assert slit_coverage_constant(4, 2, 1, 4) == {2}
        assert np.array_equal(total, np.full((2, 16), 2.0))

    @pytest.mark.parametrize("d,w,step,n", [(6, 1, 1, 6), (8, 3, 1, 8), (12, 4, 4, 3), (9, 3, 3, 3)])
    def test_coverage_constant_matches_enumeration(self, d, w, step, n):
        spec = PatternSpec(3 * d, 2, period_d=d, linewidth_w=w, shift_step=step, num_shifts_n=n)
        total = sum(make_slit_pattern(spec, i) for i in range(n))
        expected = slit_coverage_constant(d, w, step, n)
        assert expected == {w // step} if step > 1 else {w}
        assert set(np.unique(total)) == {float(next(iter(expected)))}

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            make_slit_pattern(spec30(), 30)
        with pytest.raises(ValueError):
            make_slit_pattern(spec30(), -1)


class TestAxialRange:
    def test_theta_45_equals_lateral_period(self):
        spec = PatternSpec(64, 4, period_d=16, linewidth_w=2)
        geom = GeometryConfig(tilt_theta=math.radians(45), z_step=1.0,
                              camera_pixel_pitch=0.25, magnification=2.0)
        lateral = 16 * 2.0 * 0.25
        assert axial_range(spec, geom) == pytest.approx(lateral, rel=1e-12)

    def test_theta_25_reference_value(self):
        # lateral period length 1.0 -> range = 1/tan(25 deg) = 2.1445069205095586
        spec = PatternSpec(40, 4, period_d=10, linewidth_w=1)
        geom = GeometryConfig(tilt_theta=math.radians(25), z_step=1.0,
                              camera_pixel_pitch=0.1, magnification=1.0)
        assert axial_range(spec, geom) == pytest.approx(2.1445069205095586, abs=1e-12)

    def test_linear_in_period(self):
        geom = GeometryConfig(tilt_theta=math.radians(25), z_step=1.0)
        r1 = axial_range(PatternSpec(80, 4, period_d=10, linewidth_w=1), geom)
        r2 = axial_range(PatternSpec(80, 4, period_d=20, linewidth_w=1), geom)
        assert r2 == pytest.approx(2 * r1, rel=1e-12)

    def test_monotonic_in_theta_and_period(self):
        spec = PatternSpec(80, 4, period_d=10, linewidth_w=1)
        thetas = np.linspace(0.1, math.pi / 2 - 0.1, 15)
        ranges = [axial_range(spec, GeometryConfig(tilt_theta=t, z_step=1.0)) for t in thetas]
        assert np.all(np.diff(ranges) < 0)
        geom = GeometryConfig(tilt_theta=0.7, z_step=1.0)
        per_d = [axial_range(PatternSpec(200, 4, period_d=d, linewidth_w=1), geom)
                 for d in (5, 11, 23, 40)]
        assert np.all(np.diff(per_d) > 0)


class TestSynthesizeMask:
    grid = ZGrid(z0=0.0, z_step=1.0, count=16)

    def test_zero_shift_identity(self):
        base = make_slit_pattern(spec30(w=2), 0)
        out = synthesize_mask(base, 0.0, 0, geometry_with_shear(1.0), self.grid)
        assert np.array_equal(out, base)

    @pytest.mark.parametrize("x,z", [(3, 0), (0, 5), (4, 7)])
    def test_integer_shift_matches_roll_oracle(self, x, z):
        base = make_slit_pattern(spec30(w=2), 0)
        geom = geometry_with_shear(1.0)
        out = synthesize_mask(base, x, z, geom, self.grid)
        assert np.array_equal(out, roll_zero_fill(base, x + z))

    def test_negative_sign_convention(self):
        base = make_slit_pattern(spec30(w=2), 0)
        geom = geometry_with_shear(1.0, shift_sign=-1)
        out = synthesize_mask(base, 0, 4, geom, self.grid)
        assert np.array_equal(out, roll_zero_fill(base, -4))

    def test_shear_composition(self):
        # synthesize at z=2 equals synthesize-at-z=1 of the z=1 result
        base = make_slit_pattern(spec30(w=2), 0)
        geom = geometry_with_shear(1.0)
        direct = synthesize_mask(base, 0, 2, geom, self.grid)
        chained = synthesize_mask(synthesize_mask(base, 0, 1, geom, self.grid), 0, 1, geom, self.grid)
        assert np.max(np.abs(direct - chained)) < 1e-9

    def test_shift_linearity_integer_then_fraction(self):
        base = make_slit_pattern(spec30(w=2), 0)
        # an exact integer displacement relocates samples, so composing it
        # with a fractional one must match the single accumulated shift
        a = shift_image(shift_image(base, 3.0), 0.7)
        b = shift_image(base, 3.7)
        assert np.max(np.abs(a - b)) < 1e-6
        c = shift_image(shift_image(base, 2.0), 5.0)
        d = shift_image(base, 7.0)
        assert np.max(np.abs(c - d)) < 1e-9

    def test_subpixel_values(self):
        row = np.zeros((1, 8))
        row[0, 3] = 1.0
        out = shift_image(row, 0.25)
        assert out[0, 3] == pytest.approx(0.75)
        assert out[0, 4] == pytest.approx(0.25)

    def test_border_zero_fill(self):
        base = np.ones((2, 6))
        out = shift_image(base, 2.5)
        assert np.array_equal(out[:, :2], np.zeros((2, 2)))
        assert out[0, 2] == pytest.approx(0.5)

    @settings(max_examples=200, deadline=None)
    @given(
        row=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
        height=st.integers(1, 8),
        dx=st.floats(-1e6, 1e6),
    )
    def test_row_constant_shift_equals_one_row_shift(self, row, height, dx):
        # the equivalence that lets a one-row mask bank stand for full frames
        frame = np.tile(np.asarray(row), (height, 1))
        full = shift_image(frame, dx)
        one_row = shift_image(frame[:1], dx)
        assert full.tobytes() == np.broadcast_to(one_row, frame.shape).tobytes()

    @settings(max_examples=200)
    @given(
        frame=arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=8),
                     elements=st.floats(-1e6, 1e6)),
        dx=st.integers(-10, 10),
    )
    def test_integer_shift_equals_zero_filled_roll(self, frame, dx):
        assert np.array_equal(shift_image(frame, dx), roll_zero_fill(frame, dx))

    def test_z_index_out_of_range(self):
        base = make_slit_pattern(spec30(), 0)
        with pytest.raises(ValueError):
            synthesize_mask(base, 0, 16, geometry_with_shear(1.0), self.grid)


class TestMagnify:
    def test_identity_at_unit_factor(self):
        a = np.random.default_rng(0).random((5, 7))
        assert np.array_equal(magnify(a, 1.0), a)

    def test_output_shape_and_row_constancy(self):
        base = make_slit_pattern(PatternSpec(20, 4, period_d=10, linewidth_w=2), 0)
        up = magnify(base, 3.0)
        assert up.shape == (12, 60)
        assert np.array_equal(up, np.broadcast_to(up[:1], up.shape))

    def test_interior_slit_plateau_and_ramp(self):
        base = make_slit_pattern(PatternSpec(40, 2, period_d=10, linewidth_w=2), 0)
        up = magnify(base, 2.0)
        # projector columns 10-11 map to a camera plateau at 20..22 with a
        # half-value ramp sample on each side
        assert np.array_equal(up[0, 20:23], np.ones(3))
        assert up[0, 19] == pytest.approx(0.5)
        assert up[0, 23] == pytest.approx(0.5)


class TestThresholdMask:
    def test_binary_one_pixel_slits_unchanged(self):
        mask = make_slit_pattern(spec30(w=1), 0)
        assert np.array_equal(threshold_mask(mask), mask)

    def test_triangular_profile_selects_peak(self):
        mask = np.zeros((4, 16))
        for col, val in [(5, 0.25), (6, 0.5), (7, 1.0), (8, 0.5), (9, 0.25)]:
            mask[:, col] = val
        out = threshold_mask(mask)
        assert np.array_equal(np.flatnonzero(out[0]), [7])
        assert set(np.unique(out)) == {0.0, 1.0}

    def test_tie_breaks_to_lower_column(self):
        mask = np.zeros((2, 12))
        mask[:, 5] = 1.0
        mask[:, 6] = 1.0
        out = threshold_mask(mask)
        assert np.array_equal(np.flatnonzero(out[0]), [5])

    def test_one_column_per_slit(self):
        mask = magnify(make_slit_pattern(spec30(w=3), 2), 1.0)
        out = threshold_mask(mask)
        # four slits in 120 columns at period 30
        assert np.flatnonzero(out[0]).size == 4

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        mask = make_slit_pattern(spec30(w=4), 1) * (0.5 + 0.5 * rng.random((8, 120)))
        once = threshold_mask(mask)
        assert np.array_equal(threshold_mask(once), once)

    def test_all_zero_raises(self):
        with pytest.raises(EmptyMaskError):
            threshold_mask(np.zeros((3, 9)))


class TestValidateFrame:
    def test_rejects_bad_frames(self):
        with pytest.raises(ValueError):
            validate_frame(np.ones(5))
        with pytest.raises(ValueError):
            validate_frame(-np.ones((2, 2)))
        with pytest.raises(ValueError):
            validate_frame(np.array([[np.nan, 0.0]]))

    def test_passes_and_casts(self):
        out = validate_frame(np.ones((2, 3), dtype=np.float32))
        assert out.dtype == np.float64


def test_axial_ambiguity_flag():
    spec = spec30(w=1)
    geom = geometry_with_shear(1.0)
    assert is_axially_ambiguous(spec, geom, ZGrid(0.0, 1.0, 31))
    assert not is_axially_ambiguous(spec, geom, ZGrid(0.0, 1.0, 30))


def test_mask_coverage_sums_in_scan_order():
    # scan axis innermost in memory: a numpy reduction would sum it pairwise
    bank = np.random.default_rng(0).random((64, 6, 30)).transpose(2, 1, 0)
    expected = np.zeros(bank.shape[1:])
    for i in range(bank.shape[0]):
        expected = expected + bank[i]
    assert mask_coverage(bank).tobytes() == expected.tobytes()


def magnify_oracle(frame, factor):
    """magnify's own bilinear formula before it sampled through _interpolate."""
    a = np.asarray(frame, dtype=np.float64)
    h_out = max(1, int(round(a.shape[0] * factor)))
    w_out = max(1, int(round(a.shape[1] * factor)))
    ys = np.arange(h_out, dtype=np.float64) / factor
    xs = np.arange(w_out, dtype=np.float64) / factor
    y0 = np.clip(np.floor(ys).astype(np.int64), 0, a.shape[0] - 1)
    x0 = np.clip(np.floor(xs).astype(np.int64), 0, a.shape[1] - 1)
    y1 = np.clip(y0 + 1, 0, a.shape[0] - 1)
    x1 = np.clip(x0 + 1, 0, a.shape[1] - 1)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    top = (1 - fx) * a[np.ix_(y0, x0)] + fx * a[np.ix_(y0, x1)]
    bot = (1 - fx) * a[np.ix_(y1, x0)] + fx * a[np.ix_(y1, x1)]
    return (1 - fy) * top + fy * bot


@pytest.mark.parametrize("factor", [0.3, 0.5, 1.5, 2.1236, 3.0])
def test_magnify_equals_its_bilinear_oracle_bit_for_bit(factor):
    rng = np.random.default_rng(int(factor * 1e4))
    for _ in range(40):
        shape = tuple(int(s) for s in rng.integers(1, 40, size=2))
        a = rng.random(shape)
        if rng.random() < 0.3:
            a = np.broadcast_to(a[:1], shape)  # row-constant, as slit patterns are
        got, want = magnify(a, factor), magnify_oracle(a, factor)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
