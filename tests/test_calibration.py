import numpy as np
import pytest
from numpy.lib.stride_tricks import as_strided

from aspi import calibration
from aspi import (
    DegenerateInputError,
    PatternSpec,
    ZGrid,
    estimate_translation,
    fit_mask_model,
    make_slit_pattern,
    predict_mask,
    shift_image,
    synthesize_mask,
)
from conftest import geometry_with_shear


def slit_frame(width=120, height=24, period=30, w=3, noise_seed=None):
    pat = make_slit_pattern(
        PatternSpec(width, height, period_d=period, linewidth_w=w), 0
    )
    if noise_seed is not None:
        pat = pat + 0.05 * np.random.default_rng(noise_seed).random(pat.shape)
    return pat


def ncc_surface_spatial(na, nb):
    """Brute-force circular cross-correlation, O(h^2 w^2): the FFT path's oracle."""
    h, w = na.shape
    tiled = np.tile(nb, (2, 2))
    sy, sx = tiled.strides
    view = as_strided(tiled, shape=(h, w, h, w), strides=(sy, sx, sy, sx))
    return np.einsum("vuyx,yx->vu", view, na)


class TestEstimateTranslation:
    def test_self_correlation_is_zero(self):
        a = slit_frame()
        dx, dy = estimate_translation(a, a)
        assert abs(dx) < 1e-9 and abs(dy) < 1e-9

    @pytest.mark.parametrize("sx,sy", [(3, 0), (0, 2), (-4, 1), (5, -3)])
    def test_integer_roll(self, sx, sy):
        a = slit_frame(noise_seed=1)
        b = np.roll(np.roll(a, sx, axis=1), sy, axis=0)
        dx, dy = estimate_translation(a, b)
        assert dx == pytest.approx(sx, abs=1e-6)
        assert dy == pytest.approx(sy, abs=1e-6)

    def test_subpixel_shift(self):
        a = slit_frame()
        b = shift_image(a, 2.5)
        dx, dy = estimate_translation(a, b)
        assert dx == pytest.approx(2.5, abs=0.05)
        assert dy == pytest.approx(0.0, abs=0.05)

    def test_constant_frame_raises(self):
        with pytest.raises(DegenerateInputError):
            estimate_translation(np.ones((8, 8)), slit_frame(8, 8, 4, 1))
        with pytest.raises(DegenerateInputError):
            estimate_translation(slit_frame(8, 8, 4, 1), np.zeros((8, 8)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            estimate_translation(np.ones((4, 4)), np.ones((4, 5)))

    def test_fft_and_spatial_paths_agree(self, monkeypatch):
        a = slit_frame(96, 40, period=24, w=4, noise_seed=3)
        b = shift_image(a, 5.3, -1.2)
        for frames in [(a, b), (b, a)]:
            d_ft = estimate_translation(*frames)
            with monkeypatch.context() as m:
                m.setattr(calibration, "_ncc_surface", ncc_surface_spatial)
                d_sp = estimate_translation(*frames)
            assert abs(d_sp[0] - d_ft[0]) < 1e-6
            assert abs(d_sp[1] - d_ft[1]) < 1e-6

    def test_auto_uses_fft_above_limit(self):
        rng = np.random.default_rng(5)
        a = np.repeat(np.repeat(rng.random((20, 20)), 16, axis=0), 16, axis=1)  # 320x320
        b = np.roll(a, 12, axis=1)
        dx, dy = estimate_translation(a, b)
        assert dx == pytest.approx(12, abs=1e-3)


class TestFitMaskModel:
    def test_recovers_fractional_shear_over_100_sections(self):
        # camera-plane period 180 px keeps a 99-section displacement of
        # 0.8 px/section (79.2 px) under half a period
        base = slit_frame(width=384, height=32, period=180, w=4)
        ref_lat = shift_image(base, 29.0)  # 29 unit scan steps
        ref_ax = shift_image(base, 99 * 0.8)
        model = fit_mask_model(base, ref_lat, ref_ax, anchors=(30, 100))
        assert model.lateral_dx == pytest.approx(1.0, abs=1e-6)
        assert model.axial_dx == pytest.approx(0.8, abs=0.02)
        assert model.axial_dy == pytest.approx(0.0, abs=0.02)
        assert model.lateral_residual_rms < 1e-9
        assert model.axial_residual_rms < 0.05

    def test_two_point_lateral_anchor_is_exact(self):
        base = slit_frame()
        model = fit_mask_model(base, shift_image(base, 1.0), shift_image(base, 4.0),
                               anchors=(2, 5))
        assert model.lateral_dx == pytest.approx(1.0, abs=1e-9)
        assert model.lateral_dy == pytest.approx(0.0, abs=1e-9)

    def test_identical_references_degenerate(self):
        base = slit_frame()
        with pytest.raises(DegenerateInputError):
            fit_mask_model(base, base.copy(), shift_image(base, 3.0), anchors=(5, 5))
        with pytest.raises(DegenerateInputError):
            fit_mask_model(base, shift_image(base, 3.0), base.copy(), anchors=(5, 5))

    def test_anchor_counts_validated(self):
        base = slit_frame()
        with pytest.raises(ValueError):
            fit_mask_model(base, shift_image(base, 1.0), shift_image(base, 2.0), anchors=(1, 5))


def fitted_model(shear=0.8, width=192, height=24, period=30, w=2):
    """Model fitted from three synthetic references of a standard rig."""
    geom = geometry_with_shear(shear)
    grid = ZGrid(z0=0.0, z_step=1.0, count=30)
    base = make_slit_pattern(
        PatternSpec(width, height, period_d=period, linewidth_w=w, shift_step=1,
                    num_shifts_n=period), 0
    )
    ref_lat = synthesize_mask(base, 10.0, 0, geom, grid)   # scan index 10
    ref_ax = synthesize_mask(base, 0.0, 12, geom, grid)    # section 12: 9.6 px
    return fit_mask_model(base, ref_lat, ref_ax, anchors=(11, 13)), base, geom, grid


class TestPredictMask:
    def test_identity_at_origin(self):
        model, base, _, _ = fitted_model()
        assert np.array_equal(predict_mask(model, 0, 0), base)

    def test_matches_directly_synthesized_mask(self):
        # far anchors divide the sub-pixel estimation error by the anchor
        # span, so accumulated prediction error stays small at mid-range z
        geom = geometry_with_shear(0.8)
        grid = ZGrid(z0=0.0, z_step=1.0, count=101)
        base = make_slit_pattern(
            PatternSpec(384, 24, period_d=180, linewidth_w=4, shift_step=1,
                        num_shifts_n=30), 0
        )
        ref_lat = synthesize_mask(base, 29.0, 0, geom, grid)
        ref_ax = synthesize_mask(base, 0.0, 99, geom, grid)
        model = fit_mask_model(base, ref_lat, ref_ax, anchors=(30, 100))
        pred = predict_mask(model, 5, 50)
        synth = synthesize_mask(base, 5.0, 50, geom, grid)
        rms = np.sqrt(np.mean((pred - synth) ** 2))
        assert rms < 0.01 * (synth.max() - synth.min())

    def test_slit_period_preserved(self):
        model, base, _, _ = fitted_model()
        pred = predict_mask(model, 3, 20)
        profile = pred.mean(axis=0)
        peaks = [c for c in range(1, pred.shape[1] - 1)
                 if profile[c] >= 0.5 and profile[c] >= profile[c - 1] and profile[c] > profile[c + 1]]
        spacings = np.diff(peaks)
        assert np.all(np.abs(spacings - 30.0) <= 0.1 + 1.0)  # integer column peaks

    def test_axial_composition_consistency(self):
        # integer per-section translation: predict(0, j+k) == re-warped predict(0, j)
        base = slit_frame(96, 16, period=24, w=2)
        model = fit_mask_model(base, shift_image(base, 2.0), shift_image(base, 8.0),
                               anchors=(3, 9))
        assert model.axial_dx == pytest.approx(1.0, abs=1e-9)
        a = predict_mask(model, 0, 7)
        b = shift_image(predict_mask(model, 0, 4), 3 * model.axial_dx, 3 * model.axial_dy)
        assert np.sqrt(np.mean((a - b) ** 2)) < 1e-6

    def test_round_trip_through_inverse_on_smooth_mask(self):
        # round-trip tolerance applies to smooth profiles; a hard binary edge
        # is smeared twice and cannot come back exactly
        x = np.arange(120)
        base = np.tile(0.5 + 0.5 * np.sin(2 * np.pi * x / 30.0), (12, 1))
        model = fit_mask_model(base, shift_image(base, 2.0), shift_image(base, 4.8),
                               anchors=(3, 7))
        fwd = shift_image(base, model.axial_dx, model.axial_dy)
        back = shift_image(fwd, -model.axial_dx, -model.axial_dy)
        interior = (slice(2, -2), slice(8, -8))
        assert np.max(np.abs(back[interior] - base[interior])) < 0.02

