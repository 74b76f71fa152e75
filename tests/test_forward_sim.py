import threading
import time
import tracemalloc
import zlib

import numpy as np
import pytest

from aspi import (
    GeometryMasks,
    NoiseSpec,
    PatternSpec,
    Scene,
    ZGrid,
    acquire_stack,
    base_camera_pattern,
    camera_shape,
    make_tilted_plane_scene,
    render_frame,
    render_frames,
    run_cli,
    synthesize_mask,
    tilted_plane_sections,
)
from aspi import forward_sim
from aspi.imaging_model import mask_coverage
from conftest import geometry_with_shear, slit_coverage_constant


def rig(d=30, w=2, n=30, width=120, height=16, shear=1.0, sections=20):
    spec = PatternSpec(width, height, period_d=d, linewidth_w=w, shift_step=1,
                       num_shifts_n=n)
    geom = geometry_with_shear(shear)
    grid = ZGrid(z0=0.0, z_step=1.0, count=sections)
    return spec, geom, grid


def ones_scene(spec, geom, z_index=0, **kw):
    return Scene(layers=[(z_index, np.ones(camera_shape(spec, geom)))], **kw)


class TestRenderFrame:
    def test_single_unit_layer_equals_mask(self):
        spec, geom, grid = rig()
        scene = ones_scene(spec, geom, z_index=4)
        frame = render_frame(scene, 3, spec, geom, grid)
        mask = synthesize_mask(base_camera_pattern(spec, geom), 3.0, 4, geom, grid)
        assert np.array_equal(frame, mask)

    def test_disjoint_layers_superpose(self):
        spec, geom, grid = rig()
        shape = camera_shape(spec, geom)
        top = np.zeros(shape)
        top[:8] = 1.0
        bottom = np.zeros(shape)
        bottom[8:] = 0.7
        both = render_frame(Scene(layers=[(2, top), (9, bottom)]), 5, spec, geom, grid)
        only_a = render_frame(Scene(layers=[(2, top)]), 5, spec, geom, grid)
        only_b = render_frame(Scene(layers=[(9, bottom)]), 5, spec, geom, grid)
        assert np.allclose(both, only_a + only_b, atol=1e-15)

    def test_haze_halves_modulation_depth(self):
        spec, geom, grid = rig()
        clear = render_frame(ones_scene(spec, geom, 0), 0, spec, geom, grid)
        hazy = render_frame(ones_scene(spec, geom, 0, haze_fraction=0.5), 0, spec, geom, grid)
        window = (slice(None), slice(60, 90))  # one interior period
        mod = lambda f: f[window].max() - f[window].min()
        assert mod(hazy) == pytest.approx(0.5 * mod(clear), rel=1e-9)

    def test_modulation_strictly_decreasing_in_haze(self):
        spec, geom, grid = rig()
        window = (slice(None), slice(60, 90))
        depths = []
        for h in (0.0, 0.2, 0.4, 0.6, 0.8):
            f = render_frame(ones_scene(spec, geom, 0, haze_fraction=h), 0, spec, geom, grid)
            depths.append(f[window].max() - f[window].min())
        assert np.all(np.diff(depths) < 0)

    def test_reflectance_linearity(self):
        spec, geom, grid = rig()
        shape = camera_shape(spec, geom)
        rng = np.random.default_rng(3)
        refl = rng.random(shape)
        full = render_frame(Scene(layers=[(5, refl)]), 2, spec, geom, grid)
        half = render_frame(Scene(layers=[(5, 0.5 * refl)]), 2, spec, geom, grid)
        assert np.array_equal(half, 0.5 * full)  # power-of-two scale is exact

    def test_scalar_tilted_and_full_section_maps_render_pinned_frames(self):
        # a scalar field, a (1, W) map and an (H, W) map, the maps with
        # repeated sections out of order: each field's distinct sections
        # pick its masks and count towards the haze term (9 here)
        spec, geom, grid = rig(shear=0.37)
        h, w = camera_shape(spec, geom)
        rng = np.random.default_rng(11)
        tilted = rng.permutation(np.arange(w) % 4 + 4)[None, :]  # sections 4 to 7
        full = rng.integers(9, 13, size=(h, w))                   # sections 9 to 12
        layers = [(np.int64(2), 0.25 * rng.random((h, w))), (tilted, 0.5 * rng.random((h, w))),
                  (full, rng.random((h, w)))]
        clear = acquire_stack(Scene(layers), spec, geom, grid)
        hazy = acquire_stack(Scene(layers, haze_fraction=0.5), spec, geom, grid)
        assert (zlib.crc32(clear.tobytes()), zlib.crc32(hazy.tobytes())) == (0x064c173e, 0xd658c423)
        # the haze term, to rounding
        assert np.mean(hazy - 0.5 * clear) == pytest.approx(0.0031288360219227404, rel=1e-12)

    def test_empty_scene_rejected(self):
        with pytest.raises(ValueError):
            Scene(layers=[])

    def test_layer_outside_grid_rejected(self):
        spec, geom, grid = rig(sections=5)
        scene = ones_scene(spec, geom, z_index=7)
        with pytest.raises(ValueError):
            render_frame(scene, 0, spec, geom, grid)

    @pytest.mark.parametrize("step", [-1, 30])
    def test_scan_step_outside_the_scan_rejected(self, step):
        spec, geom, grid = rig()
        scene = ones_scene(spec, geom)
        with pytest.raises(ValueError, match="out of range"):
            render_frame(scene, step, spec, geom, grid)
        with pytest.raises(ValueError, match="out of range"):
            next(render_frames(scene, spec, geom, grid, [0, step]))

    def test_scene_shape_must_match_camera(self):
        spec, geom, grid = rig()
        scene = Scene(layers=[(0, np.ones((4, 4)))])
        with pytest.raises(ValueError):
            render_frame(scene, 0, spec, geom, grid)


class TestAcquireStack:
    def test_single_shift_equals_render_frame(self):
        spec, geom, grid = rig(n=1)
        scene = ones_scene(spec, geom, 2)
        acq = acquire_stack(scene, spec, geom, grid)
        assert acq.dtype == np.float64 and acq.shape == (1,) + camera_shape(spec, geom)
        assert np.array_equal(acq[0], render_frame(scene, 0, spec, geom, grid))

    def test_seeded_noise_is_deterministic(self):
        spec, geom, grid = rig(n=6)
        noise = NoiseSpec(gaussian_sigma=0.05, poisson_scale=200.0, seed=42)
        a = acquire_stack(ones_scene(spec, geom, 1, noise=noise), spec, geom, grid)
        b = acquire_stack(ones_scene(spec, geom, 1, noise=noise), spec, geom, grid)
        assert np.array_equal(a, b)
        c = acquire_stack(ones_scene(spec, geom, 1, noise=NoiseSpec(0.05, 200.0, 43)),
                          spec, geom, grid)
        assert not np.array_equal(a, c)

    def test_frames_match_per_frame_renders_with_haze(self):
        spec, geom, grid = rig(n=8)
        scene = ones_scene(spec, geom, 3, haze_fraction=0.4)
        acq = acquire_stack(scene, spec, geom, grid)
        for i in (0, 3, 7):
            assert np.array_equal(acq[i], render_frame(scene, i, spec, geom, grid))

    def test_full_coverage_sum_is_constant(self):
        spec, geom, grid = rig(d=10, w=2, n=10, width=80)
        acq = acquire_stack(ones_scene(spec, geom, 0), spec, geom, grid)
        total = acq.sum(axis=0)
        expected = slit_coverage_constant(10, 2, 1, 10)
        assert expected == {2}
        interior = total[:, 12:]  # clear of the scan-vacated border
        assert np.allclose(interior, 2.0, atol=1e-12)

    def test_gaussian_noise_not_clipped(self):
        # zero-signal pixels keep symmetric read noise; clipping would bias
        # the out-of-band statistics the reconstruction tests measure
        spec, geom, grid = rig(n=4)
        shape = camera_shape(spec, geom)
        refl = np.zeros(shape)
        refl[:, :1] = 1.0
        scene = Scene(layers=[(0, refl)], noise=NoiseSpec(gaussian_sigma=0.1, seed=9))
        acq = acquire_stack(scene, spec, geom, grid)
        assert acq.min() < 0


class TestSceneValidation:
    def test_layers_strictly_increasing(self):
        ones = np.ones((4, 4))
        with pytest.raises(ValueError):
            Scene(layers=[(3, ones), (3, ones)])
        with pytest.raises(ValueError):
            Scene(layers=[(5, ones), (2, ones)])

    def test_reflectance_range(self):
        with pytest.raises(ValueError):
            Scene(layers=[(0, 1.5 * np.ones((3, 3)))])
        with pytest.raises(ValueError):
            Scene(layers=[(0, -np.ones((3, 3)))])

    def test_haze_range(self):
        ones = np.ones((3, 3))
        with pytest.raises(ValueError):
            Scene(layers=[(0, ones)], haze_fraction=1.0)
        with pytest.raises(ValueError):
            Scene(layers=[(0, ones)], haze_fraction=-0.1)

    def test_noise_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec(gaussian_sigma=-1.0)
        for bad in (np.nan, np.inf):
            for noise in ({"gaussian_sigma": bad}, {"poisson_scale": bad}):
                with pytest.raises(ValueError, match="must be finite and >= 0"):
                    NoiseSpec(**noise)


class TestTiltedPlaneScene:
    grid = ZGrid(z0=0.0, z_step=1.0, count=12)

    def test_zero_slope_single_layer(self):
        scene = make_tilted_plane_scene(self.grid, 0.0, np.ones((4, 24)))
        assert len(scene.fields) == 1
        assert np.array_equal(np.unique(scene.fields[0][0]), [0])

    def test_band_partition(self):
        width = 48
        slope = 12 / width
        refl = np.ones((4, width))
        scene = make_tilted_plane_scene(self.grid, slope, refl)
        (section_map, reflectance), = scene.fields
        assert np.unique(section_map).size == 12
        support = np.zeros(width, dtype=int)
        prev_end = 0
        for z_index in np.unique(section_map):
            cols = np.flatnonzero((reflectance * (section_map == z_index))[0])
            # contiguous, disjoint, ordered column bands
            assert np.array_equal(cols, np.arange(cols[0], cols[-1] + 1))
            assert cols[0] == prev_end
            prev_end = cols[-1] + 1
            support[cols] += 1
        assert prev_end == width
        assert np.all(support == 1)

    def test_ground_truth_is_the_constructed_ramp(self):
        width = 48
        slope = 12 / width
        secs = tilted_plane_sections(width, slope)
        assert np.array_equal(secs, np.floor(slope * np.arange(width)).astype(int))

    @pytest.mark.filterwarnings("error")
    def test_out_of_grid_slope_rejected(self):
        with pytest.raises(ValueError):
            make_tilted_plane_scene(self.grid, 1.0, np.ones((4, 24)))
        with pytest.raises(ValueError):
            make_tilted_plane_scene(self.grid, -0.5, np.ones((4, 24)))
        # before the cast of floor(slope * column) to integers, which warns
        for slope in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="slope must be finite"):
                make_tilted_plane_scene(self.grid, slope, np.ones((4, 24)))

    def test_z_start_offset(self):
        scene = make_tilted_plane_scene(self.grid, 0.0, np.ones((4, 8)), z_start=5)
        assert np.array_equal(np.unique(scene.fields[0][0]), [5])


def layer_sum_frames(layers, haze, noise, spec, geom, grid):
    """Oracle: every layer's full mask bank, summed layer by layer in scene order."""
    masks = GeometryMasks(spec, geom, grid)
    n = spec.num_shifts_n
    frames = np.zeros((n,) + layers[0][1].shape)
    background = np.zeros(layers[0][1].shape)
    for z_index, refl in layers:
        bank = masks.section_masks(z_index)
        for frame, mask in zip(frames, bank):
            frame += refl * mask
        background += refl * mask_coverage(bank)
    background /= len(layers) * n
    for i in range(n):
        if haze > 0.0:
            frames[i] = (1.0 - haze) * frames[i] + haze * background
        rng = np.random.default_rng(noise.seed + i)
        if noise.poisson_scale > 0:
            frames[i] = rng.poisson(np.maximum(frames[i], 0.0) * noise.poisson_scale) / noise.poisson_scale
        if noise.gaussian_sigma > 0:
            frames[i] = frames[i] + rng.normal(0.0, noise.gaussian_sigma, size=frames[i].shape)
    return frames


def assert_renders_the_oracle(scene, layers, spec, geom, grid):
    frames = acquire_stack(scene, spec, geom, grid)
    oracle = layer_sum_frames(layers, scene.haze_fraction, scene.noise, spec, geom, grid)
    assert np.array_equal(frames, oracle)
    for i, frame in zip((5, 0), render_frames(scene, spec, geom, grid, (5, 0))):
        assert np.array_equal(frame, oracle[i])


class TestLayerSumOracle:
    """One gather per height field renders the layer sum bit for bit."""

    NOISES = [NoiseSpec(), NoiseSpec(gaussian_sigma=0.02, seed=4),
              NoiseSpec(gaussian_sigma=0.01, poisson_scale=80.0, seed=11)]

    @pytest.mark.parametrize("noise", NOISES)
    @pytest.mark.parametrize("haze", [0.0, 0.3])
    @pytest.mark.parametrize("slope,z_start,magnification", [
        (0.0, 7, 1.0), (0.1171875, 0, 1.0), (0.3125, 2, 1.0), (0.45, 0, 1.0),
        # a non-integer magnification
        (0.1, 3, 2.2748743718592968),
    ])
    def test_tilted_plane(self, slope, z_start, magnification, haze, noise):
        spec = PatternSpec(60, 10, period_d=30, linewidth_w=2, shift_step=1, num_shifts_n=12)
        geom = geometry_with_shear(0.37, magnification=magnification)
        grid = ZGrid(z0=0.0, z_step=1.0, count=70)
        assert GeometryMasks(spec, geom, grid).row_bank() is not None
        shape = camera_shape(spec, geom)
        refl = np.random.default_rng(1).random(shape)
        scene = make_tilted_plane_scene(grid, slope, refl, z_start=z_start,
                                        haze_fraction=haze, noise=noise)
        secs = tilted_plane_sections(shape[1], slope, z_start)
        layers = [(j, refl * (secs == j)[None, :]) for j in np.unique(secs)]
        assert_renders_the_oracle(scene, layers, spec, geom, grid)

    @pytest.mark.parametrize("haze", [0.0, 0.3])
    def test_cli_bands_scene(self, haze):
        spec, geom, grid = rig(n=10, height=40)
        shape = camera_shape(spec, geom)
        bounds = np.linspace(0, shape[0], 4).astype(int)
        layers = []
        for z, r0, r1 in zip((2, 9, 15), bounds[:-1], bounds[1:]):
            band = np.zeros(shape)
            band[r0:r1] = 1.0
            layers.append((z, band))
        scene = Scene(layers=layers, haze_fraction=haze, noise=NoiseSpec(gaussian_sigma=0.01))
        assert_renders_the_oracle(scene, layers, spec, geom, grid)

    @pytest.mark.parametrize("block", [50, 240, 600])
    def test_noise_drawn_in_blocks_of_rows(self, monkeypatch, block):
        # blocks of 1, 2 and 5 of the frame's 16 rows of 120 (the last one shorter)
        monkeypatch.setattr(forward_sim, "_NOISE_BLOCK", block)
        spec, geom, grid = rig(n=6)
        refl = np.random.default_rng(3).random(camera_shape(spec, geom))
        layers = [(4, refl)]
        for noise in self.NOISES[1:]:
            scene = Scene(layers=layers, haze_fraction=0.2, noise=noise)
            assert_renders_the_oracle(scene, layers, spec, geom, grid)

    def test_a_negative_zero_reflectance_renders_as_zero(self):
        # a sum of the fields from zero turns a -0.0 product into 0.0
        spec, geom, grid = rig(n=4)
        refl = np.ones(camera_shape(spec, geom))
        refl[:, ::3] = -0.0
        for layers in ([(2, refl)], [(2, refl), (5, refl)]):
            frames = acquire_stack(Scene(layers=layers), spec, geom, grid)
            assert (frames == 0.0).any() and not np.signbit(frames).any()

    def test_overlapping_uniform_layers(self):
        spec, geom, grid = rig(n=10, sections=40)
        refl = np.random.default_rng(2).random(camera_shape(spec, geom))
        layers = [(12, 0.5 * refl), (30, refl)]
        scene = Scene(layers=layers, haze_fraction=0.3, noise=NoiseSpec(0.01, 50.0, 3))
        assert_renders_the_oracle(scene, layers, spec, geom, grid)


def traced_simulate_peak(tmp_path, sections, threads=1):
    # one thread by default: with two, how many frames and noise blocks the
    # workers hold at the peak varies from run to run by more than a
    # section's bank
    argv = ["simulate", "--scene", "tilted", "--slope", repr(sections / 256),
            "--sections", str(sections), "--proj-width", "256", "--proj-height", "128",
            "--haze", "0.3", "--noise-sigma", "0.01", "--threads", str(threads),
            "--out", str(tmp_path / f"acq{sections}.aspi")]
    assert run_cli(argv) == 0  # first-use imports are not the command's memory
    tracemalloc.start()
    try:
        assert run_cli(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_memory_does_not_grow_with_sections(tmp_path, capsys):
    # 30 frames of 128 x 256: a stack of them would be 30 frames, a scene of
    # one layer per section 16 or 64 frames
    frame = 128 * 256 * 8
    bank = 30 * 256 * 8  # one section's (n, 1, W) masks, and the field's
    peaks = {k: traced_simulate_peak(tmp_path, k) for k in (16, 64)}
    assert peaks[16] < 10 * frame + 4 * bank, peaks
    assert peaks[64] < peaks[16] + bank, peaks


@pytest.mark.parametrize("sections", [16, 64])
def test_threaded_simulate_memory_is_bounded(tmp_path, sections):
    # the frames and noise blocks alive at the peak vary from run to run, so
    # two threads get the absolute bound only, not the growth check above
    frame = 128 * 256 * 8
    bank = 30 * 256 * 8
    peak = traced_simulate_peak(tmp_path, sections, threads=2)
    assert peak < 10 * frame + 4 * bank, peak


def tilted_scene(spec, geom, grid, noise):
    refl = np.random.default_rng(5).random(camera_shape(spec, geom))
    slope = (grid.count - 2) / refl.shape[1]  # every section but the last
    return make_tilted_plane_scene(grid, slope, refl, z_start=1, haze_fraction=0.3, noise=noise)


def bands_scene(spec, geom, grid, noise):
    shape = camera_shape(spec, geom)
    layers = []
    for z, r0, r1 in zip((2, 9, 15), (0, 5, 11), (5, 11, shape[0])):
        band = np.zeros(shape)
        band[r0:r1] = 1.0
        layers.append((z, band))
    return Scene(layers=layers, haze_fraction=0.3, noise=noise)


class TestThreads:
    """Frames rendered on workers keep their bytes and leave no thread behind."""

    @pytest.mark.parametrize("noise", [NoiseSpec(gaussian_sigma=0.02, seed=4),
                                       NoiseSpec(gaussian_sigma=0.01, poisson_scale=80.0, seed=11)])
    @pytest.mark.parametrize("make_scene", [tilted_scene, bands_scene])
    def test_every_thread_count_gives_the_same_bytes(self, make_scene, noise):
        spec, geom, grid = rig(n=10)
        scene = make_scene(spec, geom, grid, noise)
        serial = acquire_stack(scene, spec, geom, grid)
        steps = (7, 2, 9, 0, 5)  # a subset out of scan order
        for threads in (2, 3):
            # a frame is valid until the next one is asked for: copy each
            frames = [f.copy() for f in render_frames(scene, spec, geom, grid, threads=threads)]
            assert np.stack(frames).tobytes() == serial.tobytes()
            frames = render_frames(scene, spec, geom, grid, steps, threads=threads)
            assert [f.tobytes() for f in frames] == [serial[i].tobytes() for i in steps]

    @pytest.mark.parametrize("threads", [0, -1])
    def test_bad_thread_count_rejected_before_any_frame(self, monkeypatch, threads):
        def fail(*args, **kwargs):
            raise AssertionError("no thread may be started and no frame rendered")

        # the package's one thread start, in errors.run_ahead
        monkeypatch.setattr(threading, "Thread", fail)
        monkeypatch.setattr(forward_sim, "_render_frame", fail)
        spec, geom, grid = rig()
        with pytest.raises(ValueError, match=f"threads must be >= 1, got {threads}"):
            render_frames(ones_scene(spec, geom), spec, geom, grid, threads=threads)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_at_most_threads_plus_one_frames_alive(self, threads):
        # one field, no noise: the iterator makes the ring's `threads`
        # frames and the haze image, and rendering into the ring allocates
        # no frame; the caller's slowness lets the workers run ahead
        spec, geom, grid = rig(n=12, width=256, height=128)
        scene = tilted_scene(spec, geom, grid, NoiseSpec())
        frame, buffer = 128 * 256 * 8, np.getbufsize() * 8
        tracemalloc.start()
        try:
            for _ in render_frames(scene, spec, geom, grid, threads=threads):
                time.sleep(0.02)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (threads + 1.25) * frame + threads * buffer, peak / frame

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_a_ring_of_threads_frames(self, threads):
        spec, geom, grid = rig(n=10)
        scene = tilted_scene(spec, geom, grid, NoiseSpec(gaussian_sigma=0.02, seed=4))
        serial = acquire_stack(scene, spec, geom, grid)
        buffers = set()
        for i, frame in enumerate(render_frames(scene, spec, geom, grid, threads=threads)):
            time.sleep(0.01)  # the workers render ahead; this frame stays as it is
            assert frame.tobytes() == serial[i].tobytes()
            buffers.add(frame.ctypes.data)
        assert len(buffers) == threads

    def test_no_more_ring_frames_than_steps(self):
        # 8 threads over 3 steps: a ring of 3 frames, not of 8 or 9
        spec, geom, grid = rig(n=12, width=256, height=128)
        scene = ones_scene(spec, geom)
        frame, buffer = 128 * 256 * 8, np.getbufsize() * 8
        buffers = set()
        tracemalloc.start()
        try:
            for f in render_frames(scene, spec, geom, grid, (4, 0, 9), threads=8):
                buffers.add(f.ctypes.data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(buffers) == 3
        assert peak < 3.25 * frame + 3 * buffer, peak / frame

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_a_ring_allocates_no_frame_per_step(self, threads):
        # the ring's frames are made with the iterator; rendering one field
        # then allocates only the multiply's buffer on each worker
        spec, geom, grid = rig(n=12, width=256, height=128)
        scene = tilted_scene(spec, geom, grid, NoiseSpec())
        frame, buffer = 128 * 256 * 8, np.getbufsize() * 8
        tracemalloc.start()
        try:
            frames = render_frames(scene, spec, geom, grid, threads=threads)
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            for _ in frames:
                pass
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * frame + threads * buffer, peak / frame

    def test_closing_early_stops_the_workers(self):
        spec, geom, grid = rig(n=12)
        before = threading.active_count()
        frames = render_frames(ones_scene(spec, geom), spec, geom, grid, threads=3)
        next(frames)
        assert threading.active_count() > before
        frames.close()
        assert threading.active_count() == before
