"""Filter engine tests: weight closed forms, limits, and oracle equivalence."""

import math
import os
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgekeep import filters, image, kernels
from edgekeep.filters import (
    FilterMode,
    FilterParams,
    filter_image,
    filter_oracle,
    weight_bilateral,
    weight_multilateral,
)
from edgekeep.image import ImageBuffer
from edgekeep.noise import NoiseSpec, add_noise
from edgekeep.synth import grating, step_edge
from edgekeep.texture import TextureMap, TextureParams, compute_texture_map

MODES = (FilterMode.AVERAGE, FilterMode.BILATERAL, FilterMode.MULTILATERAL)


def _flat_tex(h, w, label=0):
    return TextureMap(labels=np.full((h, w), label, dtype=np.uint8))


def _use_bands(monkeypatch, img, radius, rows, workers):
    """Cut every pass over `img` into bands of `rows` output rows (one band
    when rows is None) and run them on `workers` threads."""
    budget = 1 << 62 if rows is None else rows * img.channels * (img.width + 2 * radius)
    monkeypatch.setattr(kernels, "_BAND_SAMPLES", budget)
    monkeypatch.setattr(kernels, "_WORKERS", workers)


# --- weight functions ---

def test_weight_center_is_exactly_one():
    img = ImageBuffer(np.random.default_rng(0).random((5, 5)))
    params = FilterParams()
    assert weight_bilateral((2, 2), (2, 2), img, params) == 1.0
    tex = compute_texture_map(img)
    assert weight_multilateral((2, 2), (2, 2), img, tex, params) == 1.0


def test_weight_spatial_closed_form():
    img = ImageBuffer(np.full((5, 5), 0.5))
    params = FilterParams(window_radius=2, sigma_d=2.0, sigma_r=0.1)
    # identical colors, spatial distance exactly sigma_d
    w = weight_bilateral((0, 0), (2, 0), img, params)
    assert w == pytest.approx(math.exp(-0.5), abs=1e-15)


def test_weight_product_closed_form():
    pixels = np.full((5, 5), 0.25)
    pixels[0, 2] = 0.35  # range distance exactly sigma_r from (0,0)'s 0.25
    img = ImageBuffer(pixels)
    params = FilterParams(window_radius=2, sigma_d=2.0, sigma_r=0.1)
    w = weight_bilateral((0, 0), (2, 0), img, params)
    assert w == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_weight_rgb_distance_is_euclidean():
    # Three identical channels: range distance is sqrt(3) times the gray one.
    delta = 0.06
    gray = np.full((1, 2), 0.4)
    gray[0, 1] += delta
    rgb = np.repeat(gray[:, :, np.newaxis], 3, axis=2)
    params = FilterParams(sigma_d=1e9, sigma_r=0.1)
    w_gray = weight_bilateral((0, 0), (1, 0), ImageBuffer(gray), params)
    w_rgb = weight_bilateral((0, 0), (1, 0), ImageBuffer(rgb), params)
    expected = math.exp(-0.5 * 3.0 * delta * delta / 0.1**2)
    assert w_rgb == pytest.approx(expected, rel=1e-12)
    assert w_rgb == pytest.approx(w_gray ** 3, rel=1e-10)


def test_weight_multilateral_same_class_equals_bilateral():
    img = ImageBuffer(np.random.default_rng(1).random((4, 4)))
    tex = _flat_tex(4, 4)
    params = FilterParams()
    for xi in ((1, 0), (2, 3)):
        assert weight_multilateral((0, 0), xi, img, tex, params) == \
            weight_bilateral((0, 0), xi, img, params)


def test_weight_multilateral_cross_class_factor():
    pixels = np.full((2, 2), 0.5)
    img = ImageBuffer(pixels)
    labels = np.array([[0, 1], [0, 0]], dtype=np.uint8)
    tex = TextureMap(labels=labels)
    params = FilterParams(sigma_d=1e9, sigma_r=1e9, sigma_t=1.0)
    w = weight_multilateral((0, 0), (1, 0), img, tex, params)
    assert w == pytest.approx(math.exp(-0.5), rel=1e-9)


def test_weight_multilateral_huge_sigma_t_is_bilateral():
    img = ImageBuffer(np.random.default_rng(2).random((4, 4)))
    labels = np.arange(16, dtype=np.uint8).reshape(4, 4) % 6
    tex = TextureMap(labels=labels)
    params = FilterParams(sigma_t=1e6)
    for xi in ((1, 1), (3, 0)):
        wm = weight_multilateral((0, 0), xi, img, tex, params)
        wb = weight_bilateral((0, 0), xi, img, params)
        assert wm == pytest.approx(wb, rel=1e-6)


# --- params validation ---

def test_filter_params_validation_messages():
    with pytest.raises(ValueError, match="sigma_r"):
        FilterParams(sigma_r=-1.0)
    with pytest.raises(ValueError, match="sigma_d"):
        FilterParams(sigma_d=0.0)
    with pytest.raises(ValueError, match="sigma_t"):
        FilterParams(sigma_t=-0.5)
    with pytest.raises(ValueError, match="window_radius"):
        FilterParams(window_radius=0)
    with pytest.raises(ValueError, match="passes"):
        FilterParams(passes=0)
    assert FilterParams(passes=filters.PASSES_LIMIT).passes == 100
    for passes in (101, 10**9):
        with pytest.raises(ValueError, match="^passes must be <= 100, got"):
            FilterParams(passes=passes)
    # A finite sigma whose square underflows to 0 or overflows is rejected;
    # inf (the documented limit) and large finite values stay valid.
    for name in ("sigma_d", "sigma_r", "sigma_t"):
        for value in (1e-300, 1e-200, 1e300):
            with pytest.raises(ValueError, match=name):
                FilterParams(**{name: value})
    FilterParams(sigma_d=math.inf, sigma_r=math.inf, sigma_t=math.inf)
    FilterParams(sigma_d=1e9, sigma_r=1e9, sigma_t=1e6)


_COUNTS = {
    "window_radius": lambda v: FilterParams(window_radius=v),
    "passes": lambda v: FilterParams(passes=v),
    "energy_window_radius": lambda v: TextureParams(energy_window_radius=v),
    "radius": lambda v: kernels.window_mean(np.zeros((3, 3)), v),
}


@pytest.mark.parametrize("name", list(_COUNTS))
def test_radii_and_pass_counts_must_be_integers(name):
    for bad in (1.5, 2.5, 2.0, np.float64(2.0), "2", None):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            _COUNTS[name](bad)
    for good in (2, np.int64(2), np.uint8(2), np.int32(1)):
        _COUNTS[name](good)


@pytest.mark.parametrize("shape, largest", [((8, 8), 64), ((2, 70), 70)])
def test_window_radius_is_bounded_by_image_and_floor(shape, largest):
    img = ImageBuffer(np.random.default_rng(23).random(shape))
    assert filter_image(img, FilterParams(window_radius=largest)).pixels.shape == shape
    message = (f"^window_radius {largest + 1} sets a radius above {largest}, the largest "
               f"of the image height")
    for run in (filter_image, filter_oracle):  # the oracle checks before its first pass
        with pytest.raises(ValueError, match=message):
            run(img, FilterParams(window_radius=largest + 1))


def test_bilateral_mode_never_reads_the_texture_radii():
    img = ImageBuffer(np.random.default_rng(24).random((8, 8)))
    out = filter_image(img, FilterParams(), FilterMode.BILATERAL,
                       texture_params=TextureParams(sigma_g=1e5))
    assert np.array_equal(out.pixels, filter_image(img, FilterParams()).pixels)


def test_numpy_integer_counts_are_kept_as_python_ints():
    # A uint8 radius would wrap in the band arithmetic.
    params = FilterParams(window_radius=np.uint8(200), passes=np.int64(3))
    assert type(params.window_radius) is int and type(params.passes) is int


# --- filter identities and limits ---

def test_constant_image_is_fixed_point_every_mode():
    for c in (0.0, 0.31, 1.0):
        for channels in (1, 3):
            shape = (7, 6) if channels == 1 else (7, 6, 3)
            img = ImageBuffer(np.full(shape, c))
            for mode in MODES:
                out = filter_image(img, FilterParams(), mode)
                assert np.array_equal(out.pixels, img.pixels), (c, channels, mode)


def test_huge_sigmas_degenerate_to_box_mean():
    rng = np.random.default_rng(3)
    img = ImageBuffer(rng.random((9, 9)))
    params = FilterParams(sigma_d=1e9, sigma_r=1e9)
    bilateral = filter_image(img, params, FilterMode.BILATERAL)
    average = filter_image(img, params, FilterMode.AVERAGE)
    assert np.abs(bilateral.pixels - average.pixels).max() <= 1e-9


@pytest.mark.parametrize("shape", [(11, 9), (8, 10, 3)])
def test_infinite_sigmas_bilateral_is_average_bit_for_bit(shape):
    # Every weight is exp(-0) = 1, and the denominator sums the same unit
    # weights in the same order as average mode's.
    img = ImageBuffer(np.random.default_rng(5).random(shape))
    for radius in (1, 2, 3):
        for passes in (1, 2):
            params = FilterParams(window_radius=radius, sigma_d=math.inf, sigma_r=math.inf,
                                  passes=passes)
            bilateral = filter_image(img, params, FilterMode.BILATERAL)
            average = filter_image(img, params, FilterMode.AVERAGE)
            assert np.array_equal(bilateral.pixels, average.pixels), (radius, passes)


def test_unit_weight_shortcut_follows_from_the_parameters(monkeypatch):
    # Average mode and bilateral mode at sigma_d = sigma_r = inf weigh every
    # pair 1 and call no exp; finite sigmas or a label map need the weights.
    img = ImageBuffer(np.random.default_rng(6).random((9, 8)))
    calls, exp = [], np.exp

    def counted(*args, **kwargs):
        calls.append(1)
        return exp(*args, **kwargs)

    monkeypatch.setattr(np, "exp", counted)
    infinite = FilterParams(sigma_d=math.inf, sigma_r=math.inf)
    for mode, params, weighted in ((FilterMode.AVERAGE, FilterParams(), False),
                                   (FilterMode.BILATERAL, infinite, False),
                                   (FilterMode.BILATERAL, FilterParams(), True),
                                   (FilterMode.MULTILATERAL, infinite, True)):
        calls.clear()
        filter_image(img, params, mode, _flat_tex(9, 8))
        assert bool(calls) == weighted, (mode, params)


def test_huge_sigma_t_multilateral_equals_bilateral():
    rng = np.random.default_rng(4)
    img = ImageBuffer(rng.random((10, 8)))
    params = FilterParams(sigma_t=1e6)
    multi = filter_image(img, params, FilterMode.MULTILATERAL)
    bi = filter_image(img, params, FilterMode.BILATERAL)
    assert np.abs(multi.pixels - bi.pixels).max() <= 1e-6


def test_infinite_sigma_t_multilateral_is_bilateral_bit_for_bit():
    # The exact limit: the cross-label factor is exp(-0) = 1, and so is the
    # same-label factor, so every weight is the bilateral one.
    rng = np.random.default_rng(12)
    for shape in ((17, 13), (9, 11, 3)):
        img = ImageBuffer(rng.random(shape))
        for params in (FilterParams(sigma_t=math.inf),
                       FilterParams(window_radius=3, sigma_t=math.inf, passes=2)):
            multi = filter_image(img, params, FilterMode.MULTILATERAL)
            bi = filter_image(img, params, FilterMode.BILATERAL)
            assert np.array_equal(multi.pixels, bi.pixels), shape


@pytest.mark.parametrize("sigma_t", [0.1, 0.05])
def test_tiny_cross_label_factor_is_not_rounded_to_zero(sigma_t):
    # The centre differs in label from all its neighbours, so each of its
    # weights carries the factor exp(-0.5 / sigma_t^2): e^-50 and e^-200.
    # Those are tiny but nonzero; a factor built as 1 + (cf - 1) would
    # round to exactly 0 and leave the centre at 0.
    pixels = np.ones((7, 7))
    pixels[3, 3] = 0.0
    labels = np.zeros((7, 7), dtype=np.uint8)
    labels[3, 3] = 1
    tex = TextureMap(labels=labels)
    params = FilterParams(sigma_t=sigma_t)
    out = filter_image(ImageBuffer(pixels), params, FilterMode.MULTILATERAL, texture=tex)
    want = filter_oracle(ImageBuffer(pixels), params, FilterMode.MULTILATERAL, texture=tex)
    centre = out.pixels[3, 3]
    assert centre > 0.0
    assert abs(centre - want.pixels[3, 3]) <= 1e-12 * want.pixels[3, 3]
    assert np.abs(out.pixels - want.pixels).max() <= 1e-12


def test_average_mode_is_window_mean():
    rng = np.random.default_rng(5)
    img = ImageBuffer(rng.random((6, 6)))
    out = filter_image(img, FilterParams(window_radius=1), FilterMode.AVERAGE)
    padded = np.pad(img.pixels, 1, mode="edge")
    for y in range(6):
        for x in range(6):
            assert out.pixels[y, x] == pytest.approx(
                padded[y:y + 3, x:x + 3].mean(), abs=1e-12)


def test_output_stays_in_window_hull():
    rng = np.random.default_rng(6)
    img = ImageBuffer(rng.random((8, 8)))
    m = 2
    padded = np.pad(img.pixels, m, mode="edge")
    for mode in MODES:
        out = filter_image(img, FilterParams(window_radius=m), mode)
        for y in range(8):
            for x in range(8):
                window = padded[y:y + 2 * m + 1, x:x + 2 * m + 1]
                assert out.pixels[y, x] >= window.min() - 1e-12
                assert out.pixels[y, x] <= window.max() + 1e-12


def _check_mirror_equivariance(monkeypatch, band_rows, workers):
    # Horizontal and vertical flips, gray and RGB, every mode: exact. With
    # bands of 2 rows a vertical flip also moves the band boundaries.
    rng = np.random.default_rng(7)
    for trial in range(5):
        for shape in ((11, 10), (9, 12, 3)):
            img = ImageBuffer(rng.random(shape))
            # About 2 rows per band at both radii.
            _use_bands(monkeypatch, img, 3, band_rows, workers)
            tex = compute_texture_map(img)
            for axis in (1, 0):
                flipped = ImageBuffer(np.flip(img.pixels, axis))
                tex_flipped = TextureMap(labels=np.flip(tex.labels, axis))
                for params in (FilterParams(), FilterParams(window_radius=3)):
                    for mode in MODES:
                        a = filter_image(img, params, mode, tex)
                        b = filter_image(flipped, params, mode, tex_flipped)
                        assert np.array_equal(np.flip(a.pixels, axis), b.pixels), \
                            (shape, axis, params.window_radius, mode)


def test_horizontal_mirror_equivariance_is_exact(monkeypatch):
    _check_mirror_equivariance(monkeypatch, None, 1)


def test_mirror_equivariance_is_exact_across_bands(monkeypatch):
    _check_mirror_equivariance(monkeypatch, 2, 2)


def test_identical_channel_rgb_filters_like_its_channels():
    # One shared weight per pixel: an RGB image with three identical
    # channels keeps them identical through the filter.
    rng = np.random.default_rng(8)
    gray = rng.random((7, 7))
    rgb = ImageBuffer(np.repeat(gray[:, :, np.newaxis], 3, axis=2))
    for mode in MODES:
        out = filter_image(rgb, FilterParams(), mode)
        assert np.array_equal(out.pixels[:, :, 0], out.pixels[:, :, 1])
        assert np.array_equal(out.pixels[:, :, 0], out.pixels[:, :, 2])


def test_multi_pass_equals_repeated_single_pass():
    rng = np.random.default_rng(9)
    img = ImageBuffer(rng.random((9, 9)))
    for mode in (FilterMode.BILATERAL, FilterMode.MULTILATERAL):
        two = filter_image(img, FilterParams(passes=2), mode)
        once = filter_image(img, FilterParams(passes=1), mode)
        again = filter_image(once, FilterParams(passes=1), mode)
        assert np.array_equal(two.pixels, again.pixels)


def test_supplied_texture_map_used_first_pass_only():
    rng = np.random.default_rng(10)
    img = ImageBuffer(rng.random((8, 8)))
    flat = _flat_tex(8, 8)
    # With a flat supplied map, pass 1 degenerates to bilateral.
    multi = filter_image(img, FilterParams(), FilterMode.MULTILATERAL, texture=flat)
    bi = filter_image(img, FilterParams(), FilterMode.BILATERAL)
    assert np.array_equal(multi.pixels, bi.pixels)


def test_texture_dimension_mismatch_raises():
    img = ImageBuffer(np.zeros((6, 6)))
    with pytest.raises(ValueError, match="texture map"):
        filter_image(img, FilterParams(), FilterMode.MULTILATERAL,
                     texture=_flat_tex(4, 4))


# --- row bands ---

def _one_band(img, params, mode):
    with pytest.MonkeyPatch.context() as mp:
        _use_bands(mp, img, params.window_radius, None, 1)
        return filter_image(img, params, mode).pixels


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_banded_output_is_bit_identical_to_one_band(data):
    h, w = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 40))
    shape = (h, w) if data.draw(st.booleans()) else (h, w, 3)
    img = ImageBuffer(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).random(shape))
    params = FilterParams(window_radius=data.draw(st.integers(1, 6)))
    mode = data.draw(st.sampled_from(MODES))
    rows = data.draw(st.integers(1, h))  # the radius often exceeds the band height
    workers = data.draw(st.sampled_from((1, 2)))
    expected = _one_band(img, params, mode)
    with pytest.MonkeyPatch.context() as mp:
        _use_bands(mp, img, params.window_radius, rows, workers)
        assert np.array_equal(filter_image(img, params, mode).pixels, expected)


def test_multi_band_matches_oracle(monkeypatch):
    img = ImageBuffer(np.random.default_rng(16).random((23, 61)))
    params = FilterParams(window_radius=4)
    _use_bands(monkeypatch, img, 4, 3, 2)  # 8 bands of 2-3 rows
    # The oracle is slow; these two modes cover both denominator paths.
    for mode in (FilterMode.AVERAGE, FilterMode.MULTILATERAL):
        fast = filter_image(img, params, mode)
        slow = filter_oracle(img, params, mode)
        assert np.abs(fast.pixels - slow.pixels).max() <= 1e-12, mode


def test_image_within_band_budget_never_uses_pool(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the band pool was used")

    monkeypatch.setattr(ThreadPoolExecutor, "submit", refuse)
    monkeypatch.setattr(ThreadPoolExecutor, "map", refuse)
    monkeypatch.setattr(kernels, "_WORKERS", 2)
    rng = np.random.default_rng(17)
    for shape in ((64, 64), (40, 50, 3)):
        img = ImageBuffer(rng.random(shape))
        compute_texture_map(img)
        for mode in MODES:
            filter_image(img, FilterParams(), mode)
    # The same image cut into bands does reach the pool.
    _use_bands(monkeypatch, img, 2, 8, 2)
    with pytest.raises(AssertionError, match="band pool"):
        filter_image(img, FilterParams(), FilterMode.BILATERAL)


def test_concurrent_callers_get_the_sequential_output(monkeypatch):
    img = ImageBuffer(np.random.default_rng(18).random((45, 37, 3)))
    params = FilterParams(window_radius=3, passes=2)
    expected = {mode: _one_band(img, params, mode) for mode in MODES}
    _use_bands(monkeypatch, img, 3, 4, 2)
    start = threading.Barrier(2)
    results = {}

    def call(name, mode):
        start.wait()
        results[name] = [filter_image(img, params, mode).pixels for _ in range(3)]

    for mode in MODES:
        callers = [threading.Thread(target=call, args=(name, mode)) for name in "ab"]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join()
        for name in "ab":
            for pixels in results.pop(name):
                assert np.array_equal(pixels, expected[mode]), (name, mode)


def test_public_functions_run_on_the_calling_thread_only(monkeypatch):
    # A per-call span recorder keeps one stack for the calling thread; band
    # threads must run only private helpers, never these public functions.
    public = ["load_pnm", "save_pnm", "filter_image", "compute_texture_map", "decompose",
              "local_energy", "classify", "convolve", "window_mean"]
    calls, band_threads = [], set()

    def record(fn, seen):
        def recorded(*args, **kwargs):
            seen(fn.__name__)
            return fn(*args, **kwargs)
        return recorded

    for module in [m for name, m in sys.modules.items() if name.startswith("edgekeep")]:
        for name in public:
            fn = getattr(module, name, None)
            if callable(fn):
                monkeypatch.setattr(module, name, record(
                    fn, lambda name: calls.append((name, threading.get_ident()))))
        for private in ("_filter_band", "_taps_pass"):
            if callable(fn := getattr(module, private, None)):
                # The pause lets the pool thread take bands before the caller
                # has worked through them all.
                monkeypatch.setattr(module, private, record(
                    fn, lambda name: (band_threads.add(threading.get_ident()),
                                      time.sleep(0.001))))
    monkeypatch.setattr(kernels, "_BAND_SAMPLES", 4 * 48)  # 1-4 rows per band
    monkeypatch.setattr(kernels, "_WORKERS", 2)
    # Called through their modules, so that the recorders above are the ones run.
    data = image.save_pnm(ImageBuffer(np.random.default_rng(20).random((40, 44))))
    image.save_pnm(filters.filter_image(image.load_pnm(data), FilterParams(passes=2),
                                        FilterMode.MULTILATERAL))
    assert {name for name, _ in calls} == set(public)
    assert {thread for _, thread in calls} == {threading.get_ident()}
    assert len(band_threads) == 2  # the bands did run on the pool as well


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_runs_banded_passes(monkeypatch):
    # The child inherits the parent's pool object but none of its threads.
    img = ImageBuffer(np.random.default_rng(19).random((30, 20)))
    expected = _one_band(img, FilterParams(), FilterMode.BILATERAL)
    _use_bands(monkeypatch, img, 2, 4, 2)
    filter_image(img)  # starts the pool's threads in this process
    pid = os.fork()
    if pid == 0:
        same = False
        try:
            same = np.array_equal(filter_image(img).pixels, expected)
        finally:
            os._exit(0 if same else 1)
    deadline = time.monotonic() + 60.0
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.05)
    if done[0] == 0:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        pytest.fail("the forked child did not finish its banded pass")
    assert os.waitstatus_to_exitcode(done[1]) == 0


def test_import_starts_no_thread_and_a_banded_pass_starts_the_pool():
    # The pool is made at import; its threads start with the first band run.
    code = textwrap.dedent("""
        import threading
        import numpy as np
        import edgekeep
        from edgekeep import kernels
        assert threading.active_count() == 1, threading.enumerate()
        kernels._BAND_SAMPLES, kernels._WORKERS = 4 * 20, 2
        edgekeep.filter_image(edgekeep.ImageBuffer(np.random.default_rng(0).random((16, 16))))
        assert any(t.name.startswith("edgekeep-band") for t in threading.enumerate())
        """)
    src = str(Path(kernels.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr


# --- oracle equivalence ---

def test_engine_matches_oracle_small_images():
    rng = np.random.default_rng(12)
    for trial in range(6):
        h, w = rng.integers(5, 12, size=2)
        channels = 1 if trial % 2 == 0 else 3
        shape = (h, w) if channels == 1 else (h, w, 3)
        img = ImageBuffer(rng.random(shape))
        params = FilterParams(window_radius=2)
        for mode in MODES:
            fast = filter_image(img, params, mode)
            slow = filter_oracle(img, params, mode)
            assert np.abs(fast.pixels - slow.pixels).max() <= 1e-12


def test_engine_matches_oracle_multipass_and_params():
    rng = np.random.default_rng(13)
    img = ImageBuffer(rng.random((9, 9)))
    params = FilterParams(window_radius=1, sigma_d=1.0, sigma_r=0.2,
                          sigma_t=0.5, passes=2)
    for mode in MODES:
        fast = filter_image(img, params, mode)
        slow = filter_oracle(img, params, mode)
        assert np.abs(fast.pixels - slow.pixels).max() <= 1e-12


def test_engine_matches_oracle_at_a_float32_sigma():
    # The params hold the sigma as a float, so the oracle's exponents do not
    # run in float32.
    img = ImageBuffer(np.random.default_rng(16).random((12, 12)))
    params = FilterParams(sigma_r=np.float32(0.1))
    fast = filter_image(img, params)
    assert np.abs(fast.pixels - filter_oracle(img, params).pixels).max() <= 1e-12


def test_engine_matches_oracle_window_larger_than_image():
    rng = np.random.default_rng(15)
    params = FilterParams(window_radius=4)
    for shape in ((1, 1), (1, 5), (3, 2), (2, 7, 3)):
        img = ImageBuffer(rng.random(shape))
        for mode in MODES:
            fast = filter_image(img, params, mode)
            slow = filter_oracle(img, params, mode)
            assert np.abs(fast.pixels - slow.pixels).max() <= 1e-12, (shape, mode)


@pytest.mark.parametrize("shape, mode, params", [
    ((13, 17, 3), FilterMode.BILATERAL, FilterParams(sigma_r=0.01)),
    ((15, 19), FilterMode.MULTILATERAL, FilterParams(sigma_t=0.02)),
    ((15, 19), FilterMode.MULTILATERAL, FilterParams(sigma_t=0.05)),
], ids=["rgb-bilateral-sigma_r-0.01", "multilateral-sigma_t-0.02", "multilateral-sigma_t-0.05"])
def test_engine_matches_oracle_where_exp_underflows(monkeypatch, shape, mode, params):
    # Many weights here lie below e^-700 or underflow to 0 in the oracle.
    img = ImageBuffer(np.random.default_rng(18).random(shape))
    _use_bands(monkeypatch, img, params.window_radius, 3, 2)
    fast = filter_image(img, params, mode)
    slow = filter_oracle(img, params, mode)
    assert np.abs(fast.pixels - slow.pixels).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_engine_matches_oracle_fuzzed(data):
    # Sides down to 1 make radii exceed the image and the padded width tiny.
    h, w = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    img = ImageBuffer(rng.random((h, w) if data.draw(st.booleans()) else (h, w, 3)))
    params = FilterParams(window_radius=data.draw(st.integers(1, 4)),
                          sigma_r=data.draw(st.sampled_from((0.05, 0.1, 1.0))),
                          sigma_t=data.draw(st.sampled_from((0.2, 1.0))),
                          passes=data.draw(st.integers(1, 2)))
    mode = data.draw(st.sampled_from(MODES))
    tex = TextureMap(rng.integers(0, 6, size=(h, w))) if mode is FilterMode.MULTILATERAL else None
    with pytest.MonkeyPatch.context() as mp:
        _use_bands(mp, img, params.window_radius, data.draw(st.integers(1, h)),
                   data.draw(st.sampled_from((1, 2))))
        fast = filter_image(img, params, mode, tex)
    slow = filter_oracle(img, params, mode, tex)
    assert np.abs(fast.pixels - slow.pixels).max() <= 1e-12


def test_multilateral_passes_peak_below_eight_image_arrays(monkeypatch, no_spare_energies):
    # Each pass's texture map peaks at about 6.2 image arrays on top of the
    # pass input; the previous pass's output and labels are let go first.
    monkeypatch.setattr(kernels, "_WORKERS", 1)
    cells = [np.full((64, 64), 0.5), grating(64, "x").pixels, grating(64, "y").pixels,
             step_edge(64).pixels]
    mosaic = np.vstack([np.hstack([cells[(i + j * j) % 4] for j in range(16)])
                        for i in range(16)])
    img = add_noise(ImageBuffer(mosaic), NoiseSpec("salt-pepper", density=0.03, seed=1))
    params = FilterParams(window_radius=2, sigma_r=0.2, passes=2)
    tracemalloc.start()
    try:
        filter_image(img, params, FilterMode.MULTILATERAL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7.75 * img.pixels.nbytes


@pytest.mark.parametrize("shape, params", [
    ((1024, 1024), FilterParams(window_radius=2, sigma_r=0.2)),
    ((512, 512, 3), FilterParams(window_radius=5, sigma_d=3.0, sigma_r=0.1)),
])
def test_filter_pass_peaks_below_two_image_arrays(monkeypatch, shape, params):
    # The output, adopted by the returned buffer, is the one image-sized array
    # a pass makes; each band pads its own rows into buffers of its own.
    monkeypatch.setattr(kernels, "_WORKERS", 1)
    img = ImageBuffer(np.random.default_rng(21).random(shape))
    tracemalloc.start()
    try:
        filter_image(img, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.9 * img.pixels.nbytes


def test_filter_output_is_read_only():
    rng = np.random.default_rng(22)
    for shape in ((6, 7), (6, 7, 3)):
        img = ImageBuffer(rng.random(shape))
        for mode in MODES:
            out = filter_image(img, FilterParams(passes=2), mode)
            assert not out.pixels.flags.writeable
            with pytest.raises(ValueError):
                out.pixels[0, 0] = 0.5


def test_one_row_bands_under_windows_wider_than_the_image(monkeypatch):
    # Every band is one row, and each halo repeats the edge rows and columns
    # for more than the image's side: radius 7 on a side of 3 to 5.
    rng = np.random.default_rng(23)
    params = FilterParams(window_radius=7, sigma_r=0.3, sigma_t=0.5)
    for shape in ((4, 5), (5, 3, 3)):
        img = ImageBuffer(rng.random(shape))
        tex = TextureMap(rng.integers(0, 6, size=shape[:2]))
        with pytest.MonkeyPatch.context() as mp:
            _use_bands(mp, img, 7, None, 1)
            expected = filter_image(img, params, FilterMode.MULTILATERAL, tex).pixels
        _use_bands(monkeypatch, img, 7, 1, 2)
        banded = filter_image(img, params, FilterMode.MULTILATERAL, tex).pixels
        assert np.array_equal(banded, expected), shape
        slow = filter_oracle(img, params, FilterMode.MULTILATERAL, tex).pixels
        assert np.abs(banded - slow).max() <= 1e-12, shape


def test_oracle_constant_identity_within_rounding():
    img = ImageBuffer(np.full((6, 6), 0.47))
    for mode in MODES:
        out = filter_oracle(img, FilterParams(), mode)
        assert np.abs(out.pixels - 0.47).max() <= 1e-14


def test_oracle_huge_sigma_t_is_bilateral():
    rng = np.random.default_rng(14)
    img = ImageBuffer(rng.random((7, 7)))
    multi = filter_oracle(img, FilterParams(sigma_t=1e6), FilterMode.MULTILATERAL)
    bi = filter_oracle(img, FilterParams(sigma_t=1e6), FilterMode.BILATERAL)
    assert np.abs(multi.pixels - bi.pixels).max() <= 1e-6


def test_mode_accepts_strings():
    img = ImageBuffer(np.full((4, 4), 0.5))
    out = filter_image(img, FilterParams(), "average")
    assert np.array_equal(out.pixels, img.pixels)
    with pytest.raises(ValueError):
        filter_image(img, FilterParams(), "sharpen")
