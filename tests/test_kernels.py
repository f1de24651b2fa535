"""1-D tap generation and separable convolution tests, pinned against brute-force oracles."""

import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgekeep import kernels
from edgekeep.image import ImageBuffer, sample_at
from edgekeep.kernels import _halo, convolve, gaussian_derivative_taps, window_mean
from edgekeep.texture import classify, decompose, local_energy


def pad_field(field, radius):
    """np.pad of the (row, column) axes, repeating the edge: the reference for
    band halos."""
    width = [(radius, radius)] * 2 + [(0, 0)] * (field.ndim - 2)
    return np.pad(field, width, mode="edge")


def convolve_oracle(img: ImageBuffer, taps: np.ndarray) -> np.ndarray:
    """Direct quadratic-loop transcription of the convolution contract.

    taps[v + r, u + r] weights offset (u, v), u along x and v along y.
    """
    r = taps.shape[0] // 2
    out = np.zeros((img.height, img.width))
    for y in range(img.height):
        for x in range(img.width):
            total = 0.0
            for v in range(-r, r + 1):
                for u in range(-r, r + 1):
                    total += taps[v + r, u + r] * sample_at(img.pixels, (x - u, y - v))
            out[y, x] = total
    return out


def normalized_gaussian(sigma, radius):
    g, _ = gaussian_derivative_taps(sigma, radius)
    return g / g.sum()


def delta(radius, u=0):
    taps = np.zeros(2 * radius + 1)
    taps[radius + u] = 1.0
    return taps


# --- tap generation ---

def test_gaussian_sums_to_one():
    for sigma, radius in [(0.5, 1), (1.0, 3), (2.5, 5)]:
        g = normalized_gaussian(sigma, radius)
        assert abs(np.outer(g, g).sum() - 1.0) <= 1e-12


def test_gaussian_symmetry_and_peak():
    g, _ = gaussian_derivative_taps(1.0, 3)
    assert np.array_equal(g, g[::-1])
    assert g[3] == g.max() == 1.0


def test_gaussian_rejects_bad_args():
    # 1e-200 squares to 0 (taps divided by it), inf gives all-zero derivative taps.
    for sigma, radius in [(0.0, 3), (-1.0, 3), (float("nan"), 3), (1.0, 0),
                          (1e-200, 3), (float("inf"), 3)]:
        with pytest.raises(ValueError):
            gaussian_derivative_taps(sigma, radius)


def test_far_taps_of_a_tiny_sigma_are_exactly_zero():
    # u^2 / (2 sigma^2) overflows to inf at the far taps; exp(-inf) is 0, warning-free.
    sigma, radius = 1e-150, 10**5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g, d = gaussian_derivative_taps(sigma, radius)
    assert np.all(np.isfinite(g)) and np.all(np.isfinite(d))
    assert g[radius] == 1.0
    assert not np.any(np.delete(g, radius)) and not np.any(d)


def test_derivative_taps_of_the_smallest_sigma_are_finite():
    # At sigma 1e-154, -u / sigma^2 overflows for |u| >= 2, where g is 0: each
    # such d is g's zero with the sign of -u, as at any larger tiny sigma.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g, d = gaussian_derivative_taps(1e-154, 3)
    assert np.array_equal(g, delta(3))
    assert not np.any(d)
    assert np.signbit(d).tolist() == np.signbit(gaussian_derivative_taps(1e-150, 3)[1]).tolist()
    assert np.signbit(d).tolist() == [False] * 3 + [True] * 4


def test_derivative_kernels_zero_sum_and_transpose():
    for sigma, radius in [(1.0, 3), (1.5, 5)]:
        g, d = gaussian_derivative_taps(sigma, radius)
        assert np.array_equal(d, -d[::-1])
        assert d[radius] == 0.0
        assert abs(np.outer(g, d).sum()) <= 1e-12
        # The y kernel outer(d, g) is exactly the transpose of the x kernel.
        assert np.array_equal(np.outer(d, g), np.outer(g, d).T)


def test_derivative_kernel_samples_analytic_form():
    for sigma, radius in [(0.5, 3), (1.0, 3), (1.5, 6)]:
        g, d = gaussian_derivative_taps(sigma, radius)
        gx = np.outer(g, d)
        for v in range(-radius, radius + 1):
            for u in range(-radius, radius + 1):
                expected = -u / sigma**2 * np.exp(-(u * u + v * v) / (2 * sigma**2))
                assert gx[v + radius, u + radius] == pytest.approx(expected, abs=1e-15)


def test_derivative_response_to_constant_is_zero():
    # Odd taps enter as P(x - k) - P(x + k), which is exactly 0 on a constant.
    g, d = gaussian_derivative_taps(1.0, 3)
    img = ImageBuffer(np.full((8, 9), 0.7))
    assert np.all(convolve(img.pixels, g, d) == 0.0)
    assert np.all(convolve(img.pixels, d, g) == 0.0)


def test_kernel_validates_shape():
    taps = np.ones(3)
    field = np.zeros((4, 4))
    for col, row in [(np.ones(4), np.ones(4)), (np.ones((3, 3)), taps),
                     (taps, np.ones(5))]:
        with pytest.raises(ValueError):
            convolve(field, col, row)


# --- convolution ---

def test_identity_kernel_is_exact_identity():
    img = ImageBuffer(np.random.default_rng(0).random((6, 7)))
    out = convolve(img.pixels, delta(1), delta(1))
    assert np.array_equal(out, img.pixels)


def test_single_tap_shifts_plus_one_in_x():
    # Row tap at u = 1: content moves +1 along x.
    img = ImageBuffer(np.random.default_rng(1).random((5, 5)))
    out = convolve(img.pixels, delta(1), delta(1, u=1))
    assert np.array_equal(out[:, 1:], img.pixels[:, :-1])
    assert np.array_equal(out[:, 0], img.pixels[:, 0])  # replicated edge


def test_constant_image_with_normalized_gaussian():
    img = ImageBuffer(np.full((7, 7), 0.42))
    g = normalized_gaussian(1.0, 3)
    out = convolve(img.pixels, g, g)
    assert np.abs(out - 0.42).max() <= 1e-10


def test_convolve_matches_brute_force_oracle():
    rng = np.random.default_rng(5)
    img = ImageBuffer(rng.random((5, 5)))
    g, d = gaussian_derivative_taps(1.0, 2)
    pairs = [(normalized_gaussian(1.0, 3),) * 2, (g, d), (d, g),
             (rng.standard_normal(5), rng.standard_normal(5))]  # no mirror symmetry
    for col, row in pairs:
        fast = convolve(img.pixels, col, row)
        slow = convolve_oracle(img, np.outer(col, row))
        assert np.abs(fast - slow).max() <= 1e-12


def test_convolve_and_window_mean_span_row_blocks():
    # Wide enough that each pass runs in more than one row band.
    field = np.random.default_rng(9).random((70, 1100))
    g, d = gaussian_derivative_taps(1.0, 3)
    ones = np.ones(5)
    for col, row in [(g, d), (d, g)]:
        taps = np.outer(col, row)
        padded = pad_field(field, 3)
        expected = sum(taps[v + 3, u + 3] * padded[3 - v:73 - v, 3 - u:1103 - u]
                       for v in range(-3, 4) for u in range(-3, 4))
        assert np.abs(convolve(field, col, row) - expected).max() <= 1e-12
    padded = pad_field(field, 2)
    expected = sum(padded[j:j + 70, i:i + 1100] for j in range(5) for i in range(5)) / 25
    assert np.abs(window_mean(field, 2) - expected).max() <= 1e-12


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_band_halo_is_the_band_of_the_padded_field(data):
    # Shapes from 1x1 up, radii above the image side, and every band split:
    # top (y0 = 0), interior, bottom (y1 = h) and the single band (0, h).
    # The filter's halos too: RGB samples as (3, rows, w) channel planes, and
    # uint8 labels.
    h, w = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))
    r = data.draw(st.integers(0, 30))
    y0 = data.draw(st.integers(0, h - 1))
    y1 = data.draw(st.integers(y0 + 1, h))
    field = np.arange(h * w, dtype=np.float64).reshape(h, w)
    rgb = np.arange(h * w * 3, dtype=np.float64).reshape(h, w, 3)
    labels = (field % 6).astype(np.uint8)
    expected = pad_field(field, r)[y0:y1 + 2 * r]
    assert np.array_equal(_halo(field, y0, y1, r), expected)
    planes = _halo(rgb, y0, y1, r)
    expected = np.moveaxis(pad_field(rgb, r), -1, 0)[:, y0:y1 + 2 * r]
    assert np.array_equal(planes, expected)
    band = _halo(labels, y0, y1, r)
    assert band.dtype == np.uint8
    assert np.array_equal(band, pad_field(labels, r)[y0:y1 + 2 * r])


def _factors(data):
    """Two seeded (h, w) factors, sides 1-40, and a radius from 1 to past the height."""
    h, w = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 40))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    a, b = rng.standard_normal((2, h, w))
    return a, b, data.draw(st.integers(1, h + 5))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_halo_of_two_factors_is_the_halo_of_their_product(data):
    a, b, r = _factors(data)
    y0 = data.draw(st.integers(0, a.shape[0] - 1))
    y1 = data.draw(st.integers(y0 + 1, a.shape[0]))
    assert np.array_equal(_halo(a, y0, y1, r, b), _halo(a * b, y0, y1, r))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_window_mean_of_two_factors_is_the_window_mean_of_their_product(data):
    a, b, r = _factors(data)
    h, w = a.shape
    expected = window_mean(a * b, r)  # one band
    with pytest.MonkeyPatch.context() as mp:
        rows = data.draw(st.integers(1, h))  # rows per band: 1 up to one band
        mp.setattr(kernels, "_BAND_SAMPLES", rows * (w + 2 * r))
        mp.setattr(kernels, "_WORKERS", data.draw(st.sampled_from((1, 2))))
        assert np.array_equal(window_mean(a, r, times=b), expected)


@pytest.mark.parametrize("shape", [(1, 5), (4, 1), (5, 4), (4, 5, 1), ()])
def test_window_mean_rejects_a_factor_of_another_shape(shape):
    # (1, 5), (4, 1) and () would broadcast against the (4, 5) field.
    with pytest.raises(ValueError, match=re.escape(f"{shape}, not the field's (4, 5)")):
        window_mean(np.ones((4, 5)), 1, times=np.ones(shape))


def test_convolve_linearity():
    rng = np.random.default_rng(6)
    a, b = 0.6, -1.7
    i = rng.random((6, 6))
    j = rng.random((6, 6))
    g, d = gaussian_derivative_taps(1.0, 3)
    combined = convolve(a * i + b * j, g, d)
    separate = a * convolve(i, g, d) + b * convolve(j, g, d)
    assert np.abs(combined - separate).max() <= 1e-10


def test_steering_endpoints_are_exact():
    rng = np.random.default_rng(7)
    img = rng.random((8, 8))
    g, d = gaussian_derivative_taps(1.0, 3)
    base_x = convolve(img, g, d)
    base_y = convolve(img, d, g)
    assert np.array_equal(1.0 * base_x + 0.0 * base_y, base_x)
    assert np.array_equal(0.0 * base_x + 1.0 * base_y, base_y)


def test_window_mean_matches_loop():
    rng = np.random.default_rng(8)
    field = rng.standard_normal((7, 6))
    r = 2
    padded = np.pad(field, r, mode="edge")
    expected = np.zeros_like(field)
    for y in range(field.shape[0]):
        for x in range(field.shape[1]):
            expected[y, x] = padded[y:y + 2 * r + 1, x:x + 2 * r + 1].mean()
    got = window_mean(field, r)
    assert np.abs(got - expected).max() <= 1e-12


@pytest.mark.parametrize("shape", [(5,), (3, 3, 3)], ids=["1d", "3d"])
@pytest.mark.parametrize("call", [
    lambda f: decompose(f),
    lambda f: convolve(f, *gaussian_derivative_taps(1.0, 1)),
    lambda f: window_mean(f, 1),
    lambda f: local_energy((f, f)),
], ids=["decompose", "convolve", "window_mean", "local_energy"])
def test_fields_that_are_not_2d_raise_value_error(call, shape):
    # An RGB image's (h, w, 3) samples are one such field.
    with pytest.raises(ValueError, match=re.escape(str(shape))):
        call(np.zeros(shape))


@pytest.mark.parametrize("call", [
    lambda f: decompose(f, 22.0),  # steerable radius 66
    lambda f: convolve(f, np.ones(131), np.ones(131)),
    lambda f: window_mean(f, 65),
    lambda f: local_energy((f, f), 65),
], ids=["decompose", "convolve", "window_mean", "local_energy"])
def test_radii_above_the_image_bound_raise_before_any_halo(call):
    # The bound of a 1 x 8 field is max(1, 8, 64) = 64; a band halo at radius
    # 65 would take (1 + 130) x (8 + 130) samples, 145 KB.
    field = np.zeros((1, 8))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="sets a radius above 64"):
            call(field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 1024


def test_local_energy_names_its_own_window_radius():
    basis = np.zeros((8, 8))
    with pytest.raises(ValueError, match=r"^window_radius 100 sets a radius above 64"):
        local_energy((basis, basis), 100)


@pytest.mark.parametrize("shape", [(0, 5), (4, 0)])
def test_empty_fields_give_empty_results(shape):
    field = np.zeros(shape)
    g, d = gaussian_derivative_taps(1.0, 3)
    assert convolve(field, g, d).shape == shape
    assert [band.shape for band in decompose(field)] == [shape, shape]
    assert window_mean(field, 2).shape == shape
    energies = local_energy((field, field))
    assert energies.shape == (4,) + shape
    assert classify(energies).shape == shape


# --- band runs ---

def test_a_band_may_start_band_runs():
    # Both threads of a two-worker run start a band run from inside a band, so
    # each inner run's helper queues behind a busy pool thread. A run that
    # waited for its unstarted helper would hang; the child keeps a hung pool
    # thread out of this process, which it would keep from exiting.
    code = textwrap.dedent("""
        import threading
        from edgekeep import kernels
        kernels._WORKERS = 2
        kernels._new_pool()  # one band thread, whatever the core count
        both_in = threading.Barrier(2, timeout=30)
        inner = []

        def band(y0, y1):
            both_in.wait()
            kernels._run_bands(2, kernels._BAND_SAMPLES, lambda *rows: inner.append(rows))

        kernels._run_bands(2, kernels._BAND_SAMPLES, band)
        print(sorted(inner))
        """)
    src = str(Path(kernels.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[(0, 1), (0, 1), (1, 2), (1, 2)]\n"
