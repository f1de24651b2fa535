"""1-D tap generation and separable convolution tests, pinned against brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgekeep.image import BoundaryPolicy, ImageBuffer, pad_field, sample_at
from edgekeep.kernels import _halo, convolve, gaussian_derivative_taps, window_mean

REPLICATE = BoundaryPolicy.REPLICATE
MIRROR = BoundaryPolicy.MIRROR


def convolve_oracle(img: ImageBuffer, taps: np.ndarray, policy) -> np.ndarray:
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
                    total += taps[v + r, u + r] * sample_at(img, (x - u, y - v), policy)
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
    for sigma, radius in [(0.0, 3), (-1.0, 3), (float("nan"), 3), (1.0, 0)]:
        with pytest.raises(ValueError):
            gaussian_derivative_taps(sigma, radius)


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
    assert np.all(convolve(img, g, d) == 0.0)
    assert np.all(convolve(img, d, g) == 0.0)


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
    out = convolve(img, delta(1), delta(1))
    assert np.array_equal(out, img.pixels)


def test_single_tap_shifts_plus_one_in_x():
    # Row tap at u = 1: content moves +1 along x.
    img = ImageBuffer(np.random.default_rng(1).random((5, 5)))
    out = convolve(img, delta(1), delta(1, u=1), REPLICATE)
    assert np.array_equal(out[:, 1:], img.pixels[:, :-1])
    assert np.array_equal(out[:, 0], img.pixels[:, 0])  # replicated edge


def test_constant_image_with_normalized_gaussian():
    img = ImageBuffer(np.full((7, 7), 0.42))
    g = normalized_gaussian(1.0, 3)
    out = convolve(img, g, g)
    assert np.abs(out - 0.42).max() <= 1e-10


def test_convolve_matches_brute_force_oracle():
    rng = np.random.default_rng(5)
    img = ImageBuffer(rng.random((5, 5)))
    g, d = gaussian_derivative_taps(1.0, 2)
    pairs = [(normalized_gaussian(1.0, 3),) * 2, (g, d), (d, g),
             (rng.standard_normal(5), rng.standard_normal(5))]  # no mirror symmetry
    for policy in (REPLICATE, MIRROR):
        for col, row in pairs:
            fast = convolve(img, col, row, policy)
            slow = convolve_oracle(img, np.outer(col, row), policy)
            assert np.abs(fast - slow).max() <= 1e-12


def test_convolve_and_window_mean_span_row_blocks():
    # Wide enough that each pass runs in more than one row band.
    field = np.random.default_rng(9).random((70, 1100))
    g, d = gaussian_derivative_taps(1.0, 3)
    ones = np.ones(5)
    for policy in (REPLICATE, MIRROR):
        for col, row in [(g, d), (d, g)]:
            taps = np.outer(col, row)
            padded = pad_field(field, 3, policy)
            expected = sum(taps[v + 3, u + 3] * padded[3 - v:73 - v, 3 - u:1103 - u]
                           for v in range(-3, 4) for u in range(-3, 4))
            assert np.abs(convolve(field, col, row, policy) - expected).max() <= 1e-12
        padded = pad_field(field, 2, policy)
        expected = sum(padded[j:j + 70, i:i + 1100] for j in range(5) for i in range(5)) / 25
        assert np.abs(window_mean(field, 2, policy) - expected).max() <= 1e-12


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_band_halo_is_the_band_of_the_padded_field(data):
    # Shapes from 1x1 up, radii above the image side, and every band split:
    # top (y0 = 0), interior, bottom (y1 = h) and the single band (0, h).
    h, w = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))
    r = data.draw(st.integers(0, 30))
    y0 = data.draw(st.integers(0, h - 1))
    y1 = data.draw(st.integers(y0 + 1, h))
    field = np.arange(h * w, dtype=np.float64).reshape(h, w)
    for policy in (REPLICATE, MIRROR):
        expected = pad_field(field, r, policy)[y0:y1 + 2 * r]
        assert np.array_equal(_halo(field, y0, y1, r, policy), expected)


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
    got = window_mean(field, r, REPLICATE)
    assert np.abs(got - expected).max() <= 1e-12


def test_convolve_rejects_rgb():
    g, _ = gaussian_derivative_taps(1.0, 1)
    with pytest.raises(ValueError):
        convolve(ImageBuffer(np.zeros((3, 3, 3))), g, g)
