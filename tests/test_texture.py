"""Steerable decomposition, local energy, and texture classification tests."""

import math
import re
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from edgekeep import kernels, texture
from edgekeep.image import ImageBuffer, check_radius, load_pnm, save_pnm
from edgekeep.kernels import convolve, gaussian_derivative_taps, window_mean
from edgekeep.texture import (
    EXPORT_GRAY_LEVELS,
    ORIENTATIONS_DEG,
    TextureClass,
    TextureMap,
    TextureParams,
    classify,
    compute_texture_map,
    decompose,
    local_energy,
    steerable_radius,
    texture_distance,
    texture_map_image,
)
from edgekeep.noise import NoiseSpec, add_noise
from edgekeep.synth import grating, step_edge
from steering import steer

# Margin excluded when checking grating interiors: steering kernel radius
# plus the energy window radius.
INTERIOR = steerable_radius(1.0) + 2


def interior(labels):
    return labels[INTERIOR:-INTERIOR, INTERIOR:-INTERIOR]


# --- decomposition ---

def test_constant_image_gives_zero_bands():
    bands = steer(decompose(ImageBuffer(np.full((10, 10), 0.5)).pixels))
    assert np.abs(bands).max() <= 1e-10


def test_band0_is_exactly_base_response():
    rng = np.random.default_rng(0)
    img = ImageBuffer(rng.random((9, 9)))
    bands = steer(decompose(img.pixels))
    g, d = gaussian_derivative_taps(1.0, steerable_radius(1.0))
    assert np.array_equal(bands[0], convolve(img.pixels, g, d))
    assert np.array_equal(bands[1], convolve(img.pixels, d, g))


def test_band45_is_steered_combination():
    rng = np.random.default_rng(1)
    bands = steer(decompose(ImageBuffer(rng.random((8, 8))).pixels))
    expected = (bands[0] + bands[1]) / math.sqrt(2.0)
    assert np.abs(bands[2] - expected).max() <= 1e-12
    expected_neg = (bands[0] - bands[1]) / math.sqrt(2.0)
    assert np.abs(bands[3] - expected_neg).max() <= 1e-12


def test_orientation_order_is_fixed():
    assert ORIENTATIONS_DEG == (0.0, 90.0, 45.0, -45.0)


def test_decompose_rejects_rgb():
    with pytest.raises(ValueError):
        decompose(ImageBuffer(np.zeros((4, 4, 3))).pixels)


@pytest.mark.parametrize("sigma_g", [0.0, -1.0, math.inf, math.nan, 1e-300, 1e-160, 1e300])
def test_decompose_rejects_out_of_range_sigma_g(sigma_g):
    img = ImageBuffer(np.full((8, 8), 0.5))
    with pytest.raises(ValueError, match="sigma_g"):
        decompose(img.pixels, sigma_g)
    with pytest.raises(ValueError, match="sigma_g"):
        compute_texture_map(img, TextureParams(sigma_g=sigma_g))


def decompose_oracle(field, sigma_g):
    """Per-pixel sums over the 2-D analytic derivative taps, then steering."""
    r = steerable_radius(sigma_g)
    offsets = np.arange(-r, r + 1)
    u, v = offsets[np.newaxis, :], offsets[:, np.newaxis]
    gx = -u / sigma_g**2 * np.exp(-(u * u + v * v) / (2 * sigma_g**2))
    gy = gx.T
    h, w = field.shape
    base_x, base_y = np.zeros((h, w)), np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            rows = np.clip(y - offsets, 0, h - 1)
            cols = np.clip(x - offsets, 0, w - 1)
            window = field[np.ix_(rows, cols)]  # window[v + r, u + r] = field(x - u, y - v)
            base_x[y, x] = (gx * window).sum()
            base_y[y, x] = (gy * window).sum()
    angles = [math.radians(deg) for deg in ORIENTATIONS_DEG]
    return np.stack([math.cos(a) * base_x + math.sin(a) * base_y for a in angles])


def gray_fields(max_side):
    shapes = st.tuples(st.integers(1, max_side), st.integers(1, max_side))
    return shapes.flatmap(lambda shape: arrays(np.float64, shape, elements=st.floats(0.0, 1.0)))


@settings(max_examples=60, deadline=None)
@given(field=gray_fields(12), sigma_g=st.sampled_from([0.5, 1.0, 1.5]))
def test_decompose_matches_analytic_oracle(field, sigma_g):
    # Sides from 1 to 12 against radii 3 and 6: many windows exceed the image.
    bands = steer(decompose(field, sigma_g))
    assert np.abs(bands - decompose_oracle(field, sigma_g)).max() <= 1e-12


# --- local energy ---

def four_band_energy(bands, window_radius):
    """Window means of each squared band: the direct path local_energy skips."""
    return np.stack([window_mean(band * band, window_radius) for band in bands])


def test_zero_band_zero_energy():
    energy = local_energy(np.zeros((2, 6, 6)), 2)
    assert energy.shape == (4, 6, 6)
    assert np.all(energy == 0.0)


def test_constant_band_energy_is_square():
    basis = np.stack([np.full((6, 6), -0.37), np.full((6, 6), 0.21)])
    energy = local_energy(basis, 1)
    assert np.abs(energy - steer(basis) ** 2).max() <= 1e-12


def test_local_energy_matches_window_loop():
    rng = np.random.default_rng(2)
    raw = rng.standard_normal((2, 7, 7))
    energy = local_energy(raw, 1)
    bands = steer(raw)
    for k in range(4):
        sq = np.pad(bands[k] * bands[k], 1, mode="edge")
        for y in range(7):
            for x in range(7):
                expected = sq[y:y + 3, x:x + 3].mean()
                assert abs(energy[k, y, x] - expected) <= 1e-12


def test_energy_field_rejects_negative():
    bad = np.zeros((4, 3, 3))
    bad[0, 0, 0] = -1.0
    with pytest.raises(ValueError, match="nonnegative"):
        classify(bad, TextureParams(smooth_threshold=0.5))


def test_classify_empty_stack_warns_nothing():
    for shape in ((4, 0, 5), (4, 3, 0), (4, 0, 0)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tex = classify(np.zeros(shape))
        assert tex.shape == shape[1:] and tex.labels.dtype == np.uint8


def test_classify_rejects_other_than_four_energy_planes():
    with pytest.raises(ValueError, match=re.escape("expected (4, h, w) energies, got (3, 4, 4)")):
        classify(np.zeros((3, 4, 4)))


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("bad", [-1e-300, -math.inf, math.nan])
def test_classify_finds_a_bad_energy_in_the_last_band(monkeypatch, bad, workers):
    monkeypatch.setattr(kernels, "_WORKERS", workers)
    for rows_per_band in (1, 2, 3, 7):
        monkeypatch.setattr(kernels, "_BAND_SAMPLES", rows_per_band * 5)
        for plane in range(4):
            energies = np.ones((4, 7, 5))
            energies[plane, -1, -1] = bad
            with pytest.raises(ValueError, match="nonnegative"):
                classify(energies)


# --- structure-tensor energies ---

@settings(max_examples=80, deadline=None)
@given(field=gray_fields(16), sigma_g=st.sampled_from([0.5, 1.0, 1.5]),
       window_radius=st.integers(1, 3))
def test_tensor_energies_match_four_band_energies(field, sigma_g, window_radius):
    basis = decompose(field, sigma_g)
    energy = local_energy(basis, window_radius)
    expected = four_band_energy(steer(basis), window_radius)
    assert energy.shape == expected.shape == (4,) + field.shape
    assert np.all(energy >= 0.0)
    # Every energy is at most E45 + E-45 = E0 + E90, the pixel's tensor trace.
    # Squares below the normal range are subnormal and keep no relative
    # precision, hence the absolute floor at the smallest normal float.
    trace = expected[0] + expected[1]
    assert np.all(np.abs(energy - expected) <= 1e-12 * trace + np.finfo(float).tiny)


def test_diagonal_ramp_energy_is_clamped_at_zero():
    # bx == by away from the border, so E-45 = (A + B)/2 - C is zero in
    # exact arithmetic; unclamped, its rounding goes below zero here.
    y, x = np.mgrid[0:40, 0:40]
    field = (x + y) / 78.0
    bx, by = decompose(field, 1.0)
    energy = local_energy((bx, by), 2)
    assert np.all(energy >= 0.0)
    inner = (slice(INTERIOR, -INTERIOR),) * 2
    assert np.all(energy[3][inner] <= 1e-12 * energy[2][inner])
    a, b, c = (window_mean(p, 2) for p in (bx * bx, by * by, bx * by))
    assert ((a + b) * 0.5 - c).min() < 0.0


# --- classification rules ---

def _single_pixel(e0, e90, e45, e_neg45):
    return np.array([e0, e90, e45, e_neg45], dtype=float).reshape(4, 1, 1)


def test_all_small_is_smooth():
    tex = classify(_single_pixel(0, 0, 0, 0), TextureParams(smooth_threshold=0.5))
    assert tex.labels[0, 0] == TextureClass.SMOOTH


def test_two_big_close_energies_is_complex():
    tex = classify(_single_pixel(10.0, 9.5, 1.0, 1.0),
                   TextureParams(smooth_threshold=0.5, complex_ratio=0.8))
    assert tex.labels[0, 0] == TextureClass.COMPLEX


def test_dominant_orientation_wins():
    tex = classify(_single_pixel(1.0, 10.0, 2.0, 1.5),
                   TextureParams(smooth_threshold=0.5, complex_ratio=0.8))
    assert tex.labels[0, 0] == TextureClass.ORIENT_90


def test_tied_top_energies_fall_to_complex():
    # An exact top-two tie always satisfies second >= ratio * largest for
    # any ratio <= 1, so the complex rule absorbs argmax ties.
    tex = classify(_single_pixel(5.0, 5.0, 5.0, 5.0),
                   TextureParams(smooth_threshold=0.5, complex_ratio=1.0))
    assert tex.labels[0, 0] == TextureClass.COMPLEX
    tex = classify(_single_pixel(5.0, 5.0, 1.0, 1.0),
                   TextureParams(smooth_threshold=0.5, complex_ratio=1.0))
    assert tex.labels[0, 0] == TextureClass.COMPLEX


def test_rule_precedence_smooth_first():
    # Energies equal and nonzero, threshold above them: smooth wins even
    # though the complex test would also match.
    tex = classify(_single_pixel(0.1, 0.1, 0.1, 0.1),
                   TextureParams(smooth_threshold=0.2, complex_ratio=0.8))
    assert tex.labels[0, 0] == TextureClass.SMOOTH


def classify_reference(e, params):
    """The stack/partition/argmax form of the three-rule cascade."""
    threshold = params.smooth_threshold
    if threshold is None:
        threshold = max(0.1 * float(e.mean()), 1e-12)
    largest = e.max(axis=0)
    second = np.partition(e, -2, axis=0)[-2]
    labels = (e.argmax(axis=0) + int(TextureClass.ORIENT_0)).astype(np.uint8)
    labels[second >= params.complex_ratio * largest] = int(TextureClass.COMPLEX)
    labels[(e < threshold).all(axis=0)] = int(TextureClass.SMOOTH)
    return labels


@settings(max_examples=200, deadline=None)
@given(e=st.tuples(st.integers(1, 8), st.integers(1, 8)).flatmap(
           lambda hw: arrays(np.float64, (4,) + hw, elements=st.integers(0, 4).map(float))),
       threshold=st.one_of(st.none(), st.integers(0, 5).map(float)),
       ratio=st.sampled_from([0.25, 0.5, 0.75, 0.8, 1.0]))
def test_classify_matches_argmax_partition_rule(e, threshold, ratio):
    # Small integer energies make exact ties between bands common.
    params = TextureParams(smooth_threshold=threshold, complex_ratio=ratio)
    assert np.array_equal(classify(e, params).labels,
                          classify_reference(e, params))


def test_every_pixel_gets_exactly_one_valid_label():
    rng = np.random.default_rng(3)
    energy = rng.random((4, 12, 11))
    tex = classify(energy, TextureParams(smooth_threshold=0.3))
    assert tex.labels.shape == (12, 11)
    assert set(np.unique(tex.labels)) <= {int(c) for c in TextureClass}


def test_classification_scale_covariance():
    rng = np.random.default_rng(4)
    raw = rng.random((4, 9, 9))
    base = classify(raw, TextureParams(smooth_threshold=0.25))
    for k in (1e-3, 7.0, 1e4):
        scaled = classify(raw * k,
                          TextureParams(smooth_threshold=0.25 * k))
        assert np.array_equal(base.labels, scaled.labels)


def test_constant_image_is_all_smooth():
    img = ImageBuffer(np.full((16, 16), 0.6))
    for threshold in (1e-9, 1e-3, 0.5, None):  # None = adaptive default
        tex = compute_texture_map(img, TextureParams(smooth_threshold=threshold))
        assert np.all(tex.labels == TextureClass.SMOOTH)


def test_gratings_classify_by_variation_axis():
    tex_x = compute_texture_map(grating(48, "x"))
    assert np.all(interior(tex_x.labels) == TextureClass.ORIENT_0)
    tex_y = compute_texture_map(grating(48, "y"))
    assert np.all(interior(tex_y.labels) == TextureClass.ORIENT_90)


def test_rot90_swaps_axis_labels():
    img = grating(48, "x")
    rotated = ImageBuffer(np.rot90(img.pixels).copy())
    lab = interior(compute_texture_map(img).labels)
    lab_rot = interior(compute_texture_map(rotated).labels)
    assert np.all(lab == TextureClass.ORIENT_0)
    assert np.all(lab_rot == TextureClass.ORIENT_90)


#: Label permutation a horizontal or vertical flip applies: 45 <-> -45.
_FLIP_LABELS = np.array([TextureClass.SMOOTH, TextureClass.COMPLEX, TextureClass.ORIENT_0,
                         TextureClass.ORIENT_90, TextureClass.ORIENT_NEG_45,
                         TextureClass.ORIENT_45], dtype=np.uint8)


@settings(max_examples=60, deadline=None)
@given(field=gray_fields(16), axis=st.sampled_from([0, 1]),
       sigma_g=st.sampled_from([0.5, 1.0, 1.5]), threshold=st.floats(0.0, 0.2))
def test_flips_are_exact_with_diagonals_swapped(field, axis, sigma_g, threshold):
    params = TextureParams(smooth_threshold=threshold)
    energy = local_energy(decompose(field, sigma_g), 2)
    flipped = local_energy(decompose(np.flip(field, axis), sigma_g), 2)
    assert np.array_equal(flipped, np.flip(energy[[0, 1, 3, 2]], axis + 1))
    labels = classify(energy, params).labels
    assert np.array_equal(classify(flipped, params).labels, np.flip(_FLIP_LABELS[labels], axis))


def test_texture_params_validation():
    with pytest.raises(ValueError):
        TextureParams(energy_window_radius=0)
    with pytest.raises(ValueError):
        TextureParams(smooth_threshold=-1.0)
    with pytest.raises(ValueError, match="smooth_threshold"):
        TextureParams(smooth_threshold=math.nan)
    with pytest.raises(ValueError):
        TextureParams(complex_ratio=0.0)
    with pytest.raises(ValueError):
        TextureParams(complex_ratio=1.5)


def test_texture_params_of_other_real_types_classify_as_their_floats():
    img = ImageBuffer(np.random.default_rng(26).random((12, 12)))
    for params, as_float in ((TextureParams(complex_ratio=Fraction(4, 5)), TextureParams()),
                             (TextureParams(smooth_threshold=Fraction(1, 100), sigma_g=1),
                              TextureParams(smooth_threshold=0.01))):
        assert np.array_equal(compute_texture_map(img, params).labels,
                              compute_texture_map(img, as_float).labels)


@pytest.mark.parametrize("field, value", [
    ("energy_window_radius", 65), ("sigma_g", 21.5), ("sigma_g", 1e5), ("sigma_g", 1e150),
])  # sigma_g 21.5 sets radius 66
def test_texture_radii_are_bounded_by_image_and_floor(field, value):
    img = ImageBuffer(np.random.default_rng(25).random((8, 8)))
    message = re.escape(f"{field} {value} sets a radius above 64")
    with pytest.raises(ValueError, match=f"^{message}"):
        compute_texture_map(img, TextureParams(**{field: value}))
    # The largest radii the bound allows still run.
    for ok in (TextureParams(energy_window_radius=64), TextureParams(sigma_g=21.0)):
        assert compute_texture_map(img, ok).shape == (8, 8)


# --- row bands ---

def _texture_stage(field, sigma_g, window_radius):
    """Every banded texture output: both kernels, the energies and the labels."""
    params = TextureParams(sigma_g=sigma_g, energy_window_radius=window_radius)
    g, d = gaussian_derivative_taps(sigma_g, steerable_radius(sigma_g))
    basis = decompose(field, sigma_g)
    energies = local_energy(basis, window_radius)
    into = np.full(field.shape, np.nan)
    mean = window_mean(field, window_radius, out=into)
    assert mean is into
    return [convolve(field, d, g), mean, *basis, energies,
            classify(energies, params).labels,
            compute_texture_map(ImageBuffer(field), params).labels]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_texture_stage_is_bit_identical_to_one_band(data):
    h, w = data.draw(st.integers(1, 60)), data.draw(st.integers(1, 60))
    field = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).random((h, w))
    # Steerable radii up to 15 and energy radii up to 30 run past one-row bands
    # and past the field itself.
    stage = (field, data.draw(st.floats(0.5, 5.0)), data.draw(st.integers(1, 30)))
    try:
        for r in (steerable_radius(stage[1]), stage[2]):
            check_radius("radius", r, field.shape)
    except ValueError:
        reject()
    budget = data.draw(st.sampled_from([1, 50, 400]) | st.integers(1, 4 * 60 * 60))
    workers = data.draw(st.integers(1, 3))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_BAND_SAMPLES", 1 << 62)
        mp.setattr(kernels, "_WORKERS", 1)
        expected = _texture_stage(*stage)
        mp.setattr(kernels, "_BAND_SAMPLES", budget)  # 1: one row per band
        mp.setattr(kernels, "_WORKERS", workers)
        for got, want in zip(_texture_stage(*stage), expected, strict=True):
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_texture_map_peaks_below_six_and_a_half_image_arrays(monkeypatch, no_spare_energies):
    # bx, by and the four energy planes are image-sized; the products, the
    # padded rows and the half trace are band-sized.
    monkeypatch.setattr(kernels, "_WORKERS", 1)
    cells = [np.full((64, 64), 0.5), grating(64, "x").pixels, grating(64, "y").pixels,
             step_edge(64).pixels]
    mosaic = np.vstack([np.hstack([cells[(i + j * j) % 4] for j in range(16)])
                        for i in range(16)])
    img = add_noise(ImageBuffer(mosaic), NoiseSpec("salt-pepper", density=0.03, seed=1))
    tracemalloc.start()
    try:
        compute_texture_map(img)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.5 * img.pixels.nbytes


# --- texture distance and export ---

def test_texture_distance_is_indicator():
    assert texture_distance(TextureClass.ORIENT_0, TextureClass.ORIENT_0) == 0.0
    assert texture_distance(TextureClass.ORIENT_0, TextureClass.SMOOTH) == 1.0


def test_texture_factor_closed_form():
    d = texture_distance(TextureClass.ORIENT_0, TextureClass.SMOOTH)
    assert math.exp(-0.5 * d * d / 1.0**2) == pytest.approx(0.6065306597126334)


@pytest.mark.parametrize("bad", [-1, 300, 2.7])
def test_texture_map_rejects_labels_outside_the_classes(bad):
    labels = np.zeros((2, 3), dtype=np.asarray(bad).dtype)
    labels[1, 2] = bad
    with pytest.raises(ValueError, match="labels"):
        TextureMap(labels)


def test_texture_map_keeps_valid_labels_as_read_only_uint8():
    for given_labels in ([[0, 1, 2], [3, 4, 5]], [[5.0, 0.0]], np.zeros((0, 4))):
        tex = TextureMap(given_labels)
        assert tex.labels.dtype == np.uint8 and not tex.labels.flags.writeable
        assert np.array_equal(tex.labels, given_labels)


def test_texture_map_rejects_labels_that_are_not_2d():
    with pytest.raises(ValueError, match=re.escape("labels must be 2-D, got shape (2, 2, 1)")):
        TextureMap(np.zeros((2, 2, 1), dtype=np.uint8))


def test_grating_rejects_an_unknown_axis():
    with pytest.raises(ValueError, match="axis must be 'x' or 'y', got 'z'"):
        grating(8, "z")


def test_export_gray_levels():
    labels = np.array([[0, 1, 2], [3, 4, 5]], dtype=np.uint8)
    img = texture_map_image(TextureMap(labels=labels))
    data = save_pnm(img)
    assert load_pnm(data).pixels.shape == (2, 3)
    assert list(data[-6:]) == list(EXPORT_GRAY_LEVELS)


# --- the spare energy block ---

def _images(count: int, shape=(48, 40)) -> list[ImageBuffer]:
    rng = np.random.default_rng(31)
    return [ImageBuffer(rng.random(shape)) for _ in range(count)]


def test_a_second_map_of_one_shape_reuses_the_energy_block(monkeypatch, no_spare_energies):
    blocks = []
    real = texture.local_energy
    monkeypatch.setattr(texture, "local_energy",
                        lambda *args: blocks.append(real(*args)) or blocks[-1])
    a, b = _images(2)
    expected = compute_texture_map(b).labels
    compute_texture_map(a)
    assert np.array_equal(compute_texture_map(b).labels, expected)
    assert np.shares_memory(blocks[1], blocks[2])
    compute_texture_map(ImageBuffer(a.pixels.T))  # another shape: a block of its own
    assert not np.shares_memory(blocks[3], blocks[2])


def test_energies_a_caller_holds_are_never_reused(no_spare_energies):
    a, b, c = _images(3)
    compute_texture_map(a)  # leaves its block for the next of this shape
    energies = local_energy(decompose(a.pixels))
    held = energies.copy()
    for img in (b, c, b):
        compute_texture_map(img)
    assert np.array_equal(energies, held)


def test_concurrent_texture_maps_get_the_serial_labels(no_spare_energies):
    images = _images(4)
    expected = [compute_texture_map(img).labels for img in images]
    got = {}

    def run(index: int) -> None:
        got[index] = [compute_texture_map(images[index % 4]).labels for _ in range(12)]

    threads = [threading.Thread(target=run, args=(index,)) for index in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads between almost every bytecode
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(got) == list(range(8))
    for index, labels in got.items():
        assert all(np.array_equal(each, expected[index % 4]) for each in labels)
