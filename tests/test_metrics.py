"""SNR and edge-preserving-exponent tests against closed forms and loop oracles."""

import math

import numpy as np
import pytest

from edgekeep.filters import FilterMode, FilterParams, filter_image
from edgekeep.image import ImageBuffer
from edgekeep.metrics import (
    Direction,
    edge_preserving_exponent,
    evaluate_pair,
    snr,
)
from edgekeep.synth import step_edge


def ep_oracle(inp: ImageBuffer, fil: ImageBuffer, horizontal: bool) -> float:
    """Direct pair-loop transcription of the exponent definition."""
    a, b = inp.pixels, fil.pixels
    h, w = a.shape
    num = den = 0.0
    if horizontal:
        for y in range(h):
            for x in range(w - 1):
                num += abs(b[y, x + 1] - b[y, x])
                den += abs(a[y, x + 1] - a[y, x])
    else:
        for y in range(h - 1):
            for x in range(w):
                num += abs(b[y + 1, x] - b[y, x])
                den += abs(a[y + 1, x] - a[y, x])
    return num / den


# --- SNR ---

def test_snr_identical_images_distinguished():
    img = ImageBuffer(np.random.default_rng(0).random((5, 5)))
    assert snr(img, img) is None


def test_snr_single_pixel_closed_form():
    n = 8 * 8
    for delta in (0.01, 0.05, 0.2):
        ref = np.full((8, 8), 0.5)
        test = ref.copy()
        test[3, 4] += delta
        expected = 10.0 * math.log10(n * 0.25 / (delta * delta))
        got = snr(ImageBuffer(ref), ImageBuffer(test))
        assert got == pytest.approx(expected, abs=1e-9)


def test_snr_strictly_decreases_with_perturbation():
    values = []
    for delta in (0.01, 0.02, 0.05, 0.1, 0.3):
        ref = np.full((8, 8), 0.5)
        test = ref.copy()
        test[0, 0] += delta
        values.append(snr(ImageBuffer(ref), ImageBuffer(test)))
    assert all(values[i] > values[i + 1] for i in range(len(values) - 1))


def test_snr_converts_color_to_gray():
    rng = np.random.default_rng(1)
    ref = ImageBuffer(rng.random((6, 6, 3)))
    test = ImageBuffer(rng.random((6, 6, 3)))
    from edgekeep.image import to_grayscale
    expected = snr(to_grayscale(ref), to_grayscale(test))
    assert snr(ref, test) == pytest.approx(expected, rel=1e-12)


def test_snr_band_for_impulse_denoise_pipeline():
    # Hermetic stand-in for the photographic pipeline check: salt-pepper at
    # density 0.05, two-pass bilateral, SNR against the noisy input lands in
    # the low-to-mid-teens dB band.
    from edgekeep.bench import BENCH_FILTER_PARAMS
    from edgekeep.noise import NoiseSpec, add_noise
    from edgekeep.synth import two_texture

    clean = two_texture(128)
    noisy = add_noise(clean, NoiseSpec("salt-pepper", density=0.05, seed=42))
    out = filter_image(noisy, BENCH_FILTER_PARAMS, FilterMode.BILATERAL)
    value = snr(noisy, out)
    assert 10.0 <= value <= 18.0


def test_snr_shape_mismatch_raises():
    with pytest.raises(ValueError):
        snr(ImageBuffer(np.zeros((3, 3))), ImageBuffer(np.zeros((4, 3))))
    with pytest.raises(ValueError):
        snr(ImageBuffer(np.zeros((3, 3))), ImageBuffer(np.zeros((3, 3, 3))))


def test_snr_all_zero_reference_distinguished():
    ref = ImageBuffer(np.zeros((4, 4)))
    test = ImageBuffer(np.full((4, 4), 0.1))
    assert snr(ref, test) is None


# --- edge-preserving exponent ---

def test_ep_identity_is_exactly_one():
    img = ImageBuffer(np.random.default_rng(2).random((7, 7)))
    assert edge_preserving_exponent(img, img, Direction.HORIZONTAL) == 1.0
    assert edge_preserving_exponent(img, img, "vertical") == 1.0


def test_ep_constant_output_is_zero():
    rng = np.random.default_rng(3)
    img = ImageBuffer(rng.random((6, 6)))
    flat = ImageBuffer(np.full((6, 6), 0.5))
    assert edge_preserving_exponent(img, flat, "horizontal") == 0.0
    assert edge_preserving_exponent(img, flat, "vertical") == 0.0


def test_ep_constant_input_distinguished():
    flat = ImageBuffer(np.full((6, 6), 0.5))
    out = ImageBuffer(np.random.default_rng(4).random((6, 6)))
    assert edge_preserving_exponent(flat, out, "horizontal") is None


def test_ep_matches_pair_loop_oracle():
    rng = np.random.default_rng(5)
    inp = ImageBuffer(rng.random((6, 6)))
    fil = ImageBuffer(rng.random((6, 6)))
    got_h = edge_preserving_exponent(inp, fil, "horizontal")
    got_v = edge_preserving_exponent(inp, fil, "vertical")
    assert abs(got_h - ep_oracle(inp, fil, True)) <= 1e-12
    assert abs(got_v - ep_oracle(inp, fil, False)) <= 1e-12


def test_ep_invariant_to_added_constant_and_scale():
    rng = np.random.default_rng(6)
    inp = 0.2 + 0.3 * rng.random((6, 6))
    fil = 0.2 + 0.3 * rng.random((6, 6))
    base_h = edge_preserving_exponent(ImageBuffer(inp), ImageBuffer(fil), "horizontal")
    shifted = edge_preserving_exponent(
        ImageBuffer(inp + 0.15), ImageBuffer(fil + 0.15), "horizontal")
    assert shifted == pytest.approx(base_h, rel=1e-12)
    scaled = edge_preserving_exponent(
        ImageBuffer(inp * 2.0), ImageBuffer(fil * 2.0), "horizontal")
    assert scaled == pytest.approx(base_h, rel=1e-12)


def test_smoothing_never_raises_ep_on_step_image():
    img = step_edge(16)
    for mode in (FilterMode.AVERAGE, FilterMode.BILATERAL):
        out = filter_image(img, FilterParams(), mode)
        for direction in ("horizontal", "vertical"):
            value = edge_preserving_exponent(img, out, direction)
            if value is not None:  # vertical diffs of a vertical step are zero
                assert value <= 1.0


# --- ratio and report ---

def test_evaluate_pair_fields():
    rng = np.random.default_rng(8)
    inp = ImageBuffer(rng.random((6, 6)))
    out = ImageBuffer(rng.random((6, 6)))
    report = evaluate_pair(inp, out)
    assert report.snr_db == snr(inp, out)
    assert report.ep_horizontal == edge_preserving_exponent(inp, out, "horizontal")
    assert report.ep_vertical == edge_preserving_exponent(inp, out, "vertical")


def test_evaluate_pair_converts_each_rgb_image_once(monkeypatch):
    # Every metric of the report reads one grayscale pair, and the report is
    # the one the three separate metric calls give, bit for bit.
    import edgekeep.metrics as metrics
    from edgekeep.image import to_grayscale

    rng = np.random.default_rng(9)
    inp = ImageBuffer(rng.random((12, 10, 3)))
    out = ImageBuffer(rng.random((12, 10, 3)))
    expected = (snr(inp, out), edge_preserving_exponent(inp, out, "horizontal"),
                edge_preserving_exponent(inp, out, "vertical"))
    calls = []

    def counting(img):
        calls.append(img)
        return to_grayscale(img)

    monkeypatch.setattr(metrics, "to_grayscale", counting)
    report = evaluate_pair(inp, out)
    assert len(calls) == 2 and calls[0] is inp and calls[1] is out
    assert (report.snr_db, report.ep_horizontal, report.ep_vertical) == expected


def test_bench_rows_carry_their_own_cells_metrics():
    # Rebuilds each comparison cell and one sigma_t cell of a small bench run;
    # every row's (snr_db, ep_h, ep_v) must be evaluate_pair's (snr_db,
    # ep_horizontal, ep_vertical) for its own cell's filter output.
    from dataclasses import replace

    from edgekeep.bench import BENCH_FILTER_PARAMS, cell_seed, run_bench
    from edgekeep.noise import NOISE_KINDS, NoiseSpec, add_noise
    from edgekeep.synth import two_texture

    def metrics_of(report):
        return report.snr_db, report.ep_horizontal, report.ep_vertical

    img = step_edge(16)
    report = run_bench(images=[("edge", img)], base_seed=5)
    rows = {(row.noise, row.filter): (row.snr_db, row.ep_h, row.ep_v)
            for row in report.comparison}
    assert len(rows) == len(report.comparison) == 4
    for kind in NOISE_KINDS:
        noisy = add_noise(img, NoiseSpec(kind, seed=cell_seed(5, f"comparison/edge/{kind}")))
        for mode in (FilterMode.BILATERAL, FilterMode.MULTILATERAL):
            out = filter_image(noisy, BENCH_FILTER_PARAMS, mode)
            assert rows[kind, mode.value] == metrics_of(evaluate_pair(noisy, out))

    noisy = add_noise(two_texture(128), NoiseSpec(
        "salt-pepper", density=0.05, seed=cell_seed(5, "sigma-t")))
    out = filter_image(noisy, replace(BENCH_FILTER_PARAMS, sigma_t=10.0), FilterMode.MULTILATERAL)
    (row,) = [row for row in report.sigma_t_sweep if row.param == "10"]
    assert (row.snr_db, row.ep_h, row.ep_v) == metrics_of(evaluate_pair(noisy, out))
