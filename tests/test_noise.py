"""Seeded noise injection tests: determinism, identity cases, statistics."""

import numpy as np
import pytest

from edgekeep.bench import cell_seed, run_bench
from edgekeep.image import ImageBuffer
from edgekeep.noise import NoiseSpec, add_noise, salt_pepper_fields


def mid_image(h=32, w=32):
    # Values strictly inside (0, 1) so every corruption changes the pixel.
    rng = np.random.default_rng(99)
    return ImageBuffer(0.1 + 0.8 * rng.random((h, w)))


def test_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        NoiseSpec(kind="poisson")
    with pytest.raises(ValueError, match="density"):
        NoiseSpec(kind="salt-pepper", density=1.5)
    with pytest.raises(ValueError, match="std"):
        NoiseSpec(kind="gaussian", std=-0.1)
    with pytest.raises(ValueError, match="std"):
        NoiseSpec(kind="gaussian", std=float("nan"))
    with pytest.raises(ValueError, match="std must be finite"):
        NoiseSpec(kind="gaussian", std=float("inf"))


def test_zero_density_is_exact_identity():
    img = mid_image()
    out = add_noise(img, NoiseSpec("salt-pepper", density=0.0, seed=1))
    assert np.array_equal(out.pixels, img.pixels)


def test_zero_std_is_exact_identity():
    img = mid_image()
    out = add_noise(img, NoiseSpec("gaussian", std=0.0, seed=1))
    assert np.array_equal(out.pixels, img.pixels)


def test_full_density_saturates():
    img = mid_image()
    out = add_noise(img, NoiseSpec("salt-pepper", density=1.0, seed=2))
    assert np.all((out.pixels == 0.0) | (out.pixels == 1.0))


def test_seeded_corruption_fraction():
    img = mid_image(256, 256)
    out = add_noise(img, NoiseSpec("salt-pepper", density=0.05, seed=7))
    fraction = (out.pixels != img.pixels).mean()
    assert abs(fraction - 0.05) <= 0.01


def test_same_seed_bit_identical_different_seed_not():
    img = mid_image()
    spec = NoiseSpec("salt-pepper", density=0.2, seed=123)
    a = add_noise(img, spec)
    b = add_noise(img, spec)
    assert np.array_equal(a.pixels, b.pixels)
    c = add_noise(img, NoiseSpec("salt-pepper", density=0.2, seed=124))
    assert not np.array_equal(a.pixels, c.pixels)
    g1 = add_noise(img, NoiseSpec("gaussian", std=0.1, seed=5))
    g2 = add_noise(img, NoiseSpec("gaussian", std=0.1, seed=5))
    assert np.array_equal(g1.pixels, g2.pixels)


def test_uncorrupted_pixels_untouched():
    img = mid_image()
    spec = NoiseSpec("salt-pepper", density=0.3, seed=11)
    out = add_noise(img, spec)
    mask, values = salt_pepper_fields(spec, img.height, img.width)
    assert np.array_equal(out.pixels[~mask], img.pixels[~mask])
    assert np.array_equal(out.pixels[mask], values[mask])


def test_salt_pepper_corrupts_whole_rgb_pixels():
    rng = np.random.default_rng(4)
    img = ImageBuffer(0.1 + 0.8 * rng.random((16, 16, 3)))
    spec = NoiseSpec("salt-pepper", density=0.3, seed=8)
    out = add_noise(img, spec)
    mask, _ = salt_pepper_fields(spec, 16, 16)
    corrupted = out.pixels[mask]
    assert np.all((corrupted == 0.0) | (corrupted == 1.0))
    # all channels of a corrupted pixel share one value
    assert np.all(corrupted[:, 0] == corrupted[:, 1])
    assert np.all(corrupted[:, 0] == corrupted[:, 2])
    assert np.array_equal(out.pixels[~mask], img.pixels[~mask])


def test_gaussian_mean_shift_is_small():
    n = 64 * 64
    img = ImageBuffer(np.full((64, 64), 0.5))
    std = 0.05
    out = add_noise(img, NoiseSpec("gaussian", std=std, seed=21))
    shift = abs(out.pixels.mean() - 0.5)
    assert shift <= 3.0 * std / np.sqrt(n)


def test_gaussian_output_stays_clamped():
    img = ImageBuffer(np.full((32, 32), 0.95))
    out = add_noise(img, NoiseSpec("gaussian", std=0.3, seed=3))
    assert out.pixels.max() <= 1.0 and out.pixels.min() >= 0.0


def test_negative_seed_is_deterministic():
    img = mid_image()
    a = add_noise(img, NoiseSpec("salt-pepper", density=0.3, seed=-7))
    b = add_noise(img, NoiseSpec("salt-pepper", density=0.3, seed=-7))
    assert np.array_equal(a.pixels, b.pixels)


@pytest.mark.parametrize("seed, as_int", [
    (np.int64(3), 3), (np.uint64(3), 3), (np.int8(-7), -7), (2**70, 2**70),
    (1.5, None), (3.0, None), (np.float64(3.0), None), ("3", None), (None, None)])
def test_seeds_must_be_integers(seed, as_int):
    if as_int is None:
        with pytest.raises(ValueError, match="^seed must be an integer"):
            NoiseSpec("gaussian", seed=seed)
        with pytest.raises(ValueError, match="^base_seed must be an integer"):
            cell_seed(seed, "x")
        with pytest.raises(ValueError, match="^base_seed must be an integer"):
            run_bench(base_seed=seed)
        return
    spec = NoiseSpec("gaussian", seed=seed)
    assert type(spec.seed) is int and spec.seed == as_int
    for kind in ("gaussian", "salt-pepper"):
        assert np.array_equal(add_noise(mid_image(), NoiseSpec(kind, seed=seed)).pixels,
                              add_noise(mid_image(), NoiseSpec(kind, seed=as_int)).pixels)
    assert cell_seed(seed, "x") == cell_seed(as_int, "x")
