"""Seeded input generators for the edgekeep benchmark workloads.

Each generator is a pure function of (seed, index): the same pair always gives
byte-identical inputs and another seed gives other inputs. Inputs are built
with numpy alone, never with edgekeep, so the program under test receives
nothing but the generated data.
"""

from __future__ import annotations

import numpy as np

# One random stream per generator, so workloads never share draws.
_GRAY_STREAM, _RGB_STREAM, _SWEEP_STREAM = 1, 2, 3

#: Cell patterns of the mosaics: a flat patch, a grating varying along each
#: of the four orientations the classifier distinguishes, and a step edge.
GRATING_ANGLES_DEG = (0.0, 90.0, 45.0, -45.0)


def _rng(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream, index]))


def _cell(rng: np.random.Generator, size: int) -> np.ndarray:
    kind = int(rng.integers(2 + len(GRATING_ANGLES_DEG)))
    if kind == 0:
        return np.full((size, size), rng.uniform(0.15, 0.85))
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    if kind <= len(GRATING_ANGLES_DEG):
        theta = np.deg2rad(GRATING_ANGLES_DEG[kind - 1])
        along = xx * np.cos(theta) + yy * np.sin(theta)
        period = rng.uniform(6.0, 12.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        return (rng.uniform(0.3, 0.7)
                + rng.uniform(0.1, 0.3) * np.sin(2.0 * np.pi * along / period + phase))
    split = int(rng.integers(size // 4, 3 * size // 4))
    low, high = sorted(rng.uniform(0.1, 0.9, size=2))
    coord = xx if rng.integers(2) == 0 else yy
    return np.where(coord < split, low, high)


def mosaic(rng: np.random.Generator, size: int, cell: int) -> np.ndarray:
    """A size x size gray field tiled with random cell x cell patterns, in [0, 1]."""
    field = np.empty((size, size))
    for top in range(0, size, cell):
        for left in range(0, size, cell):
            field[top:top + cell, left:left + cell] = _cell(rng, cell)
    return np.clip(field, 0.0, 1.0)


def gray_mosaic_pgm(seed: int, index: int, size: int = 1024, cell: int = 64,
                    density: float = 0.03) -> bytes:
    """Binary PGM (P5, maxval 255) of a gray mosaic with salt-and-pepper noise."""
    rng = _rng(seed, _GRAY_STREAM, index)
    field = mosaic(rng, size, cell)
    corrupt = rng.random((size, size)) < density
    field[corrupt] = (rng.random(int(corrupt.sum())) < 0.5).astype(np.float64)
    samples = np.round(field * 255.0).astype(np.uint8)
    return b"P5\n%d %d\n255\n" % (size, size) + samples.tobytes()


def rgb_mosaic(seed: int, index: int, size: int = 512, cell: int = 32,
               std: float = 0.05) -> np.ndarray:
    """(size, size, 3) float64 RGB mosaic with additive Gaussian noise, in [0, 1].

    Each cell mixes its pattern with a random colour, so neighbouring cells
    differ in hue as well as in structure.
    """
    rng = _rng(seed, _RGB_STREAM, index)
    pattern = mosaic(rng, size, cell)
    cells = size // cell
    colours = rng.uniform(0.0, 1.0, size=(cells, cells, 3))
    tint = np.repeat(np.repeat(colours, cell, axis=0), cell, axis=1)
    clean = 0.6 * pattern[..., np.newaxis] + 0.4 * tint
    return np.clip(clean + rng.normal(0.0, std, size=clean.shape), 0.0, 1.0)


def sweep_base_seed(seed: int, index: int) -> int:
    """Base seed handed to run_bench; it seeds every noise draw of one sweep."""
    return int(_rng(seed, _SWEEP_STREAM, index).integers(0, 2 ** 63))
