"""Synthetic test images used by the benchmark harness and the test suite."""

from __future__ import annotations

import numpy as np

from .image import ImageBuffer


def step_edge(size: int = 64) -> ImageBuffer:
    """Vertical step: left half at 0.25, right half at 0.75."""
    pixels = np.full((size, size), 0.25)
    pixels[:, size // 2:] = 0.75
    return ImageBuffer(pixels)


def grating(size: int = 64, axis: str = "x", amplitude: float = 0.4) -> ImageBuffer:
    """Sinusoidal grating of period 8 about 0.5, varying along the given axis.

    axis="x" gives vertical stripes (intensity varies along columns),
    axis="y" horizontal stripes. 0.5 +/- amplitude must stay inside [0, 1].
    """
    if axis not in ("x", "y"):
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    coords = np.arange(size, dtype=np.float64)
    wave = 0.5 + amplitude * np.sin(2.0 * np.pi * coords / 8.0)
    pixels = np.tile(wave, (size, 1))
    if axis == "y":
        pixels = pixels.T.copy()
    return ImageBuffer(pixels)


def two_texture(size: int = 128) -> ImageBuffer:
    """Two equal-mean gratings side by side: x-varying left, y-varying right.

    The seam has no intensity step, only a texture-orientation change, and
    the contrast (amplitude 0.1) is low: similar colors with different
    textures is the case the texture-similarity weight is designed for.
    """
    half = size // 2
    left = grating(size, "x", 0.1).pixels[:, :half]
    right = grating(size, "y", 0.1).pixels[:, half:]
    return ImageBuffer(np.hstack([left, right]))
