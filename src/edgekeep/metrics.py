"""Evaluation metrics: mean-square SNR and the edge-preserving exponent.

Both metrics work on grayscale values; color inputs are converted first.
Degenerate cases (identical images, constant input) return None instead of
infinities so that reports stay machine-comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .image import ImageBuffer, to_grayscale


class Direction(Enum):
    HORIZONTAL = "horizontal"
    VERTICAL = "vertical"


@dataclass(frozen=True)
class MetricsReport:
    """SNR plus both edge-preserving exponents for one (input, filtered) pair."""

    snr_db: float | None
    ep_horizontal: float | None
    ep_vertical: float | None


def _gray_pair(a: ImageBuffer, b: ImageBuffer) -> tuple[np.ndarray, np.ndarray]:
    """The grayscale pixels of a and b, once their shapes are checked to match."""
    if (a.width, a.height, a.channels) != (b.width, b.height, b.channels):
        raise ValueError(
            f"image shapes differ: {a.height}x{a.width}x{a.channels} vs "
            f"{b.height}x{b.width}x{b.channels}")
    return to_grayscale(a).pixels, to_grayscale(b).pixels


def snr(reference: ImageBuffer, test: ImageBuffer) -> float | None:
    """Decibel ratio of reference power to the squared deviation from it.

    Computed over grayscale values as 10*log10(sum(ref^2) / sum((ref-test)^2)).
    The reference is the image that was fed to the filter. Returns None when
    the images are identical (the ratio is infinite) or the reference is all
    zeros (the ratio is undefined).
    """
    ref, tst = _gray_pair(reference, test)
    noise_power = float(((ref - tst) ** 2).sum())
    if noise_power == 0.0:
        return None
    signal_power = float((ref ** 2).sum())
    if signal_power == 0.0:
        return None
    return 10.0 * math.log10(signal_power / noise_power)


def edge_preserving_exponent(input_img: ImageBuffer, filtered_img: ImageBuffer,
                             direction: Direction | str) -> float | None:
    """Summed adjacent-pixel absolute differences, filtered over input.

    Horizontal pairs step along x, vertical pairs along y; the sums run over
    every adjacent pair in the whole image. 1 means edges fully preserved,
    0 fully flattened. Returns None when the input sum is zero (constant
    input, or a single row/column in the chosen direction).
    """
    inp, fil = _gray_pair(input_img, filtered_img)
    axis = 1 if Direction(direction) is Direction.HORIZONTAL else 0
    denominator = float(np.abs(np.diff(inp, axis=axis)).sum())
    if denominator == 0.0:
        return None
    numerator = float(np.abs(np.diff(fil, axis=axis)).sum())
    return numerator / denominator


def evaluate_pair(input_img: ImageBuffer, filtered_img: ImageBuffer) -> MetricsReport:
    """SNR and both edge-preserving exponents for a filter run."""
    return MetricsReport(
        snr_db=snr(input_img, filtered_img),
        ep_horizontal=edge_preserving_exponent(input_img, filtered_img, Direction.HORIZONTAL),
        ep_vertical=edge_preserving_exponent(input_img, filtered_img, Direction.VERTICAL),
    )
