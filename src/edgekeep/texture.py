"""Steerable orientation energies and texture labeling.

A one-level steerable pair (Gaussian x/y derivatives bx, by) is steered to
four fixed orientations. A band steered to angle theta is c*bx + s*by with
(c, s) = (cos theta, sin theta), so its windowed mean energy is
c^2 A + 2cs C + s^2 B, a quadratic form in the windowed gradient structure
tensor A = W[bx^2], B = W[by^2], C = W[bx*by] (Freeman & Adelson 1991). The
four energies are E0 = A, E90 = B and E+/-45 = (A + B)/2 +/- C: three window
means instead of four, and no band is ever built. decompose returns the pair
and local_energy its four energies. A pairwise tournament and a three-rule
cascade turn the energies into one of six texture classes. The resulting label
map feeds the multilateral filter's texture-similarity weight. TextureParams
holds every setting of these stages, the base scale sigma_g of bx and by
included: compute_texture_map(img, TextureParams(sigma_g=1.5)).

The kernels, tensor products and combination, and the label tournament run in
row bands on the filter's band threads (see kernels); the public functions
themselves run on the calling thread. classify takes the adaptive threshold
over the whole array, so it does not depend on the bands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .image import (ImageBuffer, check_count, check_radius, check_real, check_sigma,
                    to_grayscale)
from .kernels import _run_bands, convolve, gaussian_derivative_taps, window_mean

#: Sub-band orientations (degrees), in the fixed order of the energy planes.
ORIENTATIONS_DEG = (0.0, 90.0, 45.0, -45.0)

#: Default scale of the Gaussian the derivative kernels are sampled from.
DEFAULT_SIGMA_G = 1.0

#: Fraction of the image-mean energy used by the adaptive smooth threshold.
ADAPTIVE_THRESHOLD_FRACTION = 0.1

# Absolute floor for the adaptive threshold, far below any real energy. A
# constant image's energies are exactly 0 (mirror-paired taps); at a 0
# threshold none is below it, and every pixel would fall to complex, not smooth.
_ADAPTIVE_THRESHOLD_FLOOR = 1e-12


class TextureClass(IntEnum):
    """Per-pixel texture label; values index the export gray levels."""

    SMOOTH = 0
    COMPLEX = 1
    ORIENT_0 = 2
    ORIENT_90 = 3
    ORIENT_45 = 4
    ORIENT_NEG_45 = 5


#: Gray level written for each class when a texture map is exported as PGM.
EXPORT_GRAY_LEVELS = (0, 51, 102, 153, 204, 255)


def steerable_radius(sigma_g: float) -> int:
    """Radius of the derivative taps: 3 * ceil(sigma_g)."""
    return 3 * int(math.ceil(sigma_g))


@dataclass(frozen=True)
class TextureParams:
    """Every texture setting: the steerable base scale sigma_g (finite, since
    the derivative taps are sampled at it), the energy-window radius, and the
    smooth/complex rule thresholds.

    smooth_threshold None selects the adaptive default:
    ADAPTIVE_THRESHOLD_FRACTION times the mean of all orientation energies
    over the image. complex_ratio is the "close to each other" cutoff: the
    second-largest energy must reach that fraction of the largest.
    """

    sigma_g: float = DEFAULT_SIGMA_G
    energy_window_radius: int = 2
    smooth_threshold: float | None = None
    complex_ratio: float = 0.8

    def __post_init__(self):
        object.__setattr__(self, "energy_window_radius",
                           check_count("energy_window_radius", self.energy_window_radius))
        if self.smooth_threshold is not None:
            threshold = check_real("smooth_threshold", self.smooth_threshold)
            if not threshold >= 0.0:
                raise ValueError(f"smooth_threshold must be >= 0, got {threshold}")
            object.__setattr__(self, "smooth_threshold", threshold)
        ratio = check_real("complex_ratio", self.complex_ratio)
        if not 0.0 < ratio <= 1.0:
            raise ValueError(f"complex_ratio must lie in (0, 1], got {ratio}")
        object.__setattr__(self, "complex_ratio", ratio)
        object.__setattr__(self, "sigma_g", check_sigma("sigma_g", self.sigma_g, finite=True))


@dataclass(frozen=True, eq=False)
class TextureMap:
    """Per-pixel class labels, read-only uint8; each one a TextureClass value."""

    labels: np.ndarray

    def __post_init__(self):
        given = np.asarray(self.labels)
        if given.ndim != 2:
            raise ValueError(f"labels must be 2-D, got shape {given.shape}")
        with np.errstate(invalid="ignore"):  # casting NaN or inf warns
            labels = given.astype(np.uint8)
        if labels.size and not (labels.max() < len(TextureClass)
                                and np.array_equal(labels, given)):
            raise ValueError("labels must be integers from 0 to 5, the TextureClass values")
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)

    @property
    def shape(self) -> tuple[int, int]:
        return self.labels.shape


def decompose(field: np.ndarray,
              sigma_g: float = DEFAULT_SIGMA_G) -> tuple[np.ndarray, np.ndarray]:
    """The steerable basis pair (bx, by) of an (h, w) array, such as a gray
    image's pixels: bx = d(u) g(v) and by = g(u) d(v), separable convolutions
    over taps of radius steerable_radius(sigma_g), each a row pass and a
    column pass over mirror-paired taps. The band at angle theta is
    cos(theta) * bx + sin(theta) * by. A radius above the image bound
    (image.check_radius) raises a ValueError before the taps are built."""
    sigma_g = check_sigma("sigma_g", sigma_g, finite=True)
    check_radius("sigma_g", sigma_g, np.shape(field), steerable_radius(sigma_g))
    g, d = gaussian_derivative_taps(sigma_g, steerable_radius(sigma_g))
    return convolve(field, g, d), convolve(field, d, g)


def local_energy(basis, window_radius: int = TextureParams.energy_window_radius) -> np.ndarray:
    """Windowed mean energies of the four steered bands, (4, h, w), all >= 0.

    Equal, up to rounding, to the window means of the squared bands
    cos(theta) * bx + sin(theta) * by, but computed from the structure
    tensor: E0 = A, E90 = B, E+/-45 = (A + B)/2 +/- C. E+/-45 are clamped at
    0, where a cancellation can round them below it. A horizontal or vertical
    flip negates bx or by exactly, so C changes sign exactly and the flipped
    energies are exact, with E45 and E-45 swapped. The only image-sized arrays
    are the four energy planes: A, B and C (in the E-45 plane) are windowed
    from their two factors band by band, edge rows and columns repeated.
    """
    window_radius = check_count("window_radius", window_radius)
    bx, by = basis
    if bx.ndim != 2 or by.shape != bx.shape:
        raise ValueError(f"expected two (h, w) fields, got shapes {bx.shape} and {by.shape}")
    check_radius("window_radius", window_radius, bx.shape)
    energies = np.empty((len(ORIENTATIONS_DEG),) + bx.shape)
    for a, b, plane in ((bx, bx, 0), (by, by, 1), (bx, by, 3)):
        window_mean(a, window_radius, times=b, out=energies[plane])

    def combine(y0: int, y1: int) -> None:
        e = energies[:, y0:y1]
        half_trace = np.add(e[0], e[1])
        half_trace *= 0.5
        np.add(half_trace, e[3], out=e[2])
        np.subtract(half_trace, e[3], out=e[3])
        np.maximum(e[2:], 0.0, out=e[2:])

    _run_bands(*bx.shape, combine)
    return energies


def classify(energies: np.ndarray, params: TextureParams | None = None) -> TextureMap:
    """Label each pixel smooth, complex, or by its dominant orientation.

    Rules apply in precedence order: all four energies below the smooth
    threshold -> smooth; second-largest energy >= complex_ratio * largest ->
    complex; otherwise the orientation of the largest energy, ties resolved
    by the fixed orientation order. A pairwise tournament of bands (0, 1)
    and (2, 3) gives the largest, the second largest and the first-wins
    orientation.
    """
    params = params or TextureParams()
    e = np.asarray(energies, dtype=np.float64)
    if e.ndim != 3 or e.shape[0] != len(ORIENTATIONS_DEG):
        raise ValueError(f"expected ({len(ORIENTATIONS_DEG)}, h, w) energies, got {e.shape}")
    labels = np.empty(e.shape[1:], dtype=np.uint8)
    if not labels.size:
        return TextureMap(labels)
    threshold = params.smooth_threshold
    if threshold is None:
        threshold = max(ADAPTIVE_THRESHOLD_FRACTION * float(e.mean()),
                        _ADAPTIVE_THRESHOLD_FLOOR)

    def tournament(y0: int, y1: int) -> None:
        e0, e1, e2, e3 = e[:, y0:y1]
        band_labels = labels[y0:y1]
        hi01, lo01 = np.maximum(e0, e1), np.minimum(e0, e1)
        hi23, lo23 = np.maximum(e2, e3), np.minimum(e2, e3)
        # Every sample reaches lo01 or lo23, NaN included, and min is exact
        # in any order: this is the whole-array check.
        if not np.minimum(lo01, lo23).min() >= 0.0:
            raise ValueError("energies must be nonnegative")
        later = np.greater(hi23, hi01)
        largest = np.maximum(hi01, hi23)
        second = np.maximum(np.minimum(hi01, hi23, out=hi01),
                            np.maximum(lo01, lo23, out=lo01), out=hi01)
        # The first-wins argmax, 0-3: a later band wins only when larger.
        np.greater(e1, e0, out=band_labels)
        np.copyto(band_labels, np.greater(e3, e2).view(np.uint8) + 2, where=later)
        band_labels += int(TextureClass.ORIENT_0)
        np.copyto(band_labels, int(TextureClass.COMPLEX),
                  where=second >= np.multiply(largest, params.complex_ratio, out=lo23))
        np.copyto(band_labels, int(TextureClass.SMOOTH), where=largest < threshold)

    _run_bands(*labels.shape, tournament)  # each op spans one (rows, w) plane
    return TextureMap(labels)


def compute_texture_map(img: ImageBuffer, params: TextureParams | None = None) -> TextureMap:
    """Steerable basis at params.sigma_g, its four orientation energies, then
    the three-rule classification.

    Color images are grayscale-converted first; texture is independent of
    color. An energy window radius above the image bound (image.check_radius)
    raises a ValueError before any of that; decompose checks the steerable
    radius.
    """
    params = params or TextureParams()
    check_radius("energy_window_radius", params.energy_window_radius, img.pixels.shape)
    energies = local_energy(decompose(to_grayscale(img).pixels, params.sigma_g),
                            params.energy_window_radius)
    return classify(energies, params)


def texture_distance(a, b) -> float:
    """Indicator metric between texture labels: 0 when equal, else 1."""
    return 0.0 if int(a) == int(b) else 1.0


def texture_map_image(tex: TextureMap) -> ImageBuffer:
    """Gray image with the six labels at their fixed export gray levels."""
    levels = np.asarray(EXPORT_GRAY_LEVELS, dtype=np.float64) / 255.0
    return ImageBuffer._adopt(levels[tex.labels])
