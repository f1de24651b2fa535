"""Windowed filter engines: bilateral, texture-augmented multilateral, box average.

The optimized engine walks window offsets with whole-image array slices; the
oracle variant is a literal per-pixel transcription kept for equivalence
testing. Every weight factor is symmetric in the pixel pair, so the engine
computes one weight per unordered pair, w(x, x + d) == w(x + d, x), and
applies it to all channels and to both ends of the pair. Each window is
summed in mirror quads, {+d, -d} pairs whose total no horizontal or vertical
flip changes, so flipped inputs produce exactly flipped outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .image import BoundaryPolicy, ImageBuffer, fold_index, pad_field, sample_at
from .texture import (
    DEFAULT_SIGMA_G,
    TextureMap,
    TextureParams,
    compute_texture_map,
    texture_distance,
)


class FilterMode(Enum):
    BILATERAL = "bilateral"
    MULTILATERAL = "multilateral"
    AVERAGE = "average"


@dataclass(frozen=True)
class FilterParams:
    """Window radius, the three weight scales, and the pass count.

    sigma_d is in pixels, sigma_r in intensity units (images live in [0, 1]),
    sigma_t is dimensionless and only read in multilateral mode.
    """

    window_radius: int = 2
    sigma_d: float = 2.0
    sigma_r: float = 0.1
    sigma_t: float = 1.0
    passes: int = 1

    def __post_init__(self):
        if self.window_radius < 1:
            raise ValueError(f"window_radius must be >= 1, got {self.window_radius}")
        for name in ("sigma_d", "sigma_r", "sigma_t"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ValueError(f"{name} must be positive, got {value}")
            # The weights divide by sigma**2: a finite sigma whose square
            # underflows to 0 or overflows has no usable inverse. inf is the
            # documented limit (that factor becomes 1) and stays accepted.
            square = value * value
            if math.isfinite(value) and not (square > 0.0 and 0.0 < 0.5 / square < math.inf):
                raise ValueError(f"{name} is out of range, got {value}: its square and "
                                 f"the square's inverse must be finite and nonzero")
        if self.passes < 1:
            raise ValueError(f"passes must be >= 1, got {self.passes}")


def weight_bilateral(x, xi, img: ImageBuffer, params: FilterParams,
                     policy: BoundaryPolicy = BoundaryPolicy.REPLICATE) -> float:
    """Spatial-closeness times range-similarity weight for the pair (x, xi).

    Spatial distance is Euclidean over coordinates; range distance is
    Euclidean over intensity (scalar for gray, 3-vector for RGB). Samples at
    out-of-image coordinates fold per `policy`.
    """
    dx = float(xi[0] - x[0])
    dy = float(xi[1] - x[1])
    spatial_sq = dx * dx + dy * dy
    a = sample_at(img, x, policy)
    b = sample_at(img, xi, policy)
    if img.channels == 1:
        range_sq = (b - a) * (b - a)
    else:
        d = b - a
        range_sq = float(d @ d)
    return (math.exp(-0.5 * spatial_sq / (params.sigma_d ** 2))
            * math.exp(-0.5 * range_sq / (params.sigma_r ** 2)))


def _label_at(tex: TextureMap, xy, policy: BoundaryPolicy) -> int:
    h, w = tex.shape
    col = fold_index(int(xy[0]), w, policy)
    row = fold_index(int(xy[1]), h, policy)
    return int(tex.labels[row, col])


def weight_multilateral(x, xi, img: ImageBuffer, tex: TextureMap, params: FilterParams,
                        policy: BoundaryPolicy = BoundaryPolicy.REPLICATE) -> float:
    """Bilateral weight times the texture-similarity factor."""
    d = texture_distance(_label_at(tex, x, policy), _label_at(tex, xi, policy))
    texture_factor = math.exp(-0.5 * (d * d) / (params.sigma_t ** 2))
    return weight_bilateral(x, xi, img, params, policy) * texture_factor


def _resolve_texture(current: ImageBuffer, pass_index: int, supplied: TextureMap | None,
                     texture_params: TextureParams | None, sigma_g: float,
                     policy: BoundaryPolicy) -> TextureMap:
    # A caller-supplied map covers the first pass; later passes reclassify
    # the pass input.
    if pass_index == 0 and supplied is not None:
        tex = supplied
    else:
        tex = compute_texture_map(current, texture_params, sigma_g, policy)
    if tex.shape != (current.height, current.width):
        raise ValueError(
            f"texture map shape {tex.shape} does not match image "
            f"{(current.height, current.width)}")
    return tex


def _filter_pass(work: np.ndarray, mode: FilterMode, params: FilterParams,
                 policy: BoundaryPolicy, labels: np.ndarray | None) -> np.ndarray:
    h, w, _ = work.shape
    m = params.window_radius
    # Channel planes first, so per-channel arithmetic runs over contiguous
    # rows and the shared weight broadcasts over the leading axis.
    padded = np.ascontiguousarray(np.moveaxis(pad_field(work, m, policy), -1, 0))
    weighted = mode is not FilterMode.AVERAGE
    neg_inv_2sr2 = -0.5 / (params.sigma_r ** 2)
    inv_2sd2 = 0.5 / (params.sigma_d ** 2)
    if labels is not None:
        padded_labels = pad_field(labels, m, policy)
        # Indicator distance is 0/1, so the factor takes only two values.
        cross_factor = math.exp(-0.5 / (params.sigma_t ** 2))

    def pair_sums(di: int, dj: int):
        """Numerator and denominator sums of offsets +d and -d, d = (di, dj) forward.

        The pair (q, q + d) is weighted once for every centre q that a pixel
        x reads: q = x for offset +d and q = x - d for offset -d. Both read
        the same weight, and the weighted diff of -d is exactly the negation.
        """
        c0 = min(0, -di)
        rows, cols = slice(m - dj, m + h), slice(m + c0, m + max(w, w - di))
        rows_d = slice(rows.start + dj, rows.stop + dj)
        cols_d = slice(cols.start + di, cols.stop + di)
        fwd = (..., slice(dj, dj + h), slice(-c0, -c0 + w))
        bwd = (..., slice(0, h), slice(-c0 - di, -c0 - di + w))
        diff = padded[:, rows_d, cols_d] - padded[:, rows, cols]
        if not weighted:
            return diff[fwd] - diff[bwd], 2.0  # two unit weights
        weight = np.square(diff[0])
        for plane in diff[1:]:
            weight += np.square(plane)
        np.multiply(weight, neg_inv_2sr2, out=weight)
        weight -= (di * di + dj * dj) * inv_2sd2
        np.exp(weight, out=weight)
        if labels is not None:
            differs = padded_labels[rows_d, cols_d] != padded_labels[rows, cols]
            np.multiply(weight, cross_factor, out=weight, where=differs)
        diff *= weight
        return diff[fwd] - diff[bwd], weight[fwd] + weight[bwd]

    # Contributions accumulate relative to the center sample, so constant
    # regions pass through bit-exact (every diff is exactly zero); the center
    # itself has weight exactly 1. Offsets are summed in mirror sets: each
    # axis pair +/-(k, 0), +/-(0, k) alone, and each diagonal pair
    # +/-(di, dj) with its mirror +/-(-di, dj). A horizontal or vertical flip
    # only swaps the operands of additions within a set, and IEEE addition
    # commutes, so flipped inputs give exactly flipped outputs.
    numerator = np.zeros((padded.shape[0], h, w))
    denominator = np.ones((h, w)) if weighted else 1.0
    for k in range(1, m + 1):
        for di, dj in ((k, 0), (0, k)):
            num, den = pair_sums(di, dj)
            numerator += num
            denominator += den
    for dj in range(1, m + 1):
        for di in range(1, m + 1):
            num, den = pair_sums(di, dj)
            num_b, den_b = pair_sums(-di, dj)
            num += num_b
            den += den_b
            numerator += num
            denominator += den
    center = padded[:, m:m + h, m:m + w]
    return np.moveaxis(np.clip(center + numerator / denominator, 0.0, 1.0), 0, -1)


def filter_image(img: ImageBuffer, params: FilterParams | None = None,
                 mode: FilterMode | str = FilterMode.BILATERAL,
                 policy: BoundaryPolicy = BoundaryPolicy.REPLICATE,
                 texture: TextureMap | None = None, *,
                 texture_params: TextureParams | None = None,
                 sigma_g: float = DEFAULT_SIGMA_G) -> ImageBuffer:
    """Run the selected filter for params.passes passes.

    Multilateral mode classifies texture from the grayscale of each pass's
    input; a caller-supplied map is honored for the first pass only. Average
    mode ignores all sigmas and returns the plain window mean. Output samples
    are clamped to [0, 1] after each pass (a no-op in exact arithmetic, since
    each output pixel is a convex combination of window samples).
    """
    params = params or FilterParams()
    mode = FilterMode(mode)

    current = img
    for pass_index in range(params.passes):
        labels = None
        if mode is FilterMode.MULTILATERAL:
            tex = _resolve_texture(current, pass_index, texture, texture_params,
                                   sigma_g, policy)
            labels = tex.labels
        gray = current.channels == 1
        work = current.pixels[:, :, np.newaxis] if gray else current.pixels
        out = _filter_pass(work, mode, params, policy, labels)
        current = ImageBuffer(out[:, :, 0] if gray else out)
    return current


def filter_oracle(img: ImageBuffer, params: FilterParams | None = None,
                  mode: FilterMode | str = FilterMode.BILATERAL,
                  policy: BoundaryPolicy = BoundaryPolicy.REPLICATE,
                  texture: TextureMap | None = None, *,
                  texture_params: TextureParams | None = None,
                  sigma_g: float = DEFAULT_SIGMA_G) -> ImageBuffer:
    """Literal nested-loop transcription of the filter; test oracle only.

    Walks every pixel and window member, evaluating the per-pair weight
    functions directly. No vectorization, no shared subexpressions beyond
    the weight functions themselves.
    """
    params = params or FilterParams()
    mode = FilterMode(mode)
    m = params.window_radius

    current = img
    for pass_index in range(params.passes):
        tex = None
        if mode is FilterMode.MULTILATERAL:
            tex = _resolve_texture(current, pass_index, texture, texture_params,
                                   sigma_g, policy)
        h, w, c = current.height, current.width, current.channels
        out = np.zeros((h, w) if c == 1 else (h, w, 3))
        for y in range(h):
            for x in range(w):
                accum = [0.0] * c
                total = 0.0
                for j in range(-m, m + 1):
                    for i in range(-m, m + 1):
                        xi = (x + i, y + j)
                        if mode is FilterMode.AVERAGE:
                            weight = 1.0
                        elif mode is FilterMode.BILATERAL:
                            weight = weight_bilateral((x, y), xi, current, params, policy)
                        else:
                            weight = weight_multilateral((x, y), xi, current, tex,
                                                         params, policy)
                        value = sample_at(current, xi, policy)
                        if c == 1:
                            accum[0] += value * weight
                        else:
                            for ch in range(c):
                                accum[ch] += float(value[ch]) * weight
                        total += weight
                if c == 1:
                    out[y, x] = accum[0] / total
                else:
                    for ch in range(c):
                        out[y, x, ch] = accum[ch] / total
        current = ImageBuffer(np.clip(out, 0.0, 1.0))
    return current
