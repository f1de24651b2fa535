"""Windowed filter engines: bilateral, texture-augmented multilateral, box average.

The optimized engine cuts each pass into row bands of about
kernels._BAND_SAMPLES padded channel-samples and runs them on the package's
band threads (kernels._run_bands); each band pads its own rows (kernels._halo)
into channel planes, walks window offsets as contiguous shifts of those planes
flattened, and writes its rows of the output in place. Every pixel sees the same
operations in the same order whatever the band size or core count, so the
output depends on neither.
The oracle variant is a literal per-pixel transcription kept for equivalence
testing; it samples pixels and labels through image.sample_at, gray and RGB
alike. Every weight factor is symmetric in the pixel pair, so the engine
computes one weight per unordered pair, w(x, x + d) == w(x + d, x), and
applies it to all channels and to both ends of the pair. Each window is
summed in mirror quads, {+d, -d} pairs whose total no horizontal or vertical
flip changes, so flipped inputs produce exactly flipped outputs. A weight is
one exp of its summed exponents, floored at -700 where exp would slow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .image import (
    BoundaryPolicy,
    ImageBuffer,
    check_count,
    check_sigma,
    sample_at,
)
from .kernels import _halo, _run_bands
from .texture import TextureMap, TextureParams, compute_texture_map, texture_distance


class FilterMode(Enum):
    BILATERAL = "bilateral"
    MULTILATERAL = "multilateral"
    AVERAGE = "average"


@dataclass(frozen=True)
class FilterParams:
    """Window radius, the three weight scales, and the pass count.

    sigma_d is in pixels, sigma_r in intensity units (images live in [0, 1]),
    sigma_t is dimensionless and only read in multilateral mode. A sigma may
    be inf, the limit where its factor becomes 1.
    """

    window_radius: int = 2
    sigma_d: float = 2.0
    sigma_r: float = 0.1
    sigma_t: float = 1.0
    passes: int = 1

    def __post_init__(self):
        for name in ("window_radius", "passes"):
            object.__setattr__(self, name, check_count(name, getattr(self, name)))
        for name in ("sigma_d", "sigma_r", "sigma_t"):
            check_sigma(name, getattr(self, name))


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
    d = sample_at(img.pixels, xi, policy) - sample_at(img.pixels, x, policy)
    range_sq = float(np.dot(d, d))
    return (math.exp(-0.5 * spatial_sq / (params.sigma_d ** 2))
            * math.exp(-0.5 * range_sq / (params.sigma_r ** 2)))


def weight_multilateral(x, xi, img: ImageBuffer, tex: TextureMap, params: FilterParams,
                        policy: BoundaryPolicy = BoundaryPolicy.REPLICATE) -> float:
    """Bilateral weight times the texture-similarity factor."""
    d = texture_distance(sample_at(tex.labels, x, policy), sample_at(tex.labels, xi, policy))
    texture_factor = math.exp(-0.5 * (d * d) / (params.sigma_t ** 2))
    return weight_bilateral(x, xi, img, params, policy) * texture_factor


def _resolve_texture(current: ImageBuffer, pass_index: int, supplied: TextureMap | None,
                     texture_params: TextureParams | None,
                     policy: BoundaryPolicy) -> TextureMap:
    # A caller-supplied map covers the first pass; later passes reclassify
    # the pass input.
    if pass_index == 0 and supplied is not None:
        tex = supplied
    else:
        tex = compute_texture_map(current, texture_params, policy)
    if tex.shape != (current.height, current.width):
        raise ValueError(
            f"texture map shape {tex.shape} does not match image "
            f"{(current.height, current.width)}")
    return tex


class _Scratch:
    """One worker's pass buffers for bands of up to `rows` padded-width rows,
    reused by every band and offset it runs; `take` views a contiguous prefix."""

    def __init__(self, c: int, rows: int, w: int, m: int):
        pairs, samples = (rows + m) * (w + 2 * m), rows * (w + 2 * m)
        padded = (rows + 2 * m) * (w + 2 * m)
        self.planes, self.labels = np.empty(c * padded), np.empty(padded, dtype=np.uint8)
        self.diff, self.weight = np.empty(c * pairs), np.empty(pairs)
        self.square, self.differs = np.empty(pairs), np.empty(pairs, dtype=bool)
        self.num, self.num_b, self.numerator = (np.empty(c * samples) for _ in range(3))
        self.den, self.den_b, self.denominator = (np.empty(samples) for _ in range(3))

    @staticmethod
    def take(buffer: np.ndarray, *shape: int) -> np.ndarray:
        return buffer[:math.prod(shape)].reshape(shape)


def _filter_band(band: np.ndarray, flat_labels: np.ndarray | None, params: FilterParams,
                 weighted: bool, scratch: _Scratch, out: np.ndarray) -> None:
    """Filter one row band into `out`, its rows of the output's (c, h, w) planes.

    `band` holds the band's rows of the padded channel planes plus m rows of
    padding above and below; `flat_labels` the same rows of padded labels,
    flattened. The planes are walked flat too: with W = w + 2m, offset (di, dj)
    is the shift s = dj·W + di, and the kept pixels lie in the run [x0, x0 + N),
    x0 = m·W + m, N = (h - 1)·W + w, with 2m pad columns between their rows.
    No window wraps a row, as the pads are m wide; the pad columns are summed
    too, and cropped once, at the divide.
    """
    m, (c, rows, width) = params.window_radius, band.shape
    h, w = rows - 2 * m, width - 2 * m
    flat = band.reshape(c, -1)  # a view: each channel plane's rows are contiguous
    x0, n_kept = m * width + m, (h - 1) * width + w
    take = _Scratch.take
    neg_inv_2sr2 = -0.5 / (params.sigma_r ** 2)
    inv_2sd2 = 0.5 / (params.sigma_d ** 2)
    neg_inv_2st2 = -0.5 / (params.sigma_t ** 2)  # where labels differ, else 0
    # The lowest range and texture exponent of any pair: samples lie in [0, 1].
    lowest = c * neg_inv_2sr2 + (0.0 if flat_labels is None else neg_inv_2st2)

    def pair_sums(di: int, dj: int, num: np.ndarray, den: np.ndarray):
        """Numerator and denominator sums of offsets +d and -d, d = (di, dj) forward.

        The numerator goes to `num`; the denominator, returned, is `den` or
        the scalar 2.0 of two unit weights. Each pair (q, q + s), q in
        [x0 - s, x0 + N), is weighted once: pixel x reads it as q = x for +d
        and as q = x - s for -d, whose weighted diff is exactly the negation.
        """
        s = dj * width + di  # > 0: dj >= 1, or dj = 0 and di >= 1
        n = n_kept + s
        ahead, centres = slice(x0, x0 + n), slice(x0 - s, x0 + n_kept)
        fwd, bwd = slice(s, s + n_kept), slice(0, n_kept)
        diff = take(scratch.diff, c, n)
        np.subtract(flat[:, ahead], flat[:, centres], out=diff)
        if not weighted:
            np.subtract(diff[:, fwd], diff[:, bwd], out=num)
            return 2.0
        weight = take(scratch.weight, n)
        np.square(diff[0], out=weight)
        for plane in diff[1:]:
            weight += np.square(plane, out=take(scratch.square, n))
        np.multiply(weight, neg_inv_2sr2, out=weight)
        spatial = (di * di + dj * dj) * inv_2sd2
        weight -= spatial
        if flat_labels is not None:
            differs = take(scratch.differs, n)
            np.not_equal(flat_labels[ahead], flat_labels[centres], out=differs)
            weight += np.multiply(differs, neg_inv_2st2, out=take(scratch.square, n))
        # exp is tenfold slower and more near underflow; raising a weight to
        # e^-700 (about 1e-304) moves an output by at most that per neighbour.
        if lowest - spatial < -700.0:
            np.maximum(weight, -700.0, out=weight)
        np.exp(weight, out=weight)
        diff *= weight
        np.subtract(diff[:, fwd], diff[:, bwd], out=num)
        return np.add(weight[fwd], weight[bwd], out=den)

    # Contributions accumulate relative to the center sample, so constant
    # regions pass through bit-exact (every diff is exactly zero); the center
    # itself has weight exactly 1. Offsets are summed in mirror sets: each
    # axis pair +/-(k, 0), +/-(0, k) alone, and each diagonal pair
    # +/-(di, dj) with its mirror +/-(-di, dj). A horizontal or vertical flip
    # only swaps the operands of additions within a set, and IEEE addition
    # commutes, so flipped inputs give exactly flipped outputs.
    num, num_b = take(scratch.num, c, n_kept), take(scratch.num_b, c, n_kept)
    den, den_b = take(scratch.den, n_kept), take(scratch.den_b, n_kept)
    numerator = take(scratch.numerator, c, h * width)[:, :n_kept]
    numerator.fill(0.0)
    denominator = take(scratch.denominator, h * width)[:n_kept] if weighted else 1.0
    if weighted:
        denominator.fill(1.0)
    for k in range(1, m + 1):
        for di, dj in ((k, 0), (0, k)):
            d = pair_sums(di, dj, num, den)
            numerator += num
            denominator += d
    for dj in range(1, m + 1):
        for di in range(1, m + 1):
            d = pair_sums(di, dj, num, den)
            d_b = pair_sums(-di, dj, num_b, den_b)
            num += num_b
            d += d_b
            numerator += num
            denominator += d
    kept = take(scratch.numerator, c, h, width)[:, :, :w]  # the crop
    np.divide(kept, take(scratch.denominator, h, width)[:, :w] if weighted else denominator,
              out=kept)
    np.add(band[:, m:m + h, m:m + w], kept, out=kept)
    np.clip(kept, 0.0, 1.0, out=out)


def _filter_pass(pixels: np.ndarray, mode: FilterMode, params: FilterParams,
                 policy: BoundaryPolicy, labels: np.ndarray | None) -> np.ndarray:
    """One pass over (h, w) or (h, w, 3) samples, in row bands on the band
    threads, into a new array of their shape."""
    out = np.empty(pixels.shape)
    pixels = pixels.reshape(pixels.shape[0], pixels.shape[1], -1)  # (h, w, c), c = 1 for gray
    (h, w, c), m = pixels.shape, params.window_radius
    planes = np.moveaxis(out.reshape(h, w, c), -1, 0)  # each band writes its rows here
    weighted = mode is not FilterMode.AVERAGE
    scratches: dict[int, _Scratch] = {}

    def band(y0: int, y1: int, worker: int) -> None:
        # Each thread makes its buffers itself, on its first band; band
        # heights differ by one row at most. A band pads its own rows into
        # channel planes, so per-channel arithmetic runs over contiguous rows.
        if worker not in scratches:
            scratches[worker] = _Scratch(c, y1 - y0 + 1, w, m)
        scratch, rows = scratches[worker], (y1 - y0 + 2 * m, w + 2 * m)
        band_planes = _halo(pixels, y0, y1, m, policy, _Scratch.take(scratch.planes, c, *rows))
        band_labels = None if labels is None else _halo(
            labels, y0, y1, m, policy, _Scratch.take(scratch.labels, *rows)).ravel()
        _filter_band(band_planes, band_labels, params, weighted, scratch, planes[:, y0:y1])

    _run_bands(h, c * (w + 2 * m), band)
    return out


def filter_image(img: ImageBuffer, params: FilterParams | None = None,
                 mode: FilterMode | str = FilterMode.BILATERAL,
                 policy: BoundaryPolicy = BoundaryPolicy.REPLICATE,
                 texture: TextureMap | None = None, *,
                 texture_params: TextureParams | None = None) -> ImageBuffer:
    """Run the selected filter for params.passes passes.

    Multilateral mode classifies texture from the grayscale of each pass's
    input with texture_params, base scale sigma_g included; a caller-supplied
    map is honored for the first pass only. Average mode ignores all sigmas
    and returns the plain window mean. Output samples are clamped to [0, 1]
    after each pass (a no-op in exact arithmetic, since each output pixel is
    a convex combination of window samples).
    """
    params = params or FilterParams()
    mode = FilterMode(mode)

    current = img
    for pass_index in range(params.passes):
        labels = None if mode is not FilterMode.MULTILATERAL else _resolve_texture(
            current, pass_index, texture, texture_params, policy).labels
        current = ImageBuffer._adopt(_filter_pass(current.pixels, mode, params, policy, labels))
        del labels  # not held through the next pass
    return current


def filter_oracle(img: ImageBuffer, params: FilterParams | None = None,
                  mode: FilterMode | str = FilterMode.BILATERAL,
                  policy: BoundaryPolicy = BoundaryPolicy.REPLICATE,
                  texture: TextureMap | None = None, *,
                  texture_params: TextureParams | None = None) -> ImageBuffer:
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
            tex = _resolve_texture(current, pass_index, texture, texture_params, policy)
        out = np.empty(current.pixels.shape)
        for y in range(current.height):
            for x in range(current.width):
                accum = total = 0.0  # accum turns into a channel vector for RGB
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
                        accum = accum + sample_at(current.pixels, xi, policy) * weight
                        total += weight
                out[y, x] = accum / total
        current = ImageBuffer(np.clip(out, 0.0, 1.0))
    return current
