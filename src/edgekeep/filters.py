"""Windowed filter engines: bilateral, texture-augmented multilateral, box average.

The optimized engine cuts each pass into row bands of about
kernels._BAND_SAMPLES padded channel-samples and runs them on the package's
band threads (kernels._run_bands); each band pads its own rows into channel
planes (kernels._halo, which repeats the edge rows and columns), walks window
offsets as contiguous shifts of those planes flattened, and writes its rows of
the output in place. Every pixel sees the same operations in the same order
whatever the band size or core count, so the output depends on neither.
The oracle variant is a literal per-pixel transcription kept for equivalence
testing; it samples pixels and labels, gray and RGB alike, through
image.sample_at, which clamps coordinates to the nearest edge pixel. Every
weight factor is symmetric in the pixel pair, so the engine computes one
weight per unordered pair, w(x, x + d) == w(x + d, x), and applies it to all
channels and to both ends of the pair. Each window is summed in mirror quads,
{+d, -d} pairs whose total no horizontal or vertical flip changes, so flipped
inputs produce exactly flipped outputs. A weight is one exp of its summed
exponents, floored at -700 where exp would slow. Each quad's numerators and
denominator are stacked in one (c + 1)-row sum, its denominator row in
average mode the unit weights' 2.0 per pair, so all modes add and divide alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .image import ImageBuffer, check_count, check_radius, check_sigma, sample_at
from .kernels import _halo, _run_bands
from .texture import TextureMap, TextureParams, compute_texture_map, texture_distance


#: The most passes FilterParams accepts: each pass costs a full filter run, and
#: an unbounded count is an unbounded run time.
PASSES_LIMIT = 100


class FilterMode(Enum):
    BILATERAL = "bilateral"
    MULTILATERAL = "multilateral"
    AVERAGE = "average"


@dataclass(frozen=True)
class FilterParams:
    """Window radius, the three weight scales, and the pass count, at most
    PASSES_LIMIT.

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
        if self.passes > PASSES_LIMIT:
            raise ValueError(f"passes must be <= {PASSES_LIMIT}, got {self.passes}")
        for name in ("sigma_d", "sigma_r", "sigma_t"):
            check_sigma(name, getattr(self, name))


def weight_bilateral(x, xi, img: ImageBuffer, params: FilterParams) -> float:
    """Spatial-closeness times range-similarity weight for the pair (x, xi).

    Spatial distance is Euclidean over coordinates; range distance is
    Euclidean over intensity (scalar for gray, 3-vector for RGB). Samples at
    out-of-image coordinates are those of the nearest edge pixel.
    """
    dx = float(xi[0] - x[0])
    dy = float(xi[1] - x[1])
    spatial_sq = dx * dx + dy * dy
    d = sample_at(img.pixels, xi) - sample_at(img.pixels, x)
    range_sq = float(np.dot(d, d))
    return (math.exp(-0.5 * spatial_sq / (params.sigma_d ** 2))
            * math.exp(-0.5 * range_sq / (params.sigma_r ** 2)))


def weight_multilateral(x, xi, img: ImageBuffer, tex: TextureMap,
                        params: FilterParams) -> float:
    """Bilateral weight times the texture-similarity factor."""
    d = texture_distance(sample_at(tex.labels, x), sample_at(tex.labels, xi))
    texture_factor = math.exp(-0.5 * (d * d) / (params.sigma_t ** 2))
    return weight_bilateral(x, xi, img, params) * texture_factor


def _resolve_texture(current: ImageBuffer, pass_index: int, supplied: TextureMap | None,
                     texture_params: TextureParams | None) -> TextureMap:
    # A caller-supplied map covers the first pass; later passes reclassify
    # the pass input.
    if pass_index == 0 and supplied is not None:
        tex = supplied
    else:
        tex = compute_texture_map(current, texture_params)
    if tex.shape != (current.height, current.width):
        raise ValueError(
            f"texture map shape {tex.shape} does not match image "
            f"{(current.height, current.width)}")
    return tex


def _filter_band(band: np.ndarray, flat_labels: np.ndarray | None, params: FilterParams,
                 weighted: bool, out: np.ndarray) -> None:
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
    longest = n_kept + x0  # the run of d = (m, m); each offset uses a prefix
    diffs, weights, squares = np.empty((c, longest)), np.empty(longest), np.empty(longest)
    differs = np.empty(longest, dtype=bool)
    neg_inv_2sr2 = -0.5 / (params.sigma_r ** 2)
    inv_2sd2 = 0.5 / (params.sigma_d ** 2)
    neg_inv_2st2 = -0.5 / (params.sigma_t ** 2)  # where labels differ, else 0
    # The lowest range and texture exponent of any pair: samples lie in [0, 1].
    lowest = c * neg_inv_2sr2 + (0.0 if flat_labels is None else neg_inv_2st2)

    def pair_sums(di: int, dj: int, sums: np.ndarray) -> None:
        """Numerator and denominator sums of offsets +d and -d, d = (di, dj) forward.

        The c numerator rows go to sums[:c] and the denominator to sums[c],
        2.0 (two unit weights) in average mode. Each pair (q, q + s), q in
        [x0 - s, x0 + N), is weighted once: pixel x reads it as q = x for +d
        and as q = x - s for -d, whose weighted diff is exactly the negation.
        """
        s = dj * width + di  # > 0: dj >= 1, or dj = 0 and di >= 1
        n = n_kept + s
        ahead, centres = slice(x0, x0 + n), slice(x0 - s, x0 + n_kept)
        fwd, bwd = slice(s, s + n_kept), slice(0, n_kept)
        diff = diffs[:, :n]
        np.subtract(flat[:, ahead], flat[:, centres], out=diff)
        if not weighted:
            sums[c] = 2.0
            np.subtract(diff[:, fwd], diff[:, bwd], out=sums[:c])
            return
        weight = weights[:n]
        np.square(diff[0], out=weight)
        for plane in diff[1:]:
            weight += np.square(plane, out=squares[:n])
        np.multiply(weight, neg_inv_2sr2, out=weight)
        spatial = (di * di + dj * dj) * inv_2sd2
        weight -= spatial
        if flat_labels is not None:
            np.not_equal(flat_labels[ahead], flat_labels[centres], out=differs[:n])
            weight += np.multiply(differs[:n], neg_inv_2st2, out=squares[:n])
        # exp is tenfold slower and more near underflow; raising a weight to
        # e^-700 (about 1e-304) moves an output by at most that per neighbour.
        if lowest - spatial < -700.0:
            np.maximum(weight, -700.0, out=weight)
        np.exp(weight, out=weight)
        diff *= weight
        np.subtract(diff[:, fwd], diff[:, bwd], out=sums[:c])
        np.add(weight[fwd], weight[bwd], out=sums[c])

    # Contributions accumulate relative to the center sample, so constant
    # regions pass through bit-exact (every diff is exactly zero); the center
    # itself has weight exactly 1. Offsets are summed in mirror sets: each
    # axis pair +/-(k, 0), +/-(0, k) alone, and each diagonal pair
    # +/-(di, dj) with its mirror +/-(-di, dj). A horizontal or vertical flip
    # only swaps the operands of additions within a set, and IEEE addition
    # commutes, so flipped inputs give exactly flipped outputs.
    sums, sums_b = np.empty((2, c + 1, n_kept))
    totals = np.empty((c + 1, h, width))  # numerators, then denominator
    total = totals.reshape(c + 1, -1)[:, :n_kept]
    total[:c].fill(0.0)
    total[c].fill(1.0)
    for k in range(1, m + 1):
        for di, dj in ((k, 0), (0, k)):
            pair_sums(di, dj, sums)
            total += sums
    for dj in range(1, m + 1):
        for di in range(1, m + 1):
            pair_sums(di, dj, sums)
            pair_sums(-di, dj, sums_b)
            sums += sums_b
            total += sums
    kept = totals[:, :, :w]  # the crop
    np.divide(kept[:c], kept[c], out=kept[:c])
    np.add(band[:, m:m + h, m:m + w], kept[:c], out=kept[:c])
    np.clip(kept[:c], 0.0, 1.0, out=out)


def _filter_pass(pixels: np.ndarray, mode: FilterMode, params: FilterParams,
                 labels: np.ndarray | None) -> np.ndarray:
    """One pass over (h, w) or (h, w, 3) samples, in row bands on the band
    threads, into a new array of their shape."""
    out = np.empty(pixels.shape)
    pixels = pixels.reshape(pixels.shape[0], pixels.shape[1], -1)  # (h, w, c), c = 1 for gray
    (h, w, c), m = pixels.shape, params.window_radius
    planes = np.moveaxis(out.reshape(h, w, c), -1, 0)  # each band writes its rows here
    weighted = mode is not FilterMode.AVERAGE

    def band(y0: int, y1: int) -> None:
        # A band pads its own rows into channel planes, so per-channel
        # arithmetic runs over contiguous rows.
        band_labels = None if labels is None else _halo(labels, y0, y1, m).ravel()
        _filter_band(_halo(pixels, y0, y1, m), band_labels, params, weighted, planes[:, y0:y1])

    _run_bands(h, c * (w + 2 * m), band)
    return out


def filter_image(img: ImageBuffer, params: FilterParams | None = None,
                 mode: FilterMode | str = FilterMode.BILATERAL,
                 texture: TextureMap | None = None, *,
                 texture_params: TextureParams | None = None) -> ImageBuffer:
    """Run the selected filter for params.passes passes.

    Multilateral mode classifies texture from the grayscale of each pass's
    input with texture_params, base scale sigma_g included; a caller-supplied
    map is honored for the first pass only. Average mode ignores all sigmas
    and returns the plain window mean. Output samples are clamped to [0, 1]
    after each pass (a no-op in exact arithmetic, since each output pixel is
    a convex combination of window samples). A window radius above the image
    bound (image.check_radius) raises a ValueError before the first pass.
    """
    params = params or FilterParams()
    mode = FilterMode(mode)
    check_radius("window_radius", params.window_radius, img.pixels.shape)

    current = img
    for pass_index in range(params.passes):
        labels = None if mode is not FilterMode.MULTILATERAL else _resolve_texture(
            current, pass_index, texture, texture_params).labels
        current = ImageBuffer._adopt(_filter_pass(current.pixels, mode, params, labels))
        del labels  # not held through the next pass
    return current


def filter_oracle(img: ImageBuffer, params: FilterParams | None = None,
                  mode: FilterMode | str = FilterMode.BILATERAL,
                  texture: TextureMap | None = None, *,
                  texture_params: TextureParams | None = None) -> ImageBuffer:
    """Literal nested-loop transcription of the filter; test oracle only.

    Walks every pixel and window member, evaluating the per-pair weight
    functions directly. No vectorization, no shared subexpressions beyond
    the weight functions themselves. Its window radius is bounded as
    filter_image's is.
    """
    params = params or FilterParams()
    mode = FilterMode(mode)
    m = params.window_radius
    check_radius("window_radius", m, img.pixels.shape)

    current = img
    for pass_index in range(params.passes):
        tex = None
        if mode is FilterMode.MULTILATERAL:
            tex = _resolve_texture(current, pass_index, texture, texture_params)
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
                            weight = weight_bilateral((x, y), xi, current, params)
                        else:
                            weight = weight_multilateral((x, y), xi, current, tex, params)
                        accum = accum + sample_at(current.pixels, xi) * weight
                        total += weight
                out[y, x] = accum / total
        current = ImageBuffer(np.clip(out, 0.0, 1.0))
    return current
