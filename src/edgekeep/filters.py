"""Windowed filter engines: bilateral, texture-augmented multilateral, box average.

The optimized engine cuts each pass into row bands of about
kernels._BAND_SAMPLES padded channel-samples and runs them on the package's
band threads (kernels._run_bands); each band pads its own rows into channel
planes (kernels._halo, which repeats the edge rows and columns), walks window
offsets as contiguous shifts of those planes flattened, and writes its rows of
the output in place. Every pixel sees the same operations in the same order
whatever the band size or core count, so the output depends on neither. The
oracle transcribes a pass literally, pixel by pixel, for equivalence testing,
under the same pass driver (_passes); it samples pixels and labels, gray and
RGB alike, through image.sample_at, which clamps coordinates to the nearest
edge pixel. Every weight factor is symmetric in the pixel pair, so the engine
computes one weight per unordered pair, w(x, x + d) == w(x + d, x), and applies
it to all channels and to both ends of the pair. Each window is summed in
mirror quads, {+d, -d} pairs whose total no horizontal or vertical flip
changes, so flipped inputs produce exactly flipped outputs. A weight is one exp
of its summed exponents, floored at -700 where exp would slow. Each quad's
numerators and denominator are stacked in one (c + 1)-row sum. Average mode is
bilateral mode at sigma_d = sigma_r = inf, whose unit weights the engine skips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
            object.__setattr__(self, name, check_sigma(name, getattr(self, name)))


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


def _filter_band(band: np.ndarray, flat_labels: np.ndarray | None, params: FilterParams,
                 out: np.ndarray) -> None:
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
    weighted = not (flat_labels is None and params.sigma_d == params.sigma_r == math.inf)

    def pair_sums(di: int, dj: int, sums: np.ndarray) -> None:
        """Numerator and denominator sums of offsets +d and -d, d = (di, dj) forward.

        The c numerator rows go to sums[:c] and the denominator to sums[c],
        2.0 (two unit weights) unless `weighted`. Each pair (q, q + s), q in
        [x0 - s, x0 + N), is weighted once: pixel x reads it as q = x for +d
        and as q = x - s for -d, whose weighted diff is exactly the negation.
        """
        s = dj * width + di  # > 0: dj >= 1, or dj = 0 and di >= 1
        n = n_kept + s
        ahead, centres = slice(x0, x0 + n), slice(x0 - s, x0 + n_kept)
        fwd, bwd = slice(s, s + n_kept), slice(0, n_kept)
        diff = diffs[:, :n]
        np.subtract(flat[:, ahead], flat[:, centres], out=diff)
        if weighted:
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
            np.add(weight[fwd], weight[bwd], out=sums[c])
        else:
            sums[c] = 2.0
        np.subtract(diff[:, fwd], diff[:, bwd], out=sums[:c])

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


def _filter_pass(img: ImageBuffer, params: FilterParams, tex: TextureMap | None) -> ImageBuffer:
    """One pass in row bands on the band threads, into a buffer that adopts its output."""
    out = np.empty(img.pixels.shape)
    pixels = img.pixels.reshape(img.height, img.width, -1)  # c = 1 for gray
    (h, w, c), m = pixels.shape, params.window_radius
    planes = np.moveaxis(out.reshape(h, w, c), -1, 0)  # each band writes its rows here

    def band(y0: int, y1: int) -> None:
        # A band pads its own rows into channel planes, so per-channel
        # arithmetic runs over contiguous rows.
        band_labels = None if tex is None else _halo(tex.labels, y0, y1, m).ravel()
        _filter_band(_halo(pixels, y0, y1, m), band_labels, params, planes[:, y0:y1])

    _run_bands(h, c * (w + 2 * m), band)
    return ImageBuffer._adopt(out)


def _oracle_pass(img: ImageBuffer, params: FilterParams, tex: TextureMap | None) -> ImageBuffer:
    """One pass as a nested loop over every pixel and window member."""
    m = params.window_radius
    out = np.empty(img.pixels.shape)
    for y in range(img.height):
        for x in range(img.width):
            accum = total = 0.0  # accum turns into a channel vector for RGB
            for j in range(-m, m + 1):
                for i in range(-m, m + 1):
                    xi = (x + i, y + j)
                    weight = (weight_bilateral((x, y), xi, img, params) if tex is None
                              else weight_multilateral((x, y), xi, img, tex, params))
                    accum = accum + sample_at(img.pixels, xi) * weight
                    total += weight
            out[y, x] = accum / total
    return ImageBuffer(np.clip(out, 0.0, 1.0))


def _passes(one_pass, img: ImageBuffer, params: FilterParams | None, mode: FilterMode | str,
            texture: TextureMap | None, texture_params: TextureParams | None) -> ImageBuffer:
    """Apply one_pass(img, params, tex) params.passes times. tex is None but in
    multilateral mode: the supplied map on the first pass, else the pass input's map.
    Average mode runs as bilateral mode at sigma_d = sigma_r = inf."""
    params, mode = params or FilterParams(), FilterMode(mode)
    if mode is FilterMode.AVERAGE:
        params = replace(params, sigma_d=math.inf, sigma_r=math.inf)
    check_radius("window_radius", params.window_radius, img.pixels.shape)
    for pass_index in range(params.passes):
        tex = None  # the last pass's map is let go before this pass's is made
        if mode is FilterMode.MULTILATERAL:
            tex = (texture if pass_index == 0 and texture is not None
                   else compute_texture_map(img, texture_params))
            if tex.shape != (img.height, img.width):
                raise ValueError(f"texture map shape {tex.shape} does not match image "
                                 f"{(img.height, img.width)}")
        img = one_pass(img, params, tex)
    return img


def filter_image(img: ImageBuffer, params: FilterParams | None = None,
                 mode: FilterMode | str = FilterMode.BILATERAL,
                 texture: TextureMap | None = None, *,
                 texture_params: TextureParams | None = None) -> ImageBuffer:
    """Run the selected filter for params.passes passes.

    Multilateral mode classifies texture from the grayscale of each pass's
    input with texture_params, base scale sigma_g included; a caller-supplied
    map is honored for the first pass only. Average mode, the plain window
    mean, is bilateral mode at sigma_d = sigma_r = inf. Output samples are
    clamped to [0, 1] after each pass (a no-op in exact arithmetic, since each
    output pixel is a convex combination of window samples). A window radius
    above the image bound (image.check_radius) raises a ValueError before the
    first pass.
    """
    return _passes(_filter_pass, img, params, mode, texture, texture_params)


def filter_oracle(img: ImageBuffer, params: FilterParams | None = None,
                  mode: FilterMode | str = FilterMode.BILATERAL,
                  texture: TextureMap | None = None, *,
                  texture_params: TextureParams | None = None) -> ImageBuffer:
    """Literal nested-loop transcription of the filter; test oracle only.

    Each pass walks every pixel and window member, evaluating the per-pair
    weight functions directly, with no vectorization and no shared
    subexpressions. It runs filter_image's pass driver: same passes, maps and bound.
    """
    return _passes(_oracle_pass, img, params, mode, texture, texture_params)
