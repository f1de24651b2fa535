"""Windowed filter engines: bilateral, texture-augmented multilateral, box average.

The optimized engine cuts each pass into row bands of about _BAND_SAMPLES
padded samples and spreads the bands over the available cores; within a band
it walks window offsets with whole-band array slices. Every pixel sees the
same operations in the same order whatever the band size or core count, so
the output depends on neither. The oracle variant is a literal per-pixel
transcription kept for equivalence testing. Every weight factor is symmetric
in the pixel pair, so the engine computes one weight per unordered pair,
w(x, x + d) == w(x + d, x), and applies it to all channels and to both ends
of the pair. Each window is summed in mirror quads, {+d, -d} pairs whose
total no horizontal or vertical flip changes, so flipped inputs produce
exactly flipped outputs.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
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


#: Channel-samples of padded input, c * rows * (w + 2m), per row band of a
#: filter pass (512 KiB of float64): the band's per-offset temporaries then
#: stay near a core's cache instead of spanning the whole image.
_BAND_SAMPLES = 65536


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


#: Threads a multi-band pass runs on, the calling thread included.
_WORKERS = _available_cpus()

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _band_pool() -> ThreadPoolExecutor:
    """The module's band threads, created on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=max(1, _WORKERS - 1),
                                       thread_name_prefix="edgekeep-band")
        return _pool


def _forget_pool() -> None:
    # A forked child has none of the parent's threads; it makes its own pool.
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


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


class _Scratch:
    """One worker's pass buffers, sized for the tallest band and reused by
    every band and offset it runs; `take` views a contiguous prefix."""

    def __init__(self, c: int, rows: int, w: int, m: int):
        pairs = (rows + m) * (w + m)  # the most pair centres of one offset
        self.diff, self.weight = np.empty(c * pairs), np.empty(pairs)
        self.square, self.differs = np.empty(pairs), np.empty(pairs, dtype=bool)
        self.num, self.num_b = np.empty(c * rows * w), np.empty(c * rows * w)
        self.numerator = np.empty(c * rows * w)
        self.den, self.den_b = np.empty(rows * w), np.empty(rows * w)
        self.denominator = np.empty(rows * w)

    @staticmethod
    def take(buffer: np.ndarray, *shape: int) -> np.ndarray:
        return buffer[:math.prod(shape)].reshape(shape)


def _filter_band(band: np.ndarray, band_labels: np.ndarray | None, params: FilterParams,
                 weighted: bool, scratch: _Scratch, out: np.ndarray) -> None:
    """Filter one row band into `out`, its (c, rows, w) slice of the output.

    `band` holds the band's rows of the padded channel planes plus m rows of
    padding above and below; `band_labels` the same rows of padded labels.
    """
    m = params.window_radius
    c, h, w = band.shape[0], band.shape[1] - 2 * m, band.shape[2] - 2 * m
    take = _Scratch.take
    neg_inv_2sr2 = -0.5 / (params.sigma_r ** 2)
    inv_2sd2 = 0.5 / (params.sigma_d ** 2)
    if band_labels is not None:
        # Indicator distance is 0/1, so the factor takes only two values.
        cross_factor = math.exp(-0.5 / (params.sigma_t ** 2))

    def pair_sums(di: int, dj: int, num: np.ndarray, den: np.ndarray):
        """Numerator and denominator sums of offsets +d and -d, d = (di, dj) forward.

        The numerator goes to `num`; the denominator, returned, is `den` or
        the scalar 2.0 of two unit weights. The pair (q, q + d) is weighted
        once for every centre q that a pixel x reads: q = x for offset +d and
        q = x - d for offset -d. Both read the same weight, and the weighted
        diff of -d is exactly the negation.
        """
        c0 = min(0, -di)
        rows, cols = slice(m - dj, m + h), slice(m + c0, m + max(w, w - di))
        rows_d = slice(rows.start + dj, rows.stop + dj)
        cols_d = slice(cols.start + di, cols.stop + di)
        fwd = (..., slice(dj, dj + h), slice(-c0, -c0 + w))
        bwd = (..., slice(0, h), slice(-c0 - di, -c0 - di + w))
        centres = (h + dj, w + abs(di))
        diff = take(scratch.diff, c, *centres)
        np.subtract(band[:, rows_d, cols_d], band[:, rows, cols], out=diff)
        if not weighted:
            np.subtract(diff[fwd], diff[bwd], out=num)
            return 2.0
        weight = take(scratch.weight, *centres)
        np.square(diff[0], out=weight)
        for plane in diff[1:]:
            weight += np.square(plane, out=take(scratch.square, *centres))
        np.multiply(weight, neg_inv_2sr2, out=weight)
        weight -= (di * di + dj * dj) * inv_2sd2
        np.exp(weight, out=weight)
        if band_labels is not None:
            differs = take(scratch.differs, *centres)
            np.not_equal(band_labels[rows_d, cols_d], band_labels[rows, cols], out=differs)
            np.multiply(weight, cross_factor, out=weight, where=differs)
        diff *= weight
        np.subtract(diff[fwd], diff[bwd], out=num)
        return np.add(weight[fwd], weight[bwd], out=den)

    # Contributions accumulate relative to the center sample, so constant
    # regions pass through bit-exact (every diff is exactly zero); the center
    # itself has weight exactly 1. Offsets are summed in mirror sets: each
    # axis pair +/-(k, 0), +/-(0, k) alone, and each diagonal pair
    # +/-(di, dj) with its mirror +/-(-di, dj). A horizontal or vertical flip
    # only swaps the operands of additions within a set, and IEEE addition
    # commutes, so flipped inputs give exactly flipped outputs.
    num, num_b = take(scratch.num, c, h, w), take(scratch.num_b, c, h, w)
    den, den_b = take(scratch.den, h, w), take(scratch.den_b, h, w)
    numerator = take(scratch.numerator, c, h, w)
    numerator.fill(0.0)
    denominator = take(scratch.denominator, h, w) if weighted else 1.0
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
    np.divide(numerator, denominator, out=numerator)
    np.add(band[:, m:m + h, m:m + w], numerator, out=numerator)
    np.clip(numerator, 0.0, 1.0, out=out)


def _filter_pass(work: np.ndarray, mode: FilterMode, params: FilterParams,
                 policy: BoundaryPolicy, labels: np.ndarray | None) -> np.ndarray:
    """One pass over the image, as row bands spread over the worker threads.

    Every band runs the same operations in the same order on each pixel, so
    the output does not depend on the band size or the number of workers.
    """
    h, w, c = work.shape
    m = params.window_radius
    # Channel planes first, so per-channel arithmetic runs over contiguous
    # rows and the shared weight broadcasts over the leading axis.
    padded = np.ascontiguousarray(np.moveaxis(pad_field(work, m, policy), -1, 0))
    padded_labels = None if labels is None else pad_field(labels, m, policy)
    weighted = mode is not FilterMode.AVERAGE
    count = min(h, -(-c * h * (w + 2 * m) // _BAND_SAMPLES))
    bounds = [h * i // count for i in range(count + 1)]
    bands = iter(zip(bounds, bounds[1:]))
    workers = min(_WORKERS, count)
    scratches = [_Scratch(c, -(-h // count), w, m) for _ in range(workers)]
    out = np.empty((c, h, w))
    lock = threading.Lock()

    def work_through_bands(scratch: _Scratch) -> None:
        while True:
            with lock:
                band = next(bands, None)
            if band is None:
                return
            y0, y1 = band
            _filter_band(padded[:, y0:y1 + 2 * m],
                         None if padded_labels is None else padded_labels[y0:y1 + 2 * m],
                         params, weighted, scratch, out[:, y0:y1])

    futures = [_band_pool().submit(work_through_bands, s) for s in scratches[1:]]
    try:
        work_through_bands(scratches[0])
    finally:
        wait(futures)
    for future in futures:
        future.result()
    return np.moveaxis(out, 0, -1)


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
