"""1-D Gaussian and derivative taps, separable convolution, window means, and
the row-band runner of every image-sized stage.

Both texture kernels are separable: the steerable derivative pair is
d(u) g(v) and g(u) d(v), and the energy window is a box. Each is applied as
a column pass over a band's padded rows, then a row pass over its own rows
alone. No whole-field padded copy is made: each band builds its own halo,
slicing the rows inside the image and repeating the edge row or column
outside it, the package's one boundary rule. Every pass sums mirror-paired
taps, P(x - k) + P(x + k) for an even pair and P(x - k) - P(x + k) for an
odd pair, before multiplying once, so a horizontal or vertical flip of the
input flips an even pass's output exactly and negates an odd pass's output
exactly.

These passes, the texture energies and labels, and the filter passes run in
row bands of about _BAND_SAMPLES samples on one thread pool made at import
(_run_bands); a band is told only its rows, and may start band runs itself.
Each sample sees the same operations in any band, so results depend on
neither band size nor core count.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from .image import check_count, check_radius, check_sigma

#: Samples per row band (512 KiB of float64): enough numpy work per band to
#: outweigh the Python between calls, which holds the GIL, and few enough for
#: a band's temporaries to stay near a core's cache.
_BAND_SAMPLES = 65536

#: Threads a multi-band run uses, the calling thread included.
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def _new_pool() -> None:
    """Make the band threads. A ThreadPoolExecutor starts none before its first
    submit; a forked child, which has none of its parent's, makes its own."""
    global _pool
    _pool = ThreadPoolExecutor(max_workers=max(1, _WORKERS - 1),
                               thread_name_prefix="edgekeep-band")


_new_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_pool)


def _run_bands(rows: int, row_samples: int, band) -> None:
    """Call band(y0, y1) for balanced bands (heights differ by one row at most) of
    about _BAND_SAMPLES samples over `rows` rows of `row_samples`.

    Up to _WORKERS threads, the calling thread among them, pull bands from one
    iterator; a single band runs alone on the calling thread, with no lock or
    pool. Once the calling thread finds no band left, it cancels the helpers
    that never started and waits only for the others, so a band may start band
    runs itself: a helper queued behind the thread that waits for it is
    cancelled, not waited for.
    """
    count = max(1, min(rows, -(-rows * row_samples // _BAND_SAMPLES)))
    if count == 1:
        return band(0, rows)
    bands = iter((rows * i // count, rows * (i + 1) // count) for i in range(count))
    lock = threading.Lock()

    def work_through_bands() -> None:
        while True:
            with lock:
                bounds = next(bands, None)
            if bounds is None:
                return
            band(*bounds)

    futures = [_pool.submit(work_through_bands) for _ in range(1, min(_WORKERS, count))]
    try:
        work_through_bands()
    finally:
        started = [future for future in futures if not future.cancel()]
        wait(started)
    for future in started:
        future.result()


def gaussian_derivative_taps(sigma: float, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Sampled analytic Gaussian g and its first derivative d at -radius..radius.

    g(u) = exp(-u^2 / (2 sigma^2)) and d(u) = -u / sigma^2 * g(u), raw and
    unnormalized. The x-derivative kernel is outer(g, d) (rows v, columns u),
    which responds to variation along x; the y kernel is outer(d, g).
    """
    sigma = check_sigma("sigma", sigma, finite=True)
    radius = check_count("radius", radius)
    u = np.arange(-radius, radius + 1, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        # A far tap's exponent overflows to -inf: g = 0, and d is g's zero signed as -u.
        g = np.exp(-(u * u) / (2.0 * sigma * sigma))
        d = np.where(g == 0.0, -u * g, -u / (sigma * sigma) * g)
    return g, d


def _taps_pass(src: np.ndarray, taps: np.ndarray, axis: int,
               out: np.ndarray | None = None) -> np.ndarray:
    """out(x) = sum over u of taps[u + r] * src(x - u) along `axis`.

    `src` carries r = len(taps) // 2 samples of padding at both ends of
    `axis`; the output, written to `out` when given, drops them. Taps at +/-k
    are summed or subtracted as a pair when they are equal or opposite, then
    multiplied once. A centre tap of 1.0 joins such a nonzero first pair's term and one
    of 0.0 is skipped, no product: bit-identical but for a zero's sign and an inf or NaN centre.
    """
    r = len(taps) // 2
    n = src.shape[axis] - 2 * r

    def at(u: int) -> np.ndarray:  # src(x - u) for every output x
        index = [slice(None)] * src.ndim
        index[axis] = slice(r - u, r - u + n)
        return src[tuple(index)]

    fold = r and taps[r - 1] and abs(taps[r - 1]) == abs(taps[r + 1]) and taps[r] in (0.0, 1.0)
    out = (np.multiply(at(0), taps[r], out=out) if not fold
           else np.empty(at(0).shape) if out is None else out)
    pair = np.empty_like(out)
    for k in range(1, r + 1):
        a, b = taps[r + k], taps[r - k]  # weights of src(x - k) and src(x + k)
        term = out if fold and k == 1 else pair
        if a == b:
            if a == 0.0:
                continue
            np.add(at(k), at(-k), out=term)
        elif a == -b:
            np.subtract(at(k), at(-k), out=term)
        else:
            out += a * at(k)
            out += b * at(-k)
            continue
        if a != 1.0:
            term *= a
        if term is pair or taps[r]:  # a folded 1.0 joins the first term: t + c is c + t
            out += pair if term is pair else at(0)
    return out


def _halo(field: np.ndarray, y0: int, y1: int, r: int, times=None) -> np.ndarray:
    """Rows y0 - r to y1 + r of `field` (or field * times), with r copies of its
    edge rows and columns taken from the padded core, as a (y1 - y0 + 2r, w + 2r)
    slab, or for an (h, w, c) field its c channel planes (c, y1 - y0 + 2r, w + 2r)."""
    h, w = field.shape[:2]
    lo, hi = max(y0 - r, 0), min(y1 + r, h)
    top, inside = lo - (y0 - r), hi - lo
    out = np.empty(field.shape[2:] + (y1 - y0 + 2 * r, w + 2 * r), field.dtype)
    slab = out if field.ndim == 2 else np.moveaxis(out, 0, -1)  # the field's axis order
    core = slab[:, r:r + w]
    if times is None:
        core[top:top + inside] = field[lo:hi]
    else:
        np.multiply(field[lo:hi], times[lo:hi], out=core[top:top + inside])
    core[:top] = core[top]
    core[top + inside:] = core[top + inside - 1]
    slab[:, :r] = core[:, :1]
    slab[:, r + w:] = core[:, w - 1:w]
    return out


def _separable(field: np.ndarray, col_taps: np.ndarray, row_taps: np.ndarray,
               out: np.ndarray, divisor: float = 1.0, times=None) -> np.ndarray:
    """Column pass, then row pass, over `field` (or field * times) padded by the
    taps' radius, into `out`, each sample divided by `divisor` unless that is 1.
    Each band pads its rows (_halo), and its column pass reads its 2r halo rows
    but keeps its own, so no row is passed twice. A radius above the image bound
    (image.check_radius) raises a ValueError first; an empty field gives `out`.
    """
    if field.ndim != 2:
        raise ValueError(f"expected an (h, w) field, got shape {field.shape}")
    r = len(row_taps) // 2
    check_radius("radius", r, field.shape)
    if not field.size:
        return out

    def band(y0: int, y1: int) -> None:
        cols = _taps_pass(_halo(field, y0, y1, r, times), col_taps, 0)
        _taps_pass(cols, row_taps, 1, out[y0:y1])
        if divisor != 1.0:
            np.divide(out[y0:y1], divisor, out=out[y0:y1])

    _run_bands(out.shape[0], field.shape[1] + 2 * r, band)
    return out


def convolve(field, col_taps, row_taps) -> np.ndarray:
    """True convolution with the separable kernel outer(col_taps, row_taps).

    out(x, y) = sum over (u, v) of col_taps[v + r] * row_taps[u + r] *
    field(x - u, y - v), where u runs along x (columns) and v along y (rows).
    Takes an (h, w) array, such as a gray image's pixels, and returns an
    unclamped float64 field of the same shape. Each row band pads its own
    rows; a column pass over them is followed by a row pass. Orientation fix:
    row taps with a single tap at u = 1 shift image content by +1 along x.
    """
    field = np.asarray(field, dtype=np.float64)
    col_taps = np.asarray(col_taps, dtype=np.float64)
    row_taps = np.asarray(row_taps, dtype=np.float64)
    if row_taps.ndim != 1 or len(row_taps) % 2 != 1 or col_taps.shape != row_taps.shape:
        raise ValueError(f"taps must be 1-D, of one odd length, got shapes "
                         f"{col_taps.shape} and {row_taps.shape}")
    return _separable(field, col_taps, row_taps, np.empty(field.shape))


def window_mean(field: np.ndarray, radius: int, *, times: np.ndarray | None = None,
                out: np.ndarray | None = None) -> np.ndarray:
    """Mean of `field`, or of field * times (of the field's shape), over the
    (2r+1)^2 window centered at each pixel, written to `out` when given: a float64
    array of the field's shape that overlaps no input. No product field is made.

    A direct sum, columns then rows, with mirror-paired samples; no running
    or summed-area sums, whose cancellation drifts.
    """
    radius = check_count("radius", radius)
    field = np.asarray(field, dtype=np.float64)
    if times is not None and np.shape(times) != field.shape:
        raise ValueError(f"times has shape {np.shape(times)}, not the field's {field.shape}")
    if out is not None and (getattr(out, "dtype", None) != np.float64 or out.shape != field.shape
                            or any(np.may_share_memory(out, a) for a in (field, times))):
        raise ValueError(f"out must be a float64 {field.shape} array that overlaps no input")
    ones = np.ones(2 * radius + 1)
    return _separable(field, ones, ones, np.empty(field.shape) if out is None else out,
                      float(len(ones) ** 2), times)
