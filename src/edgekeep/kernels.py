"""1-D Gaussian and derivative taps, separable convolution, and window means.

Both texture kernels are separable: the steerable derivative pair is
d(u) g(v) and g(u) d(v), and the energy window is a box. Each is applied as
a row pass over the padded rows followed by a column pass. Every pass sums
mirror-paired taps, P(x - k) + P(x + k) for an even pair and
P(x - k) - P(x + k) for an odd pair, before multiplying once, so a
horizontal or vertical flip of the input flips an even pass's output
exactly and negates an odd pass's output exactly.
"""

from __future__ import annotations

import numpy as np

from .image import BoundaryPolicy, ImageBuffer, pad_field

# Padded samples per block of rows in a separable pass (128 KiB of float64),
# small enough for the pass temporaries to stay in a core's cache.
_BLOCK_SAMPLES = 16384


def gaussian_derivative_taps(sigma: float, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Sampled analytic Gaussian g and its first derivative d at -radius..radius.

    g(u) = exp(-u^2 / (2 sigma^2)) and d(u) = -u / sigma^2 * g(u), raw and
    unnormalized. The x-derivative kernel is outer(g, d) (rows v, columns u),
    which responds to variation along x; the y kernel is outer(d, g).
    """
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    u = np.arange(-radius, radius + 1, dtype=np.float64)
    g = np.exp(-(u * u) / (2.0 * sigma * sigma))
    d = -u / (sigma * sigma) * g
    return g, d


def _taps_pass(src: np.ndarray, taps: np.ndarray, axis: int) -> np.ndarray:
    """out(x) = sum over u of taps[u + r] * src(x - u) along `axis`.

    `src` carries r = len(taps) // 2 samples of padding at both ends of
    `axis`; the output drops them. Taps at +/-k are summed or subtracted as a
    pair when they are equal or opposite, then multiplied once.
    """
    r = len(taps) // 2
    n = src.shape[axis] - 2 * r

    def at(u: int) -> np.ndarray:  # src(x - u) for every output x
        index = [slice(None)] * src.ndim
        index[axis] = slice(r - u, r - u + n)
        return src[tuple(index)]

    out = at(0) * taps[r]
    pair = np.empty_like(out)
    for k in range(1, r + 1):
        a, b = taps[r + k], taps[r - k]  # weights of src(x - k) and src(x + k)
        if a == b:
            if a == 0.0:
                continue
            np.add(at(k), at(-k), out=pair)
        elif a == -b:
            np.subtract(at(k), at(-k), out=pair)
        else:
            out += a * at(k)
            out += b * at(-k)
            continue
        if a != 1.0:
            pair *= a
        out += pair
    return out


def _separable(padded: np.ndarray, col_taps: np.ndarray, row_taps: np.ndarray) -> np.ndarray:
    """Row pass, then column pass, over a field padded by the taps' radius.

    Output rows are produced a block at a time so that every temporary of
    both passes stays cache-sized; each output sample sees the same
    operations in the same order whatever the block size.
    """
    r = len(row_taps) // 2
    h = padded.shape[0] - 2 * r
    out = np.empty((h, padded.shape[1] - 2 * r))
    block = max(1, _BLOCK_SAMPLES // padded.shape[1])
    for y in range(0, h, block):
        rows = _taps_pass(padded[y:y + block + 2 * r], row_taps, 1)
        out[y:y + block] = _taps_pass(rows, col_taps, 0)
    return out


def convolve(field, col_taps, row_taps,
             policy: BoundaryPolicy = BoundaryPolicy.REPLICATE) -> np.ndarray:
    """True convolution with the separable kernel outer(col_taps, row_taps).

    out(x, y) = sum over (u, v) of col_taps[v + r] * row_taps[u + r] *
    field(x - u, y - v), where u runs along x (columns) and v along y (rows).
    Accepts a gray ImageBuffer or a bare 2-D array and returns an unclamped
    float64 field of the same shape. The field is padded once; a row pass
    over every padded row is followed by a column pass. Orientation fix:
    row taps with a single tap at u = 1 shift image content by +1 along x.
    """
    if isinstance(field, ImageBuffer):
        if field.channels != 1:
            raise ValueError("convolve expects a gray image")
        field = field.pixels
    field = np.asarray(field, dtype=np.float64)
    col_taps = np.asarray(col_taps, dtype=np.float64)
    row_taps = np.asarray(row_taps, dtype=np.float64)
    if row_taps.ndim != 1 or len(row_taps) % 2 != 1 or col_taps.shape != row_taps.shape:
        raise ValueError(f"taps must be 1-D, of one odd length, got shapes "
                         f"{col_taps.shape} and {row_taps.shape}")
    return _separable(pad_field(field, len(row_taps) // 2, policy), col_taps, row_taps)


def window_mean(field: np.ndarray, radius: int,
                policy: BoundaryPolicy = BoundaryPolicy.REPLICATE) -> np.ndarray:
    """Mean of `field` over the (2r+1)^2 window centered at each pixel.

    A direct sum, rows then columns, with mirror-paired samples; no running
    or summed-area sums, whose cancellation drifts.
    """
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    field = np.asarray(field, dtype=np.float64)
    side = 2 * radius + 1
    ones = np.ones(side)
    acc = _separable(pad_field(field, radius, policy), ones, ones)
    acc /= float(side * side)
    return acc
