"""Image buffers, edge-clamped pixel addressing, grayscale conversion, PNM I/O.

Samples are kept as float64 in [0, 1] for the whole pipeline; quantization to
8 bits happens only when a file is written. Pixel coordinates are (x, y) =
(column, row) pairs throughout the package.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass

import numpy as np

#: ITU-R BT.601 luma coefficients for RGB -> gray conversion.
LUMA_WEIGHTS = (0.299, 0.587, 0.114)

#: A radius above max(height, width, RADIUS_FLOOR) is rejected: past the image
#: size it only repeats edge samples, while the padded fields grow with its
#: square, so an unbounded radius is an unbounded allocation.
RADIUS_FLOOR = 64

#: So is a radius r whose padded field, (height + 2r) x (width + 2r), holds
#: more than AREA_FACTOR times max(height x width, RADIUS_FLOOR^2) samples:
#: square images keep the side bound exactly, and a thin image, whose padded
#: field would grow with the square of its one long side, pads in linear space.
AREA_FACTOR = 9


class PnmError(ValueError):
    """Defective PNM input; `offset` is the byte position of the defect."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class MalformedHeaderError(PnmError):
    pass


class TruncatedPayloadError(PnmError):
    pass


class UnsupportedMaxvalError(PnmError):
    pass


@dataclass(frozen=True, eq=False)
class ImageBuffer:
    """A gray or RGB raster with float64 samples in [0, 1].

    `pixels` has shape (height, width) for gray images and (height, width, 3)
    for RGB. The array is copied on construction and marked read-only, so
    buffers are safe to share between threads.
    """

    pixels: np.ndarray

    def __post_init__(self, copy: bool = True):
        arr = np.array(self.pixels, dtype=np.float64, order="C", copy=copy)
        if not (arr.ndim == 2 or (arr.ndim == 3 and arr.shape[2] == 3)):
            raise ValueError(f"expected (h, w) or (h, w, 3) samples, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"image dimensions must be >= 1, got shape {arr.shape}")
        # min and max propagate NaN, and both comparisons are false for it.
        if not (arr.min() >= 0.0 and arr.max() <= 1.0):
            raise ValueError("samples must lie in [0, 1]")
        arr.setflags(write=False)
        object.__setattr__(self, "pixels", arr)

    @classmethod
    def _adopt(cls, pixels: np.ndarray) -> ImageBuffer:
        """A buffer holding `pixels` itself, checked but not copied: a C-ordered
        float64 array that its maker hands over and no longer writes."""
        buffer = object.__new__(cls)
        object.__setattr__(buffer, "pixels", pixels)
        buffer.__post_init__(copy=False)
        return buffer

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def channels(self) -> int:
        return 1 if self.pixels.ndim == 2 else 3


def sample_at(field: np.ndarray, xy):
    """field[row, col] at pixel (x, y) of an (h, w) or (h, w, c) array, such as
    an image's pixels or a texture map's labels, with coordinates clamped to
    the array: a scalar for an (h, w) field, a length-c vector otherwise."""
    x, y = xy
    h, w = field.shape[:2]
    return field[min(max(int(y), 0), h - 1), min(max(int(x), 0), w - 1)]


def check_real(name: str, value) -> float:
    """`value` as a float; a ValueError naming `name` unless it is a real number
    that a float can hold, and not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer, or a ratio, past the float range
        raise ValueError(f"{name} is too large for a float") from None


def check_count(name: str, value, minimum: int | None = 1) -> int:
    """`value` as an int; a ValueError naming `name` unless an integer >= minimum
    (any integer if None), and not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def check_sigma(name: str, value, finite: bool = False) -> float:
    """`value` as a float; a ValueError naming `name` unless it is a usable
    Gaussian scale.

    Weights and taps divide by value**2, so a finite value must be positive
    with a square and an inverse square that are finite and nonzero. inf is
    the limit where the factor becomes 1; `finite` rejects it.
    """
    value = check_real(name, value)
    if value == math.inf and not finite:
        return value
    square = value * value
    if not (value > 0.0 and 0.0 < square and 0.0 < 0.5 / square < math.inf):
        raise ValueError(f"{name} is out of range, got {value}: it must be "
                         f"{'' if finite else 'inf, or '}positive with a finite nonzero "
                         f"square and inverse square")
    return value


def check_radius(name: str, value, shape, radius: int | None = None) -> None:
    """A ValueError naming `name` unless the radius r its `value` sets, `radius`
    if given and `value` otherwise, is at most the largest of RADIUS_FLOOR and
    the height and width of an image of `shape`, and pads it to at most
    AREA_FACTOR * max(height * width, RADIUS_FLOOR**2) samples."""
    sides, r = shape[:2], value if radius is None else radius
    limit = max((*sides, RADIUS_FLOOR))
    if r > limit:
        raise ValueError(f"{name} {value} sets a radius above {limit}, the largest "
                         f"of the image height, width and {RADIUS_FLOOR}")
    padded = math.prod(side + 2 * r for side in sides)
    if padded > AREA_FACTOR * max(math.prod(sides), RADIUS_FLOOR ** 2):
        raise ValueError(f"{name} {value} pads the {' x '.join(map(str, sides))} image "
                         f"(rows x columns) by {r} to {padded} samples, more than "
                         f"{AREA_FACTOR} times the larger of its area and {RADIUS_FLOOR}^2")


def to_grayscale(img: ImageBuffer) -> ImageBuffer:
    """BT.601 luma of an RGB image; a gray image is returned as it is, since
    buffers are immutable."""
    if img.channels == 1:
        return img
    r, g, b = img.pixels[..., 0], img.pixels[..., 1], img.pixels[..., 2]
    wr, wg, wb = LUMA_WEIGHTS
    # This summation order, r + (g + b), keeps pure white at exactly 1.0; the
    # in-place sums make one temporary beside luma.
    luma = g * wg
    luma += b * wb
    luma += r * wr
    return ImageBuffer._adopt(np.clip(luma, 0.0, 1.0, out=luma))


#: One header token, after the whitespace and '#' comments (each running to
#: the end of its line) before it; group 1 is empty where no token follows.
_TOKEN = re.compile(rb"(?:\s|#[^\n]*)*([^\s#]*)")


def _read_token(data: bytes, pos: int, what: str):
    start, end = _TOKEN.match(data, pos).span(1)
    if start == end:
        raise MalformedHeaderError(f"missing {what} token", start)
    return data[start:end], start, end


def _read_int(data: bytes, pos: int, what: str):
    """A header integer: ASCII decimal digits only, as Netpbm writes them."""
    token, start, pos = _read_token(data, pos, what)
    try:
        if token.isdigit():
            return int(token), start, pos
    except ValueError:  # more digits than int() converts
        pass
    raise MalformedHeaderError(f"{what} is not an integer: {token!r}", start)


def load_pnm(data: bytes) -> ImageBuffer:
    """Decode the first image of a binary PGM (P5) or PPM (P6) byte string, or
    of any bytes-like object, which is read as the bytes it holds.

    Samples are scaled to [0, 1] by the declared maxval. Only maxval 255
    (1 byte/sample) and 65535 (2 bytes/sample, big-endian) are supported.
    Bytes after the first image's payload are ignored: a Netpbm file may hold
    several images in a row, and this reads the first.
    """
    # bytes(n) of an int n would be n zero bytes; memoryview takes buffers only
    data = data if isinstance(data, bytes) else bytes(memoryview(data))
    magic, magic_at, pos = _read_token(data, 0, "magic number")
    if magic not in (b"P5", b"P6"):
        raise MalformedHeaderError(f"expected P5 or P6 magic, got {magic!r}", magic_at)
    channels = 1 if magic == b"P5" else 3
    width, at, pos = _read_int(data, pos, "width")
    if width < 1:
        raise MalformedHeaderError(f"width must be >= 1, got {width}", at)
    height, at, pos = _read_int(data, pos, "height")
    if height < 1:
        raise MalformedHeaderError(f"height must be >= 1, got {height}", at)
    maxval, maxval_at, pos = _read_int(data, pos, "maxval")
    if maxval not in (255, 65535):
        raise UnsupportedMaxvalError(f"unsupported maxval {maxval}", maxval_at)
    if not data[pos:pos + 1].isspace():
        raise MalformedHeaderError("expected a single whitespace byte after maxval", pos)
    pos += 1
    dtype = np.dtype(">u2") if maxval == 65535 else np.dtype("u1")
    shape = (height, width) if channels == 1 else (height, width, 3)
    needed = math.prod(shape) * dtype.itemsize
    if len(data) - pos < needed:
        raise TruncatedPayloadError(
            f"payload needs {needed} bytes, found {len(data) - pos}", len(data))
    samples = np.frombuffer(data, dtype, count=math.prod(shape), offset=pos).reshape(shape)
    return ImageBuffer._adopt(np.divide(samples, maxval, dtype=np.float64))


def save_pnm(img: ImageBuffer) -> bytes:
    """Encode as binary P5 (gray) or P6 (RGB) with maxval 255.

    Samples are rounded to the nearest of 256 levels, whatever the maxval of
    the file they were read from: 16-bit input is written back at 8 bits.
    """
    magic = b"P5" if img.channels == 1 else b"P6"
    header = b"%s\n%d %d\n255\n" % (magic, img.width, img.height)
    levels = np.multiply(img.pixels, 255.0)
    return header + np.round(levels, out=levels).astype(np.uint8).tobytes()
