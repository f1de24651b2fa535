"""Image buffer, edge-clamped addressing, grayscale, and PNM round-trip tests."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgekeep.filters import FilterParams
from edgekeep.image import (
    AREA_FACTOR,
    LUMA_WEIGHTS,
    RADIUS_FLOOR,
    ImageBuffer,
    MalformedHeaderError,
    PnmError,
    TruncatedPayloadError,
    UnsupportedMaxvalError,
    check_radius,
    load_pnm,
    sample_at,
    save_pnm,
    to_grayscale,
)
from edgekeep.noise import NOISE_KINDS, NoiseSpec, add_noise
from edgekeep.kernels import _run_bands
from edgekeep.texture import TextureMap, TextureParams, texture_map_image


# --- ImageBuffer invariants ---

def test_buffer_validates_shape_and_range():
    with pytest.raises(ValueError):
        ImageBuffer(np.zeros((4, 4, 2)))
    with pytest.raises(ValueError):
        ImageBuffer(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        ImageBuffer(np.full((2, 2), 1.5))
    with pytest.raises(ValueError):
        ImageBuffer(np.full((2, 2), -0.1))
    for bad in (np.nan, np.inf, -np.inf):
        for shape in ((3, 4), (3, 4, 3)):
            pixels = np.full(shape, 0.5)
            pixels[1, 2] = bad
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                ImageBuffer(pixels)


def test_buffer_is_immutable_and_copied():
    src = np.zeros((3, 3))
    img = ImageBuffer(src)
    src[0, 0] = 1.0
    assert img.pixels[0, 0] == 0.0
    with pytest.raises(ValueError):
        img.pixels[0, 0] = 0.5


def test_buffer_properties():
    gray = ImageBuffer(np.zeros((4, 7)))
    assert (gray.width, gray.height, gray.channels) == (7, 4, 1)
    rgb = ImageBuffer(np.zeros((4, 7, 3)))
    assert (rgb.width, rgb.height, rgb.channels) == (7, 4, 3)


# --- PNM loading ---

def test_load_p5_endpoints():
    img = load_pnm(b"P5\n2 1\n255\n" + bytes([0, 255]))
    assert (img.width, img.height, img.channels) == (2, 1, 1)
    assert img.pixels[0, 0] == 0.0 and img.pixels[0, 1] == 1.0


def test_load_p6_red_pixel():
    img = load_pnm(b"P6\n1 1\n255\n" + bytes([255, 0, 0]))
    assert img.channels == 3
    assert np.array_equal(img.pixels[0, 0], [1.0, 0.0, 0.0])


def test_load_sixteen_bit_big_endian():
    img = load_pnm(b"P5\n1 1\n65535\n" + (32768).to_bytes(2, "big"))
    assert img.pixels[0, 0] == pytest.approx(32768 / 65535)


def test_load_ignores_bytes_after_first_payload():
    first = b"P5\n2 1\n255\n" + bytes([5, 7])
    img = load_pnm(first)
    for trailer in (b"\n", b"junk", first, b"P6\n1 1\n255\n" + bytes(3)):
        assert np.array_equal(load_pnm(first + trailer).pixels, img.pixels)


def test_load_header_comments():
    data = b"P5 # magic\n# a comment line\n2 1 # dims\n255\n" + bytes([5, 7])
    img = load_pnm(data)
    assert img.width == 2 and img.height == 1


def test_load_header_with_a_long_comment():
    comment = b"#" + b"x" * 1_000_000 + b"\n"
    img = load_pnm(b"P5\n" + comment + b"2 1\n" + comment + b"255\n" + bytes([5, 7]))
    assert (img.width, img.height) == (2, 1)
    assert np.array_equal(img.pixels, [[5 / 255, 7 / 255]])


@pytest.mark.parametrize("wrap", [bytearray, memoryview, lambda b: memoryview(bytearray(b))])
def test_load_reads_any_bytes_like_object_as_its_bytes(wrap):
    for data in (b"P5\n3 2\n255\n" + bytes(range(6)),
                 b"P6 1 1 65535\n" + bytes(range(6)) + b"trailing"):
        assert np.array_equal(load_pnm(wrap(data)).pixels, load_pnm(data).pixels)
    bad = b"P5\n3 +2\n255\n" + bytes(6)
    with pytest.raises(MalformedHeaderError, match=r"byte offset 5\)$"):
        load_pnm(wrap(bad))


@pytest.mark.parametrize("not_bytes", [5, 10**12, "P5 1 1 255 x", None])
def test_load_rejects_what_is_not_bytes_like(not_bytes):
    with pytest.raises(TypeError):
        load_pnm(not_bytes)


def test_load_truncated_payload_reports_offset():
    header = b"P5\n4 4\n255\n"
    with pytest.raises(TruncatedPayloadError) as info:
        load_pnm(header + bytes(15))
    assert info.value.offset == len(header) + 15


def test_load_malformed_header():
    with pytest.raises(MalformedHeaderError) as info:
        load_pnm(b"P4\n2 2\n255\n" + bytes(4))
    assert info.value.offset == 0
    with pytest.raises(MalformedHeaderError):
        load_pnm(b"P5\nx 2\n255\n" + bytes(4))
    with pytest.raises(MalformedHeaderError):
        load_pnm(b"P5\n2 2\n")  # maxval token missing entirely
    # Header integers are ASCII decimal digits: no sign, no underscore, and no
    # more digits than int() converts.
    for header, token in ((b"P5\n+2 1\n255\n", b"+2"), (b"P5\n1_0 1\n255\n", b"1_0"),
                          (b"P5\n2 1\n+255\n", b"+255"),
                          (b"P5\n" + b"9" * 5000 + b" 1\n255\n", b"9" * 5000)):
        with pytest.raises(MalformedHeaderError, match="is not an integer") as info:
            load_pnm(header + bytes(10))
        assert info.value.offset == header.index(token)


def test_load_unsupported_maxval():
    with pytest.raises(UnsupportedMaxvalError) as info:
        load_pnm(b"P5\n1 1\n128\n" + bytes(1))
    assert info.value.offset == len(b"P5\n1 1\n")


def test_load_zero_height():
    with pytest.raises(MalformedHeaderError, match="height must be >= 1") as info:
        load_pnm(b"P5\n1 0\n255\n")
    assert info.value.offset == len(b"P5\n1 ")


@pytest.mark.parametrize("data", [b"P5\n1 1\n255#c\n\x00", b"P5\n1 1\n255"])
def test_load_requires_a_whitespace_byte_after_maxval(data):
    with pytest.raises(MalformedHeaderError, match="whitespace byte after maxval") as info:
        load_pnm(data)
    assert info.value.offset == len(b"P5\n1 1\n255")


# --- PNM saving and round-trip ---

def test_save_quantization_examples():
    assert save_pnm(ImageBuffer([[0.5]])).endswith(bytes([128]))
    assert save_pnm(ImageBuffer([[1.0]])).endswith(bytes([255]))
    assert save_pnm(ImageBuffer([[0.0]])).endswith(bytes([0]))


def test_sixteen_bit_input_saves_at_eight_bits():
    samples = [0, 257, 32768, 65535]
    img = load_pnm(b"P5\n4 1\n65535\n" + b"".join(v.to_bytes(2, "big") for v in samples))
    expected = bytes(int(np.round(v / 65535 * 255.0)) for v in samples)
    assert expected == bytes([0, 1, 128, 255])
    assert save_pnm(img) == b"P5\n4 1\n255\n" + expected


def test_save_header_shape():
    data = save_pnm(ImageBuffer(np.zeros((2, 3))))
    assert data.startswith(b"P5\n3 2\n255\n")
    data = save_pnm(ImageBuffer(np.zeros((2, 3, 3))))
    assert data.startswith(b"P6\n3 2\n255\n")


def test_roundtrip_quantization_bound():
    rng = np.random.default_rng(42)
    for shape in [(16, 16), (16, 16, 3), (1, 1), (5, 9)]:
        img = ImageBuffer(rng.random(shape))
        back = load_pnm(save_pnm(img))
        assert np.abs(back.pixels - img.pixels).max() <= 1.0 / 510.0


def test_roundtrip_is_stable_after_first_quantization():
    rng = np.random.default_rng(7)
    img = load_pnm(save_pnm(ImageBuffer(rng.random((8, 8)))))
    assert save_pnm(load_pnm(save_pnm(img))) == save_pnm(img)


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pnm_codec_makes_one_image_array():
    # load_pnm scales the payload, read in place, into the array its buffer
    # adopts; save_pnm scales and rounds in one array before the 8-bit bytes.
    rng = np.random.default_rng(43)
    for shape in ((1024, 1024), (512, 512, 3)):
        img = ImageBuffer(rng.random(shape))
        data = save_pnm(img)
        loaded = load_pnm(data)
        assert not loaded.pixels.flags.writeable
        assert _traced_peak(lambda: load_pnm(data)) <= 1.3 * img.pixels.nbytes
        assert _traced_peak(lambda: save_pnm(img)) <= 1.4 * img.pixels.nbytes


# --- grayscale ---

def test_grayscale_identity_on_gray():
    img = ImageBuffer(np.random.default_rng(0).random((5, 5)))
    out = to_grayscale(img)
    assert np.array_equal(out.pixels, img.pixels)
    assert out is img  # buffers are immutable, so no copy is needed


def test_grayscale_weights():
    white = ImageBuffer(np.ones((1, 1, 3)))
    assert to_grayscale(white).pixels[0, 0] == 1.0
    red = ImageBuffer(np.array([[[1.0, 0.0, 0.0]]]))
    assert to_grayscale(red).pixels[0, 0] == 0.299
    green = ImageBuffer(np.array([[[0.0, 1.0, 0.0]]]))
    assert to_grayscale(green).pixels[0, 0] == pytest.approx(0.587, abs=1e-15)


def test_grayscale_sums_in_place_with_unchanged_bits():
    # luma = g * wg; luma += b * wb; luma += r * wr adds r + (g + b), as the
    # white-preserving order does, with one temporary beside luma.
    rng = np.random.default_rng(44)
    img = ImageBuffer(rng.random((512, 512, 3)))
    r, g, b = (img.pixels[..., k] for k in range(3))
    wr, wg, wb = LUMA_WEIGHTS
    expected = np.clip(r * wr + (g * wg + b * wb), 0.0, 1.0)
    assert np.array_equal(to_grayscale(img).pixels, expected)
    assert to_grayscale(ImageBuffer(np.ones((4, 4, 3)))).pixels.min() == 1.0
    assert _traced_peak(lambda: to_grayscale(img)) <= 2.1 * expected.nbytes


def test_grayscale_idempotent_exactly():
    rng = np.random.default_rng(1)
    img = ImageBuffer(rng.random((6, 4, 3)))
    once = to_grayscale(img)
    twice = to_grayscale(once)
    assert np.array_equal(once.pixels, twice.pixels)


def test_made_images_are_read_only_and_share_no_memory_with_their_input():
    # Noise, grayscale and label exports hand their fresh arrays to the buffer.
    rng = np.random.default_rng(4)
    for shape in ((5, 6), (5, 6, 3)):
        img = ImageBuffer(rng.random(shape))
        tex = TextureMap(rng.integers(0, 6, size=shape[:2]))
        made = [(img.pixels, add_noise(img, NoiseSpec(kind, density=0.3, std=0.3, seed=1)))
                for kind in NOISE_KINDS]
        made.append((tex.labels, texture_map_image(tex)))
        if img.channels == 3:
            made.append((img.pixels, to_grayscale(img)))
        for source, out in made:
            assert not out.pixels.flags.writeable
            assert not np.shares_memory(out.pixels, source)
            with pytest.raises(ValueError):
                out.pixels[0, 0] = 0.5


# --- sample_at ---

def test_sample_at_examples():
    img = ImageBuffer(np.arange(16, dtype=float).reshape(4, 4) / 15.0)
    assert sample_at(img.pixels, (-1, 0)) == img.pixels[0, 0]
    assert sample_at(img.pixels, (5, -2)) == img.pixels[0, 3]
    assert sample_at(img.pixels, (2, 2)) == img.pixels[2, 2]


def test_sample_at_rgb_returns_vector():
    img = ImageBuffer(np.random.default_rng(2).random((3, 3, 3)))
    value = sample_at(img.pixels, (0, 0))
    assert value.shape == (3,)
    assert np.array_equal(value, img.pixels[0, 0])


def test_sample_at_never_escapes_stored_array():
    # Property sweep over coordinates far outside the image, on an image's
    # samples and on a texture map's uint8 labels; clamping must agree with
    # an edge-padded array.
    rng = np.random.default_rng(3)
    for h, w in [(1, 1), (1, 5), (4, 3), (6, 6)]:
        for field in (ImageBuffer(rng.random((h, w))).pixels,
                      rng.integers(0, 6, size=(h, w), dtype=np.uint8)):
            pad = 3 * max(w, h)
            edge = np.pad(field, pad, mode="edge")
            for _ in range(200):
                x = int(rng.integers(-3 * w, 3 * w + 1))
                y = int(rng.integers(-3 * h, 3 * h + 1))
                assert sample_at(field, (x, y)) == edge[y + pad, x + pad]


# --- PNM fuzz ---

_VALID_PNM = [
    b"P5\n3 2\n255\n" + bytes(range(0, 60, 10)),
    b"P6\n# two pixels\n2 1\n255\n" + bytes([255, 0, 0, 0, 128, 255]),
    b"P5 2 2 65535 " + bytes(range(8)),
]


@st.composite
def _mutated_pnm(draw):
    """A valid PGM/PPM with some bytes replaced, inserted or deleted, or cut."""
    data = bytearray(draw(st.sampled_from(_VALID_PNM)))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(("replace", "insert", "delete", "truncate")))
        byte = draw(st.sampled_from(b"P56 #\n0123456789-+.e\x00\xff"))
        if edit == "replace" and at < len(data):
            data[at] = byte
        elif edit == "insert":
            data.insert(at, byte)
        elif edit == "delete" and at < len(data):
            del data[at]
        else:
            del data[at:]
    return bytes(data)


@settings(max_examples=150, deadline=None)
@given(data=_mutated_pnm())
def test_mutated_pnm_loads_or_raises_pnm_error(data):
    try:
        img = load_pnm(data)
    except PnmError:
        return
    assert isinstance(img, ImageBuffer)


# --- the library's number and radius rules ---

@pytest.mark.parametrize("make, field", [
    (lambda: FilterParams(sigma_d=True), "sigma_d"),
    (lambda: FilterParams(window_radius=True), "window_radius"),
    (lambda: FilterParams(passes=True), "passes"),
    (lambda: FilterParams(sigma_r="0.1"), "sigma_r"),
    (lambda: FilterParams(sigma_t=None), "sigma_t"),
    (lambda: TextureParams(complex_ratio="0.5"), "complex_ratio"),
    (lambda: TextureParams(smooth_threshold="0.1"), "smooth_threshold"),
    (lambda: TextureParams(sigma_g=np.bool_(True)), "sigma_g"),
    (lambda: NoiseSpec("gaussian", density=True), "density"),
    (lambda: NoiseSpec("gaussian", std="1"), "std"),
    (lambda: NoiseSpec("gaussian", std=1j), "std"),
    (lambda: NoiseSpec("gaussian", seed=False), "seed"),
])
def test_params_reject_bools_and_non_real_values_naming_the_field(make, field):
    with pytest.raises(ValueError, match=f"^{field} must be "):
        make()


@pytest.mark.parametrize("make, field", [
    (lambda: FilterParams(sigma_d=10**400), "sigma_d"),
    (lambda: FilterParams(sigma_r=10**400), "sigma_r"),
    (lambda: FilterParams(sigma_t=10**400), "sigma_t"),
    (lambda: FilterParams(sigma_d=10**200), "sigma_d"),  # a float, but not its square
    (lambda: TextureParams(sigma_g=10**400), "sigma_g"),
    (lambda: TextureParams(smooth_threshold=10**400), "smooth_threshold"),
    (lambda: NoiseSpec("gaussian", std=10**400), "std"),
])
def test_params_reject_integers_past_the_float_range_naming_the_field(make, field):
    with pytest.raises(ValueError, match=f"^{field} "):
        make()


@pytest.mark.parametrize("make, fields", [
    (lambda: FilterParams(sigma_d=2, sigma_r=np.float32(0.1), sigma_t=Fraction(1, 2)),
     ("sigma_d", "sigma_r", "sigma_t")),
    (lambda: FilterParams(sigma_d=math.inf, sigma_r=np.float64(math.inf)), ("sigma_d", "sigma_r")),
    (lambda: TextureParams(sigma_g=1, smooth_threshold=np.float16(0.5),
                           complex_ratio=Fraction(4, 5)),
     ("sigma_g", "smooth_threshold", "complex_ratio")),
    (lambda: NoiseSpec("gaussian", density=Fraction(1, 4), std=np.float32(0.2)),
     ("density", "std")),
])
def test_params_store_each_real_as_a_float(make, fields):
    params = make()
    for field in fields:
        assert type(getattr(params, field)) is float, field


def _accepts(shape, r) -> bool:
    try:
        check_radius("radius", r, shape)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("shape, largest", [
    ((8, 8), 64), ((64, 64), 64), ((100, 100), 100), ((1024, 1024), 1024), ((2, 70), 70),
    ((1, 65536), 3), ((65536, 1), 3), ((100, 1000), 250), ((1, 1), 64)])
def test_largest_accepted_radius(shape, largest):
    # Square images keep the side bound max(h, w, 64); thin ones the area bound.
    assert _accepts(shape, largest) and not _accepts(shape, largest + 1)


@settings(max_examples=300, deadline=None)
@given(h=st.integers(1, 5000), w=st.integers(1, 5000), data=st.data())
def test_every_accepted_radius_pads_within_the_area_bound(h, w, data):
    # Shapes only: the bands _run_bands cuts are recorded, and the slab
    # (y1 - y0 + 2r) x (w + 2r) each one's kernels._halo would build is sized
    # from them, nothing allocated.
    r = data.draw(st.integers(0, 8) | st.integers(0, max(h, w, RADIUS_FLOOR) + 1))
    if not _accepts((h, w), r):
        return
    assert r <= max(h, w, RADIUS_FLOOR)
    bands = []
    _run_bands(h, w + 2 * r, lambda y0, y1: bands.append((y0, y1)))
    assert sorted(bands)[0][0] == 0 and sum(y1 - y0 for y0, y1 in bands) == h
    slabs = [(y1 - y0 + 2 * r) * (w + 2 * r) for y0, y1 in bands]
    assert max(slabs) <= AREA_FACTOR * max(h * w, RADIUS_FLOOR ** 2)
