"""Image buffer, boundary addressing, grayscale, and PNM round-trip tests."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgekeep.image import (
    BoundaryPolicy,
    ImageBuffer,
    MalformedHeaderError,
    PnmError,
    TruncatedPayloadError,
    UnsupportedMaxvalError,
    load_pnm,
    sample_at,
    save_pnm,
    to_grayscale,
)
from edgekeep.noise import NOISE_KINDS, NoiseSpec, add_noise
from edgekeep.texture import TextureMap, texture_map_image

REPLICATE = BoundaryPolicy.REPLICATE
MIRROR = BoundaryPolicy.MIRROR


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


def test_load_unsupported_maxval():
    with pytest.raises(UnsupportedMaxvalError) as info:
        load_pnm(b"P5\n1 1\n128\n" + bytes(1))
    assert info.value.offset == len(b"P5\n1 1\n")


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
    assert sample_at(img.pixels, (-1, 0), REPLICATE) == img.pixels[0, 0]
    assert sample_at(img.pixels, (-1, 0), MIRROR) == img.pixels[0, 1]
    assert sample_at(img.pixels, (2, 2), REPLICATE) == img.pixels[2, 2]


def test_sample_at_rgb_returns_vector():
    img = ImageBuffer(np.random.default_rng(2).random((3, 3, 3)))
    value = sample_at(img.pixels, (0, 0))
    assert value.shape == (3,)
    assert np.array_equal(value, img.pixels[0, 0])


def test_sample_at_never_escapes_stored_array():
    # Property sweep over coordinates far outside the image, on an image's
    # samples and on a texture map's uint8 labels; folding must agree with
    # an explicitly padded array for both policies.
    rng = np.random.default_rng(3)
    for h, w in [(1, 1), (1, 5), (4, 3), (6, 6)]:
        for field in (ImageBuffer(rng.random((h, w))).pixels,
                      rng.integers(0, 6, size=(h, w), dtype=np.uint8)):
            pad = 3 * max(w, h)
            edge = np.pad(field, pad, mode="edge")
            refl = np.pad(field, pad, mode="reflect")
            for _ in range(200):
                x = int(rng.integers(-3 * w, 3 * w + 1))
                y = int(rng.integers(-3 * h, 3 * h + 1))
                assert sample_at(field, (x, y), REPLICATE) == edge[y + pad, x + pad]
                assert sample_at(field, (x, y), MIRROR) == refl[y + pad, x + pad]


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
