"""Seeded image corruption: salt-and-pepper impulses and additive Gaussian noise.

Randomness comes from numpy's Philox 4x64-10 counter-based generator keyed by
NoiseSpec.seed, so one (image, spec) pair always maps to the same output.
Draw order is fixed: salt-and-pepper draws one corruption uniform per pixel
(row-major), then one salt-vs-pepper uniform per pixel; Gaussian draws one
normal deviate per sample (row-major, channels last). Uniforms use numpy's
53-bit mantissa mapping of the raw 64-bit stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .image import ImageBuffer, check_count, check_real

NOISE_KINDS = ("salt-pepper", "gaussian")


@dataclass(frozen=True)
class NoiseSpec:
    """Corruption description; density drives salt-pepper, std drives gaussian,
    and seed, any integer (numpy integers are kept as int), keys the generator."""

    kind: str
    density: float = 0.05
    std: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"kind must be one of {NOISE_KINDS}, got {self.kind!r}")
        for name in ("density", "std"):
            object.__setattr__(self, name, check_real(name, getattr(self, name)))
        if not 0.0 <= self.density <= 1.0:
            raise ValueError(f"density must lie in [0, 1], got {self.density}")
        if not 0.0 <= self.std < math.inf:
            raise ValueError(f"std must be finite and >= 0, got {self.std}")
        object.__setattr__(self, "seed", check_count("seed", self.seed, minimum=None))


def _rng(seed: int) -> np.random.Generator:
    # Philox keys are uint64; negative seeds map via two's complement.
    return np.random.Generator(np.random.Philox(key=seed & 0xFFFFFFFFFFFFFFFF))


def salt_pepper_fields(spec: NoiseSpec, height: int, width: int):
    """The (corruption mask, salt mask) pair a spec realizes: a corrupted
    pixel becomes 1 where salt is set and 0 elsewhere.

    Exposed so tests can check which pixels a given seed touches.
    """
    rng = _rng(spec.seed)
    corrupt = rng.random((height, width)) < spec.density
    return corrupt, rng.random((height, width)) < 0.5


def add_noise(img: ImageBuffer, spec: NoiseSpec) -> ImageBuffer:
    """Corrupt an image; identical (img, spec) always yields identical output.

    Salt-and-pepper replaces whole pixels (all channels together) with 0 or 1,
    each chosen with equal probability; Gaussian adds independent zero-mean
    deviates per sample and clamps to [0, 1].
    """
    if spec.kind == "salt-pepper":
        corrupt, salt = salt_pepper_fields(spec, img.height, img.width)
        out = img.pixels.copy()
        out.reshape(img.height, img.width, -1)[corrupt] = salt[corrupt, np.newaxis]
        return ImageBuffer._adopt(out)
    deviates = _rng(spec.seed).normal(0.0, spec.std, size=img.pixels.shape)
    deviates += img.pixels
    return ImageBuffer._adopt(np.clip(deviates, 0.0, 1.0, out=deviates))
