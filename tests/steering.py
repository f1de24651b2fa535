"""The four steered bands of a basis pair: the reference the tests check the
structure-tensor energies of texture.local_energy against."""

import math

import numpy as np

_INV_SQRT2 = math.sqrt(0.5)
# (cos, sin) steering coefficients matching texture.ORIENTATIONS_DEG.
_STEERING = ((1.0, 0.0), (0.0, 1.0), (_INV_SQRT2, _INV_SQRT2), (_INV_SQRT2, -_INV_SQRT2))


def steer(basis) -> np.ndarray:
    """The four bands cos(theta) * bx + sin(theta) * by of a basis pair,
    stacked (4, h, w) in ORIENTATIONS_DEG order."""
    bx, by = basis
    return np.stack([c * bx + s * by for c, s in _STEERING])
