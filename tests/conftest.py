"""Fixtures shared by the test modules."""

import pytest

from edgekeep import texture


@pytest.fixture
def no_spare_energies(monkeypatch):
    """An empty spare energy slot, so that a texture map makes its own energy
    block, as the first map of its shape does; the slot is put back after."""
    monkeypatch.setattr(texture, "_spare_energies", {})
