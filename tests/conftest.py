import math

import numpy as np
import pytest
from hypothesis import settings

from keplerreg import PhasePoint, core, harness, kepler_energy, scale_phase

settings.register_profile("det", deadline=None, derandomize=True, max_examples=60)
settings.load_profile("det")


def rescale_to_energy(point: PhasePoint, target: float) -> PhasePoint:
    """Scale a bound point onto the energy level ``target`` < 0."""
    energy = kepler_energy(point)
    assert energy < 0 and target < 0
    return scale_phase(point, math.sqrt(energy / target))


@pytest.fixture
def circular():
    """Circular orbit on the reference shell: H = -1/2, period 2 pi."""
    return PhasePoint([1.0, 0.0], [0.0, 1.0])


@pytest.fixture
def rectilinear():
    """Radial free-fall orbit: H = -1, collides at t = pi/(2 sqrt 2)."""
    return PhasePoint([1.0, 0.0], [0.0, 0.0])


@pytest.fixture
def bound_draws_give_up(monkeypatch):
    """The harness's bound-state draws hand the real rejection loop rounds that keep
    nothing, so every suite drawing bound states gives up by its limit and message."""

    def never_kept(n, count, seed, **ranges):
        empty = np.empty((0, n))
        return core._rejection_rows(
            count, lambda missing: (empty, empty, max(2 * missing, 256)), "qp"
        )

    monkeypatch.setattr(harness, "_bound_rows", never_kept)


def max_abs(*arrays) -> float:
    return max(float(np.max(np.abs(a))) for a in arrays)
