"""The array kernels and the one-row wrappers that must agree with them."""

import math

import numpy as np
import pytest

from keplerreg import (
    DomainError,
    SphereCotangentPoint,
    angular_momentum,
    angular_momentum_field,
    kepler_energy,
    kepler_vector_field,
    lenz_field,
    lenz_vector,
    sample_bound_states,
    to_plane,
)
from keplerreg.dynamics import _kepler_force
from keplerreg.kernels import _integral_rows, _on_pole


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_kepler_vector_field_is_the_leapfrog_force_bit_for_bit(n):
    points = sample_bound_states(n, 500, 11 + n)
    half_dt = 0.5e-3
    for pt in points:
        velocity, force = kepler_vector_field(pt)
        assert np.array_equal(velocity, pt.p)
        shared, r2 = _kepler_force(pt.q.tolist())
        assert force.tolist() == shared, pt
        # -q (q.q)^-1.5 spelled out: even-index squares, then odd, and C pow
        q = pt.q
        assert r2 == np.sum(q[0::2] * q[0::2]) + np.sum(q[1::2] * q[1::2])
        assert np.array_equal(force, -q * np.float_power(r2, -1.5)), pt
        # the leapfrog's half kick is this force times dt/2, entry by entry
        kick, _ = _kepler_force(pt.q.tolist(), half_dt)
        assert kick == [f * half_dt for f in shared]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_integral_rows_are_the_first_integrals(n):
    points = sample_bound_states(n, 50, 3 + n)
    rows = _integral_rows(np.array([pt.q for pt in points]), np.array([pt.p for pt in points]))
    i, j = np.triu_indices(n, 1)
    assert rows.shape == (50, 1 + len(i) + n)
    for pt, row in zip(points, rows):
        assert row[0] == kepler_energy(pt)
        assert np.array_equal(row[1 : 1 + len(i)], angular_momentum(pt).upper[i, j])
        assert np.array_equal(row[1 + len(i) :], lenz_vector(pt))


@pytest.mark.parametrize(
    "make",
    [
        lambda: angular_momentum_field(-1, 0),
        lambda: angular_momentum_field(0, -1),
        lambda: angular_momentum_field(-2, -1),
        lambda: lenz_field(-1),
    ],
)
def test_negative_field_index_is_rejected_at_construction(make):
    with pytest.raises(ValueError, match="nonnegative"):
        make()


def test_field_index_past_n_still_fails_when_called():
    q, p = np.array([1.0, 0.2, 0.0]), np.array([0.0, 0.9, 0.1])
    momentum, lenz = angular_momentum_field(0, 3), lenz_field(3)
    for field in (momentum, lenz):
        with pytest.raises(IndexError):
            field(q, p)


@pytest.mark.parametrize("gap, on_pole", [(2e-10, False), (0.5e-10, True), (0.0, True)])
def test_one_puncture_predicate(gap, on_pole):
    last = 1.0 - gap
    sp = SphereCotangentPoint([math.sqrt(1.0 - last * last), 0.0, last], [0.0, 1.0, 0.0])
    assert bool(_on_pole(sp.u)) is on_pole
    assert sp.off_pole() is (not on_pole)
    if on_pole:
        with pytest.raises(DomainError, match="north pole fiber"):
            to_plane(sp)
    else:
        assert np.isfinite(to_plane(sp).x).all()
