"""The array kernels and the one-row wrappers that must agree with them."""

import math

import numpy as np
import pytest

from keplerreg import (
    DomainError,
    PhasePoint,
    PlaneCotangentPoint,
    SphereCotangentPoint,
    angular_momentum,
    angular_momentum_field,
    chart_hamiltonians,
    delaunay_energy,
    delaunay_flow,
    extended_momentum,
    kepler_energy,
    kepler_vector_field,
    lenz_field,
    lenz_vector,
    ls_inverse,
    ls_map,
    moser_fibration,
    sample_bound_states,
    to_plane,
)
from keplerreg.dynamics import _kepler_force
from keplerreg.core import _bound_rows
from keplerreg.kernels import (
    _energy,
    _extended_rows,
    _fibration_rows,
    _integral_rows,
    _lenz,
    _on_pole,
)


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


def _composed_extended_rows(q, p):
    """_extended_rows as _energy and _lenz compose it, each taking p.p and 1/|q|."""
    energy = _energy(q, p)
    bad = energy >= 0.0
    if bad.any():
        raise DomainError(f"H must be negative, got H = {energy[bad][0]:.6g}")
    n = q.shape[-1]
    upper = np.zeros(q.shape[:-1] + (n + 1, n + 1))
    i, j = np.triu_indices(n, 1)
    upper[..., i, j] = q[..., i] * p[..., j] - q[..., j] * p[..., i]
    upper[..., :n, n] = _lenz(q, p) / np.sqrt(-2.0 * energy)[..., None]
    return upper


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_extended_rows_equal_the_energy_and_lenz_composition(n):
    qs, ps = _bound_rows(n, 300, 5 + n, min_energy=-2.0, max_energy=-0.2)
    assert _same_bits(_extended_rows(qs, ps), _composed_extended_rows(qs, ps))
    for q, p in zip(qs[:25], ps[:25]):
        assert _same_bits(_extended_rows(q, p), _composed_extended_rows(q, p))


def _composed_fibration_rows(q, p):
    """_fibration_rows as _energy composes it, taking q.q and p.p twice."""
    r = np.sqrt(np.vecdot(q, q))
    w = np.sqrt(-2.0 * _energy(q, p))
    qp = np.vecdot(q, p)
    u = np.concatenate([(w * r)[..., None] * p, (r * np.vecdot(p, p) - 1.0)[..., None]], axis=-1)
    v = np.concatenate([-q / r[..., None] + qp[..., None] * p, (-w * qp)[..., None]], axis=-1)
    return u, v, w


def _composed_integral_rows(q, p):
    """_integral_rows as _energy and _lenz compose it, each taking p.p and 1/|q|."""
    i, j = np.triu_indices(q.shape[-1], 1)
    wedge = q[..., i] * p[..., j] - q[..., j] * p[..., i]
    return np.concatenate([_energy(q, p)[..., None], wedge, _lenz(q, p)], -1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fibration_and_integral_rows_equal_the_energy_and_lenz_composition(n):
    qs, ps = _bound_rows(n, 300, 9 + n, min_energy=-2.0, max_energy=-0.2)
    for args in [(qs, ps)] + list(zip(qs[:25], ps[:25])):
        for got, want in zip(_fibration_rows(*args), _composed_fibration_rows(*args)):
            assert _same_bits(got, np.asarray(want))
        assert _same_bits(_integral_rows(*args), _composed_integral_rows(*args))


def _error(fn, q, p) -> str:
    with pytest.raises(DomainError) as info:
        fn(q, p)
    return str(info.value)


@pytest.mark.parametrize(
    "q, p, message",
    [
        # a collision row names the energy, also where p makes H >= 0
        ([[0.0, 0.0]], [[0.1, 0.0]], "q must be nonzero (energy undefined at collision)"),
        ([[0.0, 0.0]], [[3.0, 0.0]], "q must be nonzero (energy undefined at collision)"),
        (
            [[1.0, 0.0], [0.5, 0.0], [0.0, 0.0]],
            [[2.0, 0.0], [0.1, 0.2], [0.1, 0.2]],
            "q must be nonzero (energy undefined at collision)",
        ),
        ([[4.0, 0.0]], [[0.5, 0.5]], "H must be negative, got H = 0"),
        ([[1.0, 0.0], [1.0, 0.5]], [[0.1, 0.0], [2.0, 0.0]], "H must be negative, got H = 1.10557"),
    ],
)
def test_extended_rows_errors_match_the_composition(q, p, message):
    q, p = np.array(q), np.array(p)
    for args in ((q, p), (q[-1], p[-1])) if len(q) == 1 else ((q, p),):
        assert _error(_extended_rows, *args) == _error(_composed_extended_rows, *args) == message


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


_NORTH = [0.0, 0.0, 1.0]
_SOUTH = [0.0, 0.0, -1.0]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: kepler_energy(PhasePoint([0, 0], [1, 0])),
         "q must be nonzero (energy undefined at collision)"),
        (lambda: lenz_vector(PhasePoint([0, 0], [1, 0])),
         "q must be nonzero (Lenz vector undefined at collision)"),
        (lambda: moser_fibration(PhasePoint([0, 0], [1, 0])),
         "q must be nonzero (collision point)"),
        (lambda: moser_fibration(PhasePoint([1, 0], [2, 0])),
         "H must be negative for the fibration, got H = 1"),
        (lambda: ls_map(PhasePoint([4, 0], [0.5, 0.5])),
         "H must be negative for the fibration, got H = 0"),
        (lambda: delaunay_energy(SphereCotangentPoint(_SOUTH, [0, 0, 0])),
         "|v| must be nonzero (zero section)"),
        (lambda: delaunay_flow(SphereCotangentPoint(_SOUTH, [0, 0, 0]), 1.0),
         "|v| must be nonzero (zero section has no flow)"),
        (lambda: ls_inverse(SphereCotangentPoint(_SOUTH, [0, 0, 0])),
         "|s| must be nonzero (zero section has no preimage)"),
        (lambda: ls_inverse(SphereCotangentPoint(_NORTH, [0, 1e-200, 0])),
         "|s| must be nonzero (zero section has no preimage)"),
        (lambda: chart_hamiltonians(PlaneCotangentPoint([1, 2], [0, 0])),
         "|y| must be nonzero for the chart Kepler Hamiltonian"),
        (lambda: chart_hamiltonians(PlaneCotangentPoint([1e200, 0], [0, 0])),
         "|y| must be nonzero for the chart Kepler Hamiltonian"),
        (lambda: extended_momentum(PhasePoint([1, 0], [0, 1.5])),
         "H must be negative, got H = 0.125"),
    ],
)
def test_each_singular_set_guard_keeps_its_text(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message
