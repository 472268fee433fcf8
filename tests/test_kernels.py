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
    core,
    delaunay_energy,
    delaunay_flow,
    extended_momentum,
    harness,
    kepler_energy,
    kepler_vector_field,
    lenz_field,
    lenz_vector,
    ls_inverse,
    ls_map,
    momentum_norm_squared,
    moser_fibration,
    sample_bound_states,
    to_plane,
    to_sphere,
)
from keplerreg.dynamics import _rendered
from keplerreg.core import _bound_rows
from keplerreg.ligonschaaf import _ls_inverse_rows
from keplerreg.kernels import (
    _check_rows,
    _delaunay_flow_rows,
    _energy,
    _extended_rows,
    _fibration_rows,
    _frames,
    _integral_rows,
    _lenz,
    _lift,
    _on_pole,
)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_kepler_vector_field_is_the_leapfrog_force_bit_for_bit(n):
    points = sample_bound_states(n, 500, 11 + n)
    half_dt = 0.5e-3
    force_at = _rendered(n)[0]
    for pt in points:
        velocity, force = kepler_vector_field(pt)
        assert np.array_equal(velocity, pt.p)
        shared, r2 = force_at(pt.q.tolist(), 1.0)
        assert force.tolist() == shared, pt
        # -q (q.q)^-1.5 spelled out: even-index squares, then odd, and C pow
        q = pt.q
        assert r2 == np.sum(q[0::2] * q[0::2]) + np.sum(q[1::2] * q[1::2])
        assert np.array_equal(force, -q * np.float_power(r2, -1.5)), pt
        # the leapfrog's half kick is this force times dt/2, entry by entry
        kick, _ = force_at(pt.q.tolist(), half_dt)
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
    i, j = np.triu_indices(q.shape[-1], 1)
    wedge = q[..., i] * p[..., j] - q[..., j] * p[..., i]
    return np.concatenate([wedge, _lenz(q, p) / np.sqrt(-2.0 * energy)[..., None]], -1)


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


@pytest.mark.parametrize("dtype", [np.longdouble, np.float32])
def test_lift_keeps_its_input_dtype(dtype):
    # x.x + 1 is a power of two and y is dyadic, so every dtype lifts these rows
    # exactly and even float32 rows meet the 1e-10 sphere checks
    x = np.array([[1, 1, 1], [1, 0, 0], [0, 0, 0], [-1, 1, -1]], dtype=dtype)
    y = np.array([[0.5, -0.25, 1], [0, 2, -0.5], [1, 0, 0], [0.25, 0.5, 0.75]], dtype=dtype)
    for rows in ((x, y), (x[0], y[0])):
        u, v = _lift(*rows)
        assert u.dtype == v.dtype == dtype
        expected = _lift(*(a.astype(float) for a in rows))
        assert np.array_equal(u, expected[0]) and np.array_equal(v, expected[1])


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
        (lambda: kepler_vector_field(PhasePoint([0, 0], [0, 1])),
         "q must be nonzero (vector field singular at collision)"),
        (lambda: kepler_vector_field(PhasePoint([1e-110, 0], [0, 1])),
         "|q| = 1.000e-110 is too small: (q.q)^-1.5 overflows"),
        (lambda: momentum_norm_squared(SphereCotangentPoint(_SOUTH, [0, 0, 0])),
         "|v| must be nonzero"),
    ],
)
def test_each_singular_set_guard_keeps_its_text(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "check",
    [
        lambda u, v: _check_rows(u, v, "uv"),
        lambda u, v: _delaunay_flow_rows(u, v, np.ones(len(u))),
        lambda u, v: _ls_inverse_rows(u, v),
    ],
    ids=["_check_rows", "_delaunay_flow_rows", "_ls_inverse_rows"],
)
@pytest.mark.parametrize("u", [[[1.0]], [[np.nan]]], ids=["unit", "nan"])
def test_one_coordinate_sphere_rows_are_rejected_by_name(check, u):
    # The pair "uv" alone picks the sphere rules, ahead of the finite check.
    with pytest.raises(DomainError) as info:
        check(np.array(u), np.array([[0.0]]))
    assert str(info.value) == "sphere points need at least two coordinates"


def test_a_short_covector_is_measured_past_the_underflow_of_v_dot_v():
    # v.v underflows to 0 below |v| ~ 1e-154; the tangency bound 1e-10 min(1, |v|)
    # must still see |v|, or a lifted point with a tiny y is rejected
    sp = to_sphere(PlaneCotangentPoint([1.0, 1.0], [9.93602874e-285, 9.93602874e-285]))
    assert np.all(sp.v != 0.0)
    # tangent up to rounding (u.v = -8.5e-217), next to a row of unit length
    u = np.array([[0.6, 0.0, 0.8]] * 2)
    _check_rows(u, np.array([[0.8e-200, 0.3e-200, -0.6e-200], [0.0, 1.0, 0.0]]), "uv")
    # a short v off the tangent space is still rejected, at 1e-10 of its length
    with pytest.raises(DomainError, match=r"\|u\.v\| = 1\.000e-200 exceeds 1\.6e-210;"):
        _check_rows(u[0], np.array([0.0, 1e-200, 1.25e-200]), "uv")


@pytest.mark.filterwarnings("error")
def test_a_short_position_is_measured_past_the_underflow_of_q_dot_q():
    # q.q = 1e-320 is subnormal: |q| read from it was 9.99994e-161, and H 5.6e-6 off
    pt = PhasePoint([1e-160, 0.0], [0.0, 0.0])
    assert pt.radius == 1e-160
    assert abs(kepler_energy(pt) + 1e160) <= 2.0 * np.spacing(1e160)
    # at rest, so K = -q/|q| and the base point is the south pole
    assert np.array_equal(lenz_vector(pt), [-1.0, 0.0])
    assert np.array_equal(moser_fibration(pt).u, [0.0, 0.0, -1.0])
    # rows of every size at once; q.q = 0 is still the collision, and its message
    q = np.array([[3e-160, 4e-160], [3.0, 4.0], [0.0, 1e-161]])
    radius = -1.0 / _energy(q, np.zeros_like(q))
    assert np.allclose(radius, [5e-160, 5.0, 1e-161], rtol=4.0 * np.finfo(float).eps, atol=0.0)
    for q in ([1e-170, 0.0], [0.0, 0.0]):
        assert PhasePoint(q, [0.0, 1.0]).radius == 0.0
        with pytest.raises(DomainError, match=r"^q must be nonzero \(energy undefined"):
            _energy(np.array(q), np.array([0.0, 1.0]))


_EPS = float(np.finfo(float).eps)


def _qr_frames(g: np.ndarray) -> np.ndarray:
    """LAPACK's Q factor of each stack of g, R's diagonal made positive."""
    frame, tri = np.linalg.qr(g)
    return frame * np.sign(np.diagonal(tri, axis1=-2, axis2=-1))[..., None, :]


def _orthonormality_defect(frame: np.ndarray) -> float:
    """max |F^T F - I| over stacks of frames (..., n, m)."""
    return float(np.max(np.abs(np.swapaxes(frame, -1, -2) @ frame - np.eye(frame.shape[-1]))))


@pytest.mark.parametrize("square", [False, True], ids=["k=2", "k=n"])
@pytest.mark.parametrize("n", range(1, 17))
def test_frames_are_the_sign_fixed_q_factor(n, square):
    k = n if square else 2
    g = np.random.default_rng(n).standard_normal((10_000, n, k))
    frame = _frames(g)
    assert frame.shape == (10_000, n, min(n, k))
    assert _orthonormality_defect(frame) <= 8.0 * _EPS
    assert np.max(np.abs(frame - _qr_frames(g))) <= 1e-11


@pytest.mark.parametrize("gap", [1e-4, 1e-8, 1e-11])
@pytest.mark.parametrize("n", [2, 3, 8, 16])
def test_frames_of_nearly_parallel_columns(n, gap):
    # the second column leaves the first's direction by gap |g0|: condition number ~ 1/gap
    rng = np.random.default_rng(n)
    g0, w = rng.standard_normal((2, 10_000, n))
    w -= np.vecdot(w, g0)[:, None] * g0 / np.vecdot(g0, g0)[:, None]
    w *= (gap * np.linalg.norm(g0, axis=1) / np.linalg.norm(w, axis=1))[:, None]
    g = np.stack([g0, g0 + w], axis=-1)
    frame = _frames(g)
    assert _orthonormality_defect(frame) <= 8.0 * _EPS
    # g = F R with R upper triangular and its diagonal positive, as the sign-fixed Q's
    tri = np.swapaxes(frame, -1, -2) @ g
    assert np.max(np.abs(tri[:, 1, 0]) / np.linalg.norm(g0, axis=1)) <= 4.0 * _EPS
    assert np.all(np.diagonal(tri, axis1=-2, axis2=-1) > 0.0)


# the bound-state draw of each range set the suites use
@pytest.mark.parametrize(
    "draw",
    [
        lambda n, seed: core._bound_rows(n, 500, seed),
        lambda n, seed: harness._canonicity_rows(n, 500, seed),
        lambda n, seed: harness._flow_rows(n, 500, seed),
        lambda n, seed: core._bound_rows(n, 500, seed, min_energy=-2.0, max_energy=-0.2),
    ],
    ids=["default", "canonicity", "flow", "brackets"],
)
def test_gram_schmidt_frames_keep_the_qr_draw(draw, monkeypatch):
    # the frames move the rows by rounding only, and no filter decides otherwise
    rows = {(n, seed): draw(n, seed) for n in range(1, 9) for seed in range(50)}
    monkeypatch.setattr(core, "_frames", _qr_frames)
    for (n, seed), (qs, ps) in rows.items():
        qr_qs, qr_ps = draw(n, seed)
        assert qs.shape == ps.shape == qr_qs.shape == qr_ps.shape == (500, n)
        scale = max(np.max(np.abs(qr_qs)), np.max(np.abs(qr_ps)))
        error = max(np.max(np.abs(qs - qr_qs)), np.max(np.abs(ps - qr_ps)))
        assert error <= 1e-12 * scale, (n, seed)
