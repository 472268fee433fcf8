import math

import numpy as np
import pytest

from keplerreg import (
    DomainError,
    PhasePoint,
    angular_momentum,
    angular_momentum_field,
    extended_momentum,
    extended_momentum_field,
    hamiltonian_field,
    kepler_energy,
    kepler_integrate,
    lenz_field,
    lenz_vector,
    ls_map,
    momentum_norm_squared,
    poisson_bracket,
    sample_bound_states,
    sphere_momentum,
)
from keplerreg.kernels import _energy, _lenz
from keplerreg.symmetry import _bracket_batch, _central_differences

SQRT7 = math.sqrt(7.0)
WORKED = PhasePoint([1.0, 0.0], [0.0, 0.5])  # H = -7/8, L12 = 1/2, K = (-3/4, 0)


class TestAngularMomentum:
    def test_circular(self):
        assert angular_momentum(PhasePoint([1, 0], [0, 1])).entry(0, 1) == 1.0

    def test_worked_point(self):
        assert angular_momentum(WORKED).entry(0, 1) == 0.5

    def test_parallel_vanishes(self):
        mat = angular_momentum(PhasePoint([1, 2], [2, 4]))
        assert np.array_equal(mat.entries, np.zeros((2, 2)))


class TestLenzVector:
    def test_circular_zero(self):
        assert np.allclose(lenz_vector(PhasePoint([1, 0], [0, 1])), [0, 0], atol=1e-16)

    def test_worked_point(self):
        assert np.allclose(lenz_vector(WORKED), [-0.75, 0.0], atol=0)

    def test_rectilinear_unit(self):
        assert np.allclose(lenz_vector(PhasePoint([1, 0], [0, 0])), [-1.0, 0.0], atol=0)

    def test_collision_rejected(self):
        with pytest.raises(DomainError):
            lenz_vector(PhasePoint([0, 0], [1, 0]))

    def test_underflowing_radius_rejected(self):
        with pytest.raises(DomainError, match="q must be nonzero"):
            lenz_vector(PhasePoint([1e-170, 0], [1, 0]))

    def test_norm_is_eccentricity(self):
        # classical-elements oracle for n = 2: a = -1/(2H) and
        # L^2 = a (1 - e^2), so e = sqrt(1 - L^2/a)
        for pt in sample_bound_states(2, 200, 67):
            a = -0.5 / kepler_energy(pt)
            l12 = angular_momentum(pt).entry(0, 1)
            ecc = math.sqrt(max(0.0, 1.0 - l12 * l12 / a))
            assert float(np.linalg.norm(lenz_vector(pt))) == pytest.approx(ecc, abs=1e-12)


class TestExtendedMomentum:
    def test_circular(self):
        mat = extended_momentum(PhasePoint([1, 0], [0, 1]))
        assert mat.entry(0, 1) == 1.0
        assert mat.entry(0, 2) == 0.0
        assert mat.entry(1, 2) == 0.0

    def test_worked_point(self):
        mat = extended_momentum(WORKED)
        assert mat.entry(0, 1) == 0.5
        assert mat.entry(0, 2) == pytest.approx(-3.0 / (2.0 * SQRT7), rel=1e-15)
        assert mat.entry(1, 2) == 0.0

    def test_rectilinear(self):
        mat = extended_momentum(PhasePoint([1, 0], [0, 0]))
        assert mat.entry(0, 1) == 0.0
        assert mat.entry(0, 2) == pytest.approx(-1.0 / math.sqrt(2.0), rel=1e-15)

    def test_bound_required(self):
        with pytest.raises(DomainError):
            extended_momentum(PhasePoint([1, 0], [0, 2]))


class TestSphereMomentum:
    def test_circular_image(self):
        from keplerreg import SphereCotangentPoint

        mat = sphere_momentum(SphereCotangentPoint([0, 1, 0], [-1, 0, 0]))
        assert mat.entry(0, 1) == 1.0
        assert mat.entry(0, 2) == 0.0

    def test_rectilinear_image(self):
        from keplerreg import SphereCotangentPoint

        mat = sphere_momentum(
            SphereCotangentPoint([0, 0, -1], [-1 / math.sqrt(2.0), 0, 0])
        )
        assert mat.entry(0, 2) == pytest.approx(-1.0 / math.sqrt(2.0), rel=1e-15)
        assert mat.entry(0, 1) == 0.0

    def test_pullback_identity(self):
        for n in (2, 3, 4):
            for pt in sample_bound_states(n, 200, 61):
                lhs = sphere_momentum(ls_map(pt)).entries
                rhs = extended_momentum(pt).entries
                assert float(np.max(np.abs(lhs - rhs))) <= 1e-12


class TestMomentumNormSquared:
    def test_circular(self):
        assert momentum_norm_squared(PhasePoint([1, 0], [0, 1])) == pytest.approx(
            1.0, rel=1e-15
        )

    def test_worked_point(self):
        # L^2 + K^2/(-2H) = 1/4 + (9/16)/(7/4) = 4/7
        assert momentum_norm_squared(WORKED) == pytest.approx(4.0 / 7.0, rel=1e-14)

    def test_rectilinear(self):
        assert momentum_norm_squared(PhasePoint([1, 0], [0, 0])) == pytest.approx(
            0.5, rel=1e-15
        )

    def test_identity_sampled(self):
        for pt in sample_bound_states(3, 300, 62):
            mu2 = momentum_norm_squared(pt)
            assert abs(mu2 * (-2.0 * kepler_energy(pt)) - 1.0) <= 1e-12

    def test_sphere_side(self):
        from keplerreg import delaunay_energy

        for pt in sample_bound_states(2, 100, 63):
            sp = ls_map(pt)
            mu2 = momentum_norm_squared(sp)
            assert mu2 * (-2.0 * delaunay_energy(sp)) == pytest.approx(1.0, abs=1e-12)

    def test_type_check(self):
        with pytest.raises(TypeError):
            momentum_norm_squared(42)


class TestPoissonBracket:
    def test_canonical_pair(self):
        def f(q, p):
            return q[..., 0]

        def g(q, p):
            return p[..., 0]

        value = poisson_bracket(f, g, WORKED, 1e-6)
        assert value == pytest.approx(1.0, abs=1e-10)

    def test_lenz_lenz_bracket(self):
        # {K1, K2} = -2H L12 = (7/4)(1/2) = 7/8 at the worked point
        value = poisson_bracket(
            lenz_field(0), lenz_field(1), WORKED, 1e-6, richardson=True
        )
        assert value == pytest.approx(7.0 / 8.0, abs=1e-5)

    def test_angular_lenz_bracket(self):
        # {L12, K1} = K2 = 0 at the worked point
        value = poisson_bracket(
            angular_momentum_field(0, 1), lenz_field(0), WORKED, 1e-6, richardson=True
        )
        assert value == pytest.approx(0.0, abs=1e-5)

    def test_richardson_tightens(self):
        coarse = poisson_bracket(lenz_field(0), lenz_field(1), WORKED, 1e-4)
        fine = poisson_bracket(
            lenz_field(0), lenz_field(1), WORKED, 1e-4, richardson=True
        )
        exact = 7.0 / 8.0
        assert abs(fine - exact) < abs(coarse - exact)
        assert fine == pytest.approx(exact, abs=1e-8)

    def test_domain_predicate(self):
        def field(q, p):
            if not np.linalg.norm(q) > 0.5:
                raise DomainError("outside the field domain")
            return _energy(q, p)

        point = PhasePoint([0.5 + 1e-7, 0.0], [0.0, 1.0])
        with pytest.raises(DomainError, match="stencil"):
            poisson_bracket(field, hamiltonian_field(), point, 1e-6)

    def test_step_validation(self):
        with pytest.raises(ValueError):
            poisson_bracket(lenz_field(0), lenz_field(1), WORKED, 0.0)

    @pytest.mark.parametrize("richardson", [False, True])
    @pytest.mark.parametrize("n", [2, 3])
    def test_distinct_fields_keep_two_gradients_bit_for_bit(self, n, richardson):
        pairs = [
            (lenz_field(0), lenz_field(1)),
            (angular_momentum_field(0, 1), lenz_field(n - 1)),
            (hamiltonian_field(), extended_momentum_field(0, n, n)),
        ]
        for pt in sample_bound_states(n, 5, 17):
            for f, g in pairs:
                want = _two_gradient_bracket(f, g, pt.q, pt.p, 1e-6, richardson)
                got = poisson_bracket(f, g, pt, 1e-6, richardson=richardson)
                assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("n", [2, 3])
    def test_one_stacked_gradient_equals_two(self, n):
        # the engine takes one gradient of the stacked field; its brackets
        # are those of two separate gradients, bit for bit
        pts = sample_bound_states(n, 30, 19)
        qs, ps = np.stack([pt.q for pt in pts]), np.stack([pt.p for pt in pts])

        def field(q, p):
            return np.concatenate([_lenz(q, p), _energy(q, p)[..., None]], axis=-1)

        shared = _bracket_batch(field, qs, ps, 1e-6, richardson=True)
        want = _two_gradient_bracket(field, field, qs, ps, 1e-6, True)
        assert shared.shape == (30, n + 1, n + 1)
        assert shared.tobytes() == want.tobytes()


def _two_gradient_bracket(f, g, qs, ps, h, richardson):
    """The bracket engine with one central-difference gradient of f and
    another of g, even when g is f: the reference that the engine's
    results must equal bit for bit."""
    n = qs.shape[-1]
    z = np.concatenate([qs, ps], axis=-1)
    df = _central_differences(lambda z: f(z[..., :n], z[..., n:]), z, h, richardson=richardson)
    dg = _central_differences(lambda z: g(z[..., :n], z[..., n:]), z, h, richardson=richardson)
    batch = qs.ndim - 1
    kf, kg = df[0].ndim - batch, dg[0].ndim - batch
    df = [d.reshape(d.shape + (1,) * kg) for d in df]
    dg = [d.reshape(d.shape[:batch] + (1,) * kf + d.shape[batch:]) for d in dg]
    total = 0.0
    for k in range(n):
        total = total + df[k] * dg[n + k] - df[n + k] * dg[k]
    return total


class TestExtendedMomentumField:
    def test_matches_matrix_entries(self):
        for pt in sample_bound_states(3, 100, 64):
            mat = extended_momentum(pt)
            for i in range(4):
                for j in range(4):
                    if i == j:
                        continue
                    field = extended_momentum_field(i, j, 3)
                    assert float(field(pt.q, pt.p)) == pytest.approx(
                        mat.entry(i, j), rel=1e-12, abs=1e-15
                    )

    def test_scaled_lenz_entries_raise_off_the_bound_region(self):
        # H = 1.125 - 1 > 0: no sqrt(-2H), so no scaled Lenz component
        q, p = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.5, 0.0])
        for i, j in ((0, 3), (3, 1)):
            with pytest.raises(DomainError, match="H must be negative, got H = 0.125"):
                extended_momentum_field(i, j, 3)(q, p)

    def test_indices_out_of_range_rejected(self):
        # a negative index would wrap to another component
        for i, j in ((-1, 3), (0, -1), (4, 3), (1, 5)):
            with pytest.raises(ValueError, match="out of range for so\\(4\\)"):
                extended_momentum_field(i, j, 3)

    def test_hamiltonian_field_matches(self):
        # on a batch, the fields equal the point functions bit for bit
        for n in (2, 3):
            pts = sample_bound_states(n, 50, 65)
            qs = np.stack([pt.q for pt in pts])
            ps = np.stack([pt.p for pt in pts])
            energy = hamiltonian_field()(qs, ps)
            lenz = np.stack([lenz_field(i)(qs, ps) for i in range(n)], axis=-1)
            for k, pt in enumerate(pts):
                assert energy[k] == kepler_energy(pt)
                assert np.array_equal(lenz[k], lenz_vector(pt))


class TestConservationAlongFlow:
    def test_first_integrals_drift_bounded(self):
        pts = sample_bound_states(
            2, 10, 66, pole_gap=0.05, max_eccentricity=0.6, min_energy=-1.0
        )
        for pt in pts:
            traj = kepler_integrate(pt, 0.5, 2e-5, record_every=5000)
            base_l = angular_momentum(pt).entry(0, 1)
            base_k = lenz_vector(pt)
            for i in range(len(traj)):
                state = traj.point(i)
                assert abs(kepler_energy(state) - kepler_energy(pt)) <= 1e-6
                assert abs(angular_momentum(state).entry(0, 1) - base_l) <= 1e-6
                assert float(np.max(np.abs(lenz_vector(state) - base_k))) <= 1e-6
