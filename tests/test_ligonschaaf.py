import math

import mpmath
import numpy as np
import pytest

from keplerreg import (
    DomainError,
    LSAngle,
    PhasePoint,
    PunctureError,
    SphereCotangentPoint,
    angle_equation,
    delaunay_energy,
    kepler_energy,
    ls_angle,
    ls_inverse,
    ls_map,
    moser_fibration,
    sample_bound_states,
    scale_phase,
    scale_sphere,
)
from keplerreg.ligonschaaf import _ls_inverse_rows, _solve_rotation_angle

import mp_reference as ref
from conftest import max_abs

EPS = np.finfo(float).eps


class TestLSAngle:
    def test_circular_is_zero(self):
        assert ls_angle(PhasePoint([1, 0], [0, 1])).theta == 0.0

    def test_at_rest_is_zero(self):
        assert ls_angle(PhasePoint([1, 0], [0, 0])).theta == 0.0

    def test_radial_motion(self):
        # H = 1/2 - 1/sqrt(2), q.p = 1, so theta = -sqrt(sqrt(2) - 1)
        theta = ls_angle(PhasePoint([1, 1], [1, 0])).theta
        assert theta == pytest.approx(-math.sqrt(math.sqrt(2.0) - 1.0), rel=1e-15)

    def test_bound_required(self):
        with pytest.raises(DomainError, match="H must be negative"):
            ls_angle(PhasePoint([1, 0], [0, 2]))

    def test_unit_bound_enforced(self):
        with pytest.raises(DomainError):
            LSAngle(1.5)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_finite_required(self, theta):
        with pytest.raises(DomainError, match="theta must be finite"):
            LSAngle(theta)

    def test_angle_is_covector_component(self):
        for pt in sample_bound_states(2, 200, 31):
            fib = moser_fibration(pt)
            assert ls_angle(pt).theta == pytest.approx(float(fib.v[-1]), abs=1e-15)


class TestLSMap:
    def test_circular_example(self):
        sp = ls_map(PhasePoint([1, 0], [0, 1]))
        assert np.allclose(sp.u, [0, 1, 0], atol=1e-15)
        assert np.allclose(sp.v, [-1, 0, 0], atol=1e-15)

    def test_rest_example(self):
        sp = ls_map(PhasePoint([1, 0], [0, 0]))
        assert np.allclose(sp.u, [0, 0, -1], atol=1e-15)
        assert np.allclose(sp.v, [-1 / math.sqrt(2.0), 0, 0], atol=1e-15)

    def test_covector_norm_example(self):
        # H = -7/8, so |s| = 1/sqrt(7/4) = 2/sqrt(7)
        sp = ls_map(PhasePoint([1, 0], [0, 0.5]))
        assert sp.covector_norm == pytest.approx(2.0 / math.sqrt(7.0), rel=1e-15)

    def test_postconditions_sampled(self):
        for pt in sample_bound_states(3, 300, 32):
            sp = ls_map(pt)
            energy = kepler_energy(pt)
            assert abs(float(sp.u @ sp.u) - 1.0) <= 1e-13
            assert abs(float(sp.u @ sp.v)) <= 1e-13
            assert sp.covector_norm == pytest.approx(1.0 / math.sqrt(-2.0 * energy), rel=1e-13)
            assert delaunay_energy(sp) == pytest.approx(energy, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError, match="q must be nonzero"):
            ls_map(PhasePoint([0, 0], [0, 1]))
        with pytest.raises(DomainError, match="H must be negative"):
            ls_map(PhasePoint([0.1, 0], [0, 5]))

    def test_energy_pullback(self):
        for pt in sample_bound_states(2, 300, 33):
            s = ls_map(pt).v
            assert kepler_energy(pt) == pytest.approx(-0.5 / float(s @ s), abs=1e-12)

    def test_scale_equivariance(self):
        worst = 0.0
        for pt in sample_bound_states(2, 200, 34):
            for rho in (0.5, 2.0, 3.7):
                lhs = ls_map(scale_phase(pt, rho))
                rhs = scale_sphere(ls_map(pt), rho)
                worst = max(worst, max_abs(lhs.u - rhs.u, lhs.v - rhs.v))
        assert worst <= 1e-10

    def test_compact_form_consistency(self):
        # (r, sqrt(-2H) s) is (u, v) rotated by theta in their oriented plane
        worst = 0.0
        for pt in sample_bound_states(3, 300, 35):
            fib = moser_fibration(pt)
            sp = ls_map(pt)
            theta = ls_angle(pt).theta
            worst = max(worst, abs(float(sp.u @ fib.u) - math.cos(theta)))
            worst = max(worst, abs(float(sp.u @ fib.v) - math.sin(theta)))
        assert worst <= 1e-12


class TestLSInverse:
    def test_rest_example(self):
        sp = SphereCotangentPoint([0, 0, -1], [-1 / math.sqrt(2.0), 0, 0])
        pt = ls_inverse(sp)
        assert np.allclose(pt.q, [1, 0], atol=1e-14)
        assert np.allclose(pt.p, [0, 0], atol=1e-14)

    def test_circular_example(self):
        pt = ls_inverse(SphereCotangentPoint([0, 1, 0], [-1, 0, 0]))
        assert np.allclose(pt.q, [1, 0], atol=1e-14)
        assert np.allclose(pt.p, [0, 1], atol=1e-14)

    @pytest.mark.parametrize("n,count", [(1, 100), (2, 500), (4, 200)])
    def test_two_sided_roundtrip(self, n, count):
        worst = 0.0
        for pt in sample_bound_states(n, count, 36):
            back = ls_inverse(ls_map(pt))
            worst = max(worst, max_abs(back.q - pt.q, back.p - pt.p))
        assert worst <= 1e-10

    def test_sphere_side_roundtrip(self):
        rng = np.random.default_rng(37)
        worst = 0.0
        count = 0
        while count < 300:
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            if 1.0 - u[-1] < 0.1:
                continue
            v = rng.standard_normal(3)
            v -= (u @ v) * u
            if np.linalg.norm(v) < 0.2:
                continue
            count += 1
            sp = SphereCotangentPoint(u, v)
            again = ls_map(ls_inverse(sp))
            worst = max(worst, max_abs(again.u - sp.u, again.v - sp.v))
        assert worst <= 1e-10

    def test_root_residual_and_monotonicity(self):
        for pt in sample_bound_states(2, 300, 38):
            sp = ls_map(pt)
            sigma = sp.covector_norm
            theta = ls_angle(ls_inverse(sp)).theta
            residual, slope = angle_equation(
                theta, float(sp.u[-1]), float(sp.v[-1]) / sigma
            )
            assert abs(residual) <= 1e-14
            assert slope < 0.0

    def test_zero_covector_rejected(self):
        with pytest.raises(DomainError, match="zero section"):
            ls_inverse(SphereCotangentPoint([1, 0, 0], [0, 0, 0]))

    def test_puncture_rejected(self):
        with pytest.raises(PunctureError, match="collision point"):
            ls_inverse(SphereCotangentPoint([0, 0, 1], [-0.5, 0, 0]))

    def test_short_covector_along_the_base_point_is_rejected(self):
        # |s| in [1e-14, 1e-10] and s nearly parallel to r: |r.s| <= 1e-10
        # passes an absolute tangency test, but no such pair is on T*S^n,
        # and the inverse used to return a point that is not a preimage.
        rng = np.random.default_rng(8)
        r = rng.standard_normal((200, 3))
        r /= np.linalg.norm(r, axis=1)[:, None]
        tangent = rng.standard_normal((200, 3))
        tangent -= np.vecdot(r, tangent)[:, None] * r
        tangent /= np.linalg.norm(tangent, axis=1)[:, None]
        sigma = 10.0 ** rng.uniform(-14.0, -10.0, (200, 1))
        s = sigma * (r + 0.1 * tangent)
        assert np.all(np.abs(np.vecdot(r, s)) <= 1e-10)
        for k in range(200):
            with pytest.raises(DomainError, match="v must be tangent at u"):
                SphereCotangentPoint(r[k], s[k])
        with pytest.raises(DomainError, match="v must be tangent at u"):
            _ls_inverse_rows(r, s)
        # their tangent parts are short covectors on T*S^n
        for k in range(200):
            SphereCotangentPoint(r[k], sigma[k] * tangent[k])

    def test_puncture_flag_round_trips_as_error(self):
        # a flagged forward image is exactly what the inverse must refuse
        sp = SphereCotangentPoint([0, 0, 1], [2, 0, 0])
        assert not sp.off_pole()
        with pytest.raises(PunctureError):
            ls_inverse(sp)


class TestAngleEquation:
    def test_known_root(self):
        value, slope = angle_equation(0.0, -1.0, 0.0)
        assert value == 0.0
        assert slope == -2.0

    def test_monotone_on_regular_domain(self):
        thetas = np.linspace(-math.sqrt(2.0), math.sqrt(2.0), 201)
        for r_last, s_last in [(-0.3, 0.4), (0.7, 0.1), (0.0, -0.9)]:
            values = [angle_equation(t, r_last, s_last)[0] for t in thetas]
            assert all(a >= b for a, b in zip(values, values[1:]))


class TestSolveRotationAngle:
    def test_kepler_grid(self):
        # r_last = e cos M, s_last = e sin M: f(theta) is Kepler's equation
        # in E = theta + M, including the e -> 1, M -> 0 corner and the pole.
        # Rows with 1 < e <= sqrt(2) must solve too (e = 3 raises, see
        # test_propagate_batch); the residual bound holds where e <= 1.
        one = np.array([np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 1.0 + 1e-12, 1.4])
        ecc = np.concatenate([np.linspace(0.0, 1.0, 201), one])
        mean = np.concatenate([[0.0, 1e-300], np.logspace(-18, math.log10(math.pi), 200)])
        e, m = (a.ravel() for a in np.meshgrid(ecc, np.concatenate([mean, -mean])))
        r_last, s_last = e * np.cos(m), e * np.sin(m)
        theta = _solve_rotation_angle(r_last, s_last)
        assert not np.isnan(theta).any()
        residual, _ = angle_equation(theta, r_last, s_last)
        assert np.abs(residual[e <= 1.0]).max() <= 4 * EPS

    @pytest.mark.parametrize("n", [2, 3])
    def test_near_parabolic_inverse_against_reference(self, n):
        # The exact forward image, rounded to doubles, goes back to its
        # point to the cancellation floor eps/|H| of H = p^2/2 - 1/|q|.
        rng = np.random.default_rng(40 + n)
        for energy in (-1e-2, -1e-4, -1e-6, -1e-8):
            worst = 0.0
            for _ in range(40):
                q = rng.standard_normal(n)
                q *= rng.uniform(0.5, 2.0) / np.linalg.norm(q)
                p = rng.standard_normal(n)
                p *= math.sqrt(2.0 * (energy + 1.0 / np.linalg.norm(q))) / np.linalg.norm(p)
                with mpmath.workdps(50):
                    image = ref.ls_map([mpmath.mpf(float(c)) for c in np.concatenate([q, p])], n)
                    image = np.array([float(c) for c in image])
                back = ls_inverse(SphereCotangentPoint(image[: n + 1], image[n + 1 :]))
                radius = np.linalg.norm(q)
                worst = max(
                    worst,
                    np.linalg.norm(back.q - q) / radius,
                    np.linalg.norm(back.p - p) * math.sqrt(radius),
                )
            assert worst <= 4 * EPS / abs(energy), energy
