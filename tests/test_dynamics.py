import math

import numpy as np
import pytest

from keplerreg import (
    CollisionApproachError,
    DomainError,
    PhasePoint,
    PunctureError,
    SphereCotangentPoint,
    Trajectory,
    angular_momentum,
    arc_time,
    delaunay_energy,
    delaunay_flow,
    kepler_energy,
    kepler_integrate,
    kepler_period,
    kepler_vector_field,
    lenz_vector,
    ls_map,
    regularized_propagate,
    sample_bound_states,
    to_reference_shell,
)
from keplerreg.dynamics import _leapfrog

from conftest import max_abs

SQRT2 = math.sqrt(2.0)


class TestVectorField:
    def test_circular(self):
        dq, dp = kepler_vector_field(PhasePoint([1, 0], [0, 1]))
        assert np.array_equal(dq, [0, 1])
        assert np.array_equal(dp, [-1, 0])

    def test_at_distance(self):
        dq, dp = kepler_vector_field(PhasePoint([2, 0], [0, 0]))
        assert np.array_equal(dq, [0, 0])
        assert np.array_equal(dp, [-0.25, 0])

    def test_rotational_equivariance(self):
        angle = 0.7
        rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
        pt = PhasePoint([1.1, -0.3], [0.2, 0.8])
        dq, dp = kepler_vector_field(pt)
        dq_r, dp_r = kepler_vector_field(PhasePoint(rot @ pt.q, rot @ pt.p))
        assert np.allclose(dq_r, rot @ dq, atol=1e-15)
        assert np.allclose(dp_r, rot @ dp, atol=1e-15)

    def test_collision_rejected(self):
        with pytest.raises(DomainError):
            kepler_vector_field(PhasePoint([0, 0], [0, 1]))

    @pytest.mark.parametrize(
        ("q", "message"),
        [
            # q.q underflows to 0: the collision test of every kernel
            pytest.param([1e-200, 0], "q must be nonzero (vector field singular at collision)",
                         id="q0"),
            # q.q > 0 and H = -1e120 is finite, but (q.q)^-1.5 overflows
            pytest.param([1e-120, 0], "|q| = 1.000e-120 is too small: (q.q)^-1.5 overflows",
                         id="q1"),
        ],
    )
    def test_force_out_of_float_range_rejected(self, q, message):
        with pytest.raises(DomainError) as info:
            kepler_vector_field(PhasePoint(q, [0, 1]))
        assert str(info.value) == message


class TestKeplerIntegrate:
    def test_circular_period(self, circular):
        traj = kepler_integrate(circular, 2 * math.pi, 1e-4, record_every=10**9)
        assert max_abs(traj.end.q - circular.q, traj.end.p - circular.p) <= 1e-6

    def test_energy_drift_ten_periods(self, circular):
        traj = kepler_integrate(circular, 20 * math.pi, 1e-3, record_every=100)
        assert traj.energy_drift <= 1e-6

    def test_overflowing_energy_raises_without_warnings(self):
        # A finite state whose H overflows: DomainError, not energy_drift = nan
        # after numpy warnings, which pytest would raise as errors here.
        with pytest.raises(DomainError, match="energy drift is not finite at t = 0$"):
            kepler_integrate(PhasePoint([1e200, 0], [1e160, 0]), 1.0, 0.5)

    def test_matches_exact_circle(self, circular):
        # closed-form oracle: q(t) = (cos t, sin t), p(t) = (-sin t, cos t)
        traj = kepler_integrate(circular, 2.0, 1e-4, record_every=2500)
        for t, point in traj.samples:
            expected_q = np.array([math.cos(t), math.sin(t)])
            expected_p = np.array([-math.sin(t), math.cos(t)])
            assert max_abs(point.q - expected_q, point.p - expected_p) <= 1e-7

    def test_rectilinear_collision_detected(self, rectilinear):
        with pytest.raises(CollisionApproachError) as info:
            kepler_integrate(rectilinear, 1.5, 1e-4)
        assert info.value.t < 1.2

    @pytest.mark.parametrize("q", [[0, 0], [1e-200, 0], [1e-120, 0], [1e-30, 0]])
    def test_start_at_the_collision_set_stops_at_zero(self, q):
        with pytest.raises(CollisionApproachError) as info:
            kepler_integrate(PhasePoint(q, [0, 1]), 1, 1e-3)
        assert info.value.t == 0.0

    def test_force_out_of_range_mid_run_stops_at_the_step(self):
        # dt^2 underflows, so the guard radius is 0; q reaches 0 at step 2
        dt = 1e-200
        with pytest.raises(CollisionApproachError) as info:
            _leapfrog([2e-100, 0.0], [-1e100, 0.0], dt, [5])
        assert info.value.t == 2 * dt

    def test_collision_in_the_closing_step_is_reported_at_t_end(self):
        # A fall from rest at q = 1 takes its 1,109 whole steps of 1e-3; the
        # guard fires in the closing step of 0.0007, which reports t_end.
        fall = PhasePoint([1, 0], [0, 0])
        assert kepler_integrate(fall, 1.109, 1e-3, record_every=10**9).times[-1] == 1.109
        with pytest.raises(CollisionApproachError, match=r"at t = 1\.1097:") as info:
            kepler_integrate(fall, 1.1097, 1e-3)
        assert info.value.t == 1.1097

    def test_step_validation(self, circular):
        with pytest.raises(ValueError, match="dt"):
            kepler_integrate(circular, 1.0, 0.0)
        with pytest.raises(ValueError, match="t_end"):
            kepler_integrate(circular, -1.0, 1e-3)
        with pytest.raises(ValueError, match="record_every must be >= 1"):
            kepler_integrate(circular, 1.0, 1e-3, record_every=0)

    def test_partial_final_step_lands_exactly(self, circular):
        traj = kepler_integrate(circular, 0.05 + 0.4 * 1e-3, 1e-3)
        assert traj.times[-1] == 0.05 + 0.4 * 1e-3

    def test_trajectory_metadata(self, circular):
        traj = kepler_integrate(circular, 0.1, 1e-3)
        assert traj.integrator == "leapfrog"
        assert traj.dt == 1e-3
        assert traj.n == 2
        assert np.all(np.diff(traj.times) > 0)
        times = [t for t, _ in traj.samples]
        assert times[0] == 0.0

    @pytest.mark.parametrize("record_every", [1, 7, 10**9])
    @pytest.mark.parametrize("closing", [0.0, 0.4e-3])
    def test_batch_matches_single_bitwise(self, circular, record_every, closing):
        # 100 full steps, then a shorter closing step when t_end is off the grid
        dt = 1e-3
        t_end = 0.1 + closing
        traj = kepler_integrate(circular, t_end, dt, record_every=record_every)
        steps = list(range(record_every, 101, record_every))
        if not closing and 100 % record_every:
            steps.append(100)
        q0, p0 = circular.q.tolist(), circular.p.tolist()
        *states, end = _leapfrog(q0, p0, dt, steps + [100])
        times = [0.0] + [step * dt for step in steps]
        if closing:
            states += _leapfrog(*end, closing, [1])
            times.append(t_end)
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.qs, [q0] + [q for q, _ in states])
        assert np.array_equal(traj.ps, [p0] + [p for _, p in states])


class TestDelaunayEnergy:
    def test_unit_covector(self):
        assert delaunay_energy(SphereCotangentPoint([0, 1, 0], [-1, 0, 0])) == -0.5

    def test_scaled_covector(self):
        sp = SphereCotangentPoint([0, 0, -1], [-1 / SQRT2, 0, 0])
        assert delaunay_energy(sp) == pytest.approx(-1.0, rel=1e-15)

    def test_zero_covector_rejected(self):
        with pytest.raises(DomainError):
            delaunay_energy(SphereCotangentPoint([1, 0, 0], [0, 0, 0]))


class TestDelaunayFlow:
    def test_reaches_pole_at_collision_instant(self):
        sp = SphereCotangentPoint([0, 0, -1], [-1 / SQRT2, 0, 0])
        out = delaunay_flow(sp, math.pi / (2 * SQRT2))
        assert np.allclose(out.u, [0, 0, 1], atol=1e-13)
        assert out.at_puncture

    def test_zero_time_identity(self):
        sp = ls_map(PhasePoint([1.1, 0.2], [0.1, 0.7]))
        out = delaunay_flow(sp, 0.0)
        assert max_abs(out.u - sp.u, out.v - sp.v) <= 1e-15

    def test_periodicity(self):
        for pt in sample_bound_states(2, 100, 51):
            sp = ls_map(pt)
            period = 2 * math.pi * sp.covector_norm**3
            out = delaunay_flow(sp, period)
            assert max_abs(out.u - sp.u, out.v - sp.v) <= 1e-12

    def test_flow_property(self):
        for pt in sample_bound_states(3, 100, 52):
            sp = ls_map(pt)
            once = delaunay_flow(delaunay_flow(sp, 0.4), 1.3)
            direct = delaunay_flow(sp, 1.7)
            assert max_abs(once.u - direct.u, once.v - direct.v) <= 1e-12

    def test_invariants_conserved(self):
        sp = ls_map(PhasePoint([1.4, 0.1], [0.2, 0.6]))
        rho = sp.covector_norm
        energy = delaunay_energy(sp)
        for t in (0.3, 2.9, 40.0, 1000.0):
            out = delaunay_flow(sp, t)
            assert out.covector_norm == pytest.approx(rho, rel=1e-14)
            assert delaunay_energy(out) == pytest.approx(energy, rel=1e-13)
            assert abs(float(out.u @ out.u) - 1.0) <= 1e-14
            assert abs(float(out.u @ out.v)) <= 1e-14

    def test_zero_covector_rejected(self):
        with pytest.raises(DomainError):
            delaunay_flow(SphereCotangentPoint([1, 0, 0], [0, 0, 0]), 1.0)


class TestRegularizedPropagate:
    def test_circular_period(self, circular):
        out = regularized_propagate(circular, 2 * math.pi)
        assert max_abs(out.q - circular.q, out.p - circular.p) <= 1e-9

    def test_rectilinear_full_period(self, rectilinear):
        out = regularized_propagate(rectilinear, math.pi / SQRT2)
        assert max_abs(out.q - rectilinear.q, out.p - rectilinear.p) <= 1e-9

    def test_collision_instant_flagged(self, rectilinear):
        with pytest.raises(PunctureError, match="landed on collision"):
            regularized_propagate(rectilinear, math.pi / (2 * SQRT2))

    def test_passes_through_collision(self, rectilinear):
        # shortly after the collision instant the motion has bounced back:
        # free fall gives |q| ~ (9/2)^(1/3) dt^(2/3) ~ 0.077 at dt = 0.01
        out = regularized_propagate(rectilinear, math.pi / (2 * SQRT2) + 0.01)
        assert out.radius < 0.1
        assert float(out.q @ out.p) > 0.0  # moving outward again
        assert kepler_energy(out) == pytest.approx(-1.0, abs=1e-10)

    def test_conserves_first_integrals(self):
        worst = 0.0
        for pt in sample_bound_states(2, 100, 53):
            out = regularized_propagate(pt, 1.3)
            worst = max(
                worst,
                abs(kepler_energy(out) - kepler_energy(pt)),
                float(
                    np.max(
                        np.abs(
                            angular_momentum(out).entries - angular_momentum(pt).entries
                        )
                    )
                ),
                abs(
                    float(np.linalg.norm(lenz_vector(out)))
                    - float(np.linalg.norm(lenz_vector(pt)))
                ),
            )
        assert worst <= 1e-10

    def test_agrees_with_direct_integration(self):
        pt = PhasePoint([1.2, 0.1], [0.15, 0.75])
        t = 0.9
        direct = kepler_integrate(pt, t, 1e-5, record_every=10**9).end
        reg = regularized_propagate(pt, t)
        assert max_abs(reg.q - direct.q, reg.p - direct.p) <= 1e-6


class TestTrajectory:
    @pytest.mark.parametrize(
        "times, qs, ps, message",
        [
            ([[0.0, 1.0]], np.ones((2, 2)), np.ones((2, 2)), r"\(m,\) times and \(m, n\) states"),
            ([0.0, 1.0], np.ones(2), np.ones(2), r"\(m,\) times and \(m, n\) states"),
            ([0.0, 1.0], np.ones((2, 2)), np.ones((2, 3)), r"\(m,\) times and \(m, n\) states"),
            ([0.0, 1.0, 2.0], np.ones((2, 2)), np.ones((2, 2)), "matching lengths"),
            ([0.0, 0.0], np.ones((2, 2)), np.ones((2, 2)), "strictly increasing"),
            ([1.0, 0.5], np.ones((2, 2)), np.ones((2, 2)), "strictly increasing"),
        ],
    )
    def test_shape_length_and_order_errors(self, times, qs, ps, message):
        with pytest.raises(DomainError, match=message):
            Trajectory(times, qs, ps, integrator="exact", dt=0.0, energy_drift=0.0)


class TestArcTime:
    def test_exact_circular_trajectory(self):
        # on the exact circle |q| = 1 the integrand is identically one
        times = np.linspace(0.0, 2 * math.pi, 2001)
        qs = np.stack([np.cos(times), np.sin(times)], axis=1)
        ps = np.stack([-np.sin(times), np.cos(times)], axis=1)
        traj = Trajectory(times, qs, ps, integrator="exact", dt=0.0, energy_drift=0.0)
        flow_times = arc_time(traj)
        assert flow_times[0].s == 0.0
        assert flow_times[-1].s == pytest.approx(2 * math.pi, abs=1e-12)
        for ft in flow_times[::200]:
            assert ft.s == pytest.approx(ft.t, abs=1e-12)

    def test_integrated_circular_orbit(self, circular):
        # on the leapfrog trajectory accuracy is integrator-limited
        traj = kepler_integrate(circular, 2 * math.pi, 1e-4)
        flow_times = arc_time(traj)
        assert flow_times[-1].s == pytest.approx(2 * math.pi, abs=1e-6)

    def test_strictly_increasing(self):
        pt = PhasePoint([1.3, 0.0], [0.1, 0.6])
        traj = kepler_integrate(pt, 2.0, 1e-3)
        svals = [ft.s for ft in arc_time(traj)]
        assert all(b > a for a, b in zip(svals, svals[1:]))

    def test_collision_sample_rejected(self):
        # a user-built trajectory through q = 0, which 1/|q| cannot integrate
        qs = np.array([[1.0, 0.0], [0.0, 0.0], [-1.0, 0.0]])
        traj = Trajectory([0.0, 1.0, 2.0], qs, qs, integrator="exact", dt=0.0, energy_drift=0.0)
        with pytest.raises(DomainError, match="touches the collision set"):
            arc_time(traj)

    def test_collision_is_where_every_square_underflows(self):
        # (1e-170)^2 underflows to 0, so |q| = 0; (1e-160)^2 = 1e-320 is subnormal, not 0
        def trajectory(middle):
            qs = np.array([[1.0, 0.0], middle, [-1.0, 0.0]])
            return Trajectory([0.0, 1.0, 2.0], qs, qs, integrator="exact", dt=0.0,
                              energy_drift=0.0)

        with pytest.raises(DomainError, match="touches the collision set"):
            arc_time(trajectory([1e-170, -1e-170]))
        tiny = np.linalg.norm([1e-160, 0.0])
        assert arc_time(trajectory([1e-160, 0.0]))[-1].s == pytest.approx(1.0 + 1.0 / tiny)


class TestArcTimeTrapezoid:
    """arc_time is numpy's composite trapezoid, bit for bit scipy's
    cumulative_trapezoid(1/|q|, t, initial=0)."""

    @staticmethod
    def _scipy_reference(traj):
        from scipy.integrate import cumulative_trapezoid

        radii = np.linalg.norm(traj.qs, axis=1)
        return cumulative_trapezoid(1.0 / radii, traj.times, initial=0.0)

    @pytest.mark.parametrize("record_every", [1, 7])
    def test_leapfrog_trajectory_with_closing_step(self, record_every):
        pt = PhasePoint([1.3, 0.2, -0.1], [0.1, 0.6, 0.2])
        traj = kepler_integrate(pt, 2.0 + 3.7e-4, 1e-3, record_every=record_every)
        assert traj.times[-1] - traj.times[-2] < 1e-3 * record_every
        observed = np.array([ft.s for ft in arc_time(traj)])
        assert observed.tobytes() == self._scipy_reference(traj).tobytes()

    def test_uneven_time_grid(self):
        rng = np.random.default_rng(5)
        times = np.cumsum(rng.uniform(1e-4, 0.3, size=400))
        qs = rng.uniform(0.2, 3.0, size=(400, 2)) * rng.choice([-1.0, 1.0], size=(400, 2))
        traj = Trajectory(times, qs, -qs, integrator="exact", dt=0.0, energy_drift=0.0)
        flow_times = arc_time(traj)
        assert [ft.t for ft in flow_times] == times.tolist()
        observed = np.array([ft.s for ft in flow_times])
        assert observed.tobytes() == self._scipy_reference(traj).tobytes()

    def test_empty_trajectory_rejected(self):
        empty = np.empty((0, 2))
        traj = Trajectory(np.empty(0), empty, empty, integrator="exact", dt=0.0, energy_drift=0.0)
        with pytest.raises(DomainError, match="no samples"):
            arc_time(traj)


class TestKeplerPeriod:
    def test_reference_shell(self):
        assert kepler_period(-0.5) == pytest.approx(2 * math.pi, rel=1e-15)

    def test_rest_energy(self):
        assert kepler_period(-1.0) == pytest.approx(math.pi / SQRT2, rel=1e-15)

    def test_scaling_law(self):
        for rho in (0.5, 2.0, 5.0):
            assert kepler_period(-0.5 / rho**2) == pytest.approx(
                rho**3 * kepler_period(-0.5), rel=1e-14
            )

    def test_bound_required(self):
        with pytest.raises(DomainError):
            kepler_period(0.0)

    @pytest.mark.parametrize(
        "energy, shown", [(math.nan, "nan"), (0.0, "0"), (-0.0, "-0"), (1.0, "1")]
    )
    def test_non_negative_energy_message(self, energy, shown):
        # NaN fails the H < 0 test too
        with pytest.raises(DomainError) as info:
            kepler_period(energy)
        assert str(info.value) == f"H must be negative, got H = {shown}"

    @pytest.mark.parametrize(
        "energy, shown", [(-1e-300, "-1e-300"), (-5.3e-206, "-5.3e-206"), (-math.inf, "-inf")]
    )
    def test_non_finite_period_or_energy_raises(self, energy, shown):
        with pytest.raises(DomainError) as info:
            kepler_period(energy)
        assert str(info.value) == f"H and the period must be finite, got H = {shown}"

    def test_period_is_the_closed_form_bit_for_bit(self):
        for energy in (-0.5, -1.0, -0.123, -1e-6, -37.5):
            assert kepler_period(energy) == 2.0 * math.pi * (-2.0 * energy) ** -1.5


class TestMoserTimeIntertwining:
    """On the reference shell the Moser image of the Kepler trajectory is
    the great-circle geodesic evaluated at the arc time s(t)."""

    def test_trajectory_matches_geodesic(self):
        from keplerreg import moser_map

        pts = sample_bound_states(
            2, 10, 91, pole_gap=0.05, max_eccentricity=0.6, min_energy=-1.0
        )
        worst = 0.0
        for pt in (to_reference_shell(p) for p in pts):
            traj = kepler_integrate(pt, 1.0, 1e-4)
            flow_times = arc_time(traj)
            sp0 = moser_map(pt)
            for idx in (2500, 5000, 7500, 10000):
                expected = delaunay_flow(sp0, flow_times[idx].s)
                observed = moser_map(traj.point(idx))
                worst = max(worst, max_abs(observed.u - expected.u, observed.v - expected.v))
        assert worst <= 1e-6


class TestThreeOdeEquivalence:
    """At H = -1/2 the Ligon-Schaaf image of the Kepler flow satisfies
    dr/dt = s and ds/dt = -r, checked by central differences in time."""

    def test_rotation_equations_hold(self):
        pts = sample_bound_states(
            2, 8, 91, pole_gap=0.05, max_eccentricity=0.6, min_energy=-1.0
        )
        worst = 0.0
        for pt in (to_reference_shell(p) for p in pts):
            traj = kepler_integrate(pt, 0.2, 1e-4)
            images = [ls_map(traj.point(i)) for i in range(0, len(traj), 10)]
            times = traj.times[::10]
            for i in range(1, len(images) - 1):
                span = times[i + 1] - times[i - 1]
                dr = (images[i + 1].u - images[i - 1].u) / span
                ds = (images[i + 1].v - images[i - 1].v) / span
                worst = max(
                    worst,
                    float(np.max(np.abs(dr - images[i].v))),
                    float(np.max(np.abs(ds + images[i].u))),
                )
        assert worst <= 1e-6
