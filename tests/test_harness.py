import numpy as np
import pytest

from keplerreg import (
    DomainError,
    PhasePoint,
    SphereCotangentPoint,
    UnknownSuiteError,
    harness,
    jacobian,
    kepler_energy,
    momentum_norm_squared,
    run_suite,
    sample_bound_states,
    standard_form,
    suite_registry,
    symplectic_defect,
)
from keplerreg.core import _bound_rows
from keplerreg.harness import (
    SUITE_NAMES,
    SuiteReport,
    flat_ls_map,
    flat_moser_map,
    flat_to_sphere,
)

SPEC_SUITES = {
    "stereo-roundtrip",
    "stereo-canonical",
    "metric",
    "moser-symplectic",
    "fibration-scale",
    "moser-levelset",
    "ls-symplectic",
    "ls-roundtrip",
    "ls-equivariance",
    "intertwine-flows",
    "momenta-pullback",
    "so(n+1)-brackets",
    "lenz-brackets",
    "mu-squared",
    "conservation",
}


def flat_fourier(n):
    """(q, p) -> (x, y) = (p, -q) on flat vectors (..., 2n), a linear canonical map."""
    return lambda z: np.concatenate([z[..., n:], -z[..., :n]], axis=-1)


class TestJacobian:
    def test_identity_map(self):
        jac = jacobian(lambda z: z, np.array([0.3, -0.7, 1.1]), 1e-6)
        assert np.max(np.abs(jac - np.eye(3))) <= 1e-12

    def test_linear_map_exact(self):
        rng = np.random.default_rng(1)
        mat = rng.standard_normal((4, 3))
        jac = jacobian(lambda z: mat @ z, rng.standard_normal(3), 1e-6)
        assert np.max(np.abs(jac - mat)) <= 1e-10

    def test_fourier_block_pattern(self):
        jac = jacobian(flat_fourier(2), np.array([1.0, 0.0, 0.0, 1.0]), 1e-6)
        expected = np.zeros((4, 4))
        expected[:2, 2:] = np.eye(2)
        expected[2:, :2] = -np.eye(2)
        assert np.max(np.abs(jac - expected)) <= 1e-12

    def test_domain_error_identifies_stencil(self):
        def partial(z):
            if z[0] < 0:
                raise DomainError("negative first coordinate")
            return z

        with pytest.raises(DomainError, match="stencil"):
            jacobian(partial, np.array([0.0, 1.0]), 1e-6)

    def test_step_validation(self):
        with pytest.raises(ValueError):
            jacobian(lambda z: z, np.zeros(2), -1.0)


class TestSymplecticDefect:
    def test_fourier_canonical(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            z = rng.uniform(-3, 3, 6)
            assert symplectic_defect(flat_fourier(3), z, 1e-6) <= 1e-12

    def test_to_sphere_example(self):
        # one-dimensional chart point (x, y) = (0, 2)
        defect = symplectic_defect(flat_to_sphere(1), np.array([0.0, 2.0]), 1e-6)
        assert defect <= 1e-10

    def test_ls_example(self):
        defect = symplectic_defect(flat_ls_map(2), np.array([1.0, 0.0, 0.0, 0.5]), 1e-6)
        assert defect <= 1e-10

    def test_moser_point(self):
        defect = symplectic_defect(flat_moser_map(2), np.array([1.0, 0.0, 0.0, 1.0]), 1e-6)
        assert defect <= 1e-9

    def test_standard_form_shape(self):
        omega = standard_form(3)
        assert omega.shape == (6, 6)
        assert np.array_equal(omega, -omega.T)
        assert np.array_equal(omega @ omega, -np.eye(6))


class TestRegistry:
    def test_exactly_the_specified_suites(self):
        assert set(SUITE_NAMES) == SPEC_SUITES

    def test_suites_map_to_distinct_invariants(self):
        registry = suite_registry()
        targets = [(d.module, d.invariant) for d in registry.values()]
        assert len(targets) == len(set(targets))

    def test_modules_are_real(self):
        registry = suite_registry()
        assert {d.module for d in registry.values()} <= {
            "stereo",
            "moser",
            "ligonschaaf",
            "dynamics",
            "symmetry",
        }

    def test_unknown_suite_rejected(self):
        with pytest.raises(UnknownSuiteError):
            run_suite("nope", 2, 10, 0)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            run_suite("metric", 0, 10, 0)
        with pytest.raises(ValueError):
            run_suite("metric", 2, 0, 0)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            run_suite("metric", 2, 10, -1)


class TestReports:
    def test_reproducible(self):
        a = run_suite("mu-squared", 2, 100, 9)
        b = run_suite("mu-squared", 2, 100, 9)
        assert a.line() == b.line()
        assert a.max_defect == b.max_defect
        assert len(a.failures) == len(b.failures)

    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_line_format(self, suite):
        report = run_suite(suite, 2, 30, 3)
        name, samples, defect, status = report.line().rsplit(",", 3)
        assert name == suite
        assert samples == "30"
        assert float(defect) == report.max_defect
        assert status in ("pass", "fail")

    def test_failures_name_each_failing_sample(self, monkeypatch):
        # A 1e-9 relative error in mu^2 fails every mu-squared sample (tolerance 1e-12).
        # The suite sums the squared momenta of all samples in one _norm_squared call.
        norm_squared = harness._norm_squared
        monkeypatch.setattr(
            harness, "_norm_squared", lambda upper: norm_squared(upper) * (1.0 + 1e-9)
        )
        for n in (2, 4):
            report = run_suite("mu-squared", n, 40, 5)
            assert len(report.failures) == 40
            observed = [f.observed for f in report.failures]
            assert observed == sorted(observed, reverse=True)
            assert report.max_defect == observed[0]
            # Each where is one line and parses back to its sample bit for
            # bit, and to its defect.
            assert not any("\n" in f.where for f in report.failures)
            names = {"PhasePoint": PhasePoint, "array": np.array}
            rebuilt = [eval(f.where, names) for f in report.failures]
            for f, pt in zip(report.failures, rebuilt):
                mu2 = momentum_norm_squared(pt) * (1.0 + 1e-9)
                assert abs(mu2 * (-2.0 * kepler_energy(pt)) - 1.0) == f.observed
            drawn = sample_bound_states(n, 40, 5)
            assert sorted((pt.q.tobytes(), pt.p.tobytes()) for pt in rebuilt) == sorted(
                (pt.q.tobytes(), pt.p.tobytes()) for pt in drawn
            )
            assert report.line().endswith(",fail")

    def test_ls_roundtrip_names_puncture_and_q_side_failures(self, monkeypatch):
        # The inverse marks one sphere sample as a puncture and misses one
        # q-side sample: both are reported, each rebuildable bit for bit.
        n, samples, seed, bad_q, bad_sphere = 3, 30, 4, 7, 12
        inverse_rows = harness._ls_inverse_rows

        def faulty(us, vs):
            q, p, puncture = (a.copy() for a in inverse_rows(us, vs))
            q[bad_q, 0] += 1e-6
            puncture[samples + bad_sphere] = True
            return q, p, puncture

        monkeypatch.setattr(harness, "_ls_inverse_rows", faulty)
        report = run_suite("ls-roundtrip", n, samples, seed)
        assert len(report.failures) == 2
        by_kind = {f.where.partition("(")[0]: f.where for f in report.failures}
        assert set(by_kind) == {"PhasePoint", "unexpected puncture at SphereCotangentPoint"}
        names = {"PhasePoint": PhasePoint, "SphereCotangentPoint": SphereCotangentPoint,
                 "array": np.array}
        point = eval(by_kind["PhasePoint"], names)
        qs, ps = _bound_rows(n, samples, seed)
        assert point.q.tobytes() == qs[bad_q].tobytes()
        assert point.p.tobytes() == ps[bad_q].tobytes()
        where = by_kind["unexpected puncture at SphereCotangentPoint"]
        sphere = eval(where.removeprefix("unexpected puncture at "), names)
        us, vs = harness._sample_sphere(np.random.default_rng(seed + 1), n, samples)
        assert sphere.u.tobytes() == us[bad_sphere].tobytes()
        assert sphere.v.tobytes() == vs[bad_sphere].tobytes()
        assert not sphere.at_puncture

    def test_invariant_enforced(self):
        with pytest.raises(ValueError, match="failures"):
            SuiteReport(
                name="x",
                n=2,
                samples=1,
                seed=0,
                tolerance=1.0,
                max_defect=2.0,
                failures=(),
            )

    def test_failing_report_renders_fail(self):
        from keplerreg import Failure

        report = SuiteReport(
            name="x",
            n=2,
            samples=1,
            seed=0,
            tolerance=1e-12,
            max_defect=1.0,
            failures=(Failure(where="pt", observed=1.0, expected=0.0, tolerance=1e-12),),
        )
        assert not report.passed
        assert report.line() == "x,1,1,fail"


@pytest.mark.parametrize(
    "name",
    [
        "stereo-roundtrip",
        "stereo-canonical",
        "metric",
        "moser-symplectic",
        "fibration-scale",
        "moser-levelset",
        "ls-symplectic",
        "ls-roundtrip",
        "ls-equivariance",
        "intertwine-flows",
        "momenta-pullback",
        "so(n+1)-brackets",
        "lenz-brackets",
        "mu-squared",
        "conservation",
    ],
)
def test_suite_passes_smoke(name):
    report = run_suite(name, 2, 60, 42)
    assert report.passed, f"{name}: max_defect {report.max_defect:.3e}"


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", ["intertwine-flows", "conservation"])
def test_flow_suites_within_the_conditioning_bound(name, n):
    # intertwine-flows' own 500 samples; the defect is the error per unit of
    # conditioning, so the error bound is 100 eps (kappa^2 [+ t a^-1.5])
    report = run_suite(name, n, 500, 42)
    assert report.tolerance == 100.0 * np.finfo(float).eps
    assert report.passed and 0.0 < report.max_defect <= report.tolerance


def test_flow_suites_sample_radial_orbits_at_n1():
    qs, ps = harness._flow_rows(1, 500, 42)
    eccentricity = np.abs(harness._lenz(qs, ps))[:, 0]
    assert np.all(np.abs(eccentricity - 1.0) <= 1e-12)
    for name in ("intertwine-flows", "conservation"):
        assert run_suite(name, 1, 500, 42).passed
