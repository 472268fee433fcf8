import numpy as np
import pytest

from keplerreg import (
    DomainError,
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
from keplerreg.harness import (
    SUITE_NAMES,
    SuiteReport,
    flat_fourier,
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


class TestReports:
    def test_reproducible(self):
        a = run_suite("mu-squared", 2, 100, 9)
        b = run_suite("mu-squared", 2, 100, 9)
        assert a.line() == b.line()
        assert a.max_defect == b.max_defect
        assert len(a.failures) == len(b.failures)

    @pytest.mark.parametrize(
        "suite", [s for s in SUITE_NAMES if s not in ("intertwine-flows", "conservation")]
    )
    def test_line_format(self, suite):
        report = run_suite(suite, 2, 30, 3)
        name, samples, defect, status = report.line().rsplit(",", 3)
        assert name == suite
        assert samples == "30"
        assert float(defect) == report.max_defect
        assert status in ("pass", "fail")

    def test_failures_name_each_failing_sample(self, monkeypatch):
        # A 1e-9 relative error in mu^2 fails every mu-squared sample (tolerance 1e-12).
        monkeypatch.setattr(
            harness, "momentum_norm_squared", lambda pt: momentum_norm_squared(pt) * (1.0 + 1e-9)
        )
        report = run_suite("mu-squared", 2, 40, 5)
        assert len(report.failures) == 40
        observed = [f.observed for f in report.failures]
        assert observed == sorted(observed, reverse=True)
        assert report.max_defect == observed[0]
        expected = []
        for pt in sample_bound_states(2, 40, 5):
            mu2 = momentum_norm_squared(pt) * (1.0 + 1e-9)
            expected.append((-abs(mu2 * (-2.0 * kepler_energy(pt)) - 1.0), str(pt)))
        expected.sort()
        assert [(-f.observed, f.where) for f in report.failures] == expected
        assert report.line().endswith(",fail")

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
