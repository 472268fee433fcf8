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
from keplerreg.kernels import _lenz

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

    def test_odd_dimensional_map_rejected(self):
        with pytest.raises(ValueError, match="even dimensions"):
            symplectic_defect(lambda z: z[..., :3], np.zeros(4), 1e-6)
        with pytest.raises(ValueError, match="even dimensions"):
            symplectic_defect(lambda z: np.concatenate([z, z[..., :1]], -1), np.zeros(4), 1e-6)

    def test_standard_form_shape(self):
        omega = standard_form(3)
        assert omega.shape == (6, 6)
        assert np.array_equal(omega, -omega.T)
        assert np.array_equal(omega @ omega, -np.eye(6))


class TestRegistry:
    def test_exactly_the_specified_suites(self):
        assert set(SUITE_NAMES) == SPEC_SUITES

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


def _leaves_domain(q, p):
    raise DomainError("r.s = 0 broke")


class TestRaisingSuite:
    """A suite that raises is one failing sample whose where is the error;
    only bad arguments make run_suite raise."""

    @staticmethod
    def _check_reported(name, n, samples, seed, error):
        tolerance, runner = harness.suite_registry()[name]
        with pytest.raises(error) as raised:
            runner(n, samples, seed)
        report = run_suite(name, n, samples, seed)
        assert report.max_defect == np.inf and not report.passed
        assert [f.where for f in report.failures] == [str(raised.value)]
        assert report.tolerance == report.failures[0].tolerance == tolerance
        assert report.line() == f"{name},{samples},inf,fail"

    def test_a_sampler_that_gives_up(self):
        self._check_reported("moser-symplectic", 60, 5, 42, RuntimeError)

    def test_a_domain_error_inside_a_suite(self, monkeypatch):
        monkeypatch.setattr(harness, "_ls_map_rows", _leaves_domain)
        self._check_reported("ls-roundtrip", 3, 20, 4, DomainError)

    def test_bad_arguments_still_raise(self, monkeypatch):
        # even where the suite itself would raise
        monkeypatch.setattr(harness, "_ls_map_rows", _leaves_domain)
        with pytest.raises(UnknownSuiteError):
            run_suite("nope", 2, 10, 0)
        with pytest.raises(ValueError, match="n must be >= 1"):
            run_suite("ls-roundtrip", 0, 10, 0)


def _nan_mu_squared(monkeypatch, bad: int, scale: float) -> None:
    """mu-squared's energies, times scale, with sample bad's NaN (of the suites, it
    alone runs while harness._energy is patched)."""
    energy = harness._energy

    def patched(q, p):
        out = energy(q, p) * scale
        out[bad] = np.nan
        return out

    monkeypatch.setattr(harness, "_energy", patched)


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
        # A 1e-9 relative error in H fails every mu-squared sample (tolerance 1e-12).
        # The suite takes the energies of all samples in one _energy call.
        energy = harness._energy
        monkeypatch.setattr(harness, "_energy", lambda q, p: energy(q, p) * (1.0 + 1e-9))
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
                h = kepler_energy(pt) * (1.0 + 1e-9)
                assert abs(momentum_norm_squared(pt) * (-2.0 * h) - 1.0) == f.observed
            drawn = sample_bound_states(n, 40, 5)
            assert sorted((pt.q.tobytes(), pt.p.tobytes()) for pt in rebuilt) == sorted(
                (pt.q.tobytes(), pt.p.tobytes()) for pt in drawn
            )
            assert report.line().endswith(",fail")

    @pytest.mark.parametrize("bad", [0, 1])
    def test_a_nan_defect_fails_and_is_listed_first(self, bad, monkeypatch):
        # mu^2 of sample bad is NaN: the suite fails there, and max_defect is
        # NaN, wherever the NaN sits among the defects.
        for scale, failing in ((1.0, 1), (1.0 + 1e-9, 5)):
            _nan_mu_squared(monkeypatch, bad, scale)
            report = run_suite("mu-squared", 2, 5, 3)
            assert np.isnan(report.max_defect) and not report.passed
            assert len(report.failures) == failing
            assert np.isnan(report.failures[0].observed)
            observed = [f.observed for f in report.failures[1:]]
            assert observed == sorted(observed, reverse=True) and not np.isnan(observed).any()
            assert report.line() == "mu-squared,5,nan,fail"

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


@pytest.mark.parametrize("n", [12, 16])
def test_metric_passes_where_its_values_reach_thousands(n):
    # each defect is relative to (x.x+1)^2 y.y/4, so the suite's bound does
    # not move with n; these seeds failed the absolute bound 1e-12 at n = 12
    for seed in (0, 4, 42):
        report = run_suite("metric", n, 500, seed)
        assert report.tolerance == 85.0 * np.finfo(float).eps
        assert report.passed, report.line()


def test_metric_fails_a_relative_defect_of_ten_times_its_bound(monkeypatch):
    tolerance = harness.suite_registry()["metric"][0]
    lift, scale = harness._lift, np.sqrt(1.0 + 10.0 * tolerance)

    def skewed(x, y):
        u, v = lift(x, y)
        return u, v * scale

    assert run_suite("metric", 2, 500, 42).passed
    monkeypatch.setattr(harness, "_lift", skewed)
    report = run_suite("metric", 2, 500, 42)
    assert len(report.failures) == 500
    assert 9.0 * tolerance < report.max_defect < 11.0 * tolerance


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
    eccentricity = np.abs(_lenz(qs, ps))[:, 0]
    assert np.all(np.abs(eccentricity - 1.0) <= 1e-12)
    for name in ("intertwine-flows", "conservation"):
        assert run_suite(name, 1, 500, 42).passed


# The suites that draw bound states, sphere covectors or compact phase points:
# all but stereo-canonical, metric (uniform plane boxes) and lenz-brackets
# (its own box, of either sign of energy).
_DRAWN_SUITES = [
    name for name in harness.SUITE_NAMES
    if name not in ("stereo-canonical", "metric", "lenz-brackets")
]


@pytest.mark.parametrize("n", range(1, 13))
def test_every_drawn_suite_draws_and_passes_up_to_n_12(n):
    # bound states come from orbital elements, so no sampler gives up here
    assert len(_DRAWN_SUITES) == 12
    for name in _DRAWN_SUITES:
        report = run_suite(name, n, 50, 7)
        assert report.passed, f"{name} at n = {n}: {report.line()}"
