import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from keplerreg import (
    DomainError,
    MomentumMatrix,
    PhasePoint,
    PlaneCotangentPoint,
    SphereCotangentPoint,
    core,
    delaunay_flow,
    fourier,
    fourier_inverse,
    harness,
    kepler_energy,
    kernels,
    ligonschaaf,
    ls_inverse,
    ls_map,
    moser_fibration,
    moser_map,
    moser_map_inverse,
    regularized_propagate,
    sample_bound_states,
    to_plane,
    to_sphere,
)


class TestKeplerEnergy:
    def test_circular(self):
        assert kepler_energy(PhasePoint([1, 0], [0, 1])) == -0.5

    def test_at_rest(self):
        assert kepler_energy(PhasePoint([1, 0], [0, 0])) == -1.0

    def test_half_speed(self):
        assert kepler_energy(PhasePoint([1, 0], [0, 0.5])) == -7 / 8

    def test_collision_rejected(self):
        with pytest.raises(DomainError, match="q must be nonzero"):
            kepler_energy(PhasePoint([0, 0], [0, 1]))

    def test_underflowing_radius_rejected(self):
        # q.q underflows to 0 although q does not: still the collision point.
        with pytest.raises(DomainError, match="q must be nonzero"):
            kepler_energy(PhasePoint([1e-170, 0], [0, 1]))


class TestPhasePoint:
    def test_mismatched_lengths(self):
        with pytest.raises(DomainError):
            PhasePoint([1, 0, 0], [0, 1])

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            PhasePoint([np.nan, 0], [0, 1])

    @pytest.mark.parametrize("q", [[[1.0, 0.0]], 1.0, []])
    def test_rows_must_be_nonempty_vectors(self, q):
        with pytest.raises(DomainError, match="q must be a one-dimensional real vector"):
            PhasePoint(q, [0.0, 1.0])

    def test_immutable(self):
        pt = PhasePoint([1, 0], [0, 1])
        with pytest.raises(ValueError):
            pt.q[0] = 2.0

    def test_predicates(self):
        assert PhasePoint([1, 0], [0, 1]).is_bound()
        assert PhasePoint([1, 0], [0, 1]).on_reference_shell()
        assert not PhasePoint([1, 0], [0, 2]).is_bound()  # H = +1
        assert not PhasePoint([1, 0], [0, 0]).on_reference_shell()  # H = -1

    def test_n_from_vectors(self):
        assert PhasePoint([1, 0, 0, 0], [0, 0, 0, 1]).n == 4


class TestSphereCotangentPoint:
    def test_constraints_enforced(self):
        with pytest.raises(DomainError, match="unit sphere"):
            SphereCotangentPoint([0, 0, 0.5], [1, 0, 0])
        with pytest.raises(DomainError, match="tangent"):
            SphereCotangentPoint([0, 0, 1], [0, 0, 1])

    def test_valid_point(self):
        sp = SphereCotangentPoint([0, 1, 0], [-1, 0, 0])
        assert sp.n == 2
        assert sp.covector_norm == 1.0
        assert sp.off_zero_section()
        assert sp.off_pole()
        assert sp.is_regular()
        assert sp.on_unit_shell()

    def test_pole_predicates(self):
        pole = SphereCotangentPoint([0, 0, 1], [1, 0, 0])
        assert pole.off_zero_section()
        assert not pole.off_pole()
        assert not pole.is_regular()
        zero = SphereCotangentPoint([1, 0, 0], [0, 0, 0])
        assert not zero.off_zero_section()

    def test_custom_tolerance(self):
        u = np.array([0.0, 0.0, 1.0 + 5e-9])
        with pytest.raises(DomainError):
            SphereCotangentPoint(u, [1, 0, 0])

    def test_sphere_needs_two_coordinates(self):
        with pytest.raises(DomainError, match="at least two coordinates"):
            SphereCotangentPoint([1.0], [0.0])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_map_wrappers_freeze_the_rows_their_kernels_checked(self, n):
        # The wrappers and the sampler skip the constructor's second check;
        # what they return must still pass it, and be as read-only and have
        # the same fields as a constructed point.
        pt, *more = sample_bound_states(n, 3, 5)
        made = [
            *more,
            moser_map(pt),
            moser_fibration(pt),
            ls_map(pt),
            delaunay_flow(ls_map(pt), 0.7),
            to_sphere(PlaneCotangentPoint(pt.p, -pt.q)),
            to_plane(moser_map(pt)),
            moser_map_inverse(moser_map(pt)),
            ls_inverse(ls_map(pt)),
            regularized_propagate(pt, 0.7),
            fourier(pt),
            fourier_inverse(fourier(pt)),
        ]
        for point in made:
            rows = {k: v for k, v in vars(point).items() if isinstance(v, np.ndarray)}
            assert len(rows) == 2
            assert not any(row.flags.writeable for row in rows.values())
            again = type(point)(**vars(point))
            assert vars(again).keys() == vars(point).keys()
            assert {k: getattr(again, k).tobytes() for k in rows} == {
                k: row.tobytes() for k, row in rows.items()
            }
            if isinstance(point, SphereCotangentPoint):
                assert type(point.at_puncture) is bool
        pl = to_plane(moser_map(pt))
        back = moser_map_inverse(moser_map(pt))
        assert (back.q.tobytes(), back.p.tobytes()) == ((-pl.y).tobytes(), pl.x.tobytes())


@pytest.fixture
def row_checks(monkeypatch):
    """Counts calls of kernels._check_rows, wherever a keplerreg module holds it."""
    calls = []
    original = kernels._check_rows

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("keplerreg") and vars(module).get("_check_rows") is original:
            monkeypatch.setattr(module, "_check_rows", counted)
    return calls


@pytest.mark.parametrize("n", [2, 3])
def test_row_checks_per_call(n, row_checks):
    # A point adopts the rows its kernel checked: no call checks them twice.
    pt = sample_bound_states(n, 1, 5)[0]
    sp, moser_sp, pl = ls_map(pt), moser_map(pt), fourier(pt)
    calls = {
        # input, projected and output rows
        "ls_inverse": (lambda: ls_inverse(sp), 3),
        # ls_map 3, the flow's input and output 2, the inverse 3
        "regularized_propagate": (lambda: regularized_propagate(pt, 0.7), 8),
        # to_plane's projection
        "moser_map_inverse": (lambda: moser_map_inverse(moser_sp), 1),
        "fourier": (lambda: fourier(pt), 0),
        "fourier_inverse": (lambda: fourier_inverse(pl), 0),
        # one check of the whole batch, at any count
        "sample_bound_states(n, 1)": (lambda: sample_bound_states(n, 1, 3), 1),
        "sample_bound_states(n, 500)": (lambda: sample_bound_states(n, 500, 3), 1),
    }
    seen = {}
    for name, (call, _) in calls.items():
        row_checks.clear()
        call()
        seen[name] = len(row_checks)
    assert seen == {name: checks for name, (_, checks) in calls.items()}


class TestPlaneCotangentPoint:
    def test_y_nonzero(self):
        assert PlaneCotangentPoint([1], [2]).y_nonzero()
        assert not PlaneCotangentPoint([1], [0]).y_nonzero()


class TestMomentumMatrix:
    def test_wedge_antisymmetric_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m = MomentumMatrix.wedge(rng.standard_normal(4), rng.standard_normal(4))
            assert np.array_equal(m.entries, -m.entries.T)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_wedge_equals_outer_form_bit_for_bit(self, k):
        # _wedge_entries' a_i b_j - a_j b_i against np.outer's a_i b_j - b_i a_j:
        # the products commute, so every upper entry and its sign of zero agree
        rng = np.random.default_rng(k)
        zeros = np.array([0.0, -0.0])
        factors = [rng.standard_normal((2, k)) for _ in range(20)]
        factors += [rng.choice(zeros, size=(2, k)) for _ in range(20)]
        factors += [np.where(rng.random((2, k)) < 0.5, rng.choice(zeros, (2, k)), f)
                    for f in factors[:20]]
        negative_zeros = 0
        for a, b in factors:
            want = np.triu(np.outer(a, b) - np.outer(b, a), 1)
            got = MomentumMatrix.wedge(a, b).upper
            assert got.tobytes() == want.tobytes()
            negative_zeros += np.count_nonzero(np.signbit(want) & (want == 0.0))
        assert negative_zeros > 0

    def test_wedge_factors_must_match(self):
        with pytest.raises(DomainError, match="one length"):
            MomentumMatrix.wedge([1.0, 0.0], [0.0, 1.0, 2.0])

    def test_entry_reflection(self):
        m = MomentumMatrix.wedge([1.0, 0.0], [0.0, 0.5])
        assert m.entry(0, 1) == 0.5
        assert m.entry(1, 0) == -0.5
        assert m.entry(0, 0) == 0.0
        # a negative index must not read the zeroed lower triangle: entries[-1, 0] is -0.5
        m = MomentumMatrix.wedge([1, 2, 3], [0.5, -1, 2])
        for i, j in [(-1, 0), (0, -1), (-1, -1), (3, 0), (0, 3), (3, 3)]:
            with pytest.raises(IndexError, match=rf"^entry \({i}, {j}\) is outside a 3 x 3 "):
                m.entry(i, j)
        assert [m.entry(i, j) for i in range(3) for j in range(3)] == m.entries.ravel().tolist()

    def test_lower_triangle_ignored(self):
        full = np.array([[0.0, 2.0], [99.0, 0.0]])
        m = MomentumMatrix(full)
        assert m.entry(1, 0) == -2.0

    def test_norm_squared_counts_independent_entries(self):
        m = MomentumMatrix.wedge([1.0, 0.0], [0.0, 1.0])
        assert m.norm_squared() == 1.0

    def test_must_be_square(self):
        with pytest.raises(DomainError):
            MomentumMatrix(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_must_be_finite(self, bad):
        with pytest.raises(DomainError, match="finite entries"):
            MomentumMatrix([[0.0, bad], [0.0, 0.0]])


class TestTolerances:
    def test_defaults(self):
        assert core._CONSTRAINT_TOL == 1e-10
        assert ligonschaaf._ROOT_TOL == 1e-14
        assert harness.FD_STEP == 1e-6


class TestSampleBoundStates:
    def test_single_point_postconditions(self):
        (pt,) = sample_bound_states(2, 1, 42)
        assert pt.radius > 0
        assert kepler_energy(pt) < 0

    def test_batch_all_bound(self):
        pts = sample_bound_states(3, 100, 7)
        assert len(pts) == 100
        for pt in pts:
            assert pt.radius >= 0.1
            assert kepler_energy(pt) <= -0.05

    def test_deterministic(self):
        a = sample_bound_states(2, 25, 123)
        b = sample_bound_states(2, 25, 123)
        for x, y in zip(a, b):
            assert np.array_equal(x.q, y.q)
            assert np.array_equal(x.p, y.p)

    def test_filters_respected(self):
        pts = sample_bound_states(
            2, 50, 5, pole_gap=0.05, max_eccentricity=0.6, min_energy=-1.0
        )
        from keplerreg import lenz_vector

        for pt in pts:
            energy = kepler_energy(pt)
            assert -1.0 <= energy <= -0.05
            assert np.linalg.norm(lenz_vector(pt)) <= 0.6
            gap = 2.0 - pt.radius * float(pt.p @ pt.p)
            assert 2.0 * gap >= 0.05**2

    @pytest.mark.parametrize(
        "n, count, kwargs, message",
        [
            (0, 1, {}, "n must be >= 1"),
            (2, 0, {}, "count must be >= 1"),
            (2, 1, {"max_energy": 0.0}, "max_energy must be <= -0.05"),
        ],
    )
    def test_argument_errors(self, n, count, kwargs, message):
        with pytest.raises(ValueError, match=message):
            sample_bound_states(n, count, 0, **kwargs)

    def test_impossible_constraints_error(self):
        with pytest.raises(RuntimeError, match="rejection sampling"):
            sample_bound_states(2, 1, 0, max_eccentricity=1e-12)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_seed_reproducible(self, seed):
        a = sample_bound_states(2, 3, seed)
        b = sample_bound_states(2, 3, seed)
        assert all(np.array_equal(x.q, y.q) for x, y in zip(a, b))
