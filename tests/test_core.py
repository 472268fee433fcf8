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
    lenz_vector,
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
        assert not PhasePoint([0, 0], [0, 1]).on_reference_shell()  # collision: no H

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
        assert sp.pole_gap == 1.0
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

    @pytest.mark.parametrize("u, v, puncture", [
        ([0, 1], [1, 0], True),  # a constructed point on the pole
        ([0, -1], [1, 0], False),
        ([2e-6, 1 - 2e-12], [1, -2e-6], True),  # within 1e-10 of the pole
    ])
    def test_at_puncture_is_read_from_u(self, u, v, puncture):
        sp = SphereCotangentPoint(u, v)
        assert sp.at_puncture is puncture is not sp.off_pole()
        assert "at_puncture" not in repr(sp)

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

    def test_n_from_vectors(self):
        assert PlaneCotangentPoint([1, 2, 3], [0, 0, 1]).n == 3


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
        for pt in pts:
            energy = kepler_energy(pt)
            assert -1.0 <= energy <= -0.05
            assert np.linalg.norm(lenz_vector(pt)) <= 0.6
            gap = 2.0 - pt.radius * float(pt.p @ pt.p)
            assert 2.0 * gap >= 0.05**2

    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_canonicity_filters_respected(self, n):
        # the moser-symplectic and ls-symplectic draw: H in [-1, -0.8] and a pole
        # gap of sqrt 2, so every base point lies in the southern hemisphere
        qs, ps = harness._canonicity_rows(n, 2000, 3)
        again = core._bound_rows(n, 2000, 3, min_energy=-1.0, max_energy=-0.8, pole_gap=2**0.5)
        assert qs.tobytes() == again[0].tobytes() and ps.tobytes() == again[1].tobytes()
        assert qs.shape == ps.shape == (2000, n)
        energy = kernels._energy(qs, ps)
        assert np.all((-1.0 - 1e-12 <= energy) & (energy <= -0.8 + 1e-12))
        assert np.all(kernels._fibration_rows(qs, ps)[0][:, -1] <= 0.0)
        # so |q| >= a = -1/(2H) >= 0.5, |q| < 2a <= 1.25 and |p|^2 <= 1/a <= 2
        radius = np.linalg.norm(qs, axis=1)
        assert np.all((0.5 - 1e-12 <= radius) & (radius < 1.25 + 1e-12))
        assert np.all(np.linalg.norm(ps, axis=1) <= 2**0.5 + 1e-12)
        assert np.all(np.abs((qs / radius[:, None]).mean(axis=0)) < 0.06)

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

    # An impossible range is refused before any draw, naming its argument.
    @pytest.mark.parametrize("kwargs", [
        {"min_energy": -0.01},  # above the default max_energy
        {"min_energy": -0.5, "max_energy": -0.5},
        {"min_energy": float("nan")},
    ])
    def test_min_energy_range_error(self, kwargs):
        with pytest.raises(ValueError, match="min_energy must be < max_energy"):
            sample_bound_states(2, 1, 0, **kwargs)

    @pytest.mark.parametrize("n, value", [(2, -1.0), (2, 1.5), (2, float("nan")), (1, 0.6)])
    def test_max_eccentricity_range_error(self, n, value):
        with pytest.raises(ValueError, match=r"max_eccentricity must be in \[0, 1\], and 1 at n = 1"):
            sample_bound_states(n, 1, 0, max_eccentricity=value)

    @pytest.mark.parametrize("value", [3.0, 2.0, -0.1, float("nan")])
    def test_pole_gap_range_error(self, value):
        with pytest.raises(ValueError, match=r"pole_gap must be in \[0, 2\)"):
            sample_bound_states(2, 1, 0, pole_gap=value)

    def test_the_range_ends_are_allowed(self):
        # max_eccentricity 0 draws circular orbits, and n = 1 radial ones
        for n, e in ((2, 0.0), (3, 0.0), (1, 1.0)):
            for pt in sample_bound_states(n, 20, 0, max_eccentricity=e, min_energy=-1.0):
                assert np.linalg.norm(lenz_vector(pt)) == pytest.approx(e, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 8, 16])
    @pytest.mark.parametrize("ranges", [
        {},
        {"pole_gap": 0.05, "max_eccentricity": 0.6, "min_energy": -1.0},
        {"min_energy": -2.0, "max_energy": -0.2},
    ])
    def test_rows_meet_every_requested_range(self, n, ranges):
        # Rows rebuilt from drawn elements carry rounding: H and e computed
        # from them may pass a range's end by a few ulps.  |q| and the pole
        # gap are tested on the rows themselves, so they hold exactly.
        if n == 1 and "max_eccentricity" in ranges:
            ranges = {**ranges, "max_eccentricity": 1.0}  # every n = 1 orbit is radial
        min_energy = ranges.get("min_energy", -2.0)
        max_energy = ranges.get("max_energy", -0.05)
        max_e = ranges.get("max_eccentricity", 1.0)
        qs, ps = core._bound_rows(n, 2000, 3, **ranges)
        assert qs.shape == ps.shape == (2000, n)
        energy = kernels._energy(qs, ps)
        assert np.all((min_energy - 1e-12 <= energy) & (energy <= max_energy + 1e-12))
        # the draw spans its energy range
        width = max_energy - min_energy
        assert energy.min() < min_energy + 0.05 * width and energy.max() > max_energy - 0.05 * width
        lenz = kernels._lenz(qs, ps)
        e = np.linalg.norm(lenz, axis=1)
        assert np.all(e <= max_e + 1e-12)
        if n == 1:
            assert np.allclose(e, 1.0, rtol=0, atol=1e-12)  # every orbit is radial
        r = np.linalg.norm(qs, axis=1)
        assert np.all(r >= 0.1)
        gap = 2.0 - r * np.sum(ps**2, axis=1)
        assert np.all(2.0 * gap >= ranges.get("pole_gap", 0.0) ** 2)
        # the pericentre direction K/|K| is uniform on the sphere: it has mean 0
        if n > 1:
            direction = lenz / e[:, None]
            assert np.all(np.abs(direction.mean(axis=0)) < 0.06)

    def test_a_radial_draw_at_the_origin_is_dropped_before_its_momentum(self, monkeypatch):
        # At n = 1 every orbit has e = 1, so an eccentric anomaly of 0 puts q
        # at the origin, where a (1 - e cos E) is 0.  Every other anomaly is
        # made 0 here; with warnings as errors, a speed of 1/0 would raise.
        real = np.random.default_rng

        class PericentreAnomalies:
            def __init__(self, seed):
                self.rng = real(seed)

            def uniform(self, low, high, size):
                draws = self.rng.uniform(low, high, size)
                if low == -np.pi:
                    draws[::2] = 0.0
                return draws

            def standard_normal(self, size):
                return self.rng.standard_normal(size)

        monkeypatch.setattr(np.random, "default_rng", PericentreAnomalies)
        qs, ps = core._bound_rows(1, 50, 0)
        assert np.all(np.abs(qs) >= 0.1) and np.all(np.isfinite(ps))

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_seed_reproducible(self, seed):
        a = sample_bound_states(2, 3, seed)
        b = sample_bound_states(2, 3, seed)
        assert all(np.array_equal(x.q, y.q) for x, y in zip(a, b))


class TestRejectionRows:
    """core._rejection_rows, the one loop of every rejection sampler, on stub rounds."""

    @staticmethod
    def _rounds(kept: list[int], drawn: int, n: int = 2):
        """draw(missing) whose round r keeps kept[r] rows, numbered on across
        rounds, out of drawn candidates; it records each missing."""
        asked, start = [], 0

        def draw(missing):
            nonlocal start
            k = kept[len(asked)]
            asked.append(missing)
            q = np.arange(start, start + k, dtype=float)[:, None] * np.ones(n)
            start += k
            return q, -q, drawn

        return draw, asked

    def test_the_first_count_rows_in_order(self):
        # the last round keeps 5 rows where 3 are missing: the first 3 count
        draw, asked = self._rounds([0, 2, 5], 4)
        q, p = core._rejection_rows(5, draw, "qp")
        assert asked == [5, 5, 3]
        assert q.tolist() == [[k, k] for k in (0.0, 1.0, 2.0, 3.0, 4.0)]
        assert np.array_equal(p, -q)

    def test_gives_up_at_the_limit(self):
        # 20,000 candidates per row plus 200,000: 240,000 for two rows
        draw, asked = self._rounds([0, 0, 0, 2], 60_000)
        assert len(core._rejection_rows(2, draw, "qp")[0]) == 2  # found in the last round
        draw, asked = self._rounds([0, 0, 0, 1], 60_000)
        with pytest.raises(RuntimeError) as raised:
            core._rejection_rows(2, draw, "qp")
        assert str(raised.value) == (
            "rejection sampling failed to find 2 points after 240000 draws; "
            "the requested constraints are too tight"
        )
        assert asked == [2, 2, 2, 2]

    def test_checks_the_kept_rows_by_the_pair_names(self):
        def draw(missing):
            return np.array([[1.0, 0.0], [1.0, np.nan]]), np.zeros((2, 2)), 2

        # the NaN row is cut away at count 1, and kept at count 2
        assert core._rejection_rows(1, draw, "qp")[0].tolist() == [[1.0, 0.0]]
        with pytest.raises(DomainError, match="q must have finite entries"):
            core._rejection_rows(2, draw, "qp")
        with pytest.raises(DomainError, match="u must have finite entries"):
            core._rejection_rows(2, draw, "uv")
