"""The map suites evaluate all their samples, and whole finite-difference
stencils, through row kernels.  These tests hold the kernels to the scalar
maps bit for bit, their errors to the scalar errors, and the suites to a
number of scalar calls that does not grow with the sample count."""

import importlib
import math
import sys
from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest

from keplerreg import (
    DomainError,
    PhasePoint,
    PlaneCotangentPoint,
    SphereCotangentPoint,
    angle_equation,
    angular_momentum_field,
    chart_hamiltonians,
    extended_momentum,
    extended_momentum_field,
    hamiltonian_field,
    harness,
    kepler_energy,
    lenz_field,
    ls_angle,
    ls_inverse,
    ls_map,
    momentum_norm_squared,
    moser_fibration,
    sample_bound_states,
    scale_phase,
    sphere_momentum,
    symmetry,
    to_plane,
    to_sphere,
)
from keplerreg.harness import SUITE_NAMES, flat_ls_map, flat_moser_map, flat_to_sphere
from keplerreg.kernels import _energy
from keplerreg.ligonschaaf import _ROOT_TOL, _ls_map_rows
from keplerreg.moser import _chart_hamiltonians, _fibration_rows
from keplerreg.symmetry import _central_differences

MAP_SUITES = [s for s in SUITE_NAMES if s not in ("intertwine-flows", "conservation")]


def _rows(n: int, count: int = 200) -> tuple[np.ndarray, np.ndarray]:
    points = sample_bound_states(n, count, 11)
    return np.stack([pt.q for pt in points]), np.stack([pt.p for pt in points])


def _same(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _reference_fibration(q, p):
    """The fibration and sqrt(-2H) as the scalar code computed them, on floats."""
    r = math.sqrt(float(q @ q))
    w = math.sqrt(-2.0 * (0.5 * float(p @ p) - 1.0 / r))
    qp = float(q @ p)
    u = np.append(w * r * p, r * float(p @ p) - 1.0)
    return u, np.append(-q / r + qp * p, -w * qp), w


def _reference_ls_map(q, p):
    u, v, w = _reference_fibration(q, p)
    theta = float(v[-1])
    r = np.cos(theta) * u + np.sin(theta) * v
    s = (-np.sin(theta) * u + np.cos(theta) * v) / w
    return r, s, abs(1.0 - float(r[-1])) < 1e-10


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_kernels_equal_scalar_maps_bitwise(n):
    qs, ps = _rows(n)
    u, v, w = _fibration_rows(qs, ps)
    r, s, puncture = _ls_map_rows(qs, ps)
    for k in range(len(qs)):
        pt = PhasePoint(qs[k], ps[k])
        fib, image = moser_fibration(pt), ls_map(pt)
        assert _same(fib.u, u[k]) and _same(fib.v, v[k])
        assert _same(image.u, r[k]) and _same(image.v, s[k])
        assert image.at_puncture == puncture[k]
        ref_u, ref_v, ref_w = _reference_fibration(qs[k], ps[k])
        assert _same(ref_u, u[k]) and _same(ref_v, v[k]) and ref_w == w[k]
        ref_r, ref_s, ref_puncture = _reference_ls_map(qs[k], ps[k])
        assert _same(ref_r, r[k]) and _same(ref_s, s[k]) and ref_puncture == puncture[k]


def test_chart_hamiltonians_batch_equals_one_point():
    # pow(x, 2), which a numpy scalar's ** 2 calls, and x * x differ in the
    # last bit for about one x in a thousand.
    xs, ys = np.random.default_rng(2).uniform(-2.0, 2.0, (2, 10_000, 3))
    batch = np.stack(_chart_hamiltonians(xs, ys), axis=-1)
    for k in range(len(xs)):
        one = chart_hamiltonians(PlaneCotangentPoint(xs[k], ys[k]))
        assert batch[k].tolist() == list(one)


def _scalar_error(q, p, mapping) -> str:
    with pytest.raises(DomainError) as info:
        mapping(PhasePoint(q, p))
    return str(info.value)


@pytest.mark.parametrize(
    "kernel, mapping", [(_fibration_rows, moser_fibration), (_ls_map_rows, ls_map)]
)
@pytest.mark.parametrize(
    "bad",
    [
        lambda q, p: (np.zeros_like(q), p),  # collision point
        lambda q, p: (q, p + 2.0),  # H >= 0
        lambda q, p: (q, np.where(np.arange(p.size) == 0, np.nan, p)),
        lambda q, p: (np.where(np.arange(q.size) == q.size - 1, np.inf, q), p),
    ],
    ids=["q-zero", "unbound", "nan-p", "inf-q"],
)
def test_bad_row_raises_scalar_message(kernel, mapping, bad):
    qs, ps = _rows(3, 20)
    q_bad, p_bad = bad(qs[7], ps[7])
    qs[7], ps[7] = q_bad, p_bad
    with pytest.raises(DomainError) as info:
        kernel(qs, ps)
    assert str(info.value) == _scalar_error(q_bad, p_bad, mapping)


@pytest.mark.parametrize(
    "flat, n, sampler",
    [
        (flat_to_sphere, 2, lambda rng: rng.uniform(-0.8, 0.8, (50, 4))),
        (flat_moser_map, 3, lambda rng: np.concatenate(_rows(3, 50), axis=1)),
        (flat_ls_map, 2, lambda rng: np.concatenate(_rows(2, 50), axis=1)),
    ],
)
def test_batched_jacobian_and_defect_equal_per_point(flat, n, sampler):
    z = sampler(np.random.default_rng(5))
    fn = flat(n)
    jac = harness.jacobian(fn, z, harness.FD_STEP)
    defects = harness.symplectic_defect(fn, z, harness.FD_STEP)
    assert jac.shape == (len(z), 2 * n + 2, 2 * n)
    assert defects.shape == (len(z),)
    for k in range(len(z)):
        assert _same(jac[k], harness.jacobian(fn, z[k], harness.FD_STEP))
        assert defects[k] == harness.symplectic_defect(fn, z[k], harness.FD_STEP)


def _stencil_error(z: np.ndarray) -> tuple[np.ndarray, str]:
    """The stencil point a DomainError of flat_ls_map(2) names, and the message."""
    with pytest.raises(DomainError) as info:
        _central_differences(flat_ls_map(2), z, harness.FD_STEP)
    message = str(info.value)
    assert "\n" not in message and "..." not in message
    assert message.startswith("stencil point array([") and " for coordinate 0 " in message
    where = message[len("stencil point ") : message.index(" for coordinate")]
    return eval(where, {"array": np.array}), message


@pytest.mark.parametrize("column, name", [(1, "q"), (2, "p")])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_stencil_point_raises_the_input_check(column, name, bad):
    # flat_ls_map checks each stencil row's (q, p) once, in _ls_map_rows
    z = np.concatenate(_rows(2, 50), axis=1)
    z[17, column] = bad
    with pytest.raises(DomainError) as info:
        flat_ls_map(2)(z)
    assert str(info.value) == f"{name} must have finite entries"
    assert str(info.value) == _scalar_error(z[17, :2], z[17, 2:], ls_map)
    with pytest.raises(DomainError) as info:
        _central_differences(flat_ls_map(2), z, harness.FD_STEP)
    message = str(info.value)
    assert message.startswith("stencil point array([") and " for coordinate 0 " in message
    assert message.endswith(f"leaves the domain: {name} must have finite entries")


def test_batched_stencil_error_names_one_row():
    qs, ps = _rows(2, 500)
    ps[321] = ps[321] + 3.0  # unbound: the Ligon-Schaaf map is undefined there
    z = np.concatenate([qs, ps], axis=1)
    named, message = _stencil_error(z)
    expected = z[321].copy()
    expected[0] += harness.FD_STEP
    assert _same(named, expected)
    assert message.endswith(_scalar_error(expected[:2], expected[2:], ls_map))


def test_one_point_stencil_error_round_trips():
    z = np.array([0.1, 0.2, 3.0, 0.0])  # H > 0
    named, _ = _stencil_error(z)
    assert _same(named, np.array([z[0] + harness.FD_STEP, *z[1:]]))


_SCALAR = {
    "ligonschaaf": ("ls_map",),
    "moser": ("moser_fibration", "moser_map"),
    "stereo": ("to_sphere",),
    "harness": ("jacobian",),
    "core": ("_freeze_pair",),
    "symmetry": ("_bracket_batch",),
}


@pytest.fixture
def scalar_calls(monkeypatch):
    """Counts calls of the scalar maps, of harness.jacobian, of the value
    objects' check (core._freeze_pair) and of the bracket engine
    (symmetry._bracket_batch), wherever a keplerreg module holds them."""
    counts: dict[str, int] = {}
    modules = [m for name, m in sys.modules.items() if name.startswith("keplerreg")]
    for origin, names in _SCALAR.items():
        defining = importlib.import_module(f"keplerreg.{origin}")
        for name in names:
            original = getattr(defining, name)
            key = f"{origin}.{name}"

            def counted(*args, _fn=original, _key=key, **kwargs):
                counts[_key] = counts.get(_key, 0) + 1
                return _fn(*args, **kwargs)

            for module in modules:
                if module.__dict__.get(name) is original:
                    monkeypatch.setattr(module, name, counted)
    return counts


@pytest.mark.parametrize("suite", MAP_SUITES)
def test_scalar_calls_do_not_grow_with_samples(suite, scalar_calls):
    seen = []
    for samples in (10, 500):
        scalar_calls.clear()
        assert harness.run_suite(suite, 2, samples, 3).passed
        seen.append(dict(scalar_calls))
    assert seen[0] == seen[1]
    # samples stay rows from draw to report: no value object in a passing run
    assert "core._freeze_pair" not in seen[1]
    if suite.endswith(("-symplectic", "-canonical")):
        # one Jacobian of the whole batch, where there was one per sample
        assert seen[1] == {"harness.jacobian": 1}


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("suite", ["so(n+1)-brackets", "lenz-brackets"])
def test_bracket_suites_take_one_gradient_per_field(suite, n, monkeypatch):
    # One Richardson gradient of the stacked field, where there was one per
    # pair and then one per side: two stencil points for each of the 2n
    # coordinates at each of the two steps, each on the whole batch.
    seen = []
    original = symmetry._central_differences

    def counted(fn, z, h, **kwargs):
        def evaluate(z_s):
            seen.append((fn, z_s.shape))
            return fn(z_s)

        return original(evaluate, z, h, **kwargs)

    monkeypatch.setattr(symmetry, "_central_differences", counted)
    assert harness.run_suite(suite, n, 20, 3).passed
    assert len(seen) == 8 * n
    assert {shape for _, shape in seen} == {(20, 2 * n)}
    assert len({id(fn) for fn, _ in seen}) == 1


# ---------------------------------------------------------------------------
# The per-sample loops the batched suites replaced, through the public scalar
# maps, and the per-pair loops the bracket suites replaced, as the reference:
# each suite's defects must equal them bit for bit.


def _wrap(kind, rows) -> list:
    """A sampler's rows (a, b) as the value objects kind(a[k], b[k])."""
    return [kind(a, b) for a, b in zip(*rows)]


def _max_diff(*pairs) -> float:
    return max(float(np.max(np.abs(a - b))) for a, b in pairs)


def _oracle_stereo_roundtrip(n, samples, seed):
    rng = np.random.default_rng(seed)
    planes = _wrap(PlaneCotangentPoint, harness._sample_plane(rng, n, samples))
    spheres = _wrap(SphereCotangentPoint, harness._sample_sphere(rng, n, samples))
    defects = []
    for pl in planes:
        back = to_plane(to_sphere(pl))
        defects.append(_max_diff((back.x, pl.x), (back.y, pl.y)))
    for sp in spheres:
        back = to_sphere(to_plane(sp))
        defects.append(_max_diff((back.u, sp.u), (back.v, sp.v)))
    return defects


def _oracle_metric(n, samples, seed):
    defects = []
    rows = harness._sample_plane(np.random.default_rng(seed), n, samples)
    for pl in _wrap(PlaneCotangentPoint, rows):
        x2, y2 = float(pl.x @ pl.x), float(pl.y @ pl.y)
        v = to_sphere(pl).v
        metric = (x2 + 1.0) ** 2 * y2 / 4.0
        defects.append(abs(float(v @ v) - metric) / metric)
    return defects


def _oracle_fibration_scale(n, samples, seed):
    defects = []
    for pt in sample_bound_states(n, samples, seed):
        base = moser_fibration(pt)
        scaled = [moser_fibration(scale_phase(pt, rho)) for rho in (0.5, 2.0, 10.0)]
        defects.append(max(_max_diff((f.u, base.u), (f.v, base.v)) for f in scaled))
    return defects


def _oracle_moser_levelset(n, samples, seed):
    rng = np.random.default_rng(seed)
    rows = harness._sample_sphere(rng, n, samples, min_pole_distance=1.0, unit_covector=True)
    points = _wrap(SphereCotangentPoint, rows)

    def geodesic_and_speed_defect(z):
        ham = chart_hamiltonians(PlaneCotangentPoint(z[:n], z[n:]))
        return np.array([ham.geodesic, ham.speed_defect])

    defects = []
    for sp in points:
        pl = to_plane(sp)
        z = np.concatenate([pl.x, pl.y])
        h = 100.0 * harness.FD_STEP
        grads = _central_differences(geodesic_and_speed_defect, z, h, richardson=True)
        defects.append(max(abs(float(f - g)) for f, g in grads))
    return defects


def _oracle_ls_roundtrip(n, samples, seed):
    points = sample_bound_states(n, samples, seed)
    rows = harness._sample_sphere(np.random.default_rng(seed + 1), n, samples)
    spheres = _wrap(SphereCotangentPoint, rows)
    defects = []
    for pt in points:
        back = ls_inverse(ls_map(pt))
        defects.append(_max_diff((back.q, pt.q), (back.p, pt.p)))
    for sp in spheres:
        pt = ls_inverse(sp)
        again = ls_map(pt)
        d = _max_diff((again.u, sp.u), (again.v, sp.v))
        sigma = sp.covector_norm
        residual, slope = angle_equation(ls_angle(pt).theta, sp.u[-1], sp.v[-1] / sigma)
        d = max(d, abs(residual) * (1e-10 / _ROOT_TOL))
        defects.append(max(d, 2e-10) if slope >= 0.0 else d)
    return defects


def _oracle_ls_equivariance(n, samples, seed):
    rng = np.random.default_rng(seed + 7)
    defects = []
    for pt in sample_bound_states(n, samples, seed):
        rot, tri = np.linalg.qr(rng.standard_normal((n, n)))
        rot = rot * np.sign(np.diag(tri))
        if np.linalg.det(rot) < 0.0:
            rot[:, 0] = -rot[:, 0]
        rotated = ls_map(PhasePoint(rot @ pt.q, rot @ pt.p))
        base = ls_map(pt)
        rot_ext = np.zeros((n + 1, n + 1))
        rot_ext[:n, :n] = rot
        rot_ext[n, n] = 1.0
        defects.append(_max_diff((rotated.u, rot_ext @ base.u), (rotated.v, rot_ext @ base.v)))
    return defects


def _oracle_momenta_pullback(n, samples, seed):
    return [
        _max_diff((sphere_momentum(ls_map(pt)).entries, extended_momentum(pt).entries))
        for pt in sample_bound_states(n, samples, seed)
    ]


def _oracle_mu_squared(n, samples, seed):
    return [
        abs(momentum_norm_squared(pt) * (-2.0 * kepler_energy(pt)) - 1.0)
        for pt in sample_bound_states(n, samples, seed)
    ]


def _bracket_rows(points):
    return np.stack([pt.q for pt in points]), np.stack([pt.p for pt in points])


def _two_gradient_bracket(f, g, qs, ps, step=harness.FD_STEP):
    """{f, g} of two scalar fields at rows qs, ps from one Richardson
    gradient of each at step: a reference that does not go through the engine."""
    n = qs.shape[-1]
    z = np.concatenate([qs, ps], axis=-1)
    df, dg = [
        _central_differences(
            lambda z, field=field: field(z[..., :n], z[..., n:]),
            z,
            step,
            richardson=True,
        )
        for field in (f, g)
    ]
    total = 0.0
    for k in range(n):
        total = total + df[k] * dg[n + k] - df[n + k] * dg[k]
    return total


def _so_relation(values, a, b, c, d):
    """{L_ab, L_cd} = d_bc L_da + d_ad L_cb - d_ac L_db - d_bd L_ca from the
    entries values[(i, j)], i < j, of an antisymmetric L."""
    expected = 0.0
    for delta, (i, j), sign in (
        (b == c, (d, a), 1.0),
        (a == d, (c, b), 1.0),
        (a == c, (d, b), -1.0),
        (b == d, (c, a), -1.0),
    ):
        if delta:
            term = values[(i, j)] if i < j else -values[(j, i)] if i > j else 0.0
            expected = expected + sign * term
    return expected


def _oracle_so_brackets(n, samples, seed):
    points = sample_bound_states(n, samples, seed, min_energy=-2.0, max_energy=-0.2)
    qs, ps = _bracket_rows(points)
    # the suite's pair order: every (i, j) with i < j < n, then each (i, n); the
    # bracket accumulation is not bit-antisymmetric, so {a, b} and {b, a} may differ
    pairs = [*combinations(range(n), 2), *((i, n) for i in range(n))]
    fields = {pair: extended_momentum_field(pair[0], pair[1], n) for pair in pairs}
    values = {pair: field(qs, ps) for pair, field in fields.items()}
    worst = np.zeros(len(points))
    for (a, b), (c, d) in combinations_with_replacement(pairs, 2):
        # the suite's step: 10x FD_STEP
        observed = _two_gradient_bracket(
            fields[(a, b)], fields[(c, d)], qs, ps, 10.0 * harness.FD_STEP
        )
        worst = np.maximum(worst, np.abs(observed - _so_relation(values, a, b, c, d)))
    return worst.tolist()


def _oracle_lenz_brackets(n, samples, seed, *, angular=True):
    """The {L, K} and {K, K} relations, and with ``angular`` the {L, L} ones."""
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < samples:
        q = rng.uniform(-2.0, 2.0, size=n)
        p = rng.uniform(-1.5, 1.5, size=n)
        if np.linalg.norm(q) >= 0.1:
            points.append(PhasePoint(q, p))
    qs, ps = _bracket_rows(points)
    worst = np.zeros(samples)
    lenz_values = {k: lenz_field(k)(qs, ps) for k in range(n)}
    energy = hamiltonian_field()(qs, ps)
    pairs = list(combinations(range(n), 2))
    angular_values = {pair: angular_momentum_field(*pair)(qs, ps) for pair in pairs}
    if angular:
        for (a, b), (c, d) in combinations_with_replacement(pairs, 2):
            observed = _two_gradient_bracket(
                angular_momentum_field(a, b), angular_momentum_field(c, d), qs, ps
            )
            expected = _so_relation(angular_values, a, b, c, d)
            worst = np.maximum(worst, np.abs(observed - expected))
    for i, j in pairs:
        for k in range(n):
            observed = _two_gradient_bracket(
                angular_momentum_field(i, j), lenz_field(k), qs, ps
            )
            expected = np.zeros(samples)
            if i == k:
                expected = expected + lenz_values[j]
            if j == k:
                expected = expected - lenz_values[i]
            worst = np.maximum(worst, np.abs(observed - expected))
    for i, j in pairs:
        observed = _two_gradient_bracket(lenz_field(i), lenz_field(j), qs, ps)
        expected = -2.0 * energy * angular_values[(i, j)]
        worst = np.maximum(worst, np.abs(observed - expected))
    return worst.tolist()


ORACLES = {
    "stereo-roundtrip": _oracle_stereo_roundtrip,
    "metric": _oracle_metric,
    "fibration-scale": _oracle_fibration_scale,
    "moser-levelset": _oracle_moser_levelset,
    "ls-roundtrip": _oracle_ls_roundtrip,
    "ls-equivariance": _oracle_ls_equivariance,
    "momenta-pullback": _oracle_momenta_pullback,
    "mu-squared": _oracle_mu_squared,
    "so(n+1)-brackets": _oracle_so_brackets,
    "lenz-brackets": _oracle_lenz_brackets,
}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("suite", sorted(ORACLES))
def test_suite_defects_equal_per_sample_oracle(suite, n):
    defects, _ = harness.suite_registry()[suite][1](n, 60, 7)
    assert defects == ORACLES[suite](n, 60, 7)


def test_lenz_defects_equal_the_oracle_where_an_angular_pair_sets_one():
    defects, _ = harness.suite_registry()["lenz-brackets"][1](3, 500, 42)
    assert defects == _oracle_lenz_brackets(3, 500, 42)
    # without the {L_ij, L_kl} relations some sample's defect is lower
    assert _oracle_lenz_brackets(3, 500, 42, angular=False) != defects


# ---------------------------------------------------------------------------
# The two harness samplers' rows meet every filter they are drawn under.


@pytest.mark.parametrize("n", [1, 2, 8])
@pytest.mark.parametrize("options", [{}, {"min_pole_distance": 1.0, "unit_covector": True}])
def test_sphere_rows_meet_every_filter(n, options):
    u, v = harness._sample_sphere(np.random.default_rng(3), n, 2000, **options)
    assert u.shape == v.shape == (2000, n + 1)
    assert np.allclose(np.linalg.norm(u, axis=1), 1.0, rtol=0, atol=1e-12)
    # |u - north pole|^2 = 2 (1 - u_(n+1)) on the unit sphere
    assert np.all(2.0 * (1.0 - u[:, -1]) >= options.get("min_pole_distance", 0.05) ** 2 - 1e-12)
    assert np.allclose(np.vecdot(u, v), 0.0, rtol=0, atol=1e-12)
    speed = np.linalg.norm(v, axis=1)
    if options.get("unit_covector"):
        assert np.allclose(speed, 1.0, rtol=0, atol=1e-12)
    else:
        assert np.all((0.1 <= speed) & (speed <= 3.0 + 1e-12))
        assert np.any(np.isclose(speed, 3.0, rtol=0, atol=1e-12))  # the cap is reached
        assert np.any(speed < 2.9)
    # the base point's direction is uniform off the cap: its first n entries have mean 0
    assert np.all(np.abs(u[:, :-1].mean(axis=0)) < 0.06)


@pytest.mark.parametrize("n", [1, 2, 8])
def test_compact_rows_meet_every_filter(n):
    q, p = harness._sample_phase_compact(np.random.default_rng(3), n, 2000)
    assert q.shape == p.shape == (2000, n)
    radius = np.linalg.norm(q, axis=1)
    assert np.all((0.5 - 1e-12 <= radius) & (radius < 1.1 + 1e-12))
    assert np.all(np.abs(p) <= 0.6)
    # the energy filter ran on these very rows, so its window holds exactly
    energy = _energy(q, p)
    assert np.all((-1.8 <= energy) & (energy <= -0.5))
    assert np.all(np.abs((q / radius[:, None]).mean(axis=0)) < 0.06)
