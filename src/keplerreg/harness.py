"""Verification harness.

Reusable finite-difference machinery (Jacobians, symplectic-defect
measurement) plus the named property suites that exercise the library's
invariants over seeded samples.  Every suite is deterministic in
(n, samples, seed, tolerances), checks every sample it draws and computes
defects only: it returns (tolerance, defects, samples), one float per
sample and the parallel list of sample objects.  run_suite alone builds
the SuiteReport: the worst defect, plus a Failure for each sample above
tolerance, whose ``where`` is the sample's str().

Tolerances are stratified by error source: identities built from exact
closed-form compositions use 1e-12, checks that pass through central
differences use the complete first-derivative error model
100 h^2 + 5 eps / h (truncation plus the evaluation-roundoff floor; the
floor dominates at h = 1e-6 where it sits near 1.1e-9), and checks that
pass through ODE integration use 1e-6.  Sampling avoids near-singular
regions (|q| >= 0.1, H <= -0.05, base points away from the projection
pole); the invariants hold analytically everywhere, but finite differences
and fixed-step integration degrade near the singular sets, whose behavior
is covered by targeted unit tests instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from typing import Callable

import numpy as np

from .core import (
    DEFAULT_TOL,
    PhasePoint,
    PlaneCotangentPoint,
    SphereCotangentPoint,
    Tolerances,
    _energy,
    kepler_energy,
    sample_bound_states,
)
from .dynamics import _leapfrog_batch, delaunay_flow
from .ligonschaaf import PunctureError, _reproject, angle_equation, ls_angle, ls_inverse, ls_map
from .moser import _chart_hamiltonians, moser_fibration, moser_map, scale_phase
from .stereo import to_plane, to_sphere
from .symmetry import (
    _bracket_batch,
    _central_differences,
    angular_momentum_field,
    extended_momentum,
    extended_momentum_field,
    hamiltonian_field,
    lenz_field,
    momentum_norm_squared,
    sphere_momentum,
)

__all__ = [
    "UnknownSuiteError",
    "Failure",
    "SuiteReport",
    "jacobian",
    "fd_tolerance",
    "standard_form",
    "symplectic_defect",
    "flat_fourier",
    "flat_to_sphere",
    "flat_moser_map",
    "flat_ls_map",
    "SUITE_NAMES",
    "suite_registry",
    "run_suite",
]


class UnknownSuiteError(ValueError):
    """The requested suite name is not in the registry."""


# ---------------------------------------------------------------------------
# Finite-difference machinery


def jacobian(fn: Callable[[np.ndarray], np.ndarray], point, h: float) -> np.ndarray:
    """Central-difference Jacobian of fn at point, error O(h^2).

    The divisor is the actual span between the two stencil points rather
    than the nominal 2h, which removes the step-representation part of the
    roundoff error.  Domain errors raised by the map are re-raised with
    the offending stencil point identified.
    """
    if not h > 0.0:
        raise ValueError("h must be positive")
    return np.column_stack(_central_differences(fn, np.asarray(point, dtype=float), h))


def fd_tolerance(h: float) -> float:
    """Error model for checks built on central differences at step h.

    Truncation contributes O(h^2); evaluating an O(1)-magnitude map to a
    couple of ulps contributes an irreducible eps/h roundoff floor to each
    difference quotient.  Constants are calibrated against the maps in
    this package (outputs and Jacobians of magnitude O(1)).
    """
    return 100.0 * h * h + 5.0 * float(np.finfo(float).eps) / h


def standard_form(m: int) -> np.ndarray:
    """The standard antisymmetric form on R^(2m), pairing coordinate k
    (position) with coordinate m+k (momentum)."""
    omega = np.zeros((2 * m, 2 * m))
    eye = np.eye(m)
    omega[:m, m:] = eye
    omega[m:, :m] = -eye
    return omega


def symplectic_defect(fn: Callable[[np.ndarray], np.ndarray], point, h: float) -> float:
    """Max-norm of J^T Omega_out J - Omega_in for the map's FD Jacobian.

    Coordinates are ordered (positions..., momenta...) on both sides.  The
    defect vanishes (up to O(h^2)) exactly when the map is canonical.
    """
    jac = jacobian(fn, point, h)
    rows, cols = jac.shape
    if rows % 2 or cols % 2:
        raise ValueError("phase-space maps must have even dimensions")
    pullback = jac.T @ standard_form(rows // 2) @ jac
    return float(np.max(np.abs(pullback - standard_form(cols // 2))))


# ---------------------------------------------------------------------------
# Flat-vector adapters (positions..., momenta...) for the FD machinery


def flat_fourier(n: int) -> Callable[[np.ndarray], np.ndarray]:
    """(q, p) -> (x, y) = (p, -q) on flat vectors."""

    def fn(z: np.ndarray) -> np.ndarray:
        return np.concatenate([z[n:], -z[:n]])

    return fn


def _flat_map(n: int, point_type, mapping, *args) -> Callable[[np.ndarray], np.ndarray]:
    """mapping(point_type(z[:n], z[n:]), *args) -> (u, v), on flat vectors."""

    def fn(z: np.ndarray) -> np.ndarray:
        sp = mapping(point_type(z[:n], z[n:]), *args)
        return np.concatenate([sp.u, sp.v])

    return fn


def flat_to_sphere(n: int) -> Callable[[np.ndarray], np.ndarray]:
    """(x, y) -> (u, v) on flat vectors."""
    return _flat_map(n, PlaneCotangentPoint, to_sphere)


def flat_moser_map(n: int) -> Callable[[np.ndarray], np.ndarray]:
    """(q, p) -> (u, v) on flat vectors."""
    return _flat_map(n, PhasePoint, moser_map)


def flat_ls_map(n: int, tol: Tolerances = DEFAULT_TOL) -> Callable[[np.ndarray], np.ndarray]:
    """(q, p) -> (r, s) on flat vectors."""
    return _flat_map(n, PhasePoint, ls_map, tol)


# ---------------------------------------------------------------------------
# Reports


@dataclass(frozen=True, eq=False)
class Failure:
    """A sample whose defect exceeded the suite tolerance."""

    where: str
    observed: float
    expected: float
    tolerance: float


@dataclass(frozen=True, eq=False)
class SuiteReport:
    """Outcome of one verification suite over seeded samples."""

    name: str
    n: int
    samples: int
    seed: int
    tolerance: float
    max_defect: float
    failures: tuple[Failure, ...]

    def __post_init__(self) -> None:
        if (self.max_defect <= self.tolerance) != (len(self.failures) == 0):
            raise ValueError("failures must be empty exactly when max_defect <= tolerance")

    @property
    def passed(self) -> bool:
        return not self.failures

    def line(self) -> str:
        status = "pass" if self.passed else "fail"
        return f"{self.name},{self.samples},{self.max_defect:.17g},{status}"


# ---------------------------------------------------------------------------
# Samplers


def _sample_plane(
    rng: np.random.Generator, n: int, count: int, box: float = 2.0
) -> list[PlaneCotangentPoint]:
    xs = rng.uniform(-box, box, size=(count, n))
    ys = rng.uniform(-box, box, size=(count, n))
    return [PlaneCotangentPoint(x, y) for x, y in zip(xs, ys)]


def _sample_phase_compact(
    rng: np.random.Generator, n: int, count: int
) -> list[PhasePoint]:
    """Bound phase points with all coordinates and map values O(1).

    Used by the finite-difference canonicity suites, whose roundoff floor
    scales with the magnitude of the map outputs.
    """
    out: list[PhasePoint] = []
    while len(out) < count:
        direction = rng.standard_normal(n)
        norm = np.linalg.norm(direction)
        if norm < 1e-8:
            continue
        q = direction / norm * rng.uniform(0.5, 1.1)
        p = rng.uniform(-0.6, 0.6, size=n)
        if -1.8 <= _energy(q, p) <= -0.5:
            out.append(PhasePoint(q, p))
    return out


def _sample_sphere(
    rng: np.random.Generator,
    n: int,
    count: int,
    *,
    min_pole_distance: float = 0.05,
    unit_covector: bool = False,
) -> list[SphereCotangentPoint]:
    """Seeded sphere covectors off the pole and off the zero section."""
    out: list[SphereCotangentPoint] = []
    while len(out) < count:
        u = rng.standard_normal(n + 1)
        norm = np.linalg.norm(u)
        if norm < 1e-8 or 2.0 * (1.0 - u[-1] / norm) < min_pole_distance**2:
            continue
        u, v = _reproject(u, rng.standard_normal(n + 1))
        vnorm = np.linalg.norm(v)
        if vnorm < 0.1:
            continue
        if unit_covector:
            v = v / vnorm
        elif vnorm > 3.0:
            v = 3.0 * v / vnorm
        out.append(SphereCotangentPoint(u, v))
    return out


def _phase_batch(points: list[PhasePoint]) -> tuple[np.ndarray, np.ndarray]:
    return np.stack([pt.q for pt in points]), np.stack([pt.p for pt in points])


def _max_abs_diff(*pairs: tuple[np.ndarray, np.ndarray]) -> float:
    """Largest |a - b| entry over the given pairs of arrays."""
    return max(float(np.max(np.abs(a - b))) for a, b in pairs)


# ---------------------------------------------------------------------------
# Suites


# (tolerance, one defect per sample, the parallel list of samples)
_Defects = tuple[float, list[float], list]


def _symplectic_suite(fn, points: list, coords, h: float) -> _Defects:
    """Symplectic defect of fn at each sample's flat coords(sample) = (positions, momenta)."""
    defects = [symplectic_defect(fn, np.concatenate(coords(pt)), h) for pt in points]
    return fd_tolerance(h), defects, points


def _suite_stereo_roundtrip(n: int, samples: int, seed: int, tol: Tolerances) -> _Defects:
    """Both round trips through the stereographic lift, max-norm error."""
    rng = np.random.default_rng(seed)
    planes = _sample_plane(rng, n, samples)
    spheres = _sample_sphere(rng, n, samples)
    defects = []
    for pl in planes:
        back = to_plane(to_sphere(pl), tol)
        defects.append(_max_abs_diff((back.x, pl.x), (back.y, pl.y)))
    for sp in spheres:
        back = to_sphere(to_plane(sp, tol))
        defects.append(_max_abs_diff((back.u, sp.u), (back.v, sp.v)))
    return 1e-12, defects, planes + spheres


def _suite_metric(n: int, samples: int, seed: int, tol: Tolerances) -> _Defects:
    """|v.v - (x.x+1)^2 (y.y)/4| under the lift (the invariant metric)."""
    points = _sample_plane(np.random.default_rng(seed), n, samples)
    defects = []
    for pl in points:
        sp = to_sphere(pl)
        x2 = float(pl.x @ pl.x)
        y2 = float(pl.y @ pl.y)
        v2 = float(sp.v @ sp.v)
        defects.append(abs(v2 - (x2 + 1.0) ** 2 * y2 / 4.0))
    return 1e-12, defects, points


def _suite_stereo_canonical(n: int, samples: int, seed: int, tol: Tolerances) -> _Defects:
    """Symplectic defect of the lift via finite differences.

    Sampling is compact (chart values O(1)) so the defect sits at the
    finite-difference error floor rather than scaling with the box.
    """
    points = _sample_plane(np.random.default_rng(seed), n, samples, box=0.8)
    return _symplectic_suite(flat_to_sphere(n), points, lambda pl: (pl.x, pl.y), tol.fd_step)


def _suite_moser_symplectic(n: int, samples: int, seed: int, tol: Tolerances) -> _Defects:
    """Symplectic defect of the Moser map via finite differences."""
    points = _sample_phase_compact(np.random.default_rng(seed), n, samples)
    return _symplectic_suite(flat_moser_map(n), points, lambda pt: (pt.q, pt.p), tol.fd_step)


def _suite_fibration_scale(n: int, samples: int, seed: int, tol: Tolerances) -> _Defects:
    """Scale invariance of the unit-covector projection."""
    points = sample_bound_states(n, samples, seed)
    defects = []
    for pt in points:
        base = moser_fibration(pt, tol)
        worst = 0.0
        for rho in (0.5, 2.0, 10.0):
            scaled = moser_fibration(scale_phase(pt, rho), tol)
            worst = max(worst, _max_abs_diff((scaled.u, base.u), (scaled.v, base.v)))
        defects.append(worst)
    return 1e-10, defects, points


def _suite_moser_levelset(n: int, samples: int, seed: int, tol: Tolerances) -> _Defects:
    """Hamiltonian vector fields of the two chart energies agree on the
    shared level set (geodesic energy 1/2, speed defect 0).

    Samples are unit covectors well away from the pole so the chart stays
    moderate: near the pole the |y| -> 0 curvature of the speed defect
    dominates the finite-difference error.  Unit covectors lie on the
    level set, and with |x|^2 <= 3 here their speed defect is roundoff
    only, so every sample is checked.  Gradients use Richardson
    extrapolation at a step 100x larger than fd_step, which keeps both
    the truncation and the roundoff-floor terms below the tolerance.
    """
    rng = np.random.default_rng(seed)
    h = 100.0 * tol.fd_step

    def geodesic_and_speed_defect(z: np.ndarray) -> np.ndarray:
        return np.array(_chart_hamiltonians(z[:n], z[n:])[:2])

    points = _sample_sphere(rng, n, samples, min_pole_distance=1.0, unit_covector=True)
    defects = []
    for sp in points:
        pl = to_plane(sp, tol)
        z = np.concatenate([pl.x, pl.y])
        grads = _central_differences(geodesic_and_speed_defect, z, h, richardson=True)
        # The Hamiltonian fields (dH/dy, -dH/dx) differ entrywise by the
        # gradient differences up to sign and order.
        defects.append(max(abs(float(f - g)) for f, g in grads))
    return 1e-10, defects, points


def _suite_ls_symplectic(n: int, samples: int, seed: int, tol: Tolerances) -> _Defects:
    """Symplectic defect of the Ligon-Schaaf map via finite differences.

    The map is singular as H -> 0 (the covector norm 1/sqrt(-2H) blows
    up), so the compact sampler keeps the energy well inside the bound
    region.
    """
    points = _sample_phase_compact(np.random.default_rng(seed), n, samples)
    return _symplectic_suite(flat_ls_map(n, tol), points, lambda pt: (pt.q, pt.p), tol.fd_step)


def _suite_ls_roundtrip(n: int, samples: int, seed: int, tol: Tolerances) -> _Defects:
    """Two-sided inverse identities plus the monotone-root contract.

    Round-trip defects are reported directly.  Root-finder residuals are
    folded in scaled by (round-trip tolerance / root tolerance) so a
    residual above root_tol fails the suite; the root slope must be
    strictly negative (the monotone-root invariant), and a non-negative
    slope or an unexpected puncture is reported as an outright failure.
    """
    tolerance = 1e-10
    scale = tolerance / tol.root_tol
    points: list = sample_bound_states(n, samples, seed)
    defects = []
    for pt in points:
        back = ls_inverse(ls_map(pt, tol), tol)
        defects.append(_max_abs_diff((back.q, pt.q), (back.p, pt.p)))
    for sp in _sample_sphere(np.random.default_rng(seed + 1), n, samples):
        try:
            pt = ls_inverse(sp, tol)
        except PunctureError:
            defects.append(2.0 * tolerance)
            points.append(f"unexpected puncture at {sp}")
            continue
        again = ls_map(pt, tol)
        d = _max_abs_diff((again.u, sp.u), (again.v, sp.v))
        sigma = sp.covector_norm
        theta = ls_angle(pt).theta
        residual, slope = angle_equation(theta, float(sp.u[-1]), float(sp.v[-1]) / sigma)
        d = max(d, abs(residual) * scale)
        if slope >= 0.0:
            d = max(d, 2.0 * tolerance)
        defects.append(d)
        points.append(sp)
    return tolerance, defects, points


def _suite_ls_equivariance(n: int, samples: int, seed: int, tol: Tolerances) -> _Defects:
    """Equivariance under rotations of R^n extended by a fixed last axis."""
    rng = np.random.default_rng(seed + 7)
    points = sample_bound_states(n, samples, seed)
    defects = []
    for pt in points:
        rot = _random_rotation(rng, n)
        rotated = ls_map(PhasePoint(rot @ pt.q, rot @ pt.p), tol)
        base = ls_map(pt, tol)
        rot_ext = np.zeros((n + 1, n + 1))
        rot_ext[:n, :n] = rot
        rot_ext[n, n] = 1.0
        defects.append(
            _max_abs_diff((rotated.u, rot_ext @ base.u), (rotated.v, rot_ext @ base.v))
        )
    return 1e-12, defects, points


def _random_rotation(rng: np.random.Generator, n: int) -> np.ndarray:
    mat = rng.standard_normal((n, n))
    q, r = np.linalg.qr(mat)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


_INTERTWINE_DT = 1e-5
_INTERTWINE_STEPS = (10_000, 100_000, 500_000)  # t = 0.1, 1, 5


def _suite_intertwine(n: int, samples: int, seed: int, tol: Tolerances) -> _Defects:
    """Direct leapfrog propagation against the conjugated Delaunay flow at
    t in {0.1, 1, 5}.

    The tolerance is integrator-limited, so sampling keeps the leapfrog in
    its accuracy regime: eccentricity at most 0.6 and energy in [-1, -0.05]
    (perihelion bounded away from the collision set).
    """
    points = sample_bound_states(
        n, samples, seed, pole_gap=0.05, max_eccentricity=0.6, min_energy=-1.0
    )
    qs, ps = _phase_batch(points)
    dt = _INTERTWINE_DT
    checkpoints = list(_INTERTWINE_STEPS)
    states = _leapfrog_batch(qs, ps, dt, checkpoints)
    sphere0 = [ls_map(pt, tol) for pt in points]
    worst = [0.0] * len(points)
    for steps, (qarr, parr) in zip(checkpoints, states):
        t = steps * dt
        for i, sp0 in enumerate(sphere0):
            expected = delaunay_flow(sp0, t, tol)
            observed = ls_map(PhasePoint(qarr[i], parr[i]), tol)
            d = _max_abs_diff((observed.u, expected.u), (observed.v, expected.v))
            worst[i] = max(worst[i], d)
    return 1e-6, worst, points


def _suite_momenta_pullback(n: int, samples: int, seed: int, tol: Tolerances) -> _Defects:
    """sphere momentum of the Ligon-Schaaf image equals the extended
    momentum, entrywise."""
    points = sample_bound_states(n, samples, seed)
    defects = [
        _max_abs_diff((sphere_momentum(ls_map(pt, tol)).entries, extended_momentum(pt).entries))
        for pt in points
    ]
    return 1e-12, defects, points


def _suite_mu_squared(n: int, samples: int, seed: int, tol: Tolerances) -> _Defects:
    """momentum_norm_squared(pt) * (-2H) = 1 on bound samples."""
    points = sample_bound_states(n, samples, seed)
    defects = [
        abs(momentum_norm_squared(pt) * (-2.0 * kepler_energy(pt)) - 1.0) for pt in points
    ]
    return 1e-12, defects, points


def _suite_so_brackets(n: int, samples: int, seed: int, tol: Tolerances) -> _Defects:
    """All so(n+1) bracket relations on bound samples.

    {L_ab, L_cd} = d_bc L_da + d_ad L_cb - d_ac L_db - d_bd L_ca with the
    index n standing for the scaled Lenz direction; brackets with fewer or
    more than three distinct indices vanish.  Richardson-extrapolated
    central differences.
    """
    points = sample_bound_states(n, samples, seed, min_energy=-2.0, max_energy=-0.2)
    qs, ps = _phase_batch(points)
    h = tol.fd_step
    pairs = list(combinations(range(n + 1), 2))
    fields = {pair: extended_momentum_field(pair[0], pair[1], n) for pair in pairs}
    values = {pair: field(qs, ps) for pair, field in fields.items()}
    worst = np.zeros(len(points))
    for (a, b), (c, d) in combinations_with_replacement(pairs, 2):
        observed = _bracket_batch(fields[(a, b)], fields[(c, d)], qs, ps, h, richardson=True)
        expected = np.zeros(len(points))
        for delta, pair, sign in (
            (b == c, (d, a), 1.0),
            (a == d, (c, b), 1.0),
            (a == c, (d, b), -1.0),
            (b == d, (c, a), -1.0),
        ):
            if delta:
                i, j = pair
                term = values[(i, j)] if i < j else -values[(j, i)] if i > j else 0.0
                expected = expected + sign * term
        worst = np.maximum(worst, np.abs(observed - expected))
    return 1e-5, worst.tolist(), points


def _suite_lenz_brackets(n: int, samples: int, seed: int, tol: Tolerances) -> _Defects:
    """Lenz bracket relations sampled on |q| > 0 regardless of energy sign.

    {L_ij, K_k} = d_ik K_j - d_jk K_i and {K_i, K_j} = -2H L_ij extend off
    the bound region as analytic identities, so positive energies are
    sampled too.
    """
    rng = np.random.default_rng(seed)
    points: list[PhasePoint] = []
    while len(points) < samples:
        q = rng.uniform(-2.0, 2.0, size=n)
        p = rng.uniform(-1.5, 1.5, size=n)
        if np.linalg.norm(q) >= 0.1:
            points.append(PhasePoint(q, p))
    qs, ps = _phase_batch(points)
    h = tol.fd_step
    worst = np.zeros(samples)
    lenz_values = {k: lenz_field(k)(qs, ps) for k in range(n)}
    ang_values = {
        (i, j): angular_momentum_field(i, j)(qs, ps) for i, j in combinations(range(n), 2)
    }
    energy = hamiltonian_field()(qs, ps)
    for i, j in combinations(range(n), 2):
        for k in range(n):
            observed = _bracket_batch(
                angular_momentum_field(i, j), lenz_field(k), qs, ps, h, richardson=True
            )
            expected = np.zeros(samples)
            if i == k:
                expected = expected + lenz_values[j]
            if j == k:
                expected = expected - lenz_values[i]
            worst = np.maximum(worst, np.abs(observed - expected))
    for i, j in combinations(range(n), 2):
        observed = _bracket_batch(lenz_field(i), lenz_field(j), qs, ps, h, richardson=True)
        expected = -2.0 * energy * ang_values[(i, j)]
        worst = np.maximum(worst, np.abs(observed - expected))
    return 1e-5, worst.tolist(), points


_CONSERVATION_DT = 2e-5
_CONSERVATION_STEPS = 25_000  # horizon t = 0.5


def _suite_conservation(n: int, samples: int, seed: int, tol: Tolerances) -> _Defects:
    """Drift of H, every L_ij and every K_i along leapfrog trajectories.

    Both families are first integrals, so any drift is integrator error;
    sampling keeps the leapfrog in its accuracy regime as in the
    intertwining suite.
    """
    points = sample_bound_states(
        n, samples, seed, pole_gap=0.05, max_eccentricity=0.6, min_energy=-1.0
    )
    qs, ps = _phase_batch(points)
    (end,) = _leapfrog_batch(qs, ps, _CONSERVATION_DT, [_CONSERVATION_STEPS])
    q_end, p_end = end
    worst = np.zeros(len(points))
    fields = [hamiltonian_field()]
    fields += [angular_momentum_field(i, j) for i, j in combinations(range(n), 2)]
    fields += [lenz_field(k) for k in range(n)]
    for field in fields:
        worst = np.maximum(worst, np.abs(field(q_end, p_end) - field(qs, ps)))
    return 1e-6, worst.tolist(), points


# ---------------------------------------------------------------------------
# Registry


@dataclass(frozen=True, eq=False)
class SuiteDef:
    runner: Callable[[int, int, int, Tolerances], _Defects]
    module: str
    invariant: str


_SUITES: dict[str, SuiteDef] = {
    "stereo-roundtrip": SuiteDef(_suite_stereo_roundtrip, "stereo", "round-trip"),
    "stereo-canonical": SuiteDef(_suite_stereo_canonical, "stereo", "canonicity"),
    "metric": SuiteDef(_suite_metric, "stereo", "metric-identity"),
    "moser-symplectic": SuiteDef(_suite_moser_symplectic, "moser", "symplecticity"),
    "fibration-scale": SuiteDef(_suite_fibration_scale, "moser", "scale-invariance"),
    "moser-levelset": SuiteDef(_suite_moser_levelset, "moser", "level-set-gradients"),
    "ls-symplectic": SuiteDef(_suite_ls_symplectic, "ligonschaaf", "symplecticity"),
    "ls-roundtrip": SuiteDef(_suite_ls_roundtrip, "ligonschaaf", "monotone-root-inverse"),
    "ls-equivariance": SuiteDef(_suite_ls_equivariance, "ligonschaaf", "rotation-equivariance"),
    "intertwine-flows": SuiteDef(_suite_intertwine, "dynamics", "flow-intertwining"),
    "momenta-pullback": SuiteDef(_suite_momenta_pullback, "symmetry", "momentum-pullback"),
    "so(n+1)-brackets": SuiteDef(_suite_so_brackets, "symmetry", "so-algebra"),
    "lenz-brackets": SuiteDef(_suite_lenz_brackets, "symmetry", "lenz-algebra"),
    "mu-squared": SuiteDef(_suite_mu_squared, "symmetry", "moment-map-norm"),
    "conservation": SuiteDef(_suite_conservation, "symmetry", "first-integrals"),
}

SUITE_NAMES: tuple[str, ...] = tuple(_SUITES)


def suite_registry() -> dict[str, SuiteDef]:
    """The full registry, keyed by suite name."""
    return dict(_SUITES)


def run_suite(
    name: str,
    n: int,
    samples: int,
    seed: int,
    tol: Tolerances = DEFAULT_TOL,
) -> SuiteReport:
    """Execute one named verification suite; deterministic per seed."""
    if name not in _SUITES:
        raise UnknownSuiteError(
            f"unknown suite {name!r}; known suites: {', '.join(SUITE_NAMES)}"
        )
    if n < 1:
        raise ValueError("n must be >= 1")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    tolerance, defects, points = _SUITES[name].runner(n, samples, seed, tol)
    failures = sorted(
        (
            Failure(where=str(pt), observed=d, expected=0.0, tolerance=tolerance)
            for d, pt in zip(defects, points)
            if d > tolerance
        ),
        key=lambda f: (-f.observed, f.where),
    )
    return SuiteReport(
        name=name,
        n=n,
        samples=samples,
        seed=seed,
        tolerance=tolerance,
        max_defect=max(defects, default=0.0),
        failures=tuple(failures),
    )
