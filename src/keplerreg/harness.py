"""Verification harness.

Reusable finite-difference machinery (Jacobians, symplectic-defect
measurement) plus the named property suites that exercise the library's
invariants over seeded samples.  Every suite is deterministic in
(n, samples, seed).  Its samples stay rows from draw to report: each
sampler returns row arrays checked once per batch as the value objects
check a point, and the suite computes defects only.  The registry pairs
each suite's tolerance with its runner, which returns (defects, sample):
one float per sample, and sample(k), which builds the k-th sample's value
object (or, for an unexpected puncture in ls-roundtrip, its message).
run_suite alone builds the SuiteReport: the worst defect (NaN if any is),
plus a Failure for each sample above tolerance or NaN, the only samples it
calls sample(k) for.  A Failure's ``where`` is the sample's str() with
every float at its shortest round-trip repr, so the sample can be rebuilt
bit for bit.  A runner that raises DomainError (its samples left a map's
domain) or RuntimeError (its sampler gave up) is reported as one sample
of defect inf whose ``where`` is the error's text.

Tolerances are stratified by error source; the finite-difference ones
follow fd_tolerance's model at FD_STEP, and the flow suites bound each
sample's error per unit of its conditioning.  Sampling avoids
near-singular regions (|q| >= 0.1, H <= -0.05, base points away from the
projection pole); the invariants hold analytically everywhere, but finite
differences degrade near the singular sets, whose behavior is covered by
targeted unit tests instead.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _PUBLIC
from .core import (
    DomainError, PhasePoint, PlaneCotangentPoint, SphereCotangentPoint, _bound_rows,
    _rejection_rows,
)
from .kernels import (
    _chart_hamiltonians,
    _check_rows,
    _delaunay_flow_rows,
    _energy,
    _extended_rows,
    _fibration_rows,
    _frames,
    _integral_pairs,
    _integral_rows,
    _lift,
    _ls_map_rows,
    _project,
    _reproject,
    _scale,
    _wedge_entries,
)
from .ligonschaaf import _ROOT_TOL, _ls_inverse_rows, _solve_rotation_angle, angle_equation
from .symmetry import _bracket_batch, _central_differences

# The package's harness names, then the ones only this module exports.
__all__ = [
    *_PUBLIC["harness"],
    "FD_STEP", "fd_tolerance", "flat_to_sphere", "flat_moser_map", "flat_ls_map",
]


class UnknownSuiteError(ValueError):
    """The requested suite name is not in the registry."""


# ---------------------------------------------------------------------------
# Finite-difference machinery

# The central-difference step of the derivative suites.
FD_STEP = 1e-6


def jacobian(fn: Callable[[np.ndarray], np.ndarray], point, h: float) -> np.ndarray:
    """Central-difference Jacobian of fn at point, error O(h^2): (k, m) at one
    point (m,), (N, k, m) at a batch (N, m) on which fn returns (N, k).

    The divisor is the actual span between the two stencil points rather
    than the nominal 2h, which removes the step-representation part of the
    roundoff error.  Domain errors raised by the map are re-raised with
    the offending stencil point identified.
    """
    return _central_differences(fn, np.asarray(point, dtype=float), h)


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


def symplectic_defect(fn: Callable[[np.ndarray], np.ndarray], point, h: float):
    """Max-norm of J^T Omega_out J - Omega_in for the map's FD Jacobian.

    Coordinates are ordered (positions..., momenta...) on both sides.  The
    defect vanishes (up to O(h^2)) exactly when the map is canonical.  A
    float for one point (m,), an array (N,) for a batch (N, m).
    """
    jac = jacobian(fn, point, h)
    rows, cols = jac.shape[-2:]
    if rows % 2 or cols % 2:
        raise ValueError("phase-space maps must have even dimensions")
    pullback = np.swapaxes(jac, -1, -2) @ standard_form(rows // 2) @ jac
    defect = np.max(np.abs(pullback - standard_form(cols // 2)), axis=(-2, -1))
    return defect if jac.ndim > 2 else float(defect)


# ---------------------------------------------------------------------------
# Flat-vector adapters (positions..., momenta...) for the FD machinery


def _flat_map(n: int, kernel) -> Callable[[np.ndarray], np.ndarray]:
    """kernel(z[..., :n], z[..., n:]) -> (u, v, ...) on flat vectors (..., 2n); the
    kernel checks every row as the input point and as the output point."""

    def fn(z: np.ndarray) -> np.ndarray:
        return np.concatenate(kernel(z[..., :n], z[..., n:])[:2], axis=-1)

    return fn


def flat_to_sphere(n: int) -> Callable[[np.ndarray], np.ndarray]:
    """(x, y) -> (u, v) on flat vectors."""
    return _flat_map(n, lambda x, y: _lift(*_check_rows(x, y, "xy")))


def flat_moser_map(n: int) -> Callable[[np.ndarray], np.ndarray]:
    """(q, p) -> (u, v) on flat vectors."""

    def kernel(q: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        _check_rows(q, p, "qp")
        return _lift(p, -q)

    return _flat_map(n, kernel)


def flat_ls_map(n: int) -> Callable[[np.ndarray], np.ndarray]:
    """(q, p) -> (r, s) on flat vectors; ``_ls_map_rows`` checks (q, p) itself."""
    return _flat_map(n, _ls_map_rows)


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
) -> tuple[np.ndarray, np.ndarray]:
    """Rows (x, y) of shape (count, n), uniform on the box [-box, box]^(2n)."""
    xs = rng.uniform(-box, box, size=(count, n))
    ys = rng.uniform(-box, box, size=(count, n))
    return _check_rows(xs, ys, "xy")


def _sample_sphere(
    rng: np.random.Generator, n: int, count: int, *, min_pole_distance: float = 0.05,
    unit_covector: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Rows (u, v) of shape (count, n+1): sphere covectors off the pole and off
    the zero section.  u is a Gaussian direction at least min_pole_distance
    from the pole, and v a Gaussian put in its tangent space (``_reproject``),
    kept where |v| >= 0.1 and then scaled to |v| = 1 or capped at |v| = 3."""

    def draw(missing: int) -> tuple[np.ndarray, np.ndarray, int]:
        size = max(2 * missing, 256)
        u, v = rng.standard_normal((2, size, n + 1))
        norms = np.sqrt(np.vecdot(u, u))
        ok = norms >= 1e-8
        ok[ok] = 2.0 * (1.0 - u[ok, -1] / norms[ok]) >= min_pole_distance**2
        u, v = _reproject(u[ok], v[ok])
        vnorm = np.sqrt(np.vecdot(v, v))[:, None]
        keep = vnorm[:, 0] >= 0.1
        u, v, vnorm = u[keep], v[keep], vnorm[keep]
        return u, v / vnorm if unit_covector else np.where(vnorm > 3.0, 3.0 * v / vnorm, v), size

    return _rejection_rows(count, draw, "uv")


def _points(kind: type, a: np.ndarray, b: np.ndarray) -> Callable[[int], object]:
    """sample(k) over checked rows a, b: the k-th value object of kind."""
    return lambda k: kind._from_checked(a[k], b[k])


def _where(sample) -> str:
    """str(sample) on one line, every float at its shortest round-trip repr."""
    with np.printoptions(floatmode="unique", linewidth=sys.maxsize):
        return str(sample)


def _max_abs_diff(*pairs: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Largest |a - b| entry of each row over the given pairs of (N, k) arrays."""
    return np.max([np.max(np.abs(a - b), axis=-1) for a, b in pairs], axis=0)


# ---------------------------------------------------------------------------
# Suites


# (one defect per sample, sample(k) -> the k-th sample's value object)
_Defects = tuple[list[float], Callable[[int], object]]


def _symplectic_suite(fn, kind: type, a: np.ndarray, b: np.ndarray) -> _Defects:
    """Symplectic defect of fn at each row (a, b) = (positions, momenta)."""
    z = np.concatenate([a, b], axis=-1)
    return symplectic_defect(fn, z, FD_STEP).tolist(), _points(kind, a, b)


def _suite_stereo_roundtrip(n: int, samples: int, seed: int) -> _Defects:
    """Both round trips through the stereographic lift, max-norm error."""
    rng = np.random.default_rng(seed)
    xs, ys = _sample_plane(rng, n, samples)
    us, vs = _sample_sphere(rng, n, samples)
    x_back, y_back = _project(*_lift(xs, ys))
    u_back, v_back = _lift(*_project(us, vs))
    defects = np.concatenate(
        [_max_abs_diff((x_back, xs), (y_back, ys)), _max_abs_diff((u_back, us), (v_back, vs))]
    )
    plane, sphere = _points(PlaneCotangentPoint, xs, ys), _points(SphereCotangentPoint, us, vs)
    return defects.tolist(), lambda k: plane(k) if k < samples else sphere(k - samples)


# metric's bound on each sample's defect: its first-order rounding error is at
# most (5n + 4.5) eps, which is below 85 eps through n = 16.
_METRIC_TOL = 85.0 * float(np.finfo(float).eps)


def _suite_metric(n: int, samples: int, seed: int) -> _Defects:
    """|v.v - (x.x+1)^2 (y.y)/4| under the lift (the invariant metric), relative
    to (x.x+1)^2 (y.y)/4, which grows with n on the sample box."""
    xs, ys = _sample_plane(np.random.default_rng(seed), n, samples)
    _, v = _lift(xs, ys)
    # (x.x+1)^2 (y.y)/4 is twice the chart's geodesic energy
    metric = 2.0 * _chart_hamiltonians(xs, ys)[0]
    defects = np.abs(np.vecdot(v, v) - metric) / metric
    return defects.tolist(), _points(PlaneCotangentPoint, xs, ys)


def _suite_stereo_canonical(n: int, samples: int, seed: int) -> _Defects:
    """Symplectic defect of the lift via finite differences.

    Sampling is compact (chart values O(1)) so the defect sits at the
    finite-difference error floor rather than scaling with the box.
    """
    rows = _sample_plane(np.random.default_rng(seed), n, samples, box=0.8)
    return _symplectic_suite(flat_to_sphere(n), PlaneCotangentPoint, *rows)


def _canonicity_rows(n: int, samples: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Bound rows (q, p) for the FD canonicity suites, whose roundoff floor scales
    with the coordinates and map values: H in [-1, -0.8], away from H -> 0 where
    the Ligon-Schaaf covector 1/sqrt(-2H) blows up, and base points in the southern
    hemisphere (|q| >= a), so |q| lies in [0.5, 1.25) and |p| <= sqrt(2)."""
    return _bound_rows(n, samples, seed, min_energy=-1.0, max_energy=-0.8, pole_gap=math.sqrt(2.0))


def _suite_moser_symplectic(n: int, samples: int, seed: int) -> _Defects:
    """Symplectic defect of the Moser map via finite differences."""
    return _symplectic_suite(flat_moser_map(n), PhasePoint, *_canonicity_rows(n, samples, seed))


def _suite_fibration_scale(n: int, samples: int, seed: int) -> _Defects:
    """Scale invariance of the unit-covector projection."""
    qs, ps = _bound_rows(n, samples, seed)
    u, v, _ = _fibration_rows(qs, ps)
    defects = np.zeros(samples)
    for rho in (0.5, 2.0, 10.0):
        u_rho, v_rho, _ = _fibration_rows(*_scale(qs, ps, rho))
        defects = np.maximum(defects, _max_abs_diff((u_rho, u), (v_rho, v)))
    return defects.tolist(), _points(PhasePoint, qs, ps)


def _suite_moser_levelset(n: int, samples: int, seed: int) -> _Defects:
    """Hamiltonian vector fields of the two chart energies agree on the
    shared level set (geodesic energy 1/2, speed defect 0).

    Samples are unit covectors well away from the pole so the chart stays
    moderate: near the pole the |y| -> 0 curvature of the speed defect
    dominates the finite-difference error.  Unit covectors lie on the
    level set, and with |x|^2 <= 3 here their speed defect is roundoff
    only, so every sample is checked.  Gradients use Richardson
    extrapolation at a step 100x larger than FD_STEP, which keeps both
    the truncation and the roundoff-floor terms below the tolerance.
    """
    rng = np.random.default_rng(seed)
    h = 100.0 * FD_STEP

    def geodesic_and_speed_defect(z: np.ndarray) -> np.ndarray:
        return np.stack(_chart_hamiltonians(z[..., :n], z[..., n:])[:2], axis=-1)

    us, vs = _sample_sphere(rng, n, samples, min_pole_distance=1.0, unit_covector=True)
    z = np.concatenate(_project(us, vs), axis=-1)
    grads = _central_differences(geodesic_and_speed_defect, z, h, richardson=True)
    # The Hamiltonian fields (dH/dy, -dH/dx) differ entrywise by the
    # gradient differences up to sign and order.
    defects = np.max(np.abs(grads[:, 0] - grads[:, 1]), axis=-1)
    return defects.tolist(), _points(SphereCotangentPoint, us, vs)


def _suite_ls_symplectic(n: int, samples: int, seed: int) -> _Defects:
    """Symplectic defect of the Ligon-Schaaf map via finite differences."""
    return _symplectic_suite(flat_ls_map(n), PhasePoint, *_canonicity_rows(n, samples, seed))


# ls-roundtrip's tolerance, which also scales its root residuals.
_LS_ROUNDTRIP_TOL = 1e-10


def _suite_ls_roundtrip(n: int, samples: int, seed: int) -> _Defects:
    """Two-sided inverse identities plus the monotone-root contract.

    Round-trip defects are reported directly.  Root-finder residuals are
    folded in scaled by (round-trip tolerance / the solver's 1e-14 bound)
    so a residual above that bound fails the suite; the root slope must be
    strictly negative (the monotone-root invariant), and a non-negative
    slope or an unexpected puncture is reported as an outright failure.
    """
    scale = _LS_ROUNDTRIP_TOL / _ROOT_TOL
    qs, ps = _bound_rows(n, samples, seed)
    spheres = _sample_sphere(np.random.default_rng(seed + 1), n, samples)
    r, s, _ = _ls_map_rows(qs, ps)
    us, vs = (np.concatenate(pair) for pair in zip((r, s), spheres))
    q_back, p_back, puncture = _ls_inverse_rows(us, vs)
    m = samples
    defects = np.full(len(us), 2.0 * _LS_ROUNDTRIP_TOL)
    defects[:m] = _max_abs_diff((q_back[:m], qs), (p_back[:m], ps))
    # Sphere samples: the forward map undoes the inverse, and the
    # inverse's rotation angle, v_(n+1) of the fibration, is the root.
    k = m + np.flatnonzero(~puncture[m:])
    again_r, again_s, _ = _ls_map_rows(q_back[k], p_back[k])
    d = _max_abs_diff((again_r, us[k]), (again_s, vs[k]))
    theta = _fibration_rows(q_back[k], p_back[k])[1][:, -1]
    sigma = np.sqrt(np.vecdot(vs[k], vs[k]))
    residual, slope = angle_equation(theta, us[k, -1], vs[k, -1] / sigma)
    d = np.maximum(d, np.abs(residual) * scale)
    defects[k] = np.where(slope >= 0.0, np.maximum(d, 2.0 * _LS_ROUNDTRIP_TOL), d)
    defects[puncture] = 2.0 * _LS_ROUNDTRIP_TOL
    phase, sphere = _points(PhasePoint, qs, ps), _points(SphereCotangentPoint, us, vs)

    def sample(k: int):
        if not puncture[k]:
            return phase(k) if k < m else sphere(k)
        return f"unexpected puncture at {_where(SphereCotangentPoint._from_checked(us[k], vs[k]))}"

    return defects.tolist(), sample


def _suite_ls_equivariance(n: int, samples: int, seed: int) -> _Defects:
    """Equivariance under rotations of R^n extended by a fixed last axis."""
    rng = np.random.default_rng(seed + 7)
    qs, ps = _bound_rows(n, samples, seed)
    # Haar frames of Gaussian matrices, det made +1
    rot = _frames(rng.standard_normal((samples, n, n)))
    rot[np.linalg.det(rot) < 0.0, :, 0] *= -1.0
    rot_ext = np.pad(rot, ((0, 0), (0, 1), (0, 1)))
    rot_ext[:, n, n] = 1.0

    def apply(mat: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return (mat @ rows[..., None])[..., 0]

    rotated = _ls_map_rows(apply(rot, qs), apply(rot, ps))
    base = _ls_map_rows(qs, ps)
    defects = _max_abs_diff(*((a, apply(rot_ext, b)) for a, b in zip(rotated[:2], base[:2])))
    return defects.tolist(), _points(PhasePoint, qs, ps)


# The flow suites' bound on each sample's error per unit of conditioning.
_FLOW_TOL = 100.0 * float(np.finfo(float).eps)


def _flow_rows(n: int, samples: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Bound rows (q, p) for the flow suites: energy in [-1, -0.05] and, for
    n >= 2, eccentricity below 0.6 (every n = 1 orbit is radial)."""
    cap = 0.6 if n > 1 else 1.0
    return _bound_rows(n, samples, seed, pole_gap=0.05, max_eccentricity=cap, min_energy=-1.0)


def _kepler_flow(q: np.ndarray, p: np.ndarray, t: float) -> tuple[np.ndarray, ...]:
    """The Kepler flow of bound rows (m, n) for a time t in closed form:
    Lagrange's f and g at the eccentric-anomaly increment dE (Danby 1988,
    ch. 6).  With a = -1/(2H), e cos E0 = 1 - |q|/a and e sin E0 = q.p/sqrt(a),
    the rotation-angle solve gives E - M at M = E0 - e sin E0 + t a^-1.5,
    and dE = t a^-1.5 + (E - M) - e sin E0.  Returns (q, p, a, kappa), where
    kappa = a/|q| is the larger conditioning 1/(1 - e cos E) of the start
    and the end."""
    r0, qp = np.sqrt(np.vecdot(q, q)), np.vecdot(q, p)
    a = -0.5 / _energy(q, p)
    root_a, motion = np.sqrt(a), t * a**-1.5
    e_cos, e_sin = 1.0 - r0 / a, qp / root_a
    e, mean = np.hypot(e_cos, e_sin), np.arctan2(e_sin, e_cos) - e_sin + motion
    d_anomaly = motion + _solve_rotation_angle(e * np.cos(mean), e * np.sin(mean)) - e_sin
    sin_d, vers = np.sin(d_anomaly), 2.0 * np.sin(0.5 * d_anomaly) ** 2
    r = r0 + (a - r0) * vers + qp * root_a * sin_d
    f, g = 1.0 - a / r0 * vers, r0 * root_a * sin_d + a * qp * vers
    f_dot, g_dot = -root_a * sin_d / (r * r0), 1.0 - a / r * vers
    q_t, p_t = f[:, None] * q + g[:, None] * p, f_dot[:, None] * q + g_dot[:, None] * p
    return q_t, p_t, a, a / np.minimum(r0, r)


def _flow_defects(errors: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """errors / scale, with scale capped where _FLOW_TOL scale reaches 1e-6:
    no sample's bound on its error exceeds 1e-6."""
    return errors / np.minimum(scale, 1e-6 / _FLOW_TOL)


def _suite_intertwine(n: int, samples: int, seed: int) -> _Defects:
    """The closed-form Kepler flow against the conjugated Delaunay flow at
    t in {0.1, 1, 5}.

    The error is the largest entry of |dr| and |ds|/sqrt(a) (|s| = sqrt(a)),
    and the defect divides it by kappa^2 + t a^-1.5: near pericentre f and g
    cancel to eps a in q, and the phase t a^-1.5 is rounded.
    """
    qs, ps = _flow_rows(n, samples, seed)
    r0, s0, _ = _ls_map_rows(qs, ps)
    worst = np.zeros(samples)
    for t in (0.1, 1.0, 5.0):
        q, p, a, kappa = _kepler_flow(qs, ps, t)
        r, s, _ = _ls_map_rows(q, p)
        r_ref, s_ref, _ = _delaunay_flow_rows(r0, s0, np.full(samples, t))
        root_a = np.sqrt(a)[:, None]
        errors = _max_abs_diff((r, r_ref), (s / root_a, s_ref / root_a))
        worst = np.maximum(worst, _flow_defects(errors, kappa**2 + t * a**-1.5))
    return worst.tolist(), _points(PhasePoint, qs, ps)


def _suite_momenta_pullback(n: int, samples: int, seed: int) -> _Defects:
    """sphere momentum of the Ligon-Schaaf image equals the extended
    momentum, entrywise."""
    qs, ps = _bound_rows(n, samples, seed)
    r, s, _ = _ls_map_rows(qs, ps)
    diff = _wedge_entries(r, s, *_integral_pairs(n)) - _extended_rows(qs, ps)
    return np.max(np.abs(diff), axis=-1).tolist(), _points(PhasePoint, qs, ps)


def _suite_mu_squared(n: int, samples: int, seed: int) -> _Defects:
    """momentum_norm_squared(pt) * (-2H) = 1 on bound samples."""
    qs, ps = _bound_rows(n, samples, seed)
    rows = _extended_rows(qs, ps)
    defects = np.abs(np.vecdot(rows, rows) * (-2.0 * _energy(qs, ps)) - 1.0)
    return defects.tolist(), _points(PhasePoint, qs, ps)


def _algebra_defects(values, observed, kappa) -> np.ndarray:
    """Each sample's worst |observed - expected| over the pairs x <= y of the
    brackets observed (..., k, k) of a field with values (..., k) whose entry
    x is M_(a[x], b[x]) at ``_integral_pairs(n)`` (k = n(n+1)/2), of an
    antisymmetric M with {M_ab, M_cd} = g_bc M_da + g_ad M_cb - g_ac M_db - g_bd M_ca
    and g = diag(1, ..., 1, kappa), kappa a scalar or one per sample: so(n+1) at
    kappa = 1."""
    n = math.isqrt(8 * values.shape[-1] + 1) // 2
    a, b = _integral_pairs(n)
    matrix = np.zeros(values.shape[:-1] + (n + 1, n + 1))
    matrix[..., a, b], matrix[..., b, a] = values, -values
    x, y = np.triu_indices(len(a))
    observed = observed[..., x, y]
    a, b, c, d = a[x], b[x], a[y], b[y]
    # a and c lie below n, so g_bd alone can be kappa
    g_bd = (b == d) * np.where(b == n, np.asarray(kappa)[..., None], 1.0)
    expected = (
        (b == c) * matrix[..., d, a]
        + (a == d) * matrix[..., c, b]
        - (a == c) * matrix[..., d, b]
        - g_bd * matrix[..., c, a]
    )
    return np.max(np.abs(observed - expected), axis=-1, initial=0.0)


def _bracket_suite(field, qs: np.ndarray, ps: np.ndarray, h: float, kappa) -> _Defects:
    """The so(n+1) relations of a field valued at ``_integral_pairs(n)`` with metric
    kappa, from one Richardson gradient of it at step h."""
    observed = _bracket_batch(field, qs, ps, h, richardson=True)
    worst = _algebra_defects(field(qs, ps), observed, kappa)
    return worst.tolist(), _points(PhasePoint, qs, ps)


def _suite_so_brackets(n: int, samples: int, seed: int) -> _Defects:
    """All so(n+1) bracket relations of the extended momenta on bound
    samples, the index n standing for the scaled Lenz direction.  Brackets
    use Richardson extrapolation at a step 10x FD_STEP: near-radial orbits
    bring |p| up to 4.4 at |q| = 0.1, and at FD_STEP their roundoff floor
    dominates (4.8e-8 against 3.0e-9 at 10x, n = 2, seed 42), while the
    truncation error stays below it at 10x."""
    qs, ps = _bound_rows(n, samples, seed, min_energy=-2.0, max_energy=-0.2)
    return _bracket_suite(_extended_rows, qs, ps, 10.0 * FD_STEP, 1.0)


def _suite_lenz_brackets(n: int, samples: int, seed: int) -> _Defects:
    """All so(n+1) relations of the L_ij and K_i columns of ``_integral_rows``,
    K_i as M_in, with metric -2H: so {K_i, K_j} = -2H L_ij.  They extend off
    the bound region as analytic identities, so the samples take |q| >= 0.1
    and either sign of energy."""
    rng, half = np.random.default_rng(seed), np.array((2.0,) * n + (1.5,) * n)

    def draw(missing: int) -> tuple[np.ndarray, np.ndarray, int]:
        block = rng.uniform(-half, half, size=(samples, 2 * n))
        block = block[np.linalg.norm(block[:, :n], axis=1) >= 0.1]
        return block[:, :n], block[:, n:], samples

    qs, ps = _rejection_rows(samples, draw, "qp")
    return _bracket_suite(
        lambda q, p: _integral_rows(q, p)[..., 1:], qs, ps, FD_STEP, -2.0 * _energy(qs, ps)
    )


def _suite_conservation(n: int, samples: int, seed: int) -> _Defects:
    """Drift of H, every L_ij and every K_i along the closed-form Kepler flow
    to t = 0.5, divided by kappa^2 (the cancellation near pericentre)."""
    qs, ps = _flow_rows(n, samples, seed)
    q, p, _, kappa = _kepler_flow(qs, ps, 0.5)
    drift = np.max(np.abs(_integral_rows(q, p) - _integral_rows(qs, ps)), axis=-1)
    return _flow_defects(drift, kappa**2).tolist(), _points(PhasePoint, qs, ps)


# ---------------------------------------------------------------------------
# Registry


_SUITES: dict[str, tuple[float, Callable[[int, int, int], _Defects]]] = {
    "stereo-roundtrip": (1e-12, _suite_stereo_roundtrip),
    "stereo-canonical": (fd_tolerance(FD_STEP), _suite_stereo_canonical),
    "metric": (_METRIC_TOL, _suite_metric),
    "moser-symplectic": (fd_tolerance(FD_STEP), _suite_moser_symplectic),
    "fibration-scale": (1e-10, _suite_fibration_scale),
    "moser-levelset": (1e-10, _suite_moser_levelset),
    "ls-symplectic": (fd_tolerance(FD_STEP), _suite_ls_symplectic),
    "ls-roundtrip": (_LS_ROUNDTRIP_TOL, _suite_ls_roundtrip),
    "ls-equivariance": (1e-12, _suite_ls_equivariance),
    "intertwine-flows": (_FLOW_TOL, _suite_intertwine),
    "momenta-pullback": (1e-12, _suite_momenta_pullback),
    "so(n+1)-brackets": (1e-5, _suite_so_brackets),
    "lenz-brackets": (1e-5, _suite_lenz_brackets),
    "mu-squared": (1e-12, _suite_mu_squared),
    "conservation": (_FLOW_TOL, _suite_conservation),
}

SUITE_NAMES: tuple[str, ...] = tuple(_SUITES)


def suite_registry() -> dict[str, tuple[float, Callable[[int, int, int], _Defects]]]:
    """Each suite's (tolerance, runner(n, samples, seed)), keyed by suite name."""
    return dict(_SUITES)


def run_suite(name: str, n: int, samples: int, seed: int) -> SuiteReport:
    """Execute one named verification suite; deterministic per seed.  Only bad
    arguments raise: a suite that raises is a failing report."""
    if name not in _SUITES:
        raise UnknownSuiteError(
            f"unknown suite {name!r}; known suites: {', '.join(SUITE_NAMES)}"
        )
    if n < 1:
        raise ValueError("n must be >= 1")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    tolerance, runner = _SUITES[name]
    try:
        defects, sample = runner(n, samples, seed)
    except (DomainError, RuntimeError) as exc:
        # the suite's own samples left a map's domain, or its sampler gave up:
        # one failed sample, named by the error
        error = str(exc)
        defects, sample = [math.inf], lambda k: error
    values = np.asarray(defects, dtype=float)
    failures = sorted(
        (
            Failure(_where(sample(k)), observed=defects[k], expected=0.0, tolerance=tolerance)
            for k in np.flatnonzero(~(values <= tolerance))
        ),
        key=lambda f: (-math.inf if math.isnan(f.observed) else -f.observed, f.where),
    )
    return SuiteReport(
        name=name,
        n=n,
        samples=samples,
        seed=seed,
        tolerance=tolerance,
        max_defect=float(np.max(values, initial=0.0)),
        failures=tuple(failures),
    )
