"""Array kernels: each closed-form formula over one point (n,) or rows (m, n), checking
every row as the value objects do (``_check_rows``, by the pair's names); numpy only."""

from __future__ import annotations

import numpy as np


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


# How far sphere points may sit off their constraints |u| = 1 and u.v = 0,
# and how close to the projection pole a point may come before it counts as
# on the polar fiber.
_CONSTRAINT_TOL = 1e-10


def _check_rows(a: np.ndarray, b: np.ndarray, names: str):
    """The value objects' checks of one point (k,) or rows (m, k), picked by the
    pair's names.  Every pair needs finite entries; the sphere pair "uv" also
    needs k >= 2, |u.u - 1| <= 1e-10 and |u.v| <= 1e-10 min(1, |v|), so that a
    short v must be tangent too.  Returns (a, b)."""
    if names == "uv" and a.shape[-1] < 2:
        raise DomainError("sphere points need at least two coordinates")
    for name, arr in zip(names, (a, b)):
        if not np.isfinite(arr).all():
            raise DomainError(f"{name} must have finite entries")
    if names == "uv":
        unit = np.abs(np.vecdot(a, a) - 1.0), _CONSTRAINT_TOL
        short = np.minimum(1.0, np.sqrt(np.vecdot(b, b)))
        tangent = np.abs(np.vecdot(a, b)), _CONSTRAINT_TOL * short
        for label, (defect, bound), meaning in (
            ("|u.u - 1|", unit, "u must lie on the unit sphere"),
            ("|u.v|", tangent, "v must be tangent at u"),
        ):
            bad = defect > bound
            if bad.any():
                bound = np.broadcast_to(bound, bad.shape)[bad][0]
                raise DomainError(f"{label} = {defect[bad][0]:.3e} exceeds {bound:.3g}; {meaning}")
    return a, b


def _on_pole(u: np.ndarray) -> np.ndarray:
    """1 - u_(n+1) < 1e-10 for each base point (..., n+1): on the polar fiber."""
    return 1.0 - u[..., -1] < _CONSTRAINT_TOL


def _norm_squared(upper: np.ndarray) -> np.ndarray:
    """Sum of squares of each matrix (..., k, k), each summed as one flat array."""
    return np.sum((upper * upper).reshape(upper.shape[:-2] + (-1,)), axis=-1)


def _nonzero_squares(x: np.ndarray, message: str) -> np.ndarray:
    """x.x over (..., k) arrays; DomainError(message) at x = 0: q = 0 or v = 0."""
    x2 = np.vecdot(x, x)
    # count_nonzero is the cheapest exact zero test for a numpy scalar and for rows
    if np.count_nonzero(x2) != x2.size:
        raise DomainError(message)
    return x2


def _bound_root(energy: np.ndarray, suffix: str = "") -> np.ndarray:
    """sqrt(-2H) over (...) arrays; DomainError naming the first H >= 0 or NaN."""
    bad = ~(energy < 0.0)
    if bad.any():
        raise DomainError(f"H must be negative{suffix}, got H = {energy[bad][0]:.6g}")
    return np.sqrt(-2.0 * energy)


def _inverse_radius(q: np.ndarray, what: str) -> np.ndarray:
    """1/|q| over (..., n) arrays; DomainError at q = 0, where ``what`` is undefined."""
    return 1.0 / np.sqrt(_nonzero_squares(q, f"q must be nonzero ({what} undefined at collision)"))


def _energy(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """H = p.p/2 - 1/|q| over (..., n) arrays; DomainError at q = 0."""
    return _energy_of(np.vecdot(p, p), _inverse_radius(q, "energy"))


def _energy_of(p2: np.ndarray, inverse_radius: np.ndarray) -> np.ndarray:
    """H = p.p/2 - 1/|q| from p.p and 1/|q|."""
    return 0.5 * p2 - inverse_radius


def _lenz(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """K = (p.p - 1/|q|) q - (q.p) p over (..., n) arrays; DomainError at q = 0."""
    return _lenz_of(q, p, np.vecdot(p, p), _inverse_radius(q, "Lenz vector"))


def _lenz_of(
    q: np.ndarray, p: np.ndarray, p2: np.ndarray, inverse_radius: np.ndarray
) -> np.ndarray:
    """K = (p.p - 1/|q|) q - (q.p) p from q, p, p.p and 1/|q|."""
    return (p2 - inverse_radius)[..., None] * q - np.vecdot(q, p)[..., None] * p


def _wedge_entries(a: np.ndarray, b: np.ndarray, i, j) -> np.ndarray:
    """Entries a_i b_j - a_j b_i of a ^ b over (..., k) arrays, at indices i, j."""
    return a[..., i] * b[..., j] - a[..., j] * b[..., i]


# np.triu_indices(n, 1) by n, read-only: built once per process and dimension.
_UPPER_PAIRS: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs (i, j) with 0 <= i < j < n, as np.triu_indices(n, 1)."""
    pairs = _UPPER_PAIRS.get(n)
    if pairs is None:
        pairs = np.triu_indices(n, 1)
        for index in pairs:
            index.setflags(write=False)
        _UPPER_PAIRS[n] = pairs
    return pairs


def _integral_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The so(n+1) index pair (a, b) of each L_ij and K_i column of ``_integral_rows``,
    in column order: every (i, j) with i < j < n, then (i, n) for each K_i = M_in."""
    i, j = _upper_pairs(n)
    return np.concatenate([i, np.arange(n)]), np.concatenate([j, np.full(n, n)])


def _integral_rows(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """H, then each L_ij and K_i in ``_integral_pairs`` order, of one point (n,) or
    rows (m, n), as (..., 1 + n(n-1)/2 + n); DomainError at q = 0.  One p.p and 1/|q|."""
    p2, inverse_radius = np.vecdot(p, p), _inverse_radius(q, "energy")
    energy = _energy_of(p2, inverse_radius)[..., None]
    upper = _wedge_entries(q, p, *_upper_pairs(q.shape[-1]))
    return np.concatenate([energy, upper, _lenz_of(q, p, p2, inverse_radius)], -1)


def _sphere_integral_rows(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``_integral_rows`` of sphere rows (m, n+1), where q and p are undefined: the
    Delaunay energy and u ^ v at ``_integral_pairs``, whose (i, n) entries are K_i / sqrt(-2H)."""
    energy = _delaunay_energy(v)
    n = u.shape[1] - 1
    momenta = _wedge_entries(u, v, *_integral_pairs(n))
    momenta[:, -n:] *= np.sqrt(-2.0 * energy)[:, None]
    return np.concatenate([energy[:, None], momenta], -1)


def _extended_rows(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``extended_momentum`` of one point (n,) or rows (m, n), as strict upper
    triangles (..., n+1, n+1); DomainError unless every row is bound.  p.p and
    1/|q| are taken once, for H and K both."""
    p2, inverse_radius = np.vecdot(p, p), _inverse_radius(q, "energy")
    w = _bound_root(_energy_of(p2, inverse_radius))
    n = q.shape[-1]
    upper = np.zeros(q.shape[:-1] + (n + 1, n + 1))
    i, j = _upper_pairs(n)
    upper[..., i, j] = _wedge_entries(q, p, i, j)
    upper[..., :n, n] = _lenz_of(q, p, p2, inverse_radius) / w[..., None]
    return upper


def _scale(q: np.ndarray, p: np.ndarray, rho) -> tuple[np.ndarray, np.ndarray]:
    """(rho^2 q, p/rho) of one point (n,) and rho > 0, or of rows (m, n) and rho (m,)."""
    rho = np.asarray(rho)[..., None]
    return rho * rho * q, p / rho


def _project(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(u, v) -> (x, y) of one point (n+1,) or rows (m, n+1), off the polar fiber,
    with the plane point's checks on every row."""
    bad = _on_pole(u)
    gap = 1.0 - u[..., -1]
    if bad.any():
        raise DomainError(
            f"north pole fiber: 1 - u_(n+1) = {gap[bad][0]:.3e} is below {_CONSTRAINT_TOL:g}"
        )
    gap = gap[..., None]
    x, y = u[..., :-1] / gap, v[..., :-1] * gap + v[..., -1:] * u[..., :-1]
    _check_rows(x, y, "xy")
    return x, y


def _lift(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stereographic lift (x, y) -> (u, v) of one point (n,) or of a
    batch (m, n), with the sphere point's checks on every row."""
    x2 = np.vecdot(x, x)
    xy = np.vecdot(x, y)
    denom = x2 + 1.0
    u = np.empty(x.shape[:-1] + (x.shape[-1] + 1,))
    v = np.empty_like(u)
    # The transposed views put coordinates first, so the per-point scalars
    # broadcast the same way for one point and for a batch.
    u.T[:-1] = 2.0 * x.T / denom
    u.T[-1] = (x2 - 1.0) / denom
    v.T[:-1] = 0.5 * denom * y.T - xy * x.T
    v.T[-1] = xy
    _check_rows(u, v, "uv")
    return u, v


def _fibration_rows(q: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, ...]:
    """``moser_fibration`` of one point (n,) or rows (m, n), with its checks on
    every row: (u, v, w) with w = sqrt(-2H).  p.p and 1/|q| are taken once."""
    _check_rows(q, p, "qp")
    r = np.sqrt(_nonzero_squares(q, "q must be nonzero (collision point)"))
    p2 = np.vecdot(p, p)
    w = _bound_root(_energy_of(p2, 1.0 / r), " for the fibration")
    qp = np.vecdot(q, p)
    u = np.concatenate([(w * r)[..., None] * p, (r * p2 - 1.0)[..., None]], axis=-1)
    v = np.concatenate([-q / r[..., None] + qp[..., None] * p, (-w * qp)[..., None]], axis=-1)
    _check_rows(u, v, "uv")
    return u, v, w


def _chart_hamiltonians(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, ...]:
    """(geodesic, speed_defect, kepler_form) over (..., n) arrays; DomainError at y = 0."""
    y2 = _nonzero_squares(y, "|y| must be nonzero for the chart Kepler Hamiltonian")
    x2 = np.vecdot(x, x)
    ynorm = np.sqrt(y2)
    # float_power is the C library's pow, as a numpy scalar's ** is; an array's ** 2 is not
    geodesic = np.float_power(x2 + 1.0, 2) * y2 / 8.0
    return geodesic, 0.5 * (x2 + 1.0) * ynorm - 1.0, 0.5 * x2 - 1.0 / ynorm


def _rotate(u: np.ndarray, v: np.ndarray, angle) -> tuple[np.ndarray, np.ndarray]:
    """Rotate the pair (u, v) by angle in the plane they span:
    (cos(angle) u + sin(angle) v, -sin(angle) u + cos(angle) v), for one
    pair (n,) and a scalar angle or for angles (m,) and rows (m, n)."""
    cos_a, sin_a = np.cos(angle)[..., None], np.sin(angle)[..., None]
    return cos_a * u + sin_a * v, -sin_a * u + cos_a * v


def _reproject(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalize u and make v tangent there: (u/|u|, v - (u.v) u), over (..., n)."""
    u = u / np.sqrt(np.vecdot(u, u))[..., None]
    return u, v - np.vecdot(u, v)[..., None] * u


def _ls_map_rows(q: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, ...]:
    """``ls_map`` of one point (n,) or rows (m, n), with its checks on every
    row: (r, s, puncture)."""
    u, v, w = _fibration_rows(q, p)
    r, s = _rotate(u, v, v[..., -1])
    s = s / w[..., None]
    _check_rows(r, s, "uv")
    return r, s, _on_pole(r)


def _delaunay_energy(v: np.ndarray) -> np.ndarray:
    """-1/(2 v.v) of one covector (n+1,) or of rows (m, n+1)."""
    return -0.5 / _nonzero_squares(v, "|v| must be nonzero (zero section)")


def _delaunay_flow_rows(u: np.ndarray, v: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, ...]:
    """``delaunay_flow`` of rows (m, n+1), or of one point (n+1,) for every
    row, to times t (m,), with its checks on every row: (u, v, at_puncture)."""
    _check_rows(u, v, "uv")
    rho = np.sqrt(_nonzero_squares(v, "|v| must be nonzero (zero section has no flow)"))
    # float_power evaluates rho^3 as the C library's pow does; numpy's
    # vectorized power differs from it in the last bit for some rho.
    angle = t / np.float_power(rho, 3)
    rho = rho[..., None]
    u_new, w = _reproject(*_rotate(u, v / rho, angle))
    v_new = rho * (w / np.sqrt(np.vecdot(w, w))[..., None])
    _check_rows(u_new, v_new, "uv")
    return u_new, v_new, _on_pole(u_new)
