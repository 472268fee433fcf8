"""Conserved momenta and the hidden rotational symmetry of the Kepler flow.

The visible so(n) angular momenta extend to so(n+1) on the bound region
once the Lenz vector (scaled by 1/sqrt(-2H)) is adjoined.  On the sphere
side the same momenta are the plain angular momenta of R^(n+1), and the
Ligon-Schaaf map intertwines the two families entrywise.  A numerical
Poisson-bracket engine evaluates the algebra relations by central
differences so every identity can be checked without symbolic machinery.

Scalar fields for the bracket engine are callables f(q, p) -> value that
accept (..., n)-shaped arrays and operate along the last axis, so the same
field works on single points and on batches.  Formulas: ``keplerreg.kernels``.
"""

from __future__ import annotations

import sys
from typing import Callable

import numpy as np

from . import _PUBLIC
from .core import DomainError, MomentumMatrix, PhasePoint, SphereCotangentPoint
from .kernels import (
    _energy, _extended_rows, _integral_pairs, _lenz, _nonzero_squares, _wedge_entries,
)

__all__ = list(_PUBLIC["symmetry"])

ScalarField = Callable[[np.ndarray, np.ndarray], np.ndarray]


def angular_momentum(point: PhasePoint) -> MomentumMatrix:
    """Angular momentum q ^ p with entries L_ij = q_i p_j - q_j p_i."""
    return MomentumMatrix.wedge(point.q, point.p)


def lenz_vector(point: PhasePoint) -> np.ndarray:
    """The Lenz vector K = (p^2 - 1/|q|) q - (q.p) p.

    Conserved along the Kepler flow; |K| is the orbit eccentricity and K
    points along the major axis.
    """
    return _lenz(point.q, point.p)


def extended_momentum(point: PhasePoint) -> MomentumMatrix:
    """so(n+1) momentum matrix on the bound region.

    The upper-left n x n block is the angular momentum and the extra
    column is L_i(n+1) = K_i / sqrt(-2H).
    """
    upper = np.zeros((point.n + 1, point.n + 1))
    upper[_integral_pairs(point.n)] = _extended_rows(point.q, point.p)
    return MomentumMatrix(upper)


def sphere_momentum(sp: SphereCotangentPoint) -> MomentumMatrix:
    """Angular momentum u ^ v of a sphere covector, an (n+1) x (n+1) matrix."""
    return MomentumMatrix.wedge(sp.u, sp.v)


def momentum_norm_squared(obj: PhasePoint | SphereCotangentPoint) -> float:
    """Squared norm of the momentum map, summed over independent entries.

    On the bound region this is L^2 + K^2/(-2H) and equals 1/(-2H); on the
    sphere side it equals 1/(-2 H_delaunay).
    """
    if isinstance(obj, PhasePoint):
        rows = _extended_rows(obj.q, obj.p)
        return float(np.vecdot(rows, rows))
    if isinstance(obj, SphereCotangentPoint):
        _nonzero_squares(obj.v, "|v| must be nonzero")
        return sphere_momentum(obj).norm_squared()
    raise TypeError(f"expected PhasePoint or SphereCotangentPoint, got {type(obj)!r}")


def hamiltonian_field() -> ScalarField:
    """The Kepler Hamiltonian as a bracket-engine scalar field."""
    return _energy


def angular_momentum_field(i: int, j: int) -> ScalarField:
    """The component L_ij = q_i p_j - q_j p_i (i, j >= 0) as a scalar field."""
    if i < 0 or j < 0:
        raise ValueError(f"indices ({i}, {j}) must be nonnegative")

    def field(q: np.ndarray, p: np.ndarray) -> np.ndarray:
        return _wedge_entries(q, p, i, j)

    return field


def lenz_field(i: int) -> ScalarField:
    """The Lenz component K_i (i >= 0) as a scalar field."""
    if i < 0:
        raise ValueError(f"index {i} must be nonnegative")

    def field(q: np.ndarray, p: np.ndarray) -> np.ndarray:
        return _lenz(q, p)[..., i]

    return field


def extended_momentum_field(i: int, j: int, n: int) -> ScalarField:
    """The so(n+1) component L_ij where an index equal to n means the
    scaled Lenz component K_i / sqrt(-2H); DomainError where H >= 0."""
    if not (0 <= i <= n and 0 <= j <= n):
        raise ValueError(f"indices ({i}, {j}) out of range for so({n + 1})")
    if i == j:
        return lambda q, p: np.zeros(np.shape(q)[:-1])
    if i < n and j < n:
        return angular_momentum_field(i, j)
    # K_k / sqrt(-2H) is the column n(n-1)/2 + k of _extended_rows, and M_nk = -M_kn
    column, sign = n * (n - 1) // 2 + min(i, j), 1.0 if j == n else -1.0
    return lambda q, p: sign * _extended_rows(q, p)[..., column]


def _central_differences(
    fn: Callable[[np.ndarray], np.ndarray],
    z: np.ndarray,
    h: float,
    *,
    richardson: bool = False,
) -> list[np.ndarray]:
    """Central differences of fn along each coordinate of z, error O(h^2).

    Entry k is (fn(z + h e_k) - fn(z - h e_k)) / span with e_k a unit step
    along the last axis of z.  The divisor is the actual span between the
    two stencil points rather than the nominal 2h, which removes the
    step-representation part of the roundoff error.  z is one point (m,)
    or a batch (N, m) on which fn returns (N,) or (N, k).  With
    ``richardson`` each entry is (4 D(h/2) - D(h)) / 3, error O(h^4).  A
    DomainError raised by fn is re-raised naming the stencil point (of a
    batch, the first row that raises) on one line, floats round-trip.
    """
    if not h > 0.0:
        raise ValueError("h must be positive")

    def evaluate(z_s: np.ndarray, k: int) -> np.ndarray:
        try:
            return np.asarray(fn(z_s))
        except DomainError as exc:
            point, error = z_s, exc
            for row in z_s if z_s.ndim > 1 else ():
                try:
                    fn(row[None])
                except DomainError as row_exc:
                    point, error = row, row_exc
                    break
            with np.printoptions(floatmode="unique", linewidth=sys.maxsize):
                raise DomainError(
                    f"stencil point {point!r} for coordinate {k} leaves the domain: {error}"
                ) from exc

    def differences(step: float) -> list[np.ndarray]:
        out = []
        # z.T[k] is coordinate k: a scalar for one point, a column for a batch
        for k in range(z.shape[-1]):
            hi, lo = z.T[k] + step, z.T[k] - step
            z_plus, z_minus = z.copy(), z.copy()
            z_plus.T[k], z_minus.T[k] = hi, lo
            diff = evaluate(z_plus, k) - evaluate(z_minus, k)
            # one span per point, broadcast over the trailing axis of fn's value
            out.append((diff.T / (hi - lo).T).T)
        return out

    coarse = differences(h)
    if not richardson:
        return coarse
    fine = differences(0.5 * h)
    return [(4.0 * f - c) / 3.0 for f, c in zip(fine, coarse)]


def _bracket_batch(
    field: ScalarField,
    qs: np.ndarray,
    ps: np.ndarray,
    h: float,
    *,
    richardson: bool = False,
) -> np.ndarray:
    """Every canonical bracket {field_a, field_b} of a field valued (..., k),
    as (..., k, k), from one central-difference gradient of it."""
    n = qs.shape[-1]
    z = np.concatenate([qs, ps], axis=-1)
    grad = _central_differences(
        lambda z: field(z[..., :n], z[..., n:]), z, h, richardson=richardson
    )
    total = 0.0
    for dq, dp in zip(grad[:n], grad[n:]):
        total = total + dq[..., :, None] * dp[..., None, :] - dp[..., :, None] * dq[..., None, :]
    return total


def poisson_bracket(
    f: ScalarField,
    g: ScalarField,
    point: PhasePoint,
    h: float,
    *,
    richardson: bool = False,
) -> float:
    """Central-difference estimate of the canonical bracket {f, g}.

    {f, g} = sum_k df/dq_k dg/dp_k - df/dp_k dg/dq_k, error O(h^2) for
    smooth fields, tightened to O(h^4) by two-step Richardson
    extrapolation of each derivative when ``richardson`` is set.  Both
    derivatives come from one gradient of the pair (f, g); a DomainError
    names the first stencil point where either field leaves its domain.
    """
    pair = _bracket_batch(
        lambda q, p: np.array([f(q, p), g(q, p)]), point.q, point.p, h, richardson=richardson
    )
    return float(pair[0, 1])
