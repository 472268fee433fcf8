"""Cotangent-lifted stereographic projection.

Maps between T*S^n minus the polar fiber and T*R^n, in both directions.
Projection is from the pole (0, ..., 0, 1); both directions are canonical
transformations (they match the symplectic forms), which the verification
harness checks numerically.
"""

from __future__ import annotations

import numpy as np

from .core import (
    DEFAULT_TOL,
    DomainError,
    PlaneCotangentPoint,
    SphereCotangentPoint,
    Tolerances,
)

__all__ = ["to_plane", "to_sphere"]


def to_plane(sp: SphereCotangentPoint, tol: Tolerances = DEFAULT_TOL) -> PlaneCotangentPoint:
    """Project (u, v) on T*S^n to (x, y) on T*R^n.

    x_k = u_k / (1 - u_(n+1)),  y_k = v_k (1 - u_(n+1)) + v_(n+1) u_k.

    The polar fiber is excluded: points with 1 - u_(n+1) < constraint_tol
    are rejected to avoid overflow in the 1/(1 - u_(n+1)) factor.
    """
    gap = sp.pole_gap
    if gap < tol.constraint_tol:
        raise DomainError(
            f"north pole fiber: 1 - u_(n+1) = {gap:.3e} is below constraint_tol"
        )
    x = sp.u[:-1] / gap
    y = sp.v[:-1] * gap + sp.v[-1] * sp.u[:-1]
    return PlaneCotangentPoint(x, y)


def _lift(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stereographic lift (x, y) -> (u, v) of one point (n,) or of a
    batch (m, n)."""
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
    return u, v


def to_sphere(pl: PlaneCotangentPoint) -> SphereCotangentPoint:
    """Lift (x, y) on T*R^n to (u, v) on T*S^n.

    u_k = 2 x_k / (x^2 + 1),        u_(n+1) = (x^2 - 1) / (x^2 + 1),
    v_k = (x^2 + 1) y_k / 2 - (x.y) x_k,  v_(n+1) = x.y.

    The output satisfies |u| = 1 and u.v = 0 to machine precision.
    """
    return SphereCotangentPoint(*_lift(pl.x, pl.y))
