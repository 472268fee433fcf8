"""Cotangent-lifted stereographic projection.

Maps between T*S^n minus the polar fiber and T*R^n, in both directions.
Projection is from the pole (0, ..., 0, 1); both directions are canonical
transformations (they match the symplectic forms), which the verification
harness checks numerically.  The formulas live in ``keplerreg.kernels``.
"""

from __future__ import annotations

from . import _PUBLIC
from .core import PlaneCotangentPoint, SphereCotangentPoint
from .kernels import _lift, _project

__all__ = list(_PUBLIC["stereo"])


def to_plane(sp: SphereCotangentPoint) -> PlaneCotangentPoint:
    """Project (u, v) on T*S^n to (x, y) on T*R^n.

    x_k = u_k / (1 - u_(n+1)),  y_k = v_k (1 - u_(n+1)) + v_(n+1) u_k.

    The polar fiber is excluded: points with 1 - u_(n+1) < 1e-10 are
    rejected to avoid overflow in the 1/(1 - u_(n+1)) factor.
    """
    return PlaneCotangentPoint._from_checked(*_project(sp.u, sp.v))


def to_sphere(pl: PlaneCotangentPoint) -> SphereCotangentPoint:
    """Lift (x, y) on T*R^n to (u, v) on T*S^n.

    u_k = 2 x_k / (x^2 + 1),        u_(n+1) = (x^2 - 1) / (x^2 + 1),
    v_k = (x^2 + 1) y_k / 2 - (x.y) x_k,  v_(n+1) = x.y.

    The output satisfies |u| = 1 and u.v = 0 to machine precision.
    """
    return SphereCotangentPoint._from_checked(*_lift(pl.x, pl.y))
