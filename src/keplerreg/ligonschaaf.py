"""Ligon-Schaaf regularization map and its inverse.

The forward map rotates the Moser-fibration pair (u, v) by the angle
v_(n+1) inside the oriented plane they span and rescales the covector by
1/sqrt(-2H).  It is a symplectomorphism from the bound region of phase
space onto the regular part of the punctured cotangent bundle of S^n, and
it intertwines the Kepler flow with the Delaunay flow in the same time
parameter.

No closed-form inverse is available; the inverse implemented here solves a
scalar monotone root problem for the rotation angle and then undoes the
Moser map and the scale action.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    DomainError,
    PhasePoint,
    SphereCotangentPoint,
    Tolerances,
    kepler_energy,
)
from .moser import moser_fibration, moser_map_inverse, scale_phase

__all__ = [
    "PunctureError",
    "LSAngle",
    "ls_angle",
    "ls_map",
    "ls_inverse",
    "angle_equation",
]

_ANGLE_BRACKET = math.sqrt(2.0)


class PunctureError(DomainError):
    """The point sits on the polar fiber added by the regularization.

    These are the completion points of the collision orbits; the forward
    map only reaches them in the limit and the inverse map must refuse
    them.
    """


@dataclass(frozen=True, eq=False)
class LSAngle:
    """Rotation angle of the Ligon-Schaaf map (radians).

    The angle is the last covector component of the Moser fibration, a
    coordinate of a unit vector, so |theta| <= 1.
    """

    theta: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.theta):
            raise DomainError("theta must be finite")
        if abs(self.theta) > 1.0 + DEFAULT_TOL.constraint_tol:
            raise DomainError(f"|theta| = {abs(self.theta):.6g} exceeds 1")


def ls_angle(point: PhasePoint) -> LSAngle:
    """Rotation angle theta = -sqrt(-2H) (q.p) of the Ligon-Schaaf map."""
    energy = kepler_energy(point)
    if energy >= 0.0:
        raise DomainError(f"H must be negative, got H = {energy:.6g}")
    qp = float(point.q @ point.p)
    return LSAngle(-math.sqrt(-2.0 * energy) * qp)


def _rotate(u, v, angle: float):
    """Rotate the pair (u, v) by angle in the plane they span:
    (cos(angle) u + sin(angle) v, -sin(angle) u + cos(angle) v)."""
    cos_a, sin_a = math.cos(angle), math.sin(angle)
    return cos_a * u + sin_a * v, -sin_a * u + cos_a * v


def _reproject(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalize u and make v tangent there: (u/|u|, v - (u.v) u)."""
    u = u / math.sqrt(np.vecdot(u, u))
    return u, v - np.vecdot(u, v) * u


def ls_map(point: PhasePoint, tol: Tolerances = DEFAULT_TOL) -> SphereCotangentPoint:
    """Apply the Ligon-Schaaf map to a bound phase point.

    With (u, v) the Moser fibration of the point and theta = v_(n+1):

    r = cos(theta) u + sin(theta) v,
    s = (-sin(theta) u + cos(theta) v) / sqrt(-2H).

    The output satisfies |r| = 1, r.s = 0 and |s| = 1/sqrt(-2H), so the
    Delaunay energy -1/(2 s.s) of the image equals the Kepler energy of
    the input.  Points landing within constraint_tol of the polar fiber
    (collision completion points) are returned with ``at_puncture`` set
    rather than rejected; only the inverse map must refuse them.
    """
    fib = moser_fibration(point, tol)
    energy = kepler_energy(point)
    w = math.sqrt(-2.0 * energy)
    r, s = _rotate(fib.u, fib.v, float(fib.v[-1]))
    s = s / w
    at_puncture = abs(1.0 - float(r[-1])) < tol.constraint_tol
    return SphereCotangentPoint(r, s, at_puncture=at_puncture, constraint_tol=tol.constraint_tol)


def angle_equation(theta: float, r_last: float, s_last: float) -> tuple[float, float]:
    """Residual and derivative of the inverse rotation-angle equation.

    f(theta)  = sin(theta) r_last + cos(theta) s_last - theta
    f'(theta) = cos(theta) r_last - sin(theta) s_last - 1

    where r_last and s_last are the last coordinates of the base point and
    the normalized covector.  f' equals u_last(theta) - 1 <= 0, with
    equality exactly when the unrotated base point hits the pole, so f is
    monotone and the root is unique on the regular domain.
    """
    cos_t = math.cos(theta)
    sin_t = math.sin(theta)
    value = sin_t * r_last + cos_t * s_last - theta
    slope = cos_t * r_last - sin_t * s_last - 1.0
    return value, slope


def _solve_rotation_angle(r_last: float, s_last: float, root_tol: float) -> float:
    """Find the unique root of the angle equation in [-sqrt(2), sqrt(2)].

    Bisection keeps a sign-changing bracket at all times; Newton steps are
    taken whenever they stay inside the bracket, giving a quadratic tail.
    """
    lo, hi = -_ANGLE_BRACKET, _ANGLE_BRACKET
    f_lo, _ = angle_equation(lo, r_last, s_last)
    f_hi, _ = angle_equation(hi, r_last, s_last)
    if not (f_lo >= 0.0 >= f_hi):
        raise DomainError("rotation-angle bracket failed; point is off T*S^n")
    theta = 0.5 * (lo + hi)
    for _ in range(200):
        value, slope = angle_equation(theta, r_last, s_last)
        if abs(value) <= root_tol:
            return theta
        if value > 0.0:
            lo = theta
        else:
            hi = theta
        step_ok = False
        if slope < 0.0:
            candidate = theta - value / slope
            if lo < candidate < hi:
                theta = candidate
                step_ok = True
        if not step_ok:
            theta = 0.5 * (lo + hi)
        if hi - lo < 1e-17:
            return theta
    return theta


def ls_inverse(sp: SphereCotangentPoint, tol: Tolerances = DEFAULT_TOL) -> PhasePoint:
    """Invert the Ligon-Schaaf map on the regular domain.

    Writing sigma = |s| and s_hat = s/sigma, the rotation angle theta is
    the unique root of the monotone equation

        sin(theta) r_(n+1) + cos(theta) s_hat_(n+1) = theta,

    after which (u, v) = (cos(theta) r - sin(theta) s_hat,
    sin(theta) r + cos(theta) s_hat) lies on the unit-covector bundle,
    the Moser map is inverted there, and the scale action by sigma
    restores the original energy.

    Raises DomainError when |s| = 0 and PunctureError when the unrotated
    base point sits on the polar fiber within constraint_tol (a collision
    completion point, outside the image of the forward map).
    """
    r = sp.u
    sigma = sp.covector_norm
    if sigma == 0.0:
        raise DomainError("|s| must be nonzero (zero section has no preimage)")
    s_hat = sp.v / sigma
    theta = _solve_rotation_angle(float(r[-1]), float(s_hat[-1]), tol.root_tol)
    u, v = _rotate(r, s_hat, -theta)
    if 1.0 - float(u[-1]) < tol.constraint_tol:
        raise PunctureError(
            "collision point: the unrotated base point sits on the polar fiber"
        )
    # Re-project onto the constraint set so that input defects up to
    # constraint_tol cannot be rejected downstream.
    shell_point = moser_map_inverse(SphereCotangentPoint(*_reproject(u, v)), tol)
    return scale_phase(shell_point, sigma)
