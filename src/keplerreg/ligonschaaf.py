"""Ligon-Schaaf regularization map and its inverse.

The forward map rotates the Moser-fibration pair (u, v) by the angle
v_(n+1) inside the oriented plane they span and rescales the covector by
1/sqrt(-2H).  It is a symplectomorphism from the bound region of phase
space onto the regular part of the punctured cotangent bundle of S^n, and
it intertwines the Kepler flow with the Delaunay flow in the same time
parameter.

No closed-form inverse is available; the inverse implemented here solves
Kepler's equation for the rotation angle and then undoes the Moser map and
the scale action.  The closed-form formulas live in ``keplerreg.kernels``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, PhasePoint, SphereCotangentPoint
from .kernels import (
    _CONSTRAINT_TOL,
    _check_rows,
    _fibration_rows,
    _ls_map_rows,
    _nonzero_squares,
    _on_pole,
    _project,
    _reproject,
    _rotate,
    _scale,
)

__all__ = [
    "PunctureError",
    "LSAngle",
    "ls_angle",
    "ls_map",
    "ls_inverse",
    "angle_equation",
]

# Every row of the rotation-angle solve must end with |f(theta)| at most this.
_ROOT_TOL = 1e-14


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
        if abs(self.theta) > 1.0 + _CONSTRAINT_TOL:
            raise DomainError(f"|theta| = {abs(self.theta):.6g} exceeds 1")


def ls_angle(point: PhasePoint) -> LSAngle:
    """Rotation angle theta = -sqrt(-2H) (q.p) of the Ligon-Schaaf map, the
    last covector coordinate of the Moser fibration."""
    return LSAngle(float(_fibration_rows(point.q, point.p)[1][-1]))


def ls_map(point: PhasePoint) -> SphereCotangentPoint:
    """Apply the Ligon-Schaaf map to a bound phase point.

    With (u, v) the Moser fibration of the point and theta = v_(n+1):

    r = cos(theta) u + sin(theta) v,
    s = (-sin(theta) u + cos(theta) v) / sqrt(-2H).

    The output satisfies |r| = 1, r.s = 0 and |s| = 1/sqrt(-2H), so the
    Delaunay energy -1/(2 s.s) of the image equals the Kepler energy of
    the input.  Points landing within 1e-10 of the polar fiber
    (collision completion points) are returned with ``at_puncture`` set
    rather than rejected; only the inverse map must refuse them.
    """
    r, s, at_puncture = _ls_map_rows(point.q, point.p)
    return SphereCotangentPoint._from_checked(r, s, bool(at_puncture))


def angle_equation(theta, r_last, s_last):
    """Residual and derivative of the inverse rotation-angle equation.

    f(theta)  = sin(theta) r_last + cos(theta) s_last - theta
    f'(theta) = cos(theta) r_last - sin(theta) s_last - 1

    where r_last and s_last are the last coordinates of the base point and
    the normalized covector.  f' equals u_last(theta) - 1 <= 0, with
    equality exactly when the unrotated base point hits the pole, so f is
    monotone and the root is unique on the regular domain.  The arguments
    are scalars or arrays of one shape.
    """
    cos_t = np.cos(theta)
    sin_t = np.sin(theta)
    value = sin_t * r_last + cos_t * s_last - theta
    slope = cos_t * r_last - sin_t * s_last - 1.0
    return value, slope


def _solve_rotation_angle(r_last: np.ndarray, s_last: np.ndarray) -> np.ndarray:
    """The root of the angle equation for each element, as a root of
    Kepler's equation (Danby 1988, ch. 6): with e = hypot(r_last, s_last)
    and M = atan2(s_last, r_last), f(theta) is -(E - e sin E - M) at
    E = theta + M.  On |M|, six Newton steps descend to the root from the
    upper bound E_0 = min(|M| + e, pi, |M|/(1 - e), cbrt(6|M|)) (Mikkola
    1987 for e -> 1), and theta takes the sign of M.  Rows with 1 < e <=
    sqrt(2), from constraint slack at tiny |s|, are solved shrunk to e = 1.
    DomainError if e > sqrt(2) or a final residual exceeds 1e-14.
    """
    e = np.hypot(r_last, s_last)
    shrink = 1.0 / np.maximum(e, 1.0)
    r, s, ecc = r_last * shrink, np.abs(s_last) * shrink, np.minimum(e, 1.0)
    mean = np.arctan2(s, r)
    with np.errstate(divide="ignore", invalid="ignore"):
        start = np.fmin(mean / (1.0 - ecc), np.cbrt(6.0 * mean))
        theta = np.fmin(np.fmin(mean + ecc, np.pi), start) - mean
        for _ in range(6):
            value, slope = angle_equation(theta, r, s)
            # A zero residual takes no step: at the pole (e = 1, M = 0) it is 0/0.
            theta = theta - np.where(value == 0.0, 0.0, value / slope)
        value, _ = angle_equation(theta, r, s)
    bad = (e > math.sqrt(2.0)) | ~(np.abs(value) <= _ROOT_TOL)
    if bad.any():
        k = np.flatnonzero(bad)[0]
        raise DomainError(f"rotation angle unsolved at e = {e[k]:.6g}, |f| = {abs(value[k]):.3e} "
                          f"(needs e <= sqrt(2), |f| <= {_ROOT_TOL:g}); point is off T*S^n")
    return np.copysign(1.0, s_last) * theta


def _ls_inverse_rows(r: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``ls_inverse`` of rows (m, n+1), with its checks on every row:
    (q, p, puncture).  A row the mask ``puncture`` marks has NaN q and p."""
    _check_rows(r, s, "uv", sphere=True)
    sigma = np.sqrt(_nonzero_squares(s, "|s| must be nonzero (zero section has no preimage)"))
    s_hat = s / sigma[:, None]
    theta = _solve_rotation_angle(r[:, -1], s_hat[:, -1])
    u, v = _rotate(r, s_hat, -theta)
    puncture = _on_pole(u)
    regular = ~puncture
    # Re-project onto the constraint set so that input defects up to the
    # constraint tolerance cannot be rejected downstream.
    u, v = _reproject(u[regular], v[regular])
    x, y = _project(u, v)
    q_reg, p_reg = _scale(-y, x, sigma[regular])
    _check_rows(q_reg, p_reg, "qp")
    q, p = np.full((2, r.shape[0], r.shape[1] - 1), np.nan)
    q[regular], p[regular] = q_reg, p_reg
    return q, p, puncture


def ls_inverse(sp: SphereCotangentPoint) -> PhasePoint:
    """Invert the Ligon-Schaaf map on the regular domain.

    Writing sigma = |s| and s_hat = s/sigma, the rotation angle theta is
    the unique root of the monotone equation

        sin(theta) r_(n+1) + cos(theta) s_hat_(n+1) = theta,

    Kepler's equation in E = theta + atan2(s_hat_(n+1), r_(n+1)), solved
    by six Newton steps.  Then (u, v) = (cos(theta) r - sin(theta) s_hat,
    sin(theta) r + cos(theta) s_hat) lies on the unit-covector bundle,
    the Moser map is inverted there, and the scale action by sigma
    restores the original energy.

    Raises DomainError when |s| = 0 or the angle's residual exceeds 1e-14,
    and PunctureError when the unrotated base point sits on the polar
    fiber within 1e-10 (a collision completion point, outside the image
    of the forward map).
    """
    q, p, puncture = _ls_inverse_rows(sp.u[None], sp.v[None])
    if puncture[0]:
        raise PunctureError("collision point: the unrotated base point sits on the polar fiber")
    return PhasePoint._from_checked(q[0], p[0])
