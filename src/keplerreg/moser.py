"""Moser regularization of the Kepler problem.

The Moser map is the composition of the geometric Fourier transform
(q, p) -> (p, -q) with the cotangent-lifted stereographic projection; it
identifies the H = -1/2 Kepler flow with the geodesic flow on S^n.  The
scale-invariant variant (the Moser fibration) projects the whole
negative-energy region onto the unit-covector bundle.  The chart
Hamiltonians tie the geodesic energy on the sphere to the Kepler
Hamiltonian through a level-set argument; they are exposed so the harness
can test that argument directly.  The formulas live in ``keplerreg.kernels``.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import DomainError, PhasePoint, PlaneCotangentPoint, SphereCotangentPoint
from .kernels import _chart_hamiltonians, _fibration_rows, _lift, _scale
from .stereo import to_plane

__all__ = [
    "fourier",
    "fourier_inverse",
    "moser_map",
    "moser_map_inverse",
    "moser_fibration",
    "scale_phase",
    "scale_sphere",
    "to_reference_shell",
    "ChartHamiltonians",
    "chart_hamiltonians",
]


def fourier(point: PhasePoint) -> PlaneCotangentPoint:
    """Geometric Fourier transform: x = p, y = -q.

    A linear canonical transformation; ``fourier_inverse`` undoes it
    exactly.
    """
    return PlaneCotangentPoint._from_checked(point.p, -point.q)


def fourier_inverse(pl: PlaneCotangentPoint) -> PhasePoint:
    """Inverse of the geometric Fourier transform: q = -y, p = x."""
    return PhasePoint._from_checked(-pl.y, pl.x)


def moser_map(point: PhasePoint) -> SphereCotangentPoint:
    """The Moser regularization map on all of T*R^n.

    u = (2p/(p^2+1), (p^2-1)/(p^2+1)),
    v = (-(p^2+1) q/2 + (q.p) p, -q.p),

    the stereographic lift of the geometric Fourier transform (p, -q).
    """
    return SphereCotangentPoint._from_checked(*_lift(point.p, -point.q))


def moser_map_inverse(sp: SphereCotangentPoint) -> PhasePoint:
    """Invert the Moser map away from the polar fiber."""
    return fourier_inverse(to_plane(sp))


def moser_fibration(point: PhasePoint) -> SphereCotangentPoint:
    """Scale-invariant projection of the bound region onto unit covectors.

    With r = |q| and w = sqrt(-2H):

    u = (w r p, r p^2 - 1),  v = (-q/r + (q.p) p, -w (q.p)).

    The output has |v| = 1 and base point off the pole, and is invariant
    under the scale action ``scale_phase``.  On the H = -1/2 shell it
    agrees with ``moser_map``.

    Near H = 0 the map is ill-conditioned (the sqrt(-2H) factor amplifies
    rounding error); the domain is still all of the bound region, so
    conditioning is the caller's concern.
    """
    return SphereCotangentPoint._from_checked(*_fibration_rows(point.q, point.p)[:2])


def scale_phase(point: PhasePoint, rho: float) -> PhasePoint:
    """Scale action on phase space: q -> rho^2 q, p -> p/rho.

    The energy scales as H -> H/rho^2 and time as t -> rho^3 t.
    """
    if not rho > 0.0:
        raise DomainError(f"rho must be positive, got {rho}")
    return PhasePoint(*_scale(point.q, point.p, rho))


def scale_sphere(sp: SphereCotangentPoint, rho: float) -> SphereCotangentPoint:
    """Scale action on the sphere side: u -> u, v -> rho v."""
    if not rho > 0.0:
        raise DomainError(f"rho must be positive, got {rho}")
    return SphereCotangentPoint(sp.u, rho * sp.v, at_puncture=sp.at_puncture)


def to_reference_shell(point: PhasePoint) -> PhasePoint:
    """Rescale a bound point onto the H = -1/2 shell.

    Applies ``scale_phase`` with rho = sqrt(-2H) (the fibration's w), the
    unique scale factor landing on the reference shell.
    """
    return scale_phase(point, float(_fibration_rows(point.q, point.p)[2]))


class ChartHamiltonians(NamedTuple):
    """Values of the three chart Hamiltonians at a plane point.

    geodesic     = (x^2+1)^2 y^2 / 8   (geodesic energy v^2/2 in the chart)
    speed_defect = sqrt(2 geodesic) - 1 = (x^2+1)|y|/2 - 1  (|v| - 1)
    kepler_form  = speed_defect/|y| - 1/2 = x^2/2 - 1/|y|
    """

    geodesic: float
    speed_defect: float
    kepler_form: float


def chart_hamiltonians(pl: PlaneCotangentPoint) -> ChartHamiltonians:
    """Evaluate the three related chart Hamiltonians at (x, y).

    All three have the same trajectories on the common level set
    geodesic = 1/2 (equivalently speed_defect = 0, kepler_form = -1/2);
    the kepler_form pulls back to the Kepler Hamiltonian under the
    geometric Fourier transform.  Requires |y| > 0 for the kepler_form.
    """
    return ChartHamiltonians(*map(float, _chart_hamiltonians(pl.x, pl.y)))
