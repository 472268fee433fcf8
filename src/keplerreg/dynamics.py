"""Kepler and Delaunay dynamics.

The direct path integrates the Kepler equations q' = p, p' = -q/|q|^3 with
a fixed-step leapfrog scheme, one orbit on Python floats; it exists as a
reference integrator and fails deliberately near collisions.  The
regularized path conjugates the flow through the Ligon-Schaaf map to the
Delaunay flow on T*S^n, which is a great-circle rotation at angular rate
|v|^-3 and is therefore evaluated in closed form: exact, unconditionally
stable, and well defined straight through collision instants.  The
formulas live in ``keplerreg.kernels``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from operator import add, mul
from typing import Iterator

import numpy as np

from .core import DomainError, PhasePoint, SphereCotangentPoint
from .kernels import _delaunay_energy, _delaunay_flow_rows, _energy
from .ligonschaaf import PunctureError, _ls_inverse_rows, ls_map

__all__ = [
    "CollisionApproachError",
    "Trajectory",
    "FlowTimes",
    "kepler_vector_field",
    "kepler_integrate",
    "delaunay_energy",
    "delaunay_flow",
    "regularized_propagate",
    "arc_time",
    "kepler_period",
]


class CollisionApproachError(RuntimeError):
    """The direct integrator came too close to the collision set.

    Direct fixed-step integration cannot resolve the dynamics there; use
    ``regularized_propagate`` instead.  The ``t`` attribute holds the time
    reached when the guard fired.
    """

    def __init__(self, t: float):
        super().__init__(
            f"collision approach at t = {t:.9g}: step cannot resolve |q|; "
            "use regularized_propagate"
        )
        self.t = t


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-stamped leapfrog trajectory with integrator metadata.

    ``times`` is strictly increasing; ``qs`` and ``ps`` hold one row per
    sample.  ``energy_drift`` is the max |H(t) - H(0)| over the recorded
    samples.
    """

    times: np.ndarray
    qs: np.ndarray
    ps: np.ndarray
    integrator: str
    dt: float
    energy_drift: float

    def __post_init__(self) -> None:
        times = np.array(self.times, dtype=float)
        qs = np.array(self.qs, dtype=float)
        ps = np.array(self.ps, dtype=float)
        if times.ndim != 1 or qs.ndim != 2 or qs.shape != ps.shape:
            raise DomainError("trajectory arrays must be (m,) times and (m, n) states")
        if qs.shape[0] != times.size:
            raise DomainError("trajectory arrays must have matching lengths")
        if times.size > 1 and not np.all(np.diff(times) > 0.0):
            raise DomainError("trajectory times must be strictly increasing")
        for arr in (times, qs, ps):
            arr.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "qs", qs)
        object.__setattr__(self, "ps", ps)

    def __len__(self) -> int:
        return self.times.size

    @property
    def n(self) -> int:
        return self.qs.shape[1]

    def point(self, i: int) -> PhasePoint:
        return PhasePoint(self.qs[i], self.ps[i])

    @property
    def end(self) -> PhasePoint:
        return self.point(-1)

    @property
    def samples(self) -> Iterator[tuple[float, PhasePoint]]:
        for i in range(len(self)):
            yield float(self.times[i]), self.point(i)


@dataclass(frozen=True, eq=False)
class FlowTimes:
    """Paired real time t and sphere arc-length time s along an orbit."""

    t: float
    s: float


def _kepler_force(q: list[float], scale: float = 1.0) -> tuple[list[float], float]:
    """scale times the Kepler force -q (q.q)^-1.5 at one position q, a list of
    floats, and q.q.  q.q adds the squares at the even indices, then those at
    the odd ones (numpy einsum's order); the power is the C library's pow."""
    even = odd = 0.0
    for x in q[0::2]:
        even += x * x
    for x in q[1::2]:
        odd += x * x
    r2 = even + odd
    factor = -(r2**-1.5)
    return [x * factor * scale for x in q], r2


def kepler_vector_field(point: PhasePoint) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand side of the Kepler equations: (p, -q (q.q)^-1.5), the leapfrog's force."""
    try:
        return point.p.copy(), np.array(_kepler_force(point.q.tolist())[0])
    except (ZeroDivisionError, OverflowError):  # q.q is 0, or (q.q)^-1.5 overflows
        raise DomainError("q must be nonzero (vector field singular at collision)") from None


def _collision_floor_r2(dt: float) -> float:
    # Guard fires when |q|^3 < 10 dt^2, i.e. the local free-fall time is
    # within a few steps of dt and the scheme cannot resolve the approach.
    return (10.0 * dt * dt) ** (2.0 / 3.0)


def _leapfrog(
    q: list[float], p: list[float], dt: float, checkpoints: list[int]
) -> list[tuple[list[float], list[float]]]:
    """Advance one state (q, p), lists of floats, returning copies of the
    state at each of the given sorted step counts (0 is the start).

    Kick-drift-kick leapfrog, p += (dt/2) a, q += dt p, p += (dt/2) a, with
    one force evaluation per step: the closing half kick of one step is the
    opening half kick of the next.  Raises CollisionApproachError, with the
    time reached, when |q|^3 falls below 10 dt^2 at any force evaluation,
    the opening one included, or when q is so near 0 that the force itself
    is out of float range.
    """
    floor_r2 = _collision_floor_r2(dt)
    half_dt, drift = 0.5 * dt, repeat(dt)
    out = []
    step = 0
    try:
        kick, r2 = _kepler_force(q, half_dt)
        if r2 < floor_r2:
            raise CollisionApproachError(0.0)
        for target in checkpoints:
            while step < target:
                step += 1
                p = list(map(add, p, kick))
                q = list(map(add, q, map(mul, p, drift)))
                kick, r2 = _kepler_force(q, half_dt)
                if r2 < floor_r2:
                    raise CollisionApproachError(step * dt)
                p = list(map(add, p, kick))
            out.append((q[:], p[:]))
    except (ZeroDivisionError, OverflowError):  # q.q is 0, or (q.q)^-1.5 overflows
        raise CollisionApproachError(step * dt) from None
    return out


def _leapfrog_span(q: list[float], p: list[float], span: float, dt: float, every: int = 0):
    """Advance (q, p), lists of floats, over time span by floor(span/dt + 1e-12)
    steps of dt and, if the rest is at least 1e-12 dt, one closing step of it,
    in which a collision is reported at t = span.  Returns the times and states
    at the start, every ``every``-th step (none for 0) and the end, once each."""
    n_full = int(math.floor(span / dt + 1e-12))
    remainder = span - n_full * dt
    closing = remainder >= 1e-12 * dt
    steps = [0, *range(every, n_full + 1, every)] if every else [0]
    if not closing and steps[-1] != n_full:
        steps.append(n_full)
    *states, end = _leapfrog(q, p, dt, [*steps, n_full])
    times = [step * dt for step in steps]
    if closing:
        try:
            states += _leapfrog(*end, remainder, [1])
        except CollisionApproachError:
            raise CollisionApproachError(span) from None
        times.append(span)
    return times, states


def kepler_integrate(
    start: PhasePoint,
    t_end: float,
    dt: float,
    record_every: int = 1,
) -> Trajectory:
    """Fixed-step leapfrog (Stormer-Verlet) integration of the Kepler flow.

    Second-order and symplectic; energy oscillates at O(dt^2) without
    secular drift.  Samples are recorded every ``record_every`` steps plus
    the endpoint.  If t_end is not a multiple of dt, a single shorter
    closing step lands exactly on t_end.

    Raises CollisionApproachError when |q|^3 falls below 10 dt^2, the
    radius at which a step of size dt can no longer resolve the dynamics.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not t_end > 0.0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    times, states = _leapfrog_span(start.q.tolist(), start.p.tolist(), t_end, dt, record_every)
    qarr = np.array([q for q, _ in states])
    parr = np.array([p for _, p in states])
    energies = _energy(qarr, parr)
    drift = float(np.max(np.abs(energies - energies[0])))
    return Trajectory(
        times=np.asarray(times),
        qs=qarr,
        ps=parr,
        integrator="leapfrog",
        dt=dt,
        energy_drift=drift,
    )


def delaunay_energy(sp: SphereCotangentPoint) -> float:
    """The Delaunay Hamiltonian -1/(2 v.v) on the punctured bundle."""
    return float(_delaunay_energy(sp.v))


def delaunay_flow(sp: SphereCotangentPoint, t: float) -> SphereCotangentPoint:
    """Advance the Delaunay flow for time t, in closed form.

    With rho = |v| and v_hat = v/rho the flow rotates (u, v_hat) at
    angular rate omega = rho^-3 in the plane they span:

    u(t) = cos(omega t) u + sin(omega t) v_hat,
    v(t) = rho (-sin(omega t) u + cos(omega t) v_hat).

    |v| and the Delaunay energy are conserved by construction and the
    period in t is 2 pi rho^3.  After the rotation the pair is re-projected
    onto the constraint set (u normalized, v orthogonalized and restored to
    length rho) to suppress drift over long flows.
    """
    u, v, at_puncture = _delaunay_flow_rows(sp.u, sp.v, np.array([t], float))
    return SphereCotangentPoint(u[0], v[0], at_puncture=bool(at_puncture[0]))


def _regularized_rows(start: SphereCotangentPoint, t: np.ndarray) -> tuple[np.ndarray, ...]:
    """Flow the Ligon-Schaaf image ``start`` to times t (m,) and invert it:
    (u, v, q, p, collision).  Rows the flow puts on the polar fiber skip the
    inverse; they and rows it punctures are collisions, with NaN q and p."""
    u, v, collision = _delaunay_flow_rows(start.u, start.v, t)
    q, p = np.full((2, t.size, start.n), np.nan)
    regular = ~collision
    q[regular], p[regular], collision[regular] = _ls_inverse_rows(u[regular], v[regular])
    return u, v, q, p, collision


def regularized_propagate(start: PhasePoint, t: float) -> PhasePoint:
    """Propagate a bound point for time t through the regularized flow.

    Conjugates the Kepler flow to the closed-form Delaunay flow via the
    Ligon-Schaaf map, so the result is exact up to the round-trip error of
    the maps and conserves H, every angular-momentum component and the
    Lenz vector norm.  Collision instants are passed through smoothly;
    only when the requested time itself lands on one (within 1e-10 on
    the sphere) is a PunctureError raised, and the caller may perturb t.
    """
    _, _, q, p, collision = _regularized_rows(ls_map(start), np.array([t], float))
    if collision[0]:
        raise PunctureError(f"landed on collision at t = {t:.12g}; perturb t")
    return PhasePoint(q[0], p[0])


def arc_time(traj: Trajectory) -> list[FlowTimes]:
    """Cumulative sphere arc time s(t) = integral of dtau/|q(tau)|.

    Composite trapezoid over the trajectory samples, s(0) = 0.  The
    integrand 1/|q| is positive, so s is strictly increasing in t.
    """
    radii = np.linalg.norm(traj.qs, axis=1)
    if radii.size == 0:
        raise DomainError("trajectory has no samples; arc time undefined")
    if np.any(radii == 0.0):
        raise DomainError("trajectory touches the collision set; arc time undefined")
    y = 1.0 / radii
    s_vals = np.concatenate(([0.0], np.cumsum(np.diff(traj.times) * (y[1:] + y[:-1]) / 2.0)))
    return [FlowTimes(float(t), float(s)) for t, s in zip(traj.times, s_vals)]


def kepler_period(energy: float) -> float:
    """Orbital period 2 pi (-2H)^(-3/2) of a bound Kepler orbit."""
    if not energy < 0.0:
        raise DomainError(f"H must be negative, got H = {energy:.6g}")
    return 2.0 * math.pi * (-2.0 * energy) ** -1.5
