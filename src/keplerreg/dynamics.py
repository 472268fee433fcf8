"""Kepler and Delaunay dynamics.

The direct path integrates the Kepler equations q' = p, p' = -q/|q|^3 with
a fixed-step leapfrog scheme, one orbit on Python floats; it exists as a
reference integrator and fails deliberately near collisions.  Its force and
step loop run on scalar locals, rendered to source once per dimension n from
one template, with the arithmetic of a loop over lists.  The
regularized path conjugates the flow through the Ligon-Schaaf map to the
Delaunay flow on T*S^n, which is a great-circle rotation at angular rate
|v|^-3 and is therefore evaluated in closed form: exact, unconditionally
stable, and well defined straight through collision instants.  The
formulas live in ``keplerreg.kernels``.
"""

from __future__ import annotations

import functools
import linecache
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import _PUBLIC
from .core import DomainError, PhasePoint, SphereCotangentPoint
from .kernels import _bound_root, _delaunay_energy, _delaunay_flow_rows, _energy, _nonzero_squares
from .ligonschaaf import PunctureError, _ls_inverse_rows, ls_map

__all__ = list(_PUBLIC["dynamics"])


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


# The Kepler force and the leapfrog step loop over scalar locals q0..q{n-1},
# p0.., k0.. for one dimension n.  {force} is the one force formula: q.q adds
# the squares at the even indices, then those at the odd ones (numpy einsum's
# order), the power is the C library's pow, and k = h times the force.
_TEMPLATE = """\
def force(q, h):
    {q}, = q
    {force}
    return [{k}], r2


def leapfrog(q, p, dt, checkpoints):
    floor_r2 = _collision_floor_r2(dt)
    h = 0.5 * dt
    {q}, = q
    {p}, = p
    out = []
    step = 0
    try:
        {force}
        if r2 < floor_r2:
            raise CollisionApproachError(0.0)
        for target in checkpoints:
            while step < target:
                step += 1
                {kick}
                {drift}
                {force}
                if r2 < floor_r2:
                    raise CollisionApproachError(step * dt)
                {kick}
            out.append(([{q}], [{p}]))
    except (ZeroDivisionError, OverflowError):  # q.q is 0, or (q.q)^-1.5 overflows
        raise CollisionApproachError(step * dt) from None
    return out
"""


@functools.cache
def _rendered(n: int):
    """(force, leapfrog) at dimension n: _TEMPLATE rendered, compiled once
    under the name <leapfrog n=...> and registered in linecache, so that
    tracebacks, inspect and cProfile show the generated lines."""
    idx = range(n)
    even = " + ".join(f"q{i} * q{i}" for i in idx[0::2])
    odd = " + ".join(f"q{i} * q{i}" for i in idx[1::2]) or "0.0"
    force = "; ".join(
        [f"r2 = ({even}) + ({odd})", "f = -(r2 ** -1.5)", *(f"k{i} = q{i} * f * h" for i in idx)]
    )
    src = _TEMPLATE.format(
        q=", ".join(f"q{i}" for i in idx),
        p=", ".join(f"p{i}" for i in idx),
        k=", ".join(f"k{i}" for i in idx),
        force=force,
        kick="; ".join(f"p{i} += k{i}" for i in idx),
        drift="; ".join(f"q{i} += p{i} * dt" for i in idx),
    )
    name = f"<leapfrog n={n}>"
    linecache.cache[name] = (len(src), None, src.splitlines(True), name)
    namespace = {
        "__name__": __name__,
        "CollisionApproachError": CollisionApproachError,
        "_collision_floor_r2": _collision_floor_r2,
    }
    exec(compile(src, name, "exec"), namespace)
    return namespace["force"], namespace["leapfrog"]


def kepler_vector_field(point: PhasePoint) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand side of the Kepler equations: (p, -q (q.q)^-1.5), the leapfrog's force."""
    _nonzero_squares(point.q, "q must be nonzero (vector field singular at collision)")
    try:
        return point.p.copy(), np.array(_rendered(point.n)[0](point.q.tolist(), 1.0)[0])
    except OverflowError:  # (q.q)^-1.5 is out of float range
        raise DomainError(f"|q| = {point.radius:.3e} is too small: (q.q)^-1.5 overflows") from None


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
    is out of float range.  The loop runs on scalar locals, rendered once per
    dimension from _TEMPLATE, and does a loop over lists' arithmetic in the
    same order: q.q, the force, each half kick as its own add, each drift.
    """
    return _rendered(len(q))[1](q, p, dt, checkpoints)


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
    radius at which a step of size dt can no longer resolve the dynamics,
    and DomainError when a state is finite but its energy, or the energy's
    change since the start, is not (it overflows).
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
    with np.errstate(all="ignore"):
        change = _energy(qarr, parr)
        change -= change[0]
    finite = np.isfinite(change)
    if not finite.all():
        raise DomainError(f"energy drift is not finite at t = {times[np.argmin(finite)]:.17g}")
    drift = float(np.max(np.abs(change)))
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
    u, v, _ = _delaunay_flow_rows(sp.u, sp.v, np.array([t], float))
    return SphereCotangentPoint._from_checked(u[0], v[0])


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
    return PhasePoint._from_checked(q[0], p[0])


def arc_time(traj: Trajectory) -> list[FlowTimes]:
    """Cumulative sphere arc time s(t) = integral of dtau/|q(tau)|.

    Composite trapezoid over the trajectory samples, s(0) = 0.  The
    integrand 1/|q| is positive, so s is strictly increasing in t.
    """
    radii = np.linalg.norm(traj.qs, axis=1)
    if radii.size == 0:
        raise DomainError("trajectory has no samples; arc time undefined")
    _nonzero_squares(traj.qs, "trajectory touches the collision set; arc time undefined")
    y = 1.0 / radii
    s_vals = np.concatenate(([0.0], np.cumsum(np.diff(traj.times) * (y[1:] + y[:-1]) / 2.0)))
    return [FlowTimes(float(t), float(s)) for t, s in zip(traj.times, s_vals)]


def kepler_period(energy: float) -> float:
    """Orbital period 2 pi (-2H)^(-3/2) of a bound Kepler orbit; DomainError unless finite."""
    _bound_root(np.float64(energy))
    with np.errstate(over="ignore"):  # the period overflows from H = -5.34e-206 up
        period = 2.0 * math.pi * np.float64(-2.0 * energy) ** -1.5
    if not (math.isfinite(energy) and math.isfinite(period)):
        raise DomainError(f"H and the period must be finite, got H = {energy:.6g}")
    return float(period)
