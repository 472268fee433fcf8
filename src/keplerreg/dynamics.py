"""Kepler and Delaunay dynamics.

The direct path integrates the Kepler equations q' = p, p' = -q/|q|^3 with
a fixed-step leapfrog scheme; it exists as a reference oracle and fails
deliberately near collisions.  The regularized path conjugates the flow
through the Ligon-Schaaf map to the Delaunay flow on T*S^n, which is a
great-circle rotation at angular rate |v|^-3 and is therefore evaluated in
closed form: exact, unconditionally stable, and well defined straight
through collision instants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .core import (
    DEFAULT_TOL,
    DomainError,
    PhasePoint,
    SphereCotangentPoint,
    Tolerances,
    _energy,
)
from .ligonschaaf import PunctureError, _reproject, _rotate, ls_inverse, ls_map

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


def kepler_vector_field(point: PhasePoint) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand side of the Kepler equations: (p, -q/|q|^3)."""
    r = point.radius
    if r == 0.0:
        raise DomainError("q must be nonzero (vector field singular at collision)")
    return point.p.copy(), -point.q / r**3


def _accelerations(qs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    r2 = np.einsum("ij,ij->i", qs, qs)
    return -qs * (r2**-1.5)[:, None], r2


def _collision_floor_r2(dt: float) -> float:
    # Guard fires when |q|^3 < 10 dt^2, i.e. the local free-fall time is
    # within a few steps of dt and the scheme cannot resolve the approach.
    return (10.0 * dt * dt) ** (2.0 / 3.0)


def _leapfrog_batch(
    qs: np.ndarray,
    ps: np.ndarray,
    dt: float,
    checkpoints: list[int],
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Advance a batch of states, returning copies at the given step counts
    (0 is the start).

    Kick-drift-kick leapfrog with one force evaluation per step.  Raises
    CollisionApproachError, with the time reached, when |q|^3 falls below
    10 dt^2; the starting states are checked as well.
    """
    targets = sorted(checkpoints)
    if targets and targets[0] < 0:
        raise ValueError("checkpoints must be nonnegative step counts")
    qs = np.array(qs, dtype=float)
    ps = np.array(ps, dtype=float)
    half_dt = 0.5 * dt
    floor_r2 = _collision_floor_r2(dt)
    acc, r2 = _accelerations(qs)
    if bool(np.any(r2 < floor_r2)):
        raise CollisionApproachError(0.0)
    out: list[tuple[np.ndarray, np.ndarray]] = []
    step = 0
    for target in targets:
        while step < target:
            step += 1
            p_half = ps + half_dt * acc
            qs = qs + dt * p_half
            acc, r2 = _accelerations(qs)
            if bool(np.any(r2 < floor_r2)):
                raise CollisionApproachError(step * dt)
            ps = p_half + half_dt * acc
        out.append((qs.copy(), ps.copy()))
    return out


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
    n_full = int(math.floor(t_end / dt + 1e-12))
    remainder = t_end - n_full * dt
    if remainder < 1e-12 * dt:
        remainder = 0.0

    recorded = list(range(record_every, n_full + 1, record_every))
    if remainder == 0.0 and n_full % record_every:
        recorded.append(n_full)
    q0, p0 = start.q[None, :], start.p[None, :]
    *states, (q_full, p_full) = _leapfrog_batch(q0, p0, dt, [0, *recorded, n_full])
    times = [0.0] + [step * dt for step in recorded]
    if remainder > 0.0:
        try:
            states += _leapfrog_batch(q_full, p_full, remainder, [1])
        except CollisionApproachError:
            raise CollisionApproachError(t_end) from None
        times.append(t_end)
    qarr = np.concatenate([q for q, _ in states])
    parr = np.concatenate([p for _, p in states])
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
    v2 = float(sp.v @ sp.v)
    if v2 == 0.0:
        raise DomainError("|v| must be nonzero (zero section)")
    return -0.5 / v2


def delaunay_flow(
    sp: SphereCotangentPoint, t: float, tol: Tolerances = DEFAULT_TOL
) -> SphereCotangentPoint:
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
    rho = sp.covector_norm
    if rho == 0.0:
        raise DomainError("|v| must be nonzero (zero section has no flow)")
    v_hat = sp.v / rho
    u_new, w = _reproject(*_rotate(sp.u, v_hat, t / rho**3))
    v_new = rho * (w / np.linalg.norm(w))
    at_puncture = 1.0 - float(u_new[-1]) < tol.constraint_tol
    return SphereCotangentPoint(
        u_new, v_new, at_puncture=at_puncture, constraint_tol=tol.constraint_tol
    )


def regularized_propagate(
    start: PhasePoint, t: float, tol: Tolerances = DEFAULT_TOL
) -> PhasePoint:
    """Propagate a bound point for time t through the regularized flow.

    Conjugates the Kepler flow to the closed-form Delaunay flow via the
    Ligon-Schaaf map, so the result is exact up to the round-trip error of
    the maps and conserves H, every angular-momentum component and the
    Lenz vector norm.  Collision instants are passed through smoothly;
    only when the requested time itself lands on one (within
    constraint_tol on the sphere) is a PunctureError raised, and the
    caller may perturb t.
    """
    sphere_start = ls_map(start, tol)
    sphere_end = delaunay_flow(sphere_start, t, tol)
    if sphere_end.at_puncture:
        raise PunctureError(f"landed on collision at t = {t:.12g}; perturb t")
    try:
        return ls_inverse(sphere_end, tol)
    except PunctureError:
        raise PunctureError(f"landed on collision at t = {t:.12g}; perturb t") from None


def arc_time(traj: Trajectory) -> list[FlowTimes]:
    """Cumulative sphere arc time s(t) = integral of dtau/|q(tau)|.

    Composite trapezoid over the trajectory samples, s(0) = 0.  The
    integrand 1/|q| is positive, so s is strictly increasing in t.
    """
    radii = np.linalg.norm(traj.qs, axis=1)
    if np.any(radii == 0.0):
        raise DomainError("trajectory touches the collision set; arc time undefined")
    s_vals = cumulative_trapezoid(1.0 / radii, traj.times, initial=0.0)
    return [FlowTimes(float(t), float(s)) for t, s in zip(traj.times, s_vals)]


def kepler_period(energy: float) -> float:
    """Orbital period 2 pi (-2H)^(-3/2) of a bound Kepler orbit."""
    if not energy < 0.0:
        raise DomainError(f"H must be negative, got H = {energy:.6g}")
    return 2.0 * math.pi * (-2.0 * energy) ** -1.5
