"""Domain types for the regularized Kepler problem.

Units are normalized so that GM = 1 throughout: the Kepler Hamiltonian is
H = p^2/2 - 1/|q|.  All types are immutable value objects and every
operation in this package is a pure function of its inputs, so everything
here is safe to use from concurrent callers.  The array formulas, the row
check and ``DomainError`` live in ``keplerreg.kernels``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .kernels import (
    _CONSTRAINT_TOL,
    DomainError,
    _check_rows,
    _energy,
    _lenz,
    _norm_squared,
    _on_pole,
    _upper_pairs,
    _wedge_entries,
)

__all__ = [
    "DomainError",
    "PhasePoint",
    "SphereCotangentPoint",
    "PlaneCotangentPoint",
    "MomentumMatrix",
    "kepler_energy",
    "sample_bound_states",
]


def _freeze_pair(obj, names: str, *, sphere: bool = False) -> None:
    """Store a value object's two vector fields read-only, after every check."""
    a, b = (np.array(getattr(obj, name), dtype=float) for name in names)
    for name, arr in zip(names, (a, b)):
        if arr.ndim != 1 or arr.size < 1:
            raise DomainError(f"{name} must be a one-dimensional real vector")
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)
    if a.shape != b.shape:
        raise DomainError(f"{names[0]} and {names[1]} must have the same length")
    if sphere and a.size < 2:
        raise DomainError("sphere points need at least two coordinates")
    _check_rows(a, b, names, sphere=sphere)


class _Point:
    """Base of the point value objects.  Their constructor checks rows that
    come from outside; ``_from_checked`` adopts rows a kernel has checked."""

    @classmethod
    def _from_checked(cls, a: np.ndarray, b: np.ndarray, *rest):
        """The point of float rows a, b that a kernel has just put through this
        class's check, frozen without a second check; each later field takes
        its value from rest, or else its default.  Only the map wrappers and
        the samplers call this; the public constructor keeps every check."""
        a.setflags(write=False)
        b.setflags(write=False)
        point, values = object.__new__(cls), iter((a, b, *rest))
        vars(point).update((f.name, next(values, f.default)) for f in fields(cls))
        return point


@dataclass(frozen=True, eq=False)
class PhasePoint(_Point):
    """A point (q, p) of Kepler phase space T*R^n.

    q is the position and p the momentum, both length-n vectors in units
    with GM = 1.  The dimension n is a runtime property of the vectors.
    """

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self) -> None:
        _freeze_pair(self, "qp")

    @property
    def n(self) -> int:
        return self.q.size

    @property
    def radius(self) -> float:
        """|q|, the distance from the collision point."""
        return math.sqrt(np.vecdot(self.q, self.q))

    def is_bound(self) -> bool:
        """True off the collision set with negative energy (bound motion)."""
        return self.radius > 0.0 and kepler_energy(self) < 0.0

    def on_reference_shell(self) -> bool:
        """True on the H = -1/2 energy shell (within 1e-10).

        This is the shell on which the Moser map conjugates the Kepler flow
        to unit-speed great-circle motion.
        """
        if self.radius == 0.0:
            return False
        return abs(kepler_energy(self) + 0.5) <= _CONSTRAINT_TOL


@dataclass(frozen=True, eq=False)
class SphereCotangentPoint(_Point):
    """A covector (u, v) on the unit sphere S^n, embedded in R^(n+1) x R^(n+1).

    Construction enforces the constraints |u| = 1 and u.v = 0 to within
    1e-10 and rejects violations.  ``at_puncture`` marks points
    produced on (or within tolerance of) the polar fiber, where the
    inverse regularization maps are undefined; such points are still valid
    states of the completed flow.
    """

    u: np.ndarray
    v: np.ndarray
    at_puncture: bool = False

    def __post_init__(self) -> None:
        _freeze_pair(self, "uv", sphere=True)

    @property
    def n(self) -> int:
        """Dimension of the underlying sphere S^n."""
        return self.u.size - 1

    @property
    def covector_norm(self) -> float:
        return math.sqrt(np.vecdot(self.v, self.v))

    @property
    def pole_gap(self) -> float:
        """1 - u_(n+1), the gap to the projection pole (0 at the pole)."""
        return 1.0 - float(self.u[-1])

    def off_zero_section(self) -> bool:
        """True when v != 0 (membership in the punctured bundle)."""
        return self.covector_norm > 0.0

    def off_pole(self) -> bool:
        """True when the pole gap 1 - u_(n+1) is at least 1e-10."""
        return not _on_pole(self.u)

    def is_regular(self) -> bool:
        """True off both the zero section and the polar fiber.

        This is the domain on which the inverse regularization maps exist.
        """
        return self.off_zero_section() and self.off_pole()

    def on_unit_shell(self) -> bool:
        """True off the pole with |v| = 1 within 1e-10."""
        return self.off_pole() and abs(self.covector_norm - 1.0) <= _CONSTRAINT_TOL


@dataclass(frozen=True, eq=False)
class PlaneCotangentPoint(_Point):
    """A point (x, y) of T*R^n, the stereographic chart target."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        _freeze_pair(self, "xy")

    @property
    def n(self) -> int:
        return self.x.size

    def y_nonzero(self) -> bool:
        """True when |y| > 0, as required by the chart Kepler Hamiltonian."""
        return float(np.linalg.norm(self.y)) > 0.0


@dataclass(frozen=True, eq=False)
class MomentumMatrix:
    """Antisymmetric matrix of angular-momentum components.

    Only the strict upper triangle is stored; the lower triangle is the
    reflected negative, so entries[i, j] == -entries[j, i] holds exactly by
    construction.  The strict lower triangle of the input is ignored.
    """

    upper: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.upper, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DomainError("momentum matrix must be square")
        if not np.all(np.isfinite(arr)):
            raise DomainError("momentum matrix must have finite entries")
        arr = np.triu(arr, 1)
        arr.setflags(write=False)
        object.__setattr__(self, "upper", arr)

    @classmethod
    def wedge(cls, a: np.ndarray, b: np.ndarray) -> "MomentumMatrix":
        """The wedge a ^ b with entries a_i b_j - a_j b_i."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if a.ndim != 1 or a.shape != b.shape:
            raise DomainError("wedge factors must be vectors of one length")
        upper = np.zeros((a.size, a.size))
        pairs = _upper_pairs(a.size)
        upper[pairs] = _wedge_entries(a, b, *pairs)
        return cls(upper)

    @property
    def dim(self) -> int:
        return self.upper.shape[0]

    @property
    def entries(self) -> np.ndarray:
        """The full antisymmetric matrix (reflected on read)."""
        return self.upper - self.upper.T

    def entry(self, i: int, j: int) -> float:
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise IndexError(f"entry ({i}, {j}) is outside a {self.dim} x {self.dim} matrix")
        if i == j:
            return 0.0
        if i < j:
            return float(self.upper[i, j])
        return -float(self.upper[j, i])

    def norm_squared(self) -> float:
        """Sum of squares over the independent (i < j) entries."""
        return float(_norm_squared(self.upper))


def kepler_energy(point: PhasePoint) -> float:
    """The Kepler Hamiltonian H = p.p/2 - 1/|q| (GM = 1).

    Raises DomainError at the collision point q = 0, where the energy is
    undefined.
    """
    return float(_energy(point.q, point.p))


_Q_HALF_WIDTH = 2.0
_P_HALF_WIDTH = 1.5
_MIN_RADIUS = 0.1
_MAX_ENERGY = -0.05


def sample_bound_states(
    n: int,
    count: int,
    seed: int,
    *,
    pole_gap: float = 0.0,
    max_eccentricity: float | None = None,
    min_energy: float | None = None,
    max_energy: float = _MAX_ENERGY,
) -> list[PhasePoint]:
    """Seed-reproducible rejection sample of bound phase points.

    Positions are drawn uniformly from [-2, 2]^n and momenta from
    [-1.5, 1.5]^n, keeping points with |q| >= 0.1 and H <= -0.05 so that
    downstream finite differences stay inside the domain.  Identical
    arguments always produce identical output.

    Optional keywords tighten the sample for callers whose numerical
    methods degrade near singular sets: ``pole_gap`` keeps the base point
    of the scale-invariant sphere projection at least that far from the
    projection pole, ``max_eccentricity`` caps |K| (the orbit
    eccentricity), and ``min_energy``/``max_energy`` bound H.
    """
    qs, ps = _bound_rows(
        n,
        count,
        seed,
        pole_gap=pole_gap,
        max_eccentricity=max_eccentricity,
        min_energy=min_energy,
        max_energy=max_energy,
    )
    return [PhasePoint._from_checked(q, p) for q, p in zip(qs, ps)]


def _bound_rows(
    n: int,
    count: int,
    seed: int,
    *,
    pole_gap: float = 0.0,
    max_eccentricity: float | None = None,
    min_energy: float | None = None,
    max_energy: float = _MAX_ENERGY,
) -> tuple[np.ndarray, np.ndarray]:
    """``sample_bound_states`` as rows (q, p) of shape (count, n), checked as
    its points are."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    if max_energy > _MAX_ENERGY:
        raise ValueError(f"max_energy must be <= {_MAX_ENERGY}")
    rng = np.random.default_rng(seed)
    chunks: list[tuple[np.ndarray, np.ndarray]] = []
    found = total = 0
    max_draws = 20_000 * count + 200_000
    batch = max(4 * count, 512)
    while found < count:
        qs = rng.uniform(-_Q_HALF_WIDTH, _Q_HALF_WIDTH, size=(batch, n))
        ps = rng.uniform(-_P_HALF_WIDTH, _P_HALF_WIDTH, size=(batch, n))
        total += batch
        r = np.linalg.norm(qs, axis=1)
        ok = r >= _MIN_RADIUS
        energy = np.full(batch, np.inf)
        energy[ok] = _energy(qs[ok], ps[ok])
        ok &= energy <= max_energy
        if min_energy is not None:
            ok &= energy >= min_energy
        if pole_gap > 0.0:
            # Base point of the scale-invariant sphere projection has last
            # coordinate |q| p^2 - 1; squared distance to the pole is
            # 2 (2 - |q| p^2).
            gap = 2.0 - r * np.sum(ps**2, axis=1)
            ok &= 2.0 * gap >= pole_gap**2
        if max_eccentricity is not None:
            ecc = np.linalg.norm(_lenz(qs, ps), axis=1)
            ok &= ecc <= max_eccentricity
        keep = np.flatnonzero(ok)[: count - found]
        chunks.append((qs[keep], ps[keep]))
        found += len(keep)
        if found < count and total >= max_draws:
            raise RuntimeError(
                f"rejection sampling failed to find {count} points after "
                f"{total} draws; the requested constraints are too tight"
            )
    return _check_rows(*map(np.concatenate, zip(*chunks)), "qp")
