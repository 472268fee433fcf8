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

from . import _PUBLIC
from .kernels import (
    _CONSTRAINT_TOL,
    DomainError,
    _check_rows,
    _energy,
    _frames,
    _on_pole,
    _radius,
    _upper_pairs,
    _wedge_entries,
)

__all__ = list(_PUBLIC["core"])


def _freeze_pair(obj) -> None:
    """Store a point's two fields, its vector pair, read-only, after every
    check; the pair's names pick the checks (``_check_rows``)."""
    names = "".join([f.name for f in fields(obj)])
    a, b = (np.array(getattr(obj, name), dtype=float) for name in names)
    for name, arr in zip(names, (a, b)):
        if arr.ndim != 1 or arr.size < 1:
            raise DomainError(f"{name} must be a one-dimensional real vector")
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)
    if a.shape != b.shape:
        raise DomainError(f"{names[0]} and {names[1]} must have the same length")
    _check_rows(a, b, names)


class _Point:
    """Base of the point value objects: the constructor checks their pair, their
    two fields (``_freeze_pair``); ``_from_checked`` adopts rows a kernel checked."""

    def __post_init__(self) -> None:
        _freeze_pair(self)

    @classmethod
    def _from_checked(cls, a: np.ndarray, b: np.ndarray):
        """The point of float rows a, b that a kernel has just put through this
        class's check, frozen without a second check.  Only the map wrappers and
        the samplers call this; the public constructor keeps every check."""
        a.setflags(write=False)
        b.setflags(write=False)
        point = object.__new__(cls)
        vars(point).update(zip([f.name for f in fields(cls)], (a, b)))
        return point


@dataclass(frozen=True, eq=False)
class PhasePoint(_Point):
    """A point (q, p) of Kepler phase space T*R^n.

    q is the position and p the momentum, both length-n vectors in units
    with GM = 1.  The dimension n is a runtime property of the vectors.
    """

    q: np.ndarray
    p: np.ndarray

    @property
    def n(self) -> int:
        return self.q.size

    @property
    def radius(self) -> float:
        """|q|, the distance from the collision point."""
        return float(_radius(self.q, None))

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
    1e-10 and rejects violations.  Points on (or within 1e-10 of) the polar
    fiber, where the inverse regularization maps are undefined, are still
    valid states of the completed flow.
    """

    u: np.ndarray
    v: np.ndarray

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

    @property
    def at_puncture(self) -> bool:
        """True on the polar fiber: the pole gap 1 - u_(n+1) is below 1e-10."""
        return bool(_on_pole(self.u))

    def off_pole(self) -> bool:
        """True when the pole gap 1 - u_(n+1) is at least 1e-10."""
        return not self.at_puncture

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
        return float(np.sum(self.upper * self.upper))


def kepler_energy(point: PhasePoint) -> float:
    """The Kepler Hamiltonian H = p.p/2 - 1/|q| (GM = 1).

    Raises DomainError at the collision point q = 0, where the energy is
    undefined.
    """
    return float(_energy(point.q, point.p))


_MIN_RADIUS = 0.1
_MIN_ENERGY = -2.0
_MAX_ENERGY = -0.05


def sample_bound_states(n: int, count: int, seed: int, **ranges) -> list[PhasePoint]:
    """Seed-reproducible sample of count bound phase points, drawn from orbital
    elements by ``_bound_rows``, whose keywords ``ranges`` may set: ``pole_gap``,
    ``max_eccentricity``, ``min_energy`` and ``max_energy``."""
    return [PhasePoint._from_checked(q, p) for q, p in zip(*_bound_rows(n, count, seed, **ranges))]


def _bound_rows(
    n: int, count: int, seed: int, *, pole_gap: float = 0.0, max_eccentricity: float = 1.0,
    min_energy: float = _MIN_ENERGY, max_energy: float = _MAX_ENERGY,
) -> tuple[np.ndarray, np.ndarray]:
    """Rows (q, p) of shape (count, n) of bound states from orbital elements
    (Danby 1988, ch. 6), checked as points are: H uniform on [min_energy,
    max_energy), e on [0, max_eccentricity) (1 at n = 1: radial orbits), the
    eccentric anomaly E on [-pi, pi), and the plane's frame (P, Q) the two-pass
    Gram-Schmidt frame of an n x 2 Gaussian (``_frames``; P alone at n = 1).
    With a = -1/(2H), b = sqrt(1 - e^2): q = a (cos E - e) P + a b sin E Q,
    p = sqrt(a) (b cos E Q - sin E P) / |q|.  Kept are the states with |q| >= 0.1
    whose sphere base point is pole_gap or more from the pole."""
    for ok, message in (
        (n >= 1, "n must be >= 1"),
        (count >= 1, "count must be >= 1"),
        (max_energy <= _MAX_ENERGY, f"max_energy must be <= {_MAX_ENERGY}"),
        (min_energy < max_energy, "min_energy must be < max_energy"),
        ((1.0 if n == 1 else 0.0) <= max_eccentricity <= 1.0,
         "max_eccentricity must be in [0, 1], and 1 at n = 1"),
        (0.0 <= pole_gap < 2.0, "pole_gap must be in [0, 2)"),
    ):
        if not ok:
            raise ValueError(message)
    rng = np.random.default_rng(seed)

    def draw(missing: int) -> tuple[np.ndarray, np.ndarray, int]:
        size = max(2 * missing, 256)
        a = -0.5 / rng.uniform(min_energy, max_energy, size)
        e = rng.uniform(0.0, max_eccentricity, size) if n > 1 else np.ones(size)
        anomaly = rng.uniform(-np.pi, np.pi, size)
        # one column at n = 1, where b = 0
        frame = _frames(rng.standard_normal((size, n, 2)))
        cos, sin, b = np.cos(anomaly), np.sin(anomaly), np.sqrt(1.0 - e * e)
        q = (a * (cos - e))[:, None] * frame[..., 0] + (a * b * sin)[:, None] * frame[..., -1]
        # p only where |q| >= 0.1: nearer the origin a (1 - e cos E) may round to 0
        radius = np.linalg.norm(q, axis=1)
        far = radius >= _MIN_RADIUS
        a, e, b, cos, sin, frame, q, radius = (
            x[far] for x in (a, e, b, cos, sin, frame, q, radius)
        )
        speed = np.sqrt(a) / (a * (1.0 - e * cos))
        p = (speed * -sin)[:, None] * frame[..., 0] + (speed * b * cos)[:, None] * frame[..., -1]
        # the base point's squared distance to the pole is 2 (2 - |q| p.p)
        keep = 2.0 * (2.0 - radius * np.sum(p**2, axis=1)) >= pole_gap**2
        return q[keep], p[keep], size

    return _rejection_rows(count, draw, "qp")


def _rejection_rows(count: int, draw, names: str) -> tuple[np.ndarray, np.ndarray]:
    """The first count rows (a, b) that rounds of draw(missing) -> (a, b, drawn) keep,
    drawn being the round's candidates; raises after 20,000 candidates per row plus
    200,000, and checks the rows once by the pair's names (``_check_rows``)."""
    chunks, missing, total = [], count, 0
    while missing:
        a, b, drawn = draw(missing)
        chunks.append((a[:missing], b[:missing]))
        missing, total = missing - len(chunks[-1][0]), total + drawn
        if missing and total >= 20_000 * count + 200_000:
            message = f"rejection sampling failed to find {count} points after {total} draws"
            raise RuntimeError(f"{message}; the requested constraints are too tight")
    return _check_rows(*map(np.concatenate, zip(*chunks)), names)
