"""Seeded inputs for the three benchmark workloads.

Each workload is a list of operations, and each operation is one call of
``keplerreg.cli.main``: one scenario file for the propagate workloads, one
suite at one dimension for verify-maps.  The seed moves the orbits
(orientation, phase, exact energy and eccentricity inside fixed strata)
but not the amount of work: row counts, horizons and suite lists are
fixed schedules, so every seed costs about the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

WORKLOADS = ("propagate-regularized", "propagate-direct", "verify-maps")

# Every harness suite except intertwine-flows and conservation, which are
# leapfrog-oracle suites and cost more than all of these together.
MAP_SUITES = (
    "stereo-roundtrip",
    "stereo-canonical",
    "metric",
    "moser-symplectic",
    "fibration-scale",
    "moser-levelset",
    "ls-symplectic",
    "ls-roundtrip",
    "ls-equivariance",
    "momenta-pullback",
    "so(n+1)-brackets",
    "lenz-brackets",
    "mu-squared",
)
VERIFY_SAMPLES = 500

DIRECT_DT = 1e-3

# Wall time of one pass on a quiet 2-vCPU host, in the normalised seconds
# run.py reports.  It only sets how many passes a run makes, so that the
# count depends on --seconds alone and not on the speed of the commit.
NOMINAL_PASS_S = {"propagate-regularized": 3.1, "propagate-direct": 3.4, "verify-maps": 4.9}


@dataclass(frozen=True)
class Orbit:
    """A bound Kepler orbit in the plane spanned by the two orthonormal
    columns of ``frame``, with semi-major axis a, eccentricity e (e = 1 is
    radial) and eccentric anomaly ``anomaly`` at t = 0."""

    n: int
    a: float
    ecc: float
    anomaly: float
    frame: np.ndarray

    @property
    def radial(self) -> bool:
        return self.ecc == 1.0

    @property
    def period(self) -> float:
        return 2.0 * math.pi * self.a**1.5

    def state(self, anomaly):
        """q and p at eccentric anomaly E (one row per element of E)."""
        anomaly = np.asarray(anomaly, dtype=float)
        cos_e, sin_e = np.cos(anomaly), np.sin(anomaly)
        minor = math.sqrt(1.0 - self.ecc * self.ecc)
        with np.errstate(divide="ignore", invalid="ignore"):
            speed = self.a**-0.5 / (1.0 - self.ecc * cos_e)
        plane_q = np.stack([self.a * (cos_e - self.ecc), self.a * minor * sin_e], axis=-1)
        plane_p = np.stack([-speed * sin_e, speed * minor * cos_e], axis=-1)
        return plane_q @ self.frame.T, plane_p @ self.frame.T

    @cached_property
    def q(self) -> np.ndarray:
        return self.state(self.anomaly)[0]

    @cached_property
    def p(self) -> np.ndarray:
        return self.state(self.anomaly)[1]

    @property
    def mean_anomaly(self) -> float:
        return self.anomaly - self.ecc * math.sin(self.anomaly)

    def anomaly_at(self, times) -> np.ndarray:
        """Eccentric anomaly at each time: Kepler's equation
        E - e sin E = M0 + t a^-1.5, by Newton's method kept inside the
        bracket [M - e, M + e], bisecting when a step leaves it."""
        target = self.mean_anomaly + np.asarray(times, dtype=float) * self.a**-1.5
        lo, hi = target - self.ecc, target + self.ecc
        anomaly = target + self.ecc * np.sin(target)
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(200):
                residual = anomaly - self.ecc * np.sin(anomaly) - target
                lo = np.where(residual < 0.0, anomaly, lo)
                hi = np.where(residual > 0.0, anomaly, hi)
                step = anomaly - residual / (1.0 - self.ecc * np.cos(anomaly))
                inside = (step > lo) & (step < hi)
                update = np.where(inside, step, 0.5 * (lo + hi))
                if np.array_equal(update, anomaly):
                    break
                anomaly = update
        return anomaly

    def next_collision(self) -> float:
        """First t > 0 at which a radial orbit reaches q = 0 (E = 2 pi)."""
        return (2.0 * math.pi - self.mean_anomaly) * self.a**1.5


@dataclass(frozen=True)
class Operation:
    """One CLI call: its argv, and what the checker needs to judge it."""

    ident: str
    argv: list[str]
    rows: int
    orbit: Orbit | None = None
    times: np.ndarray | None = None
    collision_times: tuple[float, ...] = ()
    out_path: Path | None = None
    suite: str | None = None
    files: dict[Path, str] = field(default_factory=dict)


def _fmt(x: float) -> str:
    return repr(float(x))


def _vec(v: np.ndarray) -> str:
    return ",".join(_fmt(c) for c in v)


def orbit_from_elements(
    rng: np.random.Generator, n: int, energy: float, ecc: float, ecc_anomaly: float
) -> Orbit:
    """Bound orbit with energy H, eccentricity e and eccentric anomaly E at
    t = 0, in a random plane of R^n; e = 1 gives a radial orbit."""
    frame, _ = np.linalg.qr(rng.standard_normal((n, 2)))
    return Orbit(n=n, a=-0.5 / energy, ecc=ecc, anomaly=ecc_anomaly, frame=frame)


def _stratified(rng: np.random.Generator, lo: float, hi: float, count: int) -> np.ndarray:
    """One seeded draw from each of ``count`` equal strata of [lo, hi]."""
    edges = np.linspace(lo, hi, count + 1)
    return edges[:-1] + rng.uniform(0.0, 1.0, count) * np.diff(edges)


def _log_schedule(lo: int, hi: int, count: int) -> list[int]:
    return [int(round(x)) for x in np.geomspace(lo, hi, count)]


def _scenario_text(orbit: Orbit, mode: str, t_end: float, times_line: str, dt: float | None) -> str:
    lines = [
        f"n = {orbit.n}",
        f"q = {_vec(orbit.q)}",
        f"p = {_vec(orbit.p)}",
        f"t_end = {_fmt(t_end)}",
        f"mode = {mode}",
        times_line,
    ]
    if dt is not None:
        lines.append(f"dt = {_fmt(dt)}")
    return "\n".join(lines) + "\n"


def _propagate_op(ident: str, workdir: Path, orbit: Orbit, mode: str, t_end: float,
                  times: np.ndarray, explicit: bool, collisions: tuple[float, ...] = (),
                  dt: float | None = None) -> Operation:
    times_line = (
        f"output_times = {_vec(times)}" if explicit else f"output_count = {times.size}"
    )
    scn = workdir / f"{ident}.scn"
    out = workdir / f"{ident}.csv"
    return Operation(
        ident=ident,
        argv=["propagate", str(scn), "--out", str(out)],
        rows=int(times.size),
        orbit=orbit,
        times=times,
        collision_times=collisions,
        out_path=out,
        files={scn: _scenario_text(orbit, mode, t_end, times_line, dt)},
    )


def _radial_grid(orbit: Orbit, t_end: float, rows: int) -> tuple[np.ndarray, tuple[float, ...]]:
    """Uniform grid on [0, t_end] merged with every collision instant in it."""
    period = orbit.period
    hits = []
    t_c = orbit.next_collision()
    while t_c <= t_end:
        hits.append(t_c)
        t_c += period
    grid = np.linspace(0.0, t_end, max(2, rows - len(hits)))
    gap = 1e-6 * period
    keep = [t for t in grid if all(abs(t - h) > gap for h in hits)]
    times = np.array(sorted(keep + hits))
    return times, tuple(hits)


def regularized_ops(seed: int, workdir: Path, tiny: bool = False) -> list[Operation]:
    """>= 100 regularized scenarios at n = 2 and 3, eccentricity 0 to 1.

    Four strata of 25 (tiny: 2): eccentricity uniform in [0, 0.9];
    e = 1 - 10^-x with x in [1, 4]; radial orbits (e = 1) whose grids hit
    every collision instant; and a near-parabolic tail with H from -1e-2
    down to -1e-6 and e in [0, 0.99].  Row counts are a fixed log-spaced
    schedule from 3 to 1000, dealt evenly to the strata.
    """
    per = 2 if tiny else 25
    rng = np.random.default_rng([seed, 1])
    rows_all = _log_schedule(3, 60 if tiny else 1000, 4 * per)
    strata = {
        "low": (-np.exp(_stratified(rng, math.log(0.05), math.log(1.0), per)),
                _stratified(rng, 0.0, 0.9, per)),
        "high": (-np.exp(_stratified(rng, math.log(0.05), math.log(1.0), per)),
                 1.0 - 10.0 ** -_stratified(rng, 1.0, 4.0, per)),
        "radial": (-np.exp(_stratified(rng, math.log(0.05), math.log(1.0), per)),
                   np.ones(per)),
        "parabolic": (-(10.0 ** -_stratified(rng, 2.0, 6.0, per)),
                      _stratified(rng, 0.0, 0.99, per)),
    }
    horizons = np.geomspace(0.3, 3.0, per)  # in periods
    ops = []
    for s, (name, (energies, eccs)) in enumerate(strata.items()):
        order = rng.permutation(per)
        for k in range(per):
            n = 2 + (k % 2)
            ecc_anomaly = rng.uniform(0.3, 2.0 * math.pi - 0.3)
            orbit = orbit_from_elements(rng, n, float(energies[k]), float(eccs[k]), ecc_anomaly)
            rows = rows_all[s + 4 * int(order[k])]
            t_end = float(horizons[(k * 7) % per]) * orbit.period
            ident = f"reg-{name}-{k:02d}"
            if orbit.radial:
                times, hits = _radial_grid(orbit, t_end, rows)
                ops.append(_propagate_op(ident, workdir, orbit, "regularized", t_end,
                                         times, True, hits))
            else:
                times = np.linspace(0.0, t_end, rows)
                ops.append(_propagate_op(ident, workdir, orbit, "regularized", t_end,
                                         times, False))
    return ops


def direct_ops(seed: int, workdir: Path, tiny: bool = False) -> list[Operation]:
    """>= 100 direct-mode scenarios at n = 2 and 3 with e <= 0.6.

    H in [-1, -0.25] keeps the perihelion at 0.2 or more, about nine
    times the collision-guard radius (10 dt^2)^(1/3) at dt = 1e-3.  Horizons (0.5 to 3.5)
    and row counts (2 to 60) are fixed schedules.
    """
    count = 6 if tiny else 100
    rng = np.random.default_rng([seed, 2])
    energies = _stratified(rng, -1.0, -0.25, count)
    eccs = _stratified(rng, 0.0, 0.6, count)
    rng.shuffle(eccs)
    rows_all = _log_schedule(2, 60, count)
    horizons = np.linspace(0.5, 0.8 if tiny else 3.5, count)
    order = rng.permutation(count)
    ops = []
    for k in range(count):
        n = 2 + (k % 2)
        orbit = orbit_from_elements(rng, n, float(energies[k]), float(eccs[k]),
                                    rng.uniform(0.0, 2.0 * math.pi))
        t_end = float(horizons[order[k]])
        times = np.linspace(0.0, t_end, rows_all[(order[k] * 37) % count])
        ops.append(_propagate_op(f"dir-{k:03d}", workdir, orbit, "direct", t_end,
                                 times, False, dt=DIRECT_DT))
    return ops


def verify_ops(suites: tuple[str, ...], dims: tuple[int, ...], seed: int,
               samples: int) -> list[Operation]:
    return [
        Operation(
            ident=f"{suite}@n{n}",
            argv=["verify", "--suite", suite, "--n", str(n), "--samples", str(samples),
                  "--seed", str(seed)],
            rows=1,
            suite=suite,
        )
        for n in dims
        for suite in suites
    ]


def build(workload: str, seed: int, workdir: Path, tiny: bool = False) -> list[Operation]:
    """The operations of one pass of ``workload``; files are not yet written."""
    if workload == "propagate-regularized":
        return regularized_ops(seed, workdir, tiny)
    if workload == "propagate-direct":
        return direct_ops(seed, workdir, tiny)
    if workload == "verify-maps":
        return verify_ops(MAP_SUITES, (2, 3), seed, 20 if tiny else VERIFY_SAMPLES)
    raise ValueError(f"unknown workload {workload!r}")


def warmup(workload: str, seed: int, workdir: Path) -> Operation:
    """A small call of the same kind, run before timing starts."""
    if workload.startswith("propagate"):
        rng = np.random.default_rng([seed, 3])
        orbit = orbit_from_elements(rng, 2, -0.5, 0.3, 1.0)
        times = np.linspace(0.0, 1.0, 5)
        mode = "regularized" if workload == "propagate-regularized" else "direct"
        dt = DIRECT_DT if mode == "direct" else None
        return _propagate_op("warmup", workdir, orbit, mode, 1.0, times, False, dt=dt)
    return verify_ops(("ls-roundtrip",), (2,), seed, 10)[0]
