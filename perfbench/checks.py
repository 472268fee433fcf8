"""Output checks, run outside the timed region.

Every tolerance here is also recorded, with its derivation, in
``perfbench/spec.json``.
"""

from __future__ import annotations

import math

import numpy as np

from workloads import DIRECT_DT, Operation, Orbit

# Relative drift allowed in H, L_ij and K_i between a row and the t = 0 row,
# as a share of the magnitude of the terms each is computed from.  It is the
# library's documented map round-trip contract (README: "~1e-10 contract,
# ~1e-14 typical"); seed 0 shows at most 3e-14.
INVARIANT_TOL = 1e-10

# Each non-collision row's q and p must match the closed-form Kepler
# solution.  An error dM in the mean anomaly moves a point by at most
# a kappa dM in q and 2 kappa^3 dM / sqrt(a) in p, with
# kappa = 1 / (1 - e cos E) the conditioning of Kepler's equation at the
# row; dM may be the library's round-trip contract (1e-10) plus the phase
# drift that a relative error of 1e-10 in H causes, 1.5e-10 per radian
# of mean motion.  Seeds 1 and 2 show at most 1.4e-4 of this tolerance.
PHASE_TOL = 1e-10

# Collision instants are computed in closed form from the orbit; a
# grid time within this share of the period of one counts as a hit.
COLLISION_TIME_TOL = 1e-9

# Leapfrog is second order: in units of the perihelion r_p and the local
# free-fall time tau = r_p^1.5, the error of q / r_p and p sqrt(r_p) is
# C (dt / tau)^2 (1 + t / tau).  Seeds 0-2 show C <= 0.49; 10x margin.
DIRECT_ERROR_C = 5.0


def _rows(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.splitlines() or [""]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _header(n: int) -> list[str]:
    cols = ["t"] + [f"q{i + 1}" for i in range(n)] + [f"p{i + 1}" for i in range(n)] + ["H"]
    cols += [f"L{i + 1}{j + 1}" for i in range(n) for j in range(i + 1, n)]
    return cols + [f"K{i + 1}" for i in range(n)] + ["Knorm", "flag"]


def _state(cells: list[str], n: int) -> tuple[np.ndarray, np.ndarray]:
    return (
        np.array([float(c) for c in cells[1 : 1 + n]]),
        np.array([float(c) for c in cells[1 + n : 1 + 2 * n]]),
    )


def _invariants(cells: list[str], n: int) -> np.ndarray:
    pairs = n * (n - 1) // 2
    return np.array([float(c) for c in cells[1 + 2 * n : 2 + 2 * n + pairs + n]])


def _magnitudes(cells: list[str], n: int) -> np.ndarray:
    """Per-column size of the terms H, each L_ij and each K_i are built from."""
    q, p = _state(cells, n)
    r = float(np.linalg.norm(q))
    p2 = float(p @ p)
    pairs = n * (n - 1) // 2
    return np.array([0.5 * p2 + 1.0 / r] + [r * math.sqrt(p2)] * pairs + [2.0 * r * p2 + 1.0] * n)


def _common(op: Operation, text: str) -> tuple[list[list[str]], int]:
    """Rows of the CSV, and the count of rows that fail the shape checks."""
    n = op.orbit.n
    header, rows = _rows(text)
    if header != _header(n) or len(rows) != op.rows:
        return rows, op.rows
    bad = 0
    for cells, t in zip(rows, op.times):
        if len(cells) != len(header) or float(cells[0]) != float(t):
            bad += 1
    return rows, bad


def _kepler_failures(orbit: Orbit, times: np.ndarray, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Rows whose q or p is off the closed-form Kepler solution by more
    than the conditioning-scaled PHASE_TOL."""
    anomaly = orbit.anomaly_at(times)
    q_ref, p_ref = orbit.state(anomaly)
    kappa = 1.0 / (1.0 - orbit.ecc * np.cos(anomaly))
    phase = PHASE_TOL * (1.0 + 1.5 * np.abs(times) * orbit.a**-1.5)
    q_err = np.max(np.abs(q - q_ref), axis=1)
    p_err = np.max(np.abs(p - p_ref), axis=1)
    return (q_err > orbit.a * kappa * phase) | (p_err > 2.0 * kappa**3 * phase / math.sqrt(orbit.a))


def check_regularized(op: Operation, text: str) -> int:
    """Failed rows of one regularized scenario.

    Each non-collision row matches the closed-form Kepler solution; H,
    every L_ij and every K_i match the t = 0 row; and collision rows appear
    exactly at the collision instants of radial orbits.
    """
    rows, bad = _common(op, text)
    if bad:
        return bad
    orbit = op.orbit
    n = orbit.n
    base = _invariants(rows[0], n)
    base_mag = _magnitudes(rows[0], n)
    period = orbit.period
    failed = np.zeros(len(rows), dtype=bool)
    phase_rows = []
    for k, (cells, t) in enumerate(zip(rows, op.times)):
        at_collision = any(
            abs(float(t) - hit) <= COLLISION_TIME_TOL * period for hit in op.collision_times
        )
        is_collision = cells[-1] == "collision"
        if is_collision != at_collision:
            failed[k] = True
            continue
        mag = base_mag if is_collision else np.maximum(base_mag, _magnitudes(cells, n))
        drift = np.abs(_invariants(cells, n) - base)
        failed[k] = not np.all(drift <= INVARIANT_TOL * mag)
        if not is_collision:
            phase_rows.append(k)
    if phase_rows:
        states = [_state(rows[k], n) for k in phase_rows]
        q = np.array([s[0] for s in states])
        p = np.array([s[1] for s in states])
        failed[phase_rows] |= _kepler_failures(orbit, op.times[phase_rows], q, p)
    return int(np.count_nonzero(failed))


def check_direct(op: Operation, text: str, reference) -> int:
    """Failed rows of one direct scenario, against ``reference(q0, p0, t)``
    (the library's regularized propagation) within the leapfrog bound."""
    rows, bad = _common(op, text)
    if bad:
        return bad
    n = op.orbit.n
    q0, p0 = op.orbit.q, op.orbit.p
    perihelion = op.orbit.a * (1.0 - op.orbit.ecc)
    tau = perihelion**1.5
    failed = 0
    for cells, t in zip(rows, op.times):
        q, p = _state(cells, n)
        if t == 0.0:
            ok = np.array_equal(q, q0) and np.array_equal(p, p0)
        else:
            ref = reference(q0, p0, float(t))
            err = max(
                float(np.max(np.abs(q - ref[0]))) / perihelion,
                float(np.max(np.abs(p - ref[1]))) * math.sqrt(perihelion),
            )
            ok = err <= DIRECT_ERROR_C * (DIRECT_DT / tau) ** 2 * (1.0 + float(t) / tau)
        failed += not ok
    return failed


def check_verify(op: Operation, code: int, out: str) -> int:
    """1 if the suite call failed: nonzero exit or a report line not ``pass``."""
    lines = out.strip().splitlines()
    ok = code == 0 and len(lines) == 1
    ok = ok and lines[0].startswith(op.suite + ",") and lines[0].endswith(",pass")
    return 0 if ok else 1
