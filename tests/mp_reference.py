"""Extended-precision reference for the canonicity criterion.

mpmath transcriptions, at 30 significant digits, of the closed-form
formulas stated in the docstrings of ``keplerreg.stereo.to_sphere``,
``keplerreg.moser.moser_map`` and ``keplerreg.ligonschaaf.ls_map`` (the
latter through ``keplerreg.moser.moser_fibration``), on flat vectors
ordered (positions..., momenta...).  Alongside them, a central-difference
Jacobian on the stencil of ``keplerreg.harness.jacobian`` whose stencil
values are kept to 30 digits instead of being rounded to double, and the
symplectic defect of that Jacobian.  ``ls_map`` also gives, under
``mpmath.workdps(50)``, the exact forward images that the near-parabolic
test of ``ls_inverse`` in ``tests/test_ligonschaaf.py`` inverts.

Nothing here imports keplerreg, so the reference does not share code with
the maps it is used to check.
"""

from __future__ import annotations

from typing import Callable

import mpmath
import numpy as np

DPS = 30


def to_sphere(z, n):
    """(x, y) -> (u, v):  u_k = 2 x_k / (x^2 + 1),  u_(n+1) = (x^2 - 1) / (x^2 + 1),
    v_k = (x^2 + 1) y_k / 2 - (x.y) x_k,  v_(n+1) = x.y."""
    x, y = z[:n], z[n:]
    x2 = mpmath.fdot(x, x)
    xy = mpmath.fdot(x, y)
    denom = x2 + 1
    u = [2 * xk / denom for xk in x] + [(x2 - 1) / denom]
    v = [denom * yk / 2 - xy * xk for xk, yk in zip(x, y)] + [xy]
    return u + v


def moser_map(z, n):
    """(q, p) -> (u, v):  u = (2p/(p^2+1), 2p^2/(p^2+1) - 1),
    v = (-(p^2+1) q/2 + (q.p) p, -q.p)."""
    q, p = z[:n], z[n:]
    p2 = mpmath.fdot(p, p)
    qp = mpmath.fdot(q, p)
    denom = p2 + 1
    u = [2 * pk / denom for pk in p] + [2 * p2 / denom - 1]
    v = [-denom * qk / 2 + qp * pk for qk, pk in zip(q, p)] + [-qp]
    return u + v


def ls_map(z, n):
    """(q, p) -> (r, s), the Ligon-Schaaf map.

    Moser fibration with rho = |q|, w = sqrt(-2H), H = p^2/2 - 1/|q|:
    u = (w rho p, rho p^2 - 1),  v = (-q/rho + (q.p) p, -w (q.p));
    then with theta = v_(n+1):
    r = cos(theta) u + sin(theta) v,  s = (-sin(theta) u + cos(theta) v) / w.
    """
    q, p = z[:n], z[n:]
    radius = mpmath.sqrt(mpmath.fdot(q, q))
    p2 = mpmath.fdot(p, p)
    qp = mpmath.fdot(q, p)
    w = mpmath.sqrt(-2 * (p2 / 2 - 1 / radius))
    u = [w * radius * pk for pk in p] + [radius * p2 - 1]
    v = [-qk / radius + qp * pk for qk, pk in zip(q, p)] + [-w * qp]
    theta = v[-1]
    cos_t = mpmath.cos(theta)
    sin_t = mpmath.sin(theta)
    r = [cos_t * a + sin_t * b for a, b in zip(u, v)]
    s = [(-sin_t * a + cos_t * b) / w for a, b in zip(u, v)]
    return r + s


def stencil(z: np.ndarray, h: float) -> list[tuple[np.ndarray, np.ndarray, float]]:
    """The stencil points z +- h e_k and spans, formed in double exactly as
    ``keplerreg.harness.jacobian`` forms them."""
    out = []
    for k in range(z.size):
        z_plus = z.copy()
        z_plus[k] = z[k] + h
        z_minus = z.copy()
        z_minus[k] = z[k] - h
        out.append((z_plus, z_minus, float(z_plus[k] - z_minus[k])))
    return out


def evaluate(ref_map: Callable[[list, int], list], n: int, point: np.ndarray) -> list:
    """ref_map at a double point, read exactly, to DPS digits."""
    with mpmath.workdps(DPS):
        return ref_map([mpmath.mpf(float(c)) for c in point], n)


def central_column(f_plus: list, f_minus: list, span: float) -> list:
    """(f_plus - f_minus) / span with the stencil values kept exact to DPS digits."""
    with mpmath.workdps(DPS):
        return [(a - b) / span for a, b in zip(f_plus, f_minus)]


def symplectic_defect(columns: list[list]) -> float:
    """Max-norm of J^T Omega J - Omega for the Jacobian with these columns.

    Omega is the standard form pairing position k with momentum k on both
    sides.  Entry (a, b) of J^T Omega J is the Lagrange bracket
    sum_i (J[i, a] J[m+i, b] - J[m+i, a] J[i, b]), m = rows / 2; it is
    antisymmetric term by term, so the entries with a < b give the max.
    """
    cols = len(columns)
    m = len(columns[0]) // 2
    worst = mpmath.mpf(0)
    with mpmath.workdps(DPS):
        for a in range(cols):
            ja = columns[a]
            for b in range(a + 1, cols):
                jb = columns[b]
                bracket = mpmath.fsum(
                    ja[i] * jb[m + i] - ja[m + i] * jb[i] for i in range(m)
                )
                if b == a + cols // 2:
                    bracket -= 1
                worst = max(worst, abs(bracket))
    return float(worst)


def abs_error(observed: np.ndarray, reference: list) -> float:
    """Max absolute difference between double outputs and the reference."""
    with mpmath.workdps(DPS):
        return float(max(abs(mpmath.mpf(float(a)) - b) for a, b in zip(observed, reference)))
