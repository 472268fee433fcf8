"""The leapfrog against a textbook kick-drift-kick loop written out here,
compared bit for bit: same states at every checkpoint, same collision step,
and the caller's lists left alone.  The textbook spells out its own
arithmetic: q.q adds the squares at the even indices, then those at the odd
ones, and the power is np.float_power, the C library's pow, so the bits it
pins do not depend on numpy's SIMD kernels."""

import linecache
import math
import traceback

import numpy as np
import pytest

from keplerreg import CollisionApproachError, kepler_integrate
from keplerreg.dynamics import _leapfrog, _rendered


def _force(q):
    """-q (q.q)^-1.5 and q.q of rows (m, n)."""
    even, odd = np.zeros(len(q)), np.zeros(len(q))
    for k in range(0, q.shape[1], 2):
        even = even + q[:, k] * q[:, k]
    for k in range(1, q.shape[1], 2):
        odd = odd + q[:, k] * q[:, k]
    r2 = even + odd
    return -q * np.float_power(r2, -1.5)[:, None], r2


def textbook_leapfrog(q, p, dt, steps):
    """States (q, p) of rows (m, n) after each step count in ``steps``, and
    the first step count at which some row has |q|^3 < 10 dt^2 (None if the
    guard never fires)."""
    floor_r2 = (10.0 * dt * dt) ** (2.0 / 3.0)
    a, r2 = _force(q)
    states = []
    for k in range(max(steps) + 1):
        if np.any(r2 < floor_r2):
            return states, k
        if k in steps:
            states.append((q, p))
        p_half = p + 0.5 * dt * a
        q = q + dt * p_half
        a, r2 = _force(q)
        p = p_half + 0.5 * dt * a
    return states, None


def _safe_rows(n, rows, seed):
    """Rows with |q| in [1, 2] and |p_i| <= 0.5: no row comes near the
    collision set within t = 0.3."""
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal((rows, n))
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    return direction * rng.uniform(1.0, 2.0, (rows, 1)), rng.uniform(-0.5, 0.5, (rows, n))


@pytest.mark.parametrize("rows", [1, 500])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_matches_textbook_loop_bit_for_bit(n, rows):
    qs, ps = _safe_rows(n, rows, 100 * n + rows)
    dt, steps = 1e-3, [0, 1, 7, 50, 200]
    expected, fell = textbook_leapfrog(qs, ps, dt, steps)
    assert fell is None
    # a shorter closing step, as kepler_integrate takes off the dt grid
    ((q_close, p_close),), _ = textbook_leapfrog(*expected[-1], 0.4e-3, [1])
    for k in range(rows):
        states = _leapfrog(qs[k].tolist(), ps[k].tolist(), dt, steps)
        for (q, p), (q_ref, p_ref) in zip(states, expected, strict=True):
            assert q == q_ref[k].tolist() and p == p_ref[k].tolist()
        ((q, p),) = _leapfrog(*states[-1], 0.4e-3, [1])
        assert q == q_close[k].tolist() and p == p_close[k].tolist()


def test_checkpoints_are_copies_and_inputs_unchanged():
    qs, ps = _safe_rows(3, 1, 5)
    q_in, p_in = qs[0].tolist(), ps[0].tolist()
    q, p = list(q_in), list(p_in)
    states = _leapfrog(q, p, 1e-3, [0, 3, 3, 9])
    assert q == q_in and p == p_in
    assert states[0] == (q_in, p_in) and states[1] == states[2]
    lists = [q, p] + [a for state in states for a in state]
    for k, a in enumerate(lists):
        assert not any(a is b for b in lists[k + 1:])


def test_rectilinear_fall_stops_at_the_textbook_step(rectilinear):
    dt = 1e-4
    q, p = rectilinear.q[None], rectilinear.p[None]
    _, fell = textbook_leapfrog(q, p, dt, [15_000])
    assert fell is not None and fell * dt < 1.2
    with pytest.raises(CollisionApproachError) as info:
        kepler_integrate(rectilinear, 1.5, dt)
    assert info.value.t == fell * dt


def test_falling_row_137_stops_at_the_textbook_step():
    # 499 near-circular orbits (eccentricity <= 0.44) and one radial fall at row 137
    rng = np.random.default_rng(3)
    radius = rng.uniform(1.0, 2.0, (500, 1))
    angle = rng.uniform(0.0, 2.0 * math.pi, (500, 1))
    qs = np.hstack([radius * np.cos(angle), radius * np.sin(angle), np.zeros((500, 1))])
    speed = rng.uniform(0.8, 1.2, (500, 1)) / np.sqrt(radius)
    ps = np.hstack([-speed * np.sin(angle), speed * np.cos(angle), np.zeros((500, 1))])
    qs[137], ps[137] = (1.0, 0.0, 0.0), (0.0, 0.0, 0.0)
    dt = 1e-3
    _, fell = textbook_leapfrog(qs[137:138], ps[137:138], dt, [2000])
    _, none_fell = textbook_leapfrog(np.delete(qs, 137, 0), np.delete(ps, 137, 0), dt, [2000])
    assert fell is not None and none_fell is None
    with pytest.raises(CollisionApproachError) as info:
        _leapfrog(qs[137].tolist(), ps[137].tolist(), dt, [500, 2000])
    assert info.value.t == fell * dt


def test_body_is_rendered_once_per_dimension():
    codes = set()
    for n in range(1, 7):
        q, p = [1.0] + [0.5] * (n - 1), [0.0] * n
        _leapfrog(q, p, 1e-3, [2])
        _rendered(n)[0](q, 1.0)
        force, leapfrog = _rendered(n)
        _leapfrog(q, p, 1e-3, [3])
        _rendered(n)[0](q, 0.5)
        assert _rendered(n) == (force, leapfrog)
        assert leapfrog.__code__.co_filename == f"<leapfrog n={n}>"
        codes |= {force.__code__, leapfrog.__code__}
    assert len(codes) == 12


def test_rendered_lines_are_in_linecache():
    force, _ = _rendered(3)
    # the force line is the first line of the force function's body after the unpacking
    line = linecache.getline("<leapfrog n=3>", force.__code__.co_firstlineno + 2)
    assert line.strip().startswith("r2 = (q0 * q0 + q2 * q2) + (q1 * q1); f = -(r2 ** -1.5);")
    # a collision traceback shows the generated guard line
    try:
        _leapfrog([1e-3, 0.0, 0.0], [0.0, 0.0, 0.0], 1e-3, [5])
    except CollisionApproachError as exc:
        frames = traceback.extract_tb(exc.__traceback__)
    assert frames[-1].filename == "<leapfrog n=3>"
    assert frames[-1].line == "raise CollisionApproachError(0.0)"
