"""CLI regularized propagation evaluates each scenario as one batch, through
the row kernels of the Delaunay flow and the Ligon-Schaaf inverse.  These
tests hold the batch to the per-row computation it replaced, bit for bit."""

import math

import numpy as np
import pytest

from keplerreg import (
    DomainError,
    PhasePoint,
    PunctureError,
    SphereCotangentPoint,
    angular_momentum,
    delaunay_energy,
    delaunay_flow,
    kepler_energy,
    lenz_vector,
    ls_inverse,
    ls_map,
    sample_bound_states,
    sphere_momentum,
)
from keplerreg.cli import main, parse_scenario
from keplerreg.dynamics import _delaunay_flow_rows
from keplerreg.ligonschaaf import _ls_inverse_rows, _solve_rotation_angle


def _row(t, n, coords, energy, mom, lenz, flag):
    cells = [t] + ([] if coords is None else list(coords)) + [energy]
    cells += [mom.entry(i, j) for i in range(n) for j in range(i + 1, n)]
    cells += list(lenz) + [np.linalg.norm(lenz)]
    text = [f"{float(c):.17g}" for c in cells]
    if coords is None:
        text[1:1] = [""] * (2 * n)
    return ",".join(text + [flag])


def oracle_rows(scenario) -> list[str]:
    """The rows of a regularized scenario, computed one output time at a
    time through the public scalar functions."""
    n = scenario.n
    start = PhasePoint(scenario.q, scenario.p)
    sphere_start = ls_map(start)

    def phase_row(t, pt):
        coords = (*pt.q, *pt.p)
        return _row(t, n, coords, kepler_energy(pt), angular_momentum(pt), lenz_vector(pt), "")

    def collision_row(t, sp):
        energy = delaunay_energy(sp)
        mom = sphere_momentum(sp)
        lenz = [mom.entry(i, n) * math.sqrt(-2.0 * energy) for i in range(n)]
        return _row(t, n, None, energy, mom, np.array(lenz), "collision")

    rows = []
    for t in scenario.times():
        t = float(t)
        if t == 0.0:
            rows.append(phase_row(t, start))
            continue
        sp_t = delaunay_flow(sphere_start, t)
        if sp_t.at_puncture:
            rows.append(collision_row(t, sp_t))
            continue
        try:
            rows.append(phase_row(t, ls_inverse(sp_t)))
        except PunctureError:
            rows.append(collision_row(t, sp_t))
    return rows


def _vec(values) -> str:
    return ",".join(repr(float(c)) for c in values)


def _unit(n: int) -> np.ndarray:
    q = np.arange(1.0, n + 1.0)
    return q / np.linalg.norm(q)


def _radial(n: int) -> str:
    # From rest at |q| = 1: H = -1, collisions at t_c + k pi / sqrt(2).
    t_c = math.pi / (2.0 * math.sqrt(2.0))
    times = [0.0, 0.3, t_c, 2.0, t_c + math.pi / math.sqrt(2.0), 4.5]
    return (
        f"n = {n}\nq = {_vec(_unit(n))}\np = {_vec(np.zeros(n))}\nt_end = 4.5\n"
        f"mode = regularized\noutput_times = {_vec(times)}\n"
    )


def _near_parabolic(n: int) -> str:
    # |q| = 1 and H = -1e-6; for n = 1 the orbit is radial.
    p = np.zeros(n)
    p[0] = 0.3 if n > 1 else math.sqrt(2.0 * (1.0 - 1e-6))
    if n > 1:
        p[1] = math.sqrt(2.0 * (1.0 - 1e-6) - 0.09)
    q = np.zeros(n)
    q[0] = 1.0
    return (
        f"n = {n}\nq = {_vec(q)}\np = {_vec(p)}\nt_end = 3e9\n"
        f"mode = regularized\noutput_count = 300\n"
    )


def _planar(n: int) -> str:
    # A bound orbit in the (q1, q2) plane: for n >= 3 the other L_ij and K_i
    # are signed zeros, 0 or -0 by the signs of q1, q2, p1 and p2 along it.
    q, p = np.zeros(n), np.zeros(n)
    q[0], p[0] = 1.0, 0.3
    if n > 1:
        p[1] = 1.1
    return (
        f"n = {n}\nq = {_vec(q)}\np = {_vec(p)}\nt_end = 12\n"
        f"mode = regularized\noutput_count = 50\n"
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", [_radial, _near_parabolic, _planar])
def test_cli_matches_per_row_oracle(kind, n, tmp_path, capsys):
    text = kind(n)
    scn = tmp_path / "s.scn"
    scn.write_text(text)
    assert main(["propagate", str(scn)]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert rows == oracle_rows(parse_scenario(text))
    if kind is _radial:
        assert sum(row.endswith(",collision") for row in rows) == 2
    if kind is _planar and n >= 3:
        integral_cells = {cell for row in rows for cell in row.split(",")[1 + 2 * n : -1]}
        assert {"0", "-0"} <= integral_cells


def _skew(n: int) -> str:
    # A bound orbit whose L_ij and K_i are nonzero and distinct for n >= 2.
    q, p = np.array([1.0, 0.2, -0.3, 0.1])[:n], np.array([0.1, 0.8, 0.25, -0.4])[:n]
    return (
        f"n = {n}\nq = {_vec(q)}\np = {_vec(p)}\nt_end = 20\n"
        f"mode = regularized\noutput_count = 40\n"
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", [_radial, _skew])
def test_header_names_each_column(kind, n, tmp_path, capsys):
    """Each cell under H, L{i}{j}, K{i} and Knorm is that quantity of the row's
    printed q and p, by plain numpy formulas; a collision row prints 2n empty cells."""
    scn = tmp_path / "s.scn"
    scn.write_text(kind(n))
    assert main(["propagate", str(scn)]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    names = header.split(",")
    phase_names = [f"{x}{i + 1}" for x in "qp" for i in range(n)]
    assert len(set(names)) == len(names)
    collisions = 0
    for row in rows:
        cells = row.split(",")
        assert len(cells) == len(names)
        cells = dict(zip(names, cells))
        if cells["flag"] == "collision":
            assert [cells[name] for name in phase_names] == [""] * (2 * n)
            collisions += 1
            continue
        assert cells["flag"] == ""
        q, p = np.split(np.array([float(cells[name]) for name in phase_names]), 2)
        inverse_radius = 1.0 / np.sqrt(q @ q)
        lenz = (p @ p - inverse_radius) * q - (q @ p) * p
        expected = {"H": 0.5 * (p @ p) - inverse_radius, "Knorm": np.sqrt(lenz @ lenz)}
        for i in range(n):
            expected[f"K{i + 1}"] = lenz[i]
            for j in range(i + 1, n):
                expected[f"L{i + 1}{j + 1}"] = q[i] * p[j] - q[j] * p[i]
        assert set(names) == {"t", *phase_names, *expected, "flag"}
        for name, value in expected.items():
            assert abs(float(cells[name]) - value) <= 1e-12, (name, row)
    assert collisions == (2 if kind is _radial else 0)


def _sphere_rows(n: int, seed: int):
    sps = [ls_map(pt) for pt in sample_bound_states(n, 150, seed)]
    return sps, np.stack([sp.u for sp in sps]), np.stack([sp.v for sp in sps])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_flow_rows_equal_wrapper(n):
    sps, u, v = _sphere_rows(n, 11)
    t = np.linspace(-3.0, 40.0, len(sps))
    u_t, v_t, at_puncture = _delaunay_flow_rows(u, v, t)
    for k, sp in enumerate(sps):
        one = delaunay_flow(sp, float(t[k]))
        assert one.u.tobytes() == u_t[k].tobytes()
        assert one.v.tobytes() == v_t[k].tobytes()
        assert one.at_puncture == at_puncture[k]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_inverse_rows_equal_wrapper(n):
    sps, u, v = _sphere_rows(n, 12)
    q, p, puncture = _ls_inverse_rows(u, v)
    assert not puncture.any()
    for k, sp in enumerate(sps):
        one = ls_inverse(sp)
        assert one.q.tobytes() == q[k].tobytes()
        assert one.p.tobytes() == p[k].tobytes()


def _same_error(batch, single):
    with pytest.raises(DomainError) as from_batch:
        batch()
    with pytest.raises(DomainError) as from_single:
        single()
    assert type(from_batch.value) is type(from_single.value)
    assert str(from_batch.value) == str(from_single.value)


def test_zero_covector_row_raises_as_wrapper():
    sps, u, v = _sphere_rows(2, 13)
    v[7] = 0.0
    bad = SphereCotangentPoint(u[7], v[7])
    _same_error(lambda: _ls_inverse_rows(u, v), lambda: ls_inverse(bad))
    _same_error(lambda: _delaunay_flow_rows(u, v, np.ones(len(u))), lambda: delaunay_flow(bad, 1.0))


def test_off_constraint_row_raises_as_value_object():
    sps, u, v = _sphere_rows(3, 14)
    u[5] *= 1.0 + 1e-8
    _same_error(lambda: _ls_inverse_rows(u, v), lambda: SphereCotangentPoint(u[5], v[5]))
    _same_error(
        lambda: _delaunay_flow_rows(u, v, np.ones(len(u))),
        lambda: SphereCotangentPoint(u[5], v[5]),
    )
    u[5] /= 1.0 + 1e-8
    v[9] += 1e-8 * u[9]
    _same_error(lambda: _ls_inverse_rows(u, v), lambda: SphereCotangentPoint(u[9], v[9]))


def test_unsolvable_angle_row_raises():
    # e = hypot(3, 0) = 3 > sqrt(2): theta = 0 has zero residual there, but
    # no point of T*S^n gives such a row.
    r_last, s_last = np.array([0.2, -0.5, 3.0]), np.array([0.1, 0.4, 0.0])
    assert np.all(np.isfinite(_solve_rotation_angle(r_last[:2], s_last[:2])))
    with pytest.raises(DomainError, match="rotation angle unsolved at e = 3"):
        _solve_rotation_angle(r_last, s_last)


def test_puncture_row_goes_to_the_mask():
    sps, u, v = _sphere_rows(2, 15)
    pole = SphereCotangentPoint([0, 0, 1], [-0.5, 0, 0])
    with pytest.raises(PunctureError):
        ls_inverse(pole)
    u[3], v[3] = pole.u, pole.v
    q, p, puncture = _ls_inverse_rows(u, v)
    assert puncture.tolist() == [k == 3 for k in range(len(u))]
    assert np.isnan(q[3]).all() and np.isnan(p[3]).all()
    for k in (2, 4):
        assert ls_inverse(sps[k]).q.tobytes() == q[k].tobytes()


def test_point_constructions_do_not_grow_with_rows(tmp_path, monkeypatch):
    calls = []
    original = PhasePoint.__init__

    def counting(self, *args, **kwargs):
        calls.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(PhasePoint, "__init__", counting)
    counts = []
    for rows in (10, 1000):
        scn = tmp_path / f"rows{rows}.scn"
        scn.write_text(
            "n = 3\nq = 1.2,0.1,-0.3\np = 0.2,0.7,0.1\nt_end = 40\nmode = regularized\n"
            f"output_count = {rows}\n"
        )
        calls.clear()
        assert main(["propagate", str(scn), "--out", str(tmp_path / "out.csv")]) == 0
        counts.append(len(calls))
    assert counts[0] == counts[1]
