"""CLI direct propagation steps each output interval through the leapfrog's
one step rule.  These tests hold its CSV bytes and its error lines to the
path it replaced, one ``kepler_integrate`` call per interval, written out
here as the reference, and its q and p cells to the textbook leapfrog loop."""

import math
import warnings

import numpy as np
import pytest

from keplerreg import CollisionApproachError, PhasePoint, kepler_integrate
from keplerreg.cli import _csv_header, _csv_rows, main, parse_scenario
from keplerreg.kernels import _integral_rows
from test_leapfrog_reference import textbook_leapfrog

# (q, p) per dimension: bound orbits that stay clear of the collision
# guard up to t = 2, and a radial fall from rest that reaches q = 0 at
# t = pi / (2 sqrt 2) ~ 1.1107.
_ORBITS = {
    1: ("1", "1.3"),
    2: ("1,0.1", "0.1,0.9"),
    3: ("1.2,0.1,-0.3", "0.2,0.7,0.1"),
}
_FALLS = {1: ("1", "0"), 2: ("1,0", "0,0"), 3: ("1,0,0", "0,0,0")}

# name -> (scenario lines after q and p, orbit or fall)
_CASES = {
    # intervals of 0.25 are five steps of 0.05 with no closing step
    "grid-no-closing": ("t_end = 1\ndt = 0.05\noutput_count = 5", _ORBITS),
    # intervals of 0.25 are eight steps of 0.03 and a closing step of 0.01
    "grid-closing": ("t_end = 1\ndt = 0.03\noutput_count = 5", _ORBITS),
    "grid-fine": ("t_end = 2\ndt = 0.001\noutput_count = 37", _ORBITS),
    # 1e-14 is below 1e-12 dt: no step at all for the first two intervals
    "below-step-rule": ("t_end = 1\ndt = 0.1\noutput_times = 0,1e-14,2e-14,0.5,1", _ORBITS),
    "times-off-zero": ("t_end = 2\ndt = 0.003\noutput_times = 0.25,0.7,1.3,2", _ORBITS),
    # the guard fires inside a full step of dt ...
    "collision-full-step": ("t_end = 1.5\ndt = 0.0001\noutput_count = 4", _FALLS),
    # ... and at the opening check of (1, 1.25]: the closing step 0.04 of
    # (0.75, 1] passes under the smaller guard radius of its own step
    "collision-closing-step": ("t_end = 1.5\ndt = 0.07\noutput_count = 7", _FALLS),
}


def old_direct_text(scenario) -> str:
    """The CSV text of a direct scenario as one kepler_integrate call per
    output interval produced it, keeping each call's end state.  It shares
    the CLI's step body, so it pins the step rule (step counts, closing
    steps, collision times) and the row format, not the arithmetic inside a
    step; test_rows_are_the_textbook_loop pins that."""
    state, now, states = PhasePoint(scenario.q, scenario.p), 0.0, []
    times = scenario.times()
    for t in times.tolist():
        if t != 0.0:
            try:
                traj = kepler_integrate(state, t - now, scenario.dt, record_every=10**9)
            except CollisionApproachError as exc:
                raise CollisionApproachError(now + exc.t) from None
            state, now = traj.end, t
        states.append(state)
    q, p = np.array([s.q for s in states]), np.array([s.p for s in states])
    rows = _csv_rows(times, q, p, _integral_rows(q, p), np.zeros(times.size, dtype=bool))
    return "\n".join([_csv_header(scenario.n)] + rows) + "\n"


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("case", list(_CASES))
def test_bytes_match_one_kepler_integrate_per_interval(case, n, tmp_path, capsys):
    lines, orbits = _CASES[case]
    q, p = orbits[n]
    text = f"n = {n}\nq = {q}\np = {p}\nmode = direct\n{lines}\n"
    scenario = parse_scenario(text)
    path = tmp_path / f"{case}.scn"
    path.write_text(text)
    code = main(["propagate", str(path)])
    out, err = capsys.readouterr()
    if case.startswith("collision"):
        with pytest.raises(CollisionApproachError) as info:
            old_direct_text(scenario)
        assert (code, out) == (3, "")
        assert err == f"error: propagation failed for {path}: {info.value}\n"
        # a closing-step collision is reported at the interval's end, an output time
        closing = info.value.t in scenario.times().tolist()
        assert closing == (case == "collision-closing-step")
    else:
        assert (code, err) == (0, "")
        assert out == old_direct_text(scenario)


@pytest.mark.parametrize("q", ["0,0", "1e-200,0", "1e-120,0"])
def test_start_at_the_collision_set_exits_3(q, tmp_path, capsys):
    # q.q is 0 (1e-200 squared underflows) or (q.q)^-1.5 overflows
    path = tmp_path / "zero.scn"
    path.write_text(f"n = 2\nq = {q}\np = 0,1\nt_end = 1\ndt = 0.001\nmode = direct\n")
    code = main(["propagate", str(path)])
    _, err = capsys.readouterr()
    assert code == 3
    assert "collision approach at t = 0:" in err


def test_collision_in_a_closing_step_exits_3_at_the_output_time(tmp_path, capsys):
    # 1,109 whole steps of 1e-3 pass; the guard fires in the closing step
    path = tmp_path / "fall.scn"
    path.write_text(
        "n = 2\nq = 1,0\np = 0,0\nt_end = 1.1097\ndt = 1e-3\n"
        "output_times = 0,1.1097\nmode = direct\n"
    )
    code = main(["propagate", str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err.startswith(f"error: propagation failed for {path}: collision approach at t = 1.1097:")


def test_state_overflowing_mid_run_exits_3_without_warnings(tmp_path, capsys):
    # q stays finite through the first interval and overflows in the second
    path = tmp_path / "huge.scn"
    path.write_text("n = 2\nq = 1e300,0\np = 1e308,0\nt_end = 100\ndt = 10\nmode = direct\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["propagate", str(path)])
    out, err = capsys.readouterr()
    assert [str(w.message) for w in caught] == []
    assert (code, out) == (3, "")
    assert err == f"error: propagation failed for {path}: q must have finite entries\n"


def _cells(row: str, n: int) -> tuple[list[float], list[float]]:
    cells = [float(c) for c in row.split(",")[1 : 1 + 2 * n]]
    return cells[:n], cells[n:]


@pytest.mark.parametrize("n", [2, 3])
def test_rows_are_the_textbook_loop(n, tmp_path, capsys):
    # shaped like a benchmark scenario: dt = 1e-3, 60 rows up to t = 3.5
    q, p = _ORBITS[n]
    text = f"n = {n}\nq = {q}\np = {p}\nmode = direct\nt_end = 3.5\ndt = 0.001\noutput_count = 60\n"
    path = tmp_path / "bench.scn"
    path.write_text(text)
    assert main(["propagate", str(path)]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    scenario = parse_scenario(text)
    dt, times = scenario.dt, scenario.times().tolist()
    state, closings = (scenario.q[None], scenario.p[None]), 0
    assert _cells(rows[0], n) == (scenario.q.tolist(), scenario.p.tolist())
    for row, now, t in zip(rows[1:], times[:-1], times[1:], strict=True):
        # the step rule: floor(span/dt + 1e-12) steps of dt, then the rest if >= 1e-12 dt
        steps = math.floor((t - now) / dt + 1e-12)
        (state,), fell = textbook_leapfrog(*state, dt, [steps])
        assert fell is None
        rest = (t - now) - steps * dt
        if rest >= 1e-12 * dt:
            (state,), _ = textbook_leapfrog(*state, rest, [1])
            closings += 1
        assert _cells(row, n) == (state[0][0].tolist(), state[1][0].tolist())
    assert closings > 0


@pytest.mark.parametrize(
    ("q", "p", "times", "t_bad"),
    [
        # q and p are finite, but H = |p|^2 / 2 overflows, and K and |K| with it
        ("1e200,0", "1e160,0", "output_count = 3", "0"),
        # H and K are finite, |K| = |q| |p|^2 ~ 1e160 is too, but K.K overflows
        ("1e100,0", "0,1e30", "output_times = 0.25,1", "0.25"),
    ],
)
def test_overflowing_first_integrals_exit_3_without_warnings(q, p, times, t_bad, tmp_path, capsys):
    path = tmp_path / "huge.scn"
    path.write_text(f"n = 2\nq = {q}\np = {p}\ndt = 0.5\nt_end = 1\n{times}\nmode = direct\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["propagate", str(path)])
    out, err = capsys.readouterr()
    assert [str(w.message) for w in caught] == []
    assert (code, out) == (3, "")
    assert err == f"error: propagation failed for {path}: first integrals are not finite at t = {t_bad}\n"
