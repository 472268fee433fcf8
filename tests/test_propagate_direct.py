"""CLI direct propagation steps each output interval through the leapfrog's
one step rule.  These tests hold its CSV bytes and its error lines to the
path it replaced, one ``kepler_integrate`` call per interval, written out
here as the reference."""

import warnings

import numpy as np
import pytest

from keplerreg import CollisionApproachError, PhasePoint, kepler_integrate
from keplerreg.cli import _csv_header, _csv_rows, main, parse_scenario
from keplerreg.kernels import _integral_rows

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
    # ... and inside the closing step 0.04 of the interval (0.75, 1]
    "collision-closing-step": ("t_end = 1.5\ndt = 0.07\noutput_count = 7", _FALLS),
}


def old_direct_text(scenario) -> str:
    """The CSV text of a direct scenario as one kepler_integrate call per
    output interval produced it, keeping each call's end state."""
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
