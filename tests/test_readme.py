"""README.md's examples run as written and its lists match the code."""

import contextlib
import io
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from keplerreg import cli, harness

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
EPS = float(np.finfo(float).eps)


def _block(before: str, language: str = "") -> str:
    """The first fenced code block after the line that ends in ``before``."""
    match = re.search(rf"{re.escape(before)}\n.*?^```{language}\n(.*?)^```$", README, re.M | re.S)
    assert match, f"no code block after {before!r}"
    return match[1]


def test_library_quickstart_does_what_its_comments_say():
    namespace: dict = {}
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(_block("## Library quickstart", "python"), namespace)
    kr, pt, out, sp = (namespace[name] for name in ("kr", "pt", "out", "sp"))
    # direct integration refuses to cross the collision, and says so
    assert "collision" in printed.getvalue()
    # back to the start
    assert np.max(np.abs(np.concatenate([out.q - pt.q, out.p - pt.p]))) <= 1e-14
    energy = kr.kepler_energy(pt)
    assert abs(kr.delaunay_energy(sp) - energy) <= 4 * EPS * abs(energy)
    assert np.array_equal(kr.sphere_momentum(sp).entries, kr.extended_momentum(pt).entries)


def _cli_examples(command: str) -> list[list[str]]:
    lines = _block("## CLI", "sh").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines
            if line.startswith(f"keplerreg {command} ")]


@pytest.mark.parametrize("argv", _cli_examples("map"), ids=" ".join)
def test_map_examples_exit_0(argv, capsys):
    assert cli.main(argv) == cli.EXIT_OK
    out, err = capsys.readouterr()
    assert err == "" and out.startswith(f"which = {argv[2]}\n")


def test_map_examples_are_the_two_documented():
    assert [argv[2] for argv in _cli_examples("map")] == ["ls", "ls-inverse"]


def test_suite_list_is_the_harness_list():
    count = len(harness.SUITE_NAMES)
    assert tuple(_block(f"The {count} suites:").split()) == harness.SUITE_NAMES
    assert re.search(rf"all {count}\s+verification suites", README)


def test_exit_codes_are_the_cli_codes():
    paragraph = re.search(r"^Exit codes: (.*?)\.?\n\n", README, re.M | re.S)[1]
    parts = (part.split(None, 1) for part in " ".join(paragraph.split()).split(", "))
    codes = {int(code): meaning for code, meaning in parts}
    assert sorted(codes) == [cli.EXIT_OK, cli.EXIT_INVALID, cli.EXIT_VERIFY_FAILED, cli.EXIT_NUMERIC]
    assert codes[cli.EXIT_OK] == "success"
    assert codes[cli.EXIT_INVALID] == "invalid input"
    assert codes[cli.EXIT_VERIFY_FAILED] == "verification failure"
    assert codes[cli.EXIT_NUMERIC].startswith("numeric or domain failure during propagation")


@pytest.mark.parametrize("suite", ["ls-equivariance", "so(n+1)-brackets", "lenz-brackets"])
def test_suites_said_to_report_exactly_0_at_n_1(suite):
    assert f"`{suite}`" in README.split("report exactly 0")[0].rsplit("At n = 1,", 1)[1]
    assert harness.run_suite(suite, 1, 40, 5).max_defect == 0.0


def test_verify_help_names_the_suites_readme_says_check_nothing_at_n_1(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "500")  # no help line wraps, so no name is split
    with pytest.raises(SystemExit):
        cli.main(["verify", "--help"])
    text = capsys.readouterr().out

    def named(where: str, quote: str = "") -> list[str]:
        return [name for name in harness.SUITE_NAMES if f"{quote}{name}{quote}" in where]

    helped = text.split("at n = 1,", 1)[1].split("report exactly 0")[0]
    said = README.split("report exactly 0")[0].rsplit("At n = 1,", 1)[1]
    assert named(helped) == named(said, "`")


def test_every_suite_draws_at_every_n_as_readme_says():
    # README names no n above which a suite gives up, and the canonicity
    # suites, the last to draw from a box, pass far above Tier-1's n
    assert "give up drawing" not in README
    said = re.search(r"Every suite draws its samples at every n: .*? the two canonicity\s+"
                     r"suites pass at n = (\d+) with (\d+) samples", README, re.S)
    assert (int(said[1]), int(said[2])) == (60, 5)
    for name in ("moser-symplectic", "ls-symplectic"):
        assert harness.run_suite(name, 60, 5, 42).passed


def test_ls_roundtrip_fails_at_n_1_where_readme_and_help_say(capsys, monkeypatch):
    said = re.search(r"`ls-roundtrip` fails at some seeds.*?seeds (\d+) and (\d+) of 0-99", README,
                     re.S)
    monkeypatch.setenv("COLUMNS", "500")
    with pytest.raises(SystemExit):
        cli.main(["verify", "--help"])
    helped = re.search(r"ls-roundtrip exceeds its absolute bound at seeds (\d+) and (\d+)",
                       capsys.readouterr().out)
    assert said.groups() == helped.groups()
    failing = {int(seed) for seed in said.groups()}
    for seed in sorted(failing | set(range(10))):
        assert harness.run_suite("ls-roundtrip", 1, 500, seed).passed == (seed not in failing)


def _tolerance_classes() -> list[tuple[float, str]]:
    """README's tolerance classes: each class's tolerance, evaluated at the
    harness's step, and the text of its item."""
    policy = README.split("one of six tolerances", 1)[1].split("\n- ", 1)[0]
    classes = []
    for item in policy.split("\n  - ")[1:]:
        expression = re.sub(r"(\d) (\w)", r"\1 * \2", item.split("`")[1]).replace("^", "**")
        classes.append((eval(expression, {"h": harness.FD_STEP, "eps": EPS}), item))
    return classes


@pytest.mark.parametrize("suite", harness.SUITE_NAMES)
def test_each_suite_is_listed_once_under_its_tolerance(suite):
    classes = _tolerance_classes()
    assert len(classes) == 6
    listed = [tolerance for tolerance, item in classes for _ in range(item.count(f"`{suite}`"))]
    tolerance = harness.suite_registry()[suite][0]
    assert len(listed) == 1 and math.isclose(listed[0], tolerance, rel_tol=1e-12)
