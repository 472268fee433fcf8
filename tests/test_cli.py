import errno
import math
import os

import numpy as np
import pytest

from keplerreg.cli import Scenario, main, parse_scenario
from keplerreg import DomainError, PhasePoint, delaunay_energy, harness, kepler_energy, moser_map


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_scenario(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


CIRCULAR_REG = """
n = 2
q = 1,0
p = 0,1
t_end = 6.283185307179586
mode = regularized
output_count = 100
"""

RECT_REG = """
n = 2
q = 1,0
p = 0,0
t_end = 2.2214414690791831
mode = regularized
output_times = 0,0.5,1.1107207345395915,1.7,2.2214414690791831
"""

RECT_DIRECT = """
n = 2
q = 1,0
p = 0,0
t_end = 1.5
dt = 0.0001
mode = direct
output_count = 4
"""

ECCENTRIC_REG = """
n = 3
q = 1.2,0.1,-0.3
p = 0.2,0.7,0.1
t_end = 12.0
mode = regularized
output_count = 60
"""


class TestMapCommand:
    def test_ls_forward(self, capsys):
        code, out, _ = run_cli(["map", "--which", "ls", "--q", "1,0", "--p", "0,1"], capsys)
        assert code == 0
        record = dict(line.split(" = ") for line in out.strip().splitlines())
        assert record["u"] == "0,1,0"
        assert record["v"] == "-1,0,0"
        assert float(record["H"]) == -0.5
        assert record["at_puncture"] == "false"

    def test_ls_inverse(self, capsys):
        code, out, _ = run_cli(
            ["map", "--which", "ls-inverse", "--u", "0,0,-1", "--v", "-0.70710678118654752,0,0"],
            capsys,
        )
        assert code == 0
        record = dict(line.split(" = ") for line in out.strip().splitlines())
        q = [float(c) for c in record["q"].split(",")]
        p = [float(c) for c in record["p"].split(",")]
        assert q == pytest.approx([1.0, 0.0], abs=1e-9)
        assert p == pytest.approx([0.0, 0.0], abs=1e-9)

    def test_collision_point_rejected(self, capsys):
        code, out, err = run_cli(["map", "--which", "ls", "--q", "0,0", "--p", "0,1"], capsys)
        assert code == 1
        assert "q must be nonzero" in err
        assert out == ""

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["fibration", "--q", "0,0", "--p", "1,0"], "q must be nonzero (collision point)"),
            (["ls", "--q", "1,0", "--p", "2,0"], "H must be negative for the fibration, got H = 1"),
        ],
    )
    def test_singular_set_errors_keep_their_text(self, capsys, argv, err):
        assert run_cli(["map", "--which", *argv], capsys) == (1, "", f"error: {err}\n")

    def test_missing_vectors(self, capsys):
        code, _, err = run_cli(["map", "--which", "moser"], capsys)
        assert code == 1
        assert "requires" in err

    def test_moser(self, capsys):
        q, p = "1.2,-0.3,0.4", "0.1,0.8,-0.2"
        code, out, err = run_cli(["map", "--which", "moser", "--q", q, "--p", p], capsys)
        assert (code, err) == (0, "")
        record = dict(line.split(" = ") for line in out.strip().splitlines())
        point = PhasePoint([float(c) for c in q.split(",")], [float(c) for c in p.split(",")])
        sp = moser_map(point)
        assert record["which"] == "moser"
        assert [float(c) for c in record["u"].split(",")] == sp.u.tolist()
        assert [float(c) for c in record["v"].split(",")] == sp.v.tolist()
        assert float(record["H"]) == kepler_energy(point)
        assert float(record["covector_norm"]) == sp.covector_norm
        assert float(record["delaunay_energy"]) == delaunay_energy(sp)
        assert record["at_puncture"] == ("true" if sp.at_puncture else "false")

    def test_ls_inverse_missing_vectors(self, capsys):
        code, out, err = run_cli(["map", "--which", "ls-inverse", "--u", "0,0,1"], capsys)
        assert (code, out) == (1, "")
        assert err == "error: --which ls-inverse requires --u and --v\n"

    @pytest.mark.parametrize(
        "which, flags",
        [
            ("moser", "--q and --p"),
            ("moser-inverse", "--u and --v"),
            ("fibration", "--q and --p"),
            ("ls", "--q and --p"),
            ("ls-inverse", "--u and --v"),
        ],
    )
    @pytest.mark.parametrize("given", [[], ["--q", "1,0"], ["--v", "0,1,0"]])
    def test_missing_input_message(self, which, flags, given, capsys):
        assert run_cli(["map", "--which", which, *given], capsys) == (
            1,
            "",
            f"error: --which {which} requires {flags}\n",
        )

    def test_invalid_choice_lists_every_map(self, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["map", "--which", "nope", "--q", "1,0", "--p", "0,1"])
        assert caught.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "keplerreg map: error: argument --which: invalid choice: 'nope' (choose from "
            "'moser', 'moser-inverse', 'fibration', 'ls', 'ls-inverse')\n"
        )

    def test_fibration(self, capsys):
        code, out, _ = run_cli(
            ["map", "--which", "fibration", "--q", "4,0", "--p", "0,0.5"], capsys
        )
        assert code == 0
        record = dict(line.split(" = ") for line in out.strip().splitlines())
        assert record["covector_norm"] == "1"


class TestPropagateCommand:
    def test_circular_returns_to_start(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, "circ.scn", CIRCULAR_REG)
        out_csv = tmp_path / "circ.csv"
        code, _, _ = run_cli(["propagate", str(scn), "--out", str(out_csv)], capsys)
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "t,q1,q2,p1,p2,H,L12,K1,K2,Knorm,flag"
        first = [float(c) for c in lines[1].split(",")[:5]]
        last = [float(c) for c in lines[-1].split(",")[:5]]
        assert last[1:] == pytest.approx(first[1:], abs=1e-9)

    def test_collision_row_flagged(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, "rect.scn", RECT_REG)
        out_csv = tmp_path / "rect.csv"
        code, _, _ = run_cli(["propagate", str(scn), "--out", str(out_csv)], capsys)
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        collision_rows = [l for l in lines if l.endswith(",collision")]
        assert len(collision_rows) == 1
        cells = collision_rows[0].split(",")
        assert float(cells[0]) == pytest.approx(math.pi / (2 * math.sqrt(2.0)), abs=1e-12)
        assert cells[1] == "" and cells[4] == ""  # no q, p at the collision
        assert float(cells[5]) == pytest.approx(-1.0, abs=1e-9)  # H still present

    def test_direct_mode_collision_exit(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, "rectd.scn", RECT_DIRECT)
        code, _, err = run_cli(["propagate", str(scn), "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 3
        assert "collision approach" in err

    def test_conservation_across_file(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, "ecc.scn", ECCENTRIC_REG)
        out_csv = tmp_path / "ecc.csv"
        code, _, _ = run_cli(["propagate", str(scn), "--out", str(out_csv)], capsys)
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        header = lines[0].split(",")
        data = np.array([[float(c) if c else np.nan for c in l.split(",")[:-1]] for l in lines[1:]])
        h_col = header.index("H")
        k_col = header.index("Knorm")
        for col in range(h_col, k_col + 1):
            values = data[:, col]
            assert np.nanmax(values) - np.nanmin(values) <= 1e-9

    def test_invalid_scenario_exit_1(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, "bad.scn", "n = 2\nq = 1,0\n")
        code, _, err = run_cli(["propagate", str(scn), "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 1
        assert "missing required key" in err

    def test_out_with_several_scenarios_exit_1(self, tmp_path, capsys):
        a = write_scenario(tmp_path, "a.scn", CIRCULAR_REG)
        b = write_scenario(tmp_path, "b.scn", RECT_REG)
        out_csv = tmp_path / "x.csv"
        code, out, err = run_cli(["propagate", str(a), str(b), "--out", str(out_csv)], capsys)
        assert (code, out) == (1, "")
        assert err == "error: use --out-dir with multiple scenarios\n"
        assert not out_csv.exists()

    def test_out_with_out_dir_exit_1(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, "a.scn", CIRCULAR_REG)
        out_csv, out_dir = tmp_path / "x.csv", tmp_path / "runs"
        argv = ["propagate", str(scn), "--out", str(out_csv), "--out-dir", str(out_dir)]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err == "error: use --out or --out-dir, not both\n"
        assert not out_csv.exists() and not out_dir.exists()

    def test_out_dir_clash_exit_1_before_any_scenario_runs(self, tmp_path, capsys):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        a = write_scenario(tmp_path, "a/x.scn", CIRCULAR_REG)
        b = write_scenario(tmp_path, "b/x.scn", RECT_REG)
        out_dir = tmp_path / "runs"
        code, out, err = run_cli(["propagate", str(a), str(b), "--out-dir", str(out_dir)], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: {a} and {b} would both write {out_dir / 'x.csv'}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "command, written",
        [
            (["propagate", "{scn}", "--out", "{blocked}/x.csv"], "{blocked}/x.csv"),
            (["propagate", "{scn}", "--out-dir", "{blocked}/runs"], "{blocked}/runs"),
            (["verify", "--suite", "metric", "--samples", "5", "--out", "{blocked}/r.txt"],
             "{blocked}/r.txt"),
        ],
        ids=["propagate-out", "propagate-out-dir", "verify-out"],
    )
    def test_unwritable_output_exit_1(self, command, written, tmp_path, capsys):
        # a path whose parent is a regular file cannot be written or made
        names = {"scn": write_scenario(tmp_path, "a.scn", CIRCULAR_REG), "blocked": tmp_path / "f"}
        names["blocked"].write_text("")
        code, _, err = run_cli([arg.format(**names) for arg in command], capsys)
        assert code == 1
        assert err == f"error: cannot write {written.format(**names)}: {os.strerror(errno.ENOTDIR)}\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("n = 2\nq 1,0\n", "scenario line 2 is not key = value: 'q 1,0'"),
            (
                "n = 2\nq = 1,x\np = 0,1\nt_end = 1\nmode = regularized\n",
                "q must be comma-separated decimals, got '1,x'",
            ),
            (
                "n = 3\nq = 1,0\np = 0,1\nt_end = 1\nmode = regularized\n",
                "q and p must have length n",
            ),
            (
                "n = 2\nq = 1,0\np = 0,1,0\nt_end = 1\nmode = regularized\n",
                "q and p must have length n",
            ),
            (
                "n = 2\nq = 1,0\np = 0,1\nt_end = 1\nmode = regularized\n"
                "output_times = 0,0.5,0.5\n",
                "output_times must be nonnegative and strictly increasing",
            ),
            (
                "n = 2\nq = 1,0\np = 0,1\nt_end = 1\nmode = regularized\noutput_count = 1\n",
                "output_count must be >= 2",
            ),
        ],
        ids=["no-equals", "non-numeric-q", "q-length", "p-length", "times-repeat", "count-1"],
    )
    def test_invalid_scenario_message_exit_1(self, text, message, tmp_path, capsys):
        scn = write_scenario(tmp_path, "bad.scn", text)
        code, out, err = run_cli(["propagate", str(scn), "--out", str(tmp_path / "x.csv")], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: invalid scenario {scn}: {message}\n"

    def test_direct_requires_dt(self, tmp_path, capsys):
        scn = write_scenario(
            tmp_path, "nodt.scn", "n = 2\nq = 1,0\np = 0,1\nt_end = 1\nmode = direct\n"
        )
        code, _, err = run_cli(["propagate", str(scn), "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 1
        assert "dt" in err

    def test_batch_out_dir(self, tmp_path, capsys):
        a = write_scenario(tmp_path, "a.scn", CIRCULAR_REG)
        b = write_scenario(tmp_path, "b.scn", RECT_REG)
        out_dir = tmp_path / "runs"
        code, _, _ = run_cli(["propagate", str(a), str(b), "--out-dir", str(out_dir)], capsys)
        assert code == 0
        assert (out_dir / "a.csv").exists()
        assert (out_dir / "b.csv").exists()

    def test_direct_mode_matches_regularized(self, tmp_path, capsys):
        direct = write_scenario(
            tmp_path,
            "dir.scn",
            "n = 2\nq = 1,0\np = 0,1\nt_end = 1.0\ndt = 0.0001\nmode = direct\noutput_count = 5\n",
        )
        reg = write_scenario(
            tmp_path,
            "reg.scn",
            "n = 2\nq = 1,0\np = 0,1\nt_end = 1.0\nmode = regularized\noutput_count = 5\n",
        )
        code, _, _ = run_cli(["propagate", str(direct), "--out", str(tmp_path / "d.csv")], capsys)
        assert code == 0
        code, _, _ = run_cli(["propagate", str(reg), "--out", str(tmp_path / "r.csv")], capsys)
        assert code == 0
        d = np.loadtxt(tmp_path / "d.csv", delimiter=",", skiprows=1, usecols=range(10))
        r = np.loadtxt(tmp_path / "r.csv", delimiter=",", skiprows=1, usecols=range(10))
        assert np.max(np.abs(d - r)) <= 1e-6


class TestVerifyCommand:
    def test_single_suite_pass(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--suite", "mu-squared", "--n", "3", "--samples", "200", "--seed", "7"],
            capsys,
        )
        assert code == 0
        name, samples, defect, status = out.strip().split(",")
        assert name == "mu-squared"
        assert samples == "200"
        assert float(defect) <= 1e-12
        assert status == "pass"

    def test_unknown_suite_exit_1(self, capsys):
        code, _, err = run_cli(["verify", "--suite", "nope"], capsys)
        assert code == 1
        assert "unknown suite" in err

    def test_negative_seed_exit_1(self, capsys):
        code, out, err = run_cli(["verify", "--suite", "metric", "--seed", "-1"], capsys)
        assert (code, out, err) == (1, "", "error: seed must be >= 0\n")

    def test_failing_suite_exit_2(self, capsys, monkeypatch):
        from keplerreg import Failure, SuiteReport

        def fake_run_suite(name, n, samples, seed):
            return SuiteReport(
                name=name,
                n=n,
                samples=samples,
                seed=seed,
                tolerance=1e-12,
                max_defect=1.0,
                failures=(Failure("pt", 1.0, 0.0, 1e-12),),
            )

        # verify imports run_suite from the harness when it runs
        monkeypatch.setattr(harness, "run_suite", fake_run_suite)
        code, out, _ = run_cli(["verify", "--suite", "metric", "--samples", "10"], capsys)
        assert code == 2
        assert out.strip().endswith("fail")

    def test_raising_suite_reports_and_exits_2(self, capsys, monkeypatch):
        # A suite whose own samples raise is a failed check: every suite
        # still prints its line, the raising ones as inf and fail.
        argv = ["verify", "--suite", "all", "--samples", "20", "--seed", "3"]
        code, clean, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")

        def leaves_domain(q, p):
            raise DomainError("r.s = 0 broke")

        monkeypatch.setattr(harness, "_ls_map_rows", leaves_domain)
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        raised = []
        for before, after in zip(clean.splitlines(), out.splitlines(), strict=True):
            name = before.split(",")[0]
            if after != before:
                assert after == f"{name},20,inf,fail"
                raised.append(name)
        assert "ls-roundtrip" in raised
        lines = err.splitlines()
        assert [line.split(" raised: ")[0] for line in lines] == [
            f"error: suite {name}" for name in raised
        ]
        assert all(line.endswith("r.s = 0 broke") for line in lines)

    @pytest.mark.parametrize(
        "flags, message",
        [(["--n", "0"], "n must be >= 1"), (["--samples", "0"], "samples must be >= 1")],
    )
    def test_argument_errors_exit_1(self, flags, message, capsys):
        code, out, err = run_cli(["verify", "--suite", "all", *flags], capsys)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("suite", ["all", "conservation"])
    def test_n1_reports_every_suite(self, suite, capsys):
        # every n = 1 orbit is radial; the flow suites sample them uncapped
        code, out, err = run_cli(["verify", "--suite", suite, "--n", "1"], capsys)
        lines = out.strip().splitlines()
        assert code == 0 and err == ""
        assert len(lines) == (15 if suite == "all" else 1)
        assert all(line.endswith(",pass") for line in lines)

    def test_report_file_written(self, tmp_path, capsys):
        out_path = tmp_path / "report.txt"
        code, out, _ = run_cli(
            [
                "verify",
                "--suite",
                "metric",
                "--samples",
                "100",
                "--seed",
                "1",
                "--out",
                str(out_path),
            ],
            capsys,
        )
        assert code == 0
        assert out_path.read_text() == out


class TestOutputWriter:
    """propagate --out, --out-dir and verify --out share one writer: it writes
    an existing file in place and cuts it to length, with open()'s mode and
    symlink rules."""

    COMMANDS = {
        "propagate": lambda tmp_path, out: [
            "propagate", str(write_scenario(tmp_path, "c.scn", CIRCULAR_REG)), "--out", str(out)
        ],
        "verify": lambda tmp_path, out: [
            "verify", "--suite", "metric", "--samples", "5", "--out", str(out)
        ],
    }

    @pytest.mark.skipif(not os.path.exists(os.devnull), reason=f"no {os.devnull}")
    @pytest.mark.parametrize("command", COMMANDS)
    def test_dev_null_is_written_but_not_cut(self, command, tmp_path, capsys):
        code, _, err = run_cli(self.COMMANDS[command](tmp_path, os.devnull), capsys)
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("via", ["path", "symlink"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_a_longer_file_is_left_with_the_fresh_bytes(self, command, via, tmp_path, capsys):
        fresh, target = tmp_path / "fresh.out", tmp_path / "target.out"
        assert run_cli(self.COMMANDS[command](tmp_path, fresh), capsys)[0] == 0
        target.write_text("1,2,3,old row of an earlier run\n" * (fresh.stat().st_size // 10))
        out = target
        if via == "symlink":
            out = tmp_path / "link.out"
            out.symlink_to(target)
        assert run_cli(self.COMMANDS[command](tmp_path, out), capsys)[0] == 0
        assert out.is_symlink() == (via == "symlink")
        assert target.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_a_new_file_gets_open_mode_less_umask(self, umask, tmp_path, capsys):
        out = tmp_path / "new.csv"
        old = os.umask(umask)
        try:
            code, _, _ = run_cli(self.COMMANDS["propagate"](tmp_path, out), capsys)
        finally:
            os.umask(old)
        assert code == 0
        assert out.stat().st_mode & 0o777 == 0o666 & ~umask

    @pytest.mark.parametrize("command", COMMANDS)
    def test_the_target_is_opened_without_truncation(self, command, tmp_path, capsys, monkeypatch):
        # Truncating on open makes ext4 start writeback of the file, several
        # times the cost of the write; the writer cuts the file after writing.
        out, opened, real_open = tmp_path / "out.txt", [], os.open

        def spy(path, flags, *args, **kwargs):
            opened.append((os.fspath(path), flags))
            return real_open(path, flags, *args, **kwargs)

        out.write_text("x" * 100_000)
        monkeypatch.setattr(os, "open", spy)
        code, _, _ = run_cli(self.COMMANDS[command](tmp_path, out), capsys)
        assert code == 0
        flags = [flags for path, flags in opened if path == str(out)]
        assert len(flags) == 1
        assert flags[0] & os.O_TRUNC == 0
        assert flags[0] & (os.O_WRONLY | os.O_CREAT) == os.O_WRONLY | os.O_CREAT
        assert b"x" not in out.read_bytes()


class TestRemovedToleranceFlags:
    """The tolerances are fixed constants, so no subcommand takes a flag for them."""

    @pytest.mark.parametrize("flag", ["--constraint-tol", "--root-tol", "--fd-step"])
    @pytest.mark.parametrize("command", ["map", "propagate", "verify"])
    def test_rejected(self, command, flag, tmp_path, capsys):
        scn = write_scenario(tmp_path, "c.scn", CIRCULAR_REG)
        argv = {
            "map": ["map", "--which", "ls", "--q", "1,0", "--p", "0,1"],
            "propagate": ["propagate", str(scn), "--out", str(tmp_path / "c.csv")],
            "verify": ["verify", "--suite", "metric", "--samples", "5"],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, "1e-6"])
        assert exc.value.code == 1
        assert flag in capsys.readouterr().err


class TestDeterminism:
    def test_verify_byte_identical(self, tmp_path, capsys):
        args = ["verify", "--suite", "ls-roundtrip", "--n", "2", "--samples", "150", "--seed", "5"]
        outputs = []
        for name in ("r1.txt", "r2.txt"):
            path = tmp_path / name
            code, _, _ = run_cli(args + ["--out", str(path)], capsys)
            assert code == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_propagate_byte_identical(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, "c.scn", CIRCULAR_REG)
        outputs = []
        for name in ("c1.csv", "c2.csv"):
            path = tmp_path / name
            code, _, _ = run_cli(["propagate", str(scn), "--out", str(path)], capsys)
            assert code == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]


class TestParserReuse:
    """main parses every call with one parser built once per process."""

    CALLS = (
        ["verify", "--suite", "metric", "--n", "3", "--samples", "many", "--seed", "7"],
        ["map", "--which", "ls", "--q", "1,0", "--p", "0,1.1"],
        ["propagate", "{scn}", "--out", "{csv}"],
        ["verify", "--suite", "metric", "--n", "3", "--samples", "20", "--seed", "7"],
        ["map", "--which", "fibration", "--q", "0.5,-0.2", "--p", "-0.3,1"],
        ["verify", "--suite", "metric", "--samples", "20"],
    )

    def _results(self, tmp_path, capsys, fresh_parser_each_call):
        from keplerreg import cli

        scn = write_scenario(tmp_path, "c.scn", CIRCULAR_REG)
        csv = tmp_path / "c.csv"
        results = []
        for argv in self.CALLS:
            if fresh_parser_each_call:
                cli._parser.cache_clear()
            try:
                code = main([arg.format(scn=scn, csv=csv) for arg in argv])
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            written = csv.read_bytes() if csv.exists() else None
            csv.unlink(missing_ok=True)
            results.append((code, captured.out, captured.err, written))
        return results

    def test_no_value_default_or_exit_code_carries_over(self, tmp_path, capsys):
        in_a_row = self._results(tmp_path, capsys, fresh_parser_each_call=False)
        alone = self._results(tmp_path, capsys, fresh_parser_each_call=True)
        assert [code for code, *_ in in_a_row] == [1, 0, 0, 0, 0, 0]
        assert "invalid int value: 'many'" in in_a_row[0][2]
        assert in_a_row == alone

    def test_one_parser_per_process(self):
        from keplerreg import cli

        parser = cli._parser()
        assert cli._parser() is parser
        assert cli.build_parser() is not cli.build_parser()
        parser.parse_args(["verify", "--suite", "all", "--n", "3", "--seed", "7", "--out", "r"])
        args = parser.parse_args(["verify", "--suite", "metric"])
        assert (args.n, args.samples, args.seed, args.out) == (2, 500, 42, None)
        parser.parse_args(["map", "--which", "ls", "--q=1,0", "--p=0,1"])
        args = parser.parse_args(["map", "--which", "ls-inverse"])
        assert (args.q, args.p, args.u, args.v) == (None, None, None, None)
        assert not hasattr(args, "suite")


class TestScenarioParsing:
    def test_roundtrip_fields(self):
        scenario = parse_scenario(CIRCULAR_REG)
        assert scenario.n == 2
        assert scenario.mode == "regularized"
        assert scenario.t_end == pytest.approx(2 * math.pi)
        assert scenario.times().size == 100

    def test_comments_ignored(self):
        scenario = parse_scenario("# hi\nn = 2\nq = 1,0 # pos\np = 0,1\nt_end = 1\nmode = regularized\n")
        assert scenario.n == 2

    def test_bad_mode(self):
        with pytest.raises(DomainError) as caught:
            parse_scenario("n = 2\nq = 1,0\np = 0,1\nt_end = 1\nmode = warp\n")
        assert str(caught.value) == "mode must be direct or regularized, got 'warp'"

    def test_explicit_output_times(self):
        scenario = parse_scenario(RECT_REG)
        assert scenario.times().size == 5

    def test_unknown_key(self):
        with pytest.raises(DomainError, match="unknown key 'ouput_count'"):
            parse_scenario(CIRCULAR_REG + "ouput_count = 5\n")

    def test_duplicate_key(self):
        with pytest.raises(DomainError, match="repeats key 'p'"):
            parse_scenario(CIRCULAR_REG + "p = 0,0.5\n")

    def test_empty_output_times_rejected(self):
        with pytest.raises(DomainError, match="output_times must be nonempty when given"):
            Scenario(
                n=2,
                q=np.array([1.0, 0.0]),
                p=np.array([0.0, 1.0]),
                t_end=1.0,
                mode="regularized",
                output_times=np.array([]),
            )

    @pytest.mark.parametrize("times", ["0,nan,0.5", "nan", "0,inf", "-inf,0.5"])
    def test_non_finite_output_times_rejected_as_such(self, times, tmp_path, capsys):
        text = f"n = 2\nq = 1,0\np = 0,1\nt_end = 1\nmode = regularized\noutput_times = {times}\n"
        scn = write_scenario(tmp_path, "times.scn", text)
        code, out, err = run_cli(["propagate", str(scn)], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: invalid scenario {scn}: output_times must have finite entries\n"

    _REQUIRED = {
        "n": "n = 2",
        "q": "q = 1,0",
        "p": "p = 0,1",
        "t_end": "t_end = 1",
        "mode": "mode = regularized",
    }

    @pytest.mark.parametrize("key", list(_REQUIRED))
    def test_missing_required_key(self, key):
        lines = [line for name, line in self._REQUIRED.items() if name != key]
        with pytest.raises(DomainError) as caught:
            parse_scenario("\n".join(lines) + "\noutput_count = 3\n")
        assert str(caught.value) == f"scenario is missing required key {key!r}"

    def test_bad_value_wins_over_a_later_missing_key(self):
        with pytest.raises(ValueError) as caught:
            parse_scenario("n = x\np = 0,1\n")
        assert str(caught.value) == "n must be an integer, got 'x'"

    @pytest.mark.parametrize(
        ("key", "value", "message"),
        [
            ("n", "x", "n must be an integer, got 'x'"),
            ("t_end", "x", "t_end must be a decimal, got 'x'"),
            ("dt", "x", "dt must be a decimal, got 'x'"),
            ("output_count", "2.5", "output_count must be an integer, got '2.5'"),
        ],
    )
    def test_bad_value_names_its_key(self, key, value, message, tmp_path, capsys):
        given = {"n": "2", "q": "1,0", "p": "0,1", "t_end": "1", "mode": "direct",
                 "dt": "1e-3", "output_count": "3", key: value}
        text = "".join(f"{name} = {raw}\n" for name, raw in given.items())
        scn = write_scenario(tmp_path, "bad.scn", text)
        code, out, err = run_cli(["propagate", str(scn)], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: invalid scenario {scn}: {message}\n"

    def test_output_times_beyond_t_end(self):
        with pytest.raises(DomainError, match="t_end"):
            parse_scenario(RECT_REG.replace("t_end = 2.2214414690791831", "t_end = 2"))

    @pytest.mark.parametrize("mode", ["direct\ndt = 1e-3", "regularized"])
    def test_grid_of_repeated_times_rejected(self, mode):
        # 100 grid points on [0, 1e-322] repeat subnormal values
        with pytest.raises(DomainError, match="too small for 100 distinct output times"):
            parse_scenario(f"n = 2\nq = 1,0\np = 0,1\nt_end = 1e-322\nmode = {mode}\n")

    # q or p with a nan or inf entry, in each mode: (id, scenario text)
    _NON_FINITE_STATES = [
        (
            f"{field}-{bad}-{mode.split()[0]}",
            f"n = 2\nq = {q}\np = {p}\nt_end = 1\nmode = {mode}\noutput_count = 3\n",
        )
        for bad in ("nan", "inf")
        for field, q, p in (("q", f"{bad},0", "0,1"), ("p", "1,0", f"0,{bad}"))
        for mode in ("regularized", "direct\ndt = 1e-3")
    ]

    @pytest.mark.parametrize(
        "scenario",
        [
            "n = 2\nq = 1,0\np = 0,1\nt_end = inf\nmode = regularized\noutput_count = 3\n",
            "n = 2\nq = 1,0\np = 0,1\nt_end = 1\nmode = direct\ndt = inf\noutput_count = 3\n",
            *(scenario for _, scenario in _NON_FINITE_STATES),
        ],
        ids=["t_end", "dt", *(ident for ident, _ in _NON_FINITE_STATES)],
    )
    def test_non_finite_field_exit_1(self, scenario, tmp_path, capsys):
        # Invalid input, not a numeric failure (exit 3) deep in propagation.
        scn = write_scenario(tmp_path, "inf.scn", scenario)
        code, _, err = run_cli(["propagate", str(scn), "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 1
        assert any(
            text in err
            for text in ("must be positive and finite", "dt must be finite", "must have finite entries")
        )
