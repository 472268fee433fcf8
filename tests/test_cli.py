import math

import numpy as np
import pytest

from keplerreg.cli import main, parse_scenario
from keplerreg import DomainError


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

    def test_missing_vectors(self, capsys):
        code, _, err = run_cli(["map", "--which", "moser"], capsys)
        assert code == 1
        assert "requires" in err

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

    def test_failing_suite_exit_2(self, capsys, monkeypatch):
        from keplerreg import Failure, SuiteReport
        from keplerreg import cli as cli_mod

        def fake_run_suite(name, n, samples, seed, tol):
            return SuiteReport(
                name=name,
                n=n,
                samples=samples,
                seed=seed,
                tolerance=1e-12,
                max_defect=1.0,
                failures=(Failure("pt", 1.0, 0.0, 1e-12),),
            )

        monkeypatch.setattr(cli_mod, "run_suite", fake_run_suite)
        code, out, _ = run_cli(["verify", "--suite", "metric", "--samples", "10"], capsys)
        assert code == 2
        assert out.strip().endswith("fail")

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


class TestFdStepFlag:
    """Only the harness suites read Tolerances.fd_step, so only verify takes --fd-step."""

    @pytest.mark.parametrize("command", ["map", "propagate"])
    def test_rejected_outside_verify(self, command, tmp_path, capsys):
        scn = write_scenario(tmp_path, "c.scn", CIRCULAR_REG)
        argv = {
            "map": ["map", "--which", "ls", "--q", "1,0", "--p", "0,1"],
            "propagate": ["propagate", str(scn), "--out", str(tmp_path / "c.csv")],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--fd-step", "1e-6"])
        assert exc.value.code == 1
        assert "--fd-step" in capsys.readouterr().err

    def test_verify_reads_it(self, capsys):
        argv = ["verify", "--suite", "stereo-canonical", "--samples", "20"]
        code, default, _ = run_cli(argv, capsys)
        assert code == 0
        code, same, _ = run_cli(argv + ["--fd-step", "1e-6"], capsys)
        assert code == 0
        assert same == default
        code, coarser, _ = run_cli(argv + ["--fd-step", "1e-4"], capsys)
        assert code == 0
        assert coarser != default


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
        with pytest.raises(DomainError, match="mode"):
            parse_scenario("n = 2\nq = 1,0\np = 0,1\nt_end = 1\nmode = warp\n")

    def test_explicit_output_times(self):
        scenario = parse_scenario(RECT_REG)
        assert scenario.times().size == 5
