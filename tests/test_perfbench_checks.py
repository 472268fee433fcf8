"""The benchmark judges propagate and verify output with perfbench/checks.py.
Running its tiny workloads here makes output it would reject fail in seconds."""

import importlib.util
import sys
from pathlib import Path

import pytest

from keplerreg import PhasePoint, regularized_propagate
from keplerreg.cli import main

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # checks.py imports workloads by name, as run.py does.
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def _reference(q0, p0, t):
    end = regularized_propagate(PhasePoint(q0, p0), t)
    return end.q, end.p


def _failed_rows(workload: str, seed: int, tiny: bool, workdir: Path, monkeypatch) -> dict:
    """Failed output rows of each propagate operation of one pass, by the
    benchmark's own checks; every call must exit 0."""
    workloads = _load("workloads", monkeypatch)
    checks = _load("checks", monkeypatch)
    failed = {}
    for op in workloads.build(workload, seed, workdir, tiny=tiny):
        for path, text in op.files.items():
            path.write_text(text)
        assert main(op.argv) == 0, op.ident
        text = op.out_path.read_text()
        if workload == "propagate-regularized":
            failed[op.ident] = checks.check_regularized(op, text)
        else:
            failed[op.ident] = checks.check_direct(op, text, _reference)
    return failed


@pytest.mark.parametrize("workload", ["propagate-regularized", "propagate-direct"])
def test_tiny_workload_passes_benchmark_checks(workload, tmp_path, monkeypatch, capsys):
    failed = _failed_rows(workload, 0, True, tmp_path, monkeypatch)
    assert len(failed) >= 6
    assert not any(failed.values()), failed


@pytest.mark.parametrize("seed", [23, 59])
@pytest.mark.parametrize("workload", ["propagate-regularized", "propagate-direct"])
def test_full_workload_passes_benchmark_checks(workload, seed, tmp_path, monkeypatch, capsys):
    # The full inputs of a benchmark pass: a run exits 1 on any failed row,
    # so an output the checks reject is caught here rather than in a timing run.
    failed = _failed_rows(workload, seed, False, tmp_path, monkeypatch)
    assert len(failed) >= 100
    assert not any(failed.values()), failed


def test_tiny_verify_maps_passes_benchmark_checks(tmp_path, monkeypatch, capsys):
    workloads = _load("workloads", monkeypatch)
    checks = _load("checks", monkeypatch)
    failed = {}
    for op in workloads.build("verify-maps", 0, tmp_path, tiny=True):
        code = main(op.argv)
        failed[op.ident] = checks.check_verify(op, code, capsys.readouterr().out)
    assert len(failed) == 2 * len(workloads.MAP_SUITES) == 26
    assert not any(failed.values()), failed
