"""Smoke run of the benchmark at tiny sizes.

    python3 perfbench/smoke.py

From the root of a checkout, runs every workload once untraced and once
traced with ``--tiny --seconds 1`` and checks that the last line of each
run is the JSON object BENCHMARK.json promises: exactly the keys
correct, attempted, failed and metrics, a correct result, and exactly the
end-to-end (untraced) or per-layer (traced) metrics with their units.
It also checks that the benchmark refuses, without a result, to run in a
directory holding only BENCHMARK.json and the benchmark's own files.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        SPEC["command"] + args, cwd=cwd, capture_output=True, text=True, timeout=180
    )


def check_result(workload: str, trace: int) -> list[str]:
    proc = _run(["--workload", workload, "--seed", "0", "--seconds", "1",
                 "--trace", str(trace), "--tiny"], ROOT)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append(f"{where}: correct is {result.get('correct')!r}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"{where}: attempted {result.get('attempted')!r}")
    if not isinstance(result.get("failed"), int):
        problems.append(f"{where}: failed {result.get('failed')!r}")
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"{where}: metrics differ: {sorted(set(metrics) ^ set(expected))}")
    for name, entry in metrics.items():
        if entry.get("unit") != expected.get(name) or not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{where}: {name} = {entry!r}")
    return problems


def check_bare() -> list[str]:
    """No program next to the benchmark: nonzero exit and no result line."""
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(["--workload", "verify-maps", "--seed", "0", "--seconds", "1",
                     "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout.strip()[-200:]!r}"]
    return []


def main() -> int:
    problems = check_bare()
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for trace in (0, 1):
            problems += check_result(workload, trace)
    for problem in problems:
        print(problem)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
