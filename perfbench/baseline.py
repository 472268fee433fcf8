"""Record a baseline: every workload over ten seeds, one seed repeated,
and two traced runs.

    python3 perfbench/baseline.py perfbench/baseline.json

From the root of a checkout.  Runs ``perfbench/run.py`` untraced for seeds
101-110 on every workload of BENCHMARK.json and reports each end-to-end
metric's values, median, quartiles and spread (interquartile range over
median); then seed 101 four more times, whose spread is host noise alone;
then two traced runs per workload (seed 7) for the per-layer numbers,
failing if any count differs between them; and the n = 2 figures that
ROADMAP.md quotes, taken from the traced spans.  Takes about 30 minutes
on a 2-vCPU host.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = range(101, 111)
REPEATS = 4
TRACE_SEED = 7


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def summaries(results: list[dict]) -> dict:
    return {
        m["name"]: {"unit": m["unit"], **summary([r["metrics"][m["name"]]["value"] for r in results])}
        for m in SPEC["end_to_end"]
    }


def roadmap_figures() -> dict:
    """Medians of the kernels ROADMAP.md quotes, from the spans."""
    out = {}
    for workload, name, owner in (
        ("verify-maps", "ligonschaaf.ls_map", "@n2"),
        ("verify-maps", "ligonschaaf.ls_inverse", "@n2"),
        ("propagate-regularized", "dynamics.delaunay_flow", ""),
    ):
        spans = np.load(ROOT / ".perfbench" / f"spans-{workload}.npz")
        names, owners = list(spans["names"]), spans["owners"]
        pick = spans["name"] == names.index(name)
        pick &= np.char.endswith(owners[spans["owner"]].astype(str), owner)
        duration = (spans["end"] - spans["start"])[pick]
        out[f"{name} ({owner or 'n = 2 and 3'}, traced)"] = {
            "value": 1e6 * float(np.median(duration)), "unit": "us"}
    return out


def main() -> int:
    target = Path(sys.argv[1])
    baseline = {
        "how": f"perfbench/baseline.py: seeds {SEEDS.start}-{SEEDS.stop - 1} untraced, "
               f"seed {SEEDS.start} {REPEATS} more times, seed {TRACE_SEED} traced twice, "
               f"--seconds {SPEC['run_seconds']}",
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "nproc": len(os.sched_getaffinity(0))},
        "end_to_end": {},
        "end_to_end_same_seed": {},
        "per_layer": {},
    }
    for workload in [w["name"] for w in SPEC["workloads"]]:
        results = [run(workload, seed, 0) for seed in SEEDS]
        baseline["end_to_end"][workload] = summaries(results)
        repeats = [run(workload, SEEDS.start, 0) for _ in range(REPEATS)]
        baseline["end_to_end_same_seed"][workload] = summaries(results[:1] + repeats)
        traced, again = run(workload, TRACE_SEED, 1), run(workload, TRACE_SEED, 1)
        counts = [{name: e["value"] for name, e in r["metrics"].items() if e["unit"] == "count"}
                  for r in (traced, again)]
        if counts[0] != counts[1]:
            raise SystemExit(f"{workload}: counts differ between two traced runs of seed {TRACE_SEED}")
        baseline["per_layer"][workload] = {
            name: entry for name, entry in traced["metrics"].items() if entry["value"] != 0
        }
        print(f"{workload}: done", flush=True)
    baseline["roadmap_n2"] = roadmap_figures()
    target.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
