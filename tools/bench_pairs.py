"""Benchmark a change against its parent commit in alternating pairs.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py --workload verify-maps --seed 23 --pairs 10 \
        --claimed "call_norm_ms_p90 on verify-maps, seed 23" --out BENCH_23.json

The parent (``--parent``, default HEAD) is built with ``git archive``; the
change is the working tree as ``git add -A`` would stage it (tracked and
untracked files, less what .gitignore lists).  Each goes into a directory
of its own.  Pair k runs ``python3 perfbench/run.py --workload W --seed S
--seconds T`` once in each directory, the parent first in odd pairs and the
change first in even pairs, so that a drift in the host's speed falls on
both sides alike.  T is BENCHMARK.json's ``run_seconds``.  Every workload
given (by default each that BENCHMARK.json lists) and every seed gets
``--pairs`` pairs.

The output JSON holds every run (its exit code, its result line, and its
stderr when it did not exit 0) and, per workload and seed, a summary of
each end-to-end metric: the medians and quartiles of both sides
(``statistics.quantiles(n=4)``, the median in the middle), the change's
median against the parent's in percent, and in how many pairs the change
was lower.  Each end-to-end metric also gets ``parent_iqr``, the parent's
upper quartile less its lower one, and ``meets_claim_rule``: the change is
better (by the metric's ``better`` in BENCHMARK.json) in at least nine
tenths of the pairs, ties counting for neither side, and its median is
better than the parent's by more than ``parent_iqr``.  A summary's
``correct`` is false if any run of it was not.
The report's ``machine`` says whether the runs could cache bytecode, since
without a cache each run's set-up compiles every module it imports.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def _git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True).stdout


def build_parent(rev: str, dest: Path) -> str:
    """Extract ``git archive rev`` into dest; returns the full commit id."""
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev], stdout=subprocess.PIPE)
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        tar.extractall(dest, filter="data")
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")
    return _git("rev-parse", f"{rev}^{{commit}}").decode().strip()


def build_change(dest: Path) -> None:
    """Copy the files ``git add -A`` would stage from the working tree into dest."""
    listed = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.decode().split("\0")):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted in the working tree is skipped
            target = dest / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def run_once(checkout: Path, argv: list[str]) -> dict:
    """One perfbench run in checkout: exit code, result line, and stderr on failure."""
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    entry: dict = {"exit": done.returncode, "result": None}
    try:
        entry["result"] = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        entry["stdout"] = done.stdout[-4000:]
    environment = [line for line in lines if line.startswith("# ")]
    if environment:
        entry["environment"] = environment[0].split("; ", 2)[-1]
    if done.returncode != 0:
        entry["stderr"] = done.stderr[-4000:]
    return entry


def summarize(runs: list[dict], pairs: int, better: dict[str, str]) -> dict:
    """Medians, quartiles and pairs lower of every metric, for one workload and
    seed, and the claim rule of each end-to-end metric, which ``better`` maps
    to "lower" or "higher"."""
    by_side = {side: [r for r in runs if r["side"] == side] for side in SIDES}
    good = [r for r in runs if r["result"] is not None]
    names = list(dict.fromkeys(m for r in good for m in r["result"]["metrics"]))
    summary: dict = {}
    for name in names:
        values = {
            side: {
                r["pair"]: r["result"]["metrics"][name]["value"]
                for r in by_side[side]
                if r["result"] is not None and name in r["result"]["metrics"]
            }
            for side in SIDES
        }
        if min(len(v) for v in values.values()) < 2:
            continue  # too few runs of a side to summarize; correct is false below
        entry: dict = {}
        medians, quartiles = {}, {}
        for side in SIDES:
            series = list(values[side].values())
            medians[side] = statistics.median(series)
            quartiles[side] = statistics.quantiles(series, n=4)
            entry[f"{side}_median"] = round(medians[side], 6)
            entry[f"{side}_quartiles"] = [round(x, 6) for x in quartiles[side]]
        entry["change_vs_parent_median_pct"] = round(
            100.0 * (entry["change_median"] / entry["parent_median"] - 1.0), 2
        )
        both = values["parent"].keys() & values["change"].keys()
        entry["pairs_change_lower"] = sum(values["change"][k] < values["parent"][k] for k in both)
        entry["pairs"] = len(both)
        if name in better:
            # sign * (parent - change) is positive where the change is better
            sign = 1.0 if better[name] == "lower" else -1.0
            wins = sum(sign * (values["parent"][k] - values["change"][k]) > 0 for k in both)
            iqr = quartiles["parent"][2] - quartiles["parent"][0]
            entry["parent_iqr"] = round(iqr, 6)
            entry["meets_claim_rule"] = (
                10 * wins >= 9 * len(both) and sign * (medians["parent"] - medians["change"]) > iqr
            )
        summary[name] = entry
    summary["failed"] = {
        side: sum(r["result"]["failed"] for r in by_side[side] if r["result"] is not None)
        for side in SIDES
    }
    summary["correct"] = len(runs) == 2 * pairs and all(
        r["exit"] == 0 and r["result"] is not None and r["result"]["correct"] for r in runs
    )
    return summary


def _machine() -> str:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            names = (line.split(":", 1)[1] for line in info if line.startswith("model name"))
            model = next(names).strip()
    except (OSError, StopIteration):
        pass
    # Runs inherit this variable; when set, each run compiles every module it imports.
    flag = os.environ.get("PYTHONDONTWRITEBYTECODE", "")
    caching = f"off (PYTHONDONTWRITEBYTECODE={flag})" if flag else "on"
    return f"{model}, {os.cpu_count()} CPUs, bytecode caching {caching}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--parent", default="HEAD", help="the commit to measure the change against")
    parser.add_argument("--claimed", default="", help="the claimed gain, recorded as given")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument(
        "--workdir", type=Path, help="where to build both sides (default: a temporary directory)"
    )
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 (quartiles need two runs a side)")

    workdir = Path(tempfile.mkdtemp(prefix="bench-pairs-", dir=args.workdir))
    try:
        checkouts = {side: workdir / side for side in SIDES}
        parent = build_parent(args.parent, checkouts["parent"])
        build_change(checkouts["change"])
        benchmark = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
        workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
        better = {metric["name"]: metric["better"] for metric in benchmark["end_to_end"]}
        runs, summary = [], {}
        for workload in workloads:
            for seed in args.seed:
                argv_run = ["python3", "perfbench/run.py", "--workload", workload,
                            "--seed", str(seed), "--seconds", f"{benchmark['run_seconds']:g}"]
                group = []
                for pair in range(1, args.pairs + 1):
                    order = SIDES if pair % 2 else SIDES[::-1]
                    for side in order:
                        entry = run_once(checkouts[side], argv_run)
                        group.append({
                            "workload": workload, "seed": seed, "trace": 0, "pair": pair,
                            "side": side, "first": order[0], "command": shlex.join(argv_run),
                            **entry,
                        })
                        result = entry["result"] or {}
                        p90 = result.get("metrics", {}).get("call_norm_ms_p90", {}).get("value")
                        print(f"{workload} seed {seed} pair {pair} {side}: exit {entry['exit']}, "
                              f"correct {result.get('correct')}, p90 {p90}", file=sys.stderr)
                summary[f"{workload} seed {seed}"] = summarize(group, args.pairs, better)
                runs.extend(group)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    environment = next((r["environment"] for r in runs if "environment" in r), "")
    report = {
        "what": (
            "Result JSON lines of perfbench/run.py (last line of each run) for the parent "
            "commit and the change, one machine, alternating which side runs first in each "
            "pair (odd pairs parent first). Quartiles are statistics.quantiles(n=4) of the "
            "per-run values, with the median in the middle."
        ),
        "command": shlex.join(["python3", "tools/bench_pairs.py", *(argv or sys.argv[1:])]),
        "parent": parent,
        "machine": f"{_machine()}; {environment}",
        "claimed": args.claimed,
        "summary": summary,
        "runs": runs,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all(s["correct"] for s in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
