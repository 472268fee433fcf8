"""Say whether a change alters what the CLI does: compare it with its parent
commit on a fixed set of cases.

Usage, from the root of a checkout:

    python3 tools/compare_outputs.py --parent HEAD --out compare.json

The parent (``--parent``, default HEAD) is built with ``git archive``; the
change is the working tree as ``git add -A`` would stage it (both as
tools/bench_pairs.py builds them).  Each case runs ``-m keplerreg.cli
ARGS``, with the interpreter that runs this tool, once in each tree: a
subprocess with ``PYTHONPATH=<tree>/src`` and ``COLUMNS=80``, in an empty
directory of its own inside the tree.  It compares the exit code, stdout,
stderr and every file the run writes there, after replacing the tree's
path with ``<tree>``.  The cases:

- each propagate workload of perfbench/workloads.py at seeds 23 and 7, as
  one ``propagate ... --out-dir`` call on all of its scenario files;
- ``verify --suite all --n N --seed S`` for n = 1..4 and seeds 0, 23, 42,
  and for n = 5..7 at seed 23, where the samplers draw many rounds;
- runs above n = 7, where every suite draws its samples: ``verify --suite
  "so(n+1)-brackets" --n 8 --seed 42`` and ``verify --suite all --n 9
  --seed 23`` with 50 samples, ``verify --suite metric --n 12 --seed 42``
  with 500 samples, whose metric values reach thousands, and ``verify
  --suite moser-symplectic --n 60 --samples 5 --seed 42``;
- ``map`` with each ``--which`` choice, and README's two ``map`` examples;
- the output-target errors, an invalid scenario, an unknown suite and
  ``verify --n 0``;
- ``--help`` of the program and of each command.

The output JSON lists every case.  For a case that differs it lists each
stream that differs (``exit``, ``stdout``, ``stderr`` or ``file NAME``),
with the count of its differing lines and each of them: its number,
counted from 1, and its text on each side (null where that side has no
such line).  A final newline is not a line of its own, so a stream that
differs only there has no differing line.

With ``--expect FILE`` the differences are checked against expected ones.
FILE is a JSON list of rules, each an object with ``case`` (an fnmatch
pattern of case names), ``stream`` (a stream name) and ``before`` and
``after``: regular expressions that the whole line on the parent's side
and on the change's side must match, null standing for no line.  Each
differing line names the first rule it matches, or null, and the report
gives each rule's count of matched lines.  The exit code is 0 when every
differing line matches a rule and every rule matches at least one line.
Without ``--expect``, the exit code is 0 when every case matches and 1
otherwise.
"""

from __future__ import annotations

import argparse
import fnmatch
import importlib.util
import itertools
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, SIDES, build_change, build_parent

PLACEHOLDER = b"<tree>"
OUT = "{out}"  # in a case's arguments: the directory the case runs in

PROPAGATE_WORKLOADS = ("propagate-regularized", "propagate-direct")
PROPAGATE_SEEDS = (23, 7)
VERIFY_DIMS = (1, 2, 3, 4)
VERIFY_SEEDS = (0, 23, 42)
VERIFY_MANY_ROUNDS = (5, 6, 7)  # at seed 23
# suite, n, samples, seed: runs above n = 7, where every suite draws its samples
HIGH_N = (
    ("so(n+1)-brackets", 8, 50, 42), ("all", 9, 50, 23), ("metric", 12, 500, 42),
    ("moser-symplectic", 60, 5, 42),
)
MAP_INPUTS = {
    "moser": ["--q", "0.3,-1.2,0.5", "--p", "0.4,0.2,-0.7"],
    "moser-inverse": ["--u", "0.6,0,0.8", "--v", "0,0.5,0"],
    "fibration": ["--q", "0.3,-1.2,0.5", "--p", "0.4,0.2,-0.7"],
    "ls": ["--q", "0.3,-1.2,0.5", "--p", "0.4,0.2,-0.7"],
    "ls-inverse": ["--u", "0.6,0,0.8", "--v", "0,0.5,0"],
}
README_MAP_EXAMPLES = (
    ["map", "--which", "ls", "--q", "1,0", "--p", "0,1"],
    ["map", "--which", "ls-inverse", "--u", "0,0,-1", "--v", "-0.70710678,0,0"],
)
SCENARIO = "n = 2\nq = 1,0\np = 0,1\nt_end = 1\nmode = regularized\noutput_count = 3\n"


def _workloads():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


def cases(inputs: Path) -> list[tuple[str, list[str]]]:
    """(name, arguments) of every case, writing their input files into inputs."""
    workloads = _workloads()
    found: list[tuple[str, list[str]]] = []
    for workload, seed in itertools.product(PROPAGATE_WORKLOADS, PROPAGATE_SEEDS):
        directory = inputs / f"{workload}-{seed}"
        directory.mkdir(parents=True)
        scenarios = []
        for op in workloads.build(workload, seed, directory):
            for path, text in op.files.items():
                path.write_text(text)
                scenarios.append(str(path))
        found.append((f"{workload} seed {seed}", ["propagate", *scenarios, "--out-dir", OUT]))
    many_rounds = ((n, 23) for n in VERIFY_MANY_ROUNDS)
    for n, seed in [*itertools.product(VERIFY_DIMS, VERIFY_SEEDS), *many_rounds]:
        found.append((f"verify all n {n} seed {seed}",
                      ["verify", "--suite", "all", "--n", str(n), "--seed", str(seed)]))
    for suite, n, samples, seed in HIGH_N:
        found.append((f"verify {suite} n {n} samples {samples} seed {seed}",
                      ["verify", "--suite", suite, "--n", str(n), "--samples", str(samples),
                       "--seed", str(seed)]))
    for which, point in MAP_INPUTS.items():
        found.append((f"map {which}", ["map", "--which", which, *point]))
    for k, argv in enumerate(README_MAP_EXAMPLES, start=1):
        found.append((f"README map example {k}", list(argv)))

    (inputs / "other").mkdir()
    good, twin, bad = inputs / "a.scn", inputs / "other" / "a.scn", inputs / "bad.scn"
    for path, text in ((good, SCENARIO), (twin, SCENARIO), (bad, "n = 2\nq = 1,x\n")):
        path.write_text(text)
    found += [
        ("error: --out and --out-dir",
         ["propagate", str(good), "--out", f"{OUT}/a.csv", "--out-dir", OUT]),
        ("error: --out with two scenarios",
         ["propagate", str(good), str(twin), "--out", f"{OUT}/a.csv"]),
        ("error: --out-dir clash", ["propagate", str(good), str(twin), "--out-dir", OUT]),
        ("error: cannot write", ["propagate", str(good), "--out", f"{OUT}/missing/a.csv"]),
        ("error: invalid scenario", ["propagate", str(bad)]),
        ("error: unknown suite", ["verify", "--suite", "no-such-suite"]),
        ("error: verify --n 0", ["verify", "--suite", "all", "--n", "0"]),
        ("help", ["--help"]),
    ]
    for command in ("map", "propagate", "verify"):
        found.append((f"help {command}", [command, "--help"]))
    return found


def run_case(tree: Path, number: int, args: list[str]) -> dict[str, bytes]:
    """One run of a case in tree: each stream and written file by name, with
    the tree's path replaced by the placeholder."""
    here = tree / "compare-outputs" / f"{number:03d}"
    here.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "COLUMNS": "80"}
    argv = [sys.executable, "-m", "keplerreg.cli", *(a.replace(OUT, str(here)) for a in args)]
    done = subprocess.run(argv, cwd=here, env=env, capture_output=True)
    streams = {"exit": str(done.returncode).encode(), "stdout": done.stdout, "stderr": done.stderr}
    for path in sorted(p for p in here.rglob("*") if p.is_file()):
        streams[f"file {path.relative_to(here)}"] = path.read_bytes()
    return {name: data.replace(str(tree).encode(), PLACEHOLDER) for name, data in streams.items()}


def _lines(data: bytes | None) -> list[str]:
    """The lines of a stream, without their newlines; none for a missing stream."""
    if not data:
        return []
    return data.decode(errors="backslashreplace").removesuffix("\n").split("\n")


def differences(parent: dict[str, bytes], change: dict[str, bytes]) -> list[dict]:
    """Each stream that differs, the parent's in order and then the change's
    own, with the count of its differing lines and each of them."""
    found = []
    for stream in [*parent, *(name for name in change if name not in parent)]:
        sides = (parent.get(stream), change.get(stream))
        if sides[0] == sides[1]:
            continue
        lines = [
            {"line": number, "parent": pair[0], "change": pair[1]}
            for number, pair in enumerate(itertools.zip_longest(*map(_lines, sides)), start=1)
            if pair[0] != pair[1]
        ]
        found.append({"stream": stream, "count": len(lines), "lines": lines})
    return found


def _matches(pattern: str | None, text: str | None) -> bool:
    """Whether a rule's side matches a line's: null matches only no line, and a
    regular expression the whole line."""
    if pattern is None or text is None:
        return pattern is text
    return re.fullmatch(pattern, text) is not None


def check_expected(report: list[dict], rules: list[dict]) -> bool:
    """Name in each differing line of report the first rule it matches (or
    None) and count each rule's matches; True when every differing line
    matches a rule and every rule matches at least one line."""
    used = [0] * len(rules)
    every_line = True
    for entry in report:
        for stream in entry.get("streams", []):
            for line in stream["lines"]:
                line["rule"] = next((
                    k for k, rule in enumerate(rules)
                    if fnmatch.fnmatchcase(entry["case"], rule["case"])
                    and rule["stream"] == stream["stream"]
                    and _matches(rule["before"], line["parent"])
                    and _matches(rule["after"], line["change"])
                ), None)
                if line["rule"] is None:
                    every_line = False
                else:
                    used[line["rule"]] += 1
            every_line = every_line and stream["count"] > 0
    for rule, count in zip(rules, used):
        rule["matched"] = count
    return every_line and all(used)


def compare(
    trees: dict[str, Path], inputs: Path, chosen: list[tuple[str, list[str]]]
) -> list[dict]:
    """Each chosen case (from ``cases(inputs)``), run in both trees: its name,
    arguments and whether it matched."""
    report = []
    for number, (name, args) in enumerate(chosen):
        runs = {side: run_case(trees[side], number, args) for side in SIDES}
        streams = differences(runs["parent"], runs["change"])
        shown = [a.replace(str(inputs), "<inputs>").replace(OUT, "<out>") for a in args]
        entry = {"case": name, "args": shown, "same": not streams}
        report.append({**entry, "streams": streams} if streams else entry)
        print(f"{name}: {'DIFFERS' if streams else 'same'}", file=sys.stderr)
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="the commit to compare the change with")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--expect", type=Path, help="a JSON file of expected differences")
    args = parser.parse_args(argv)
    rules = None if args.expect is None else json.loads(args.expect.read_text())

    workdir = Path(tempfile.mkdtemp(prefix="compare-outputs-"))
    try:
        trees = {side: workdir / side for side in SIDES}
        parent = build_parent(args.parent, trees["parent"])
        build_change(trees["change"])
        inputs = workdir / "inputs"
        report = compare(trees, inputs, cases(inputs))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    differing = [entry["case"] for entry in report if not entry["same"]]
    as_expected = not differing if rules is None else check_expected(report, rules)
    args.out.write_text(json.dumps({
        "what": (
            "CLI cases run in the parent commit and in the change: exit code, stdout, "
            "stderr and written files compared after replacing each tree's path with "
            "<tree>; each differing case gives every differing line of each stream."
        ),
        "command": shlex.join(["python3", "tools/compare_outputs.py", *(argv or sys.argv[1:])]),
        "parent": parent,
        "differing": differing,
        **({} if rules is None else {"rules": rules, "as_expected": as_expected}),
        "cases": report,
    }, indent=1) + "\n")
    return 0 if as_expected else 1


if __name__ == "__main__":
    sys.exit(main())
