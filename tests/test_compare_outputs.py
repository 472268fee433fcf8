"""tools/compare_outputs.py finds the one case in which two trees differ."""

import importlib.util
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parents[1] / "tools"

# A stand-in for keplerreg.cli: it echoes its arguments, prints its own path
# (the tree's path, the same in both trees once replaced), copies each
# scenario into --out-dir and exits with a code that depends on its arguments.
_STUB = '''\
import sys
from pathlib import Path

args = sys.argv[1:]
print(*args)
print(__file__, file=sys.stderr)
if "--out-dir" in args:
    for scenario in (Path(a) for a in args if a.endswith(".scn")):
        Path(args[-1], scenario.stem + ".csv").write_text(scenario.read_text())
'''
_DIFFERS = ["verify", "--suite", "all", "--n", "3", "--seed", "23"]
_CHANGED = f"if args == {_DIFFERS!r}:\n    print('one more line')\n"
_EXIT = "sys.exit(len(args) % 3)\n"


@pytest.fixture()
def tool(monkeypatch):
    monkeypatch.syspath_prepend(str(_TOOLS))  # as when run as tools/compare_outputs.py
    spec = importlib.util.spec_from_file_location("compare_outputs", _TOOLS / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(root: Path, cli: str) -> Path:
    package = root / "src" / "keplerreg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(cli)
    return root


def test_the_one_differing_case_is_found(tool, tmp_path):
    trees = {
        "parent": _tree(tmp_path / "parent", _STUB + _EXIT),
        "change": _tree(tmp_path / "change", _STUB + _CHANGED + _EXIT),
    }
    inputs = tmp_path / "inputs"
    cases = tool.cases(inputs)
    names = [name for name, _ in cases]
    assert len(cases) == len(set(names)) == 40
    # a run of each kind: a propagate batch, verify, an error and a help text
    chosen = [cases[names.index(name)] for name in (
        "propagate-regularized seed 23", "verify all n 3 seed 23", "verify all n 3 seed 42",
        "error: cannot write", "help verify",
    )]
    report = tool.compare(trees, inputs, chosen)
    assert [entry["same"] for entry in report] == [True, False, True, True, True]
    assert report[1] == {
        "case": "verify all n 3 seed 23",
        "args": _DIFFERS,
        "same": False,
        "stream": "stdout",
        "line": 2,
        "parent": "",
        "change": "one more line",
    }
    # the propagate case ran on the workload's 100 scenarios and wrote (and compared) each CSV
    assert len(report[0]["args"]) == 103 and report[0]["args"][-2:] == ["--out-dir", "<out>"]
    assert report[0]["args"][1].startswith("<inputs>/propagate-regularized-23/")
    written = sorted((trees["change"] / "compare-outputs" / "000").iterdir())
    assert len(written) == 100 and written[0].read_text().startswith("n = ")


def test_first_difference_names_the_stream_and_line(tool):
    same = {"exit": b"0", "stdout": b"a\nb\n", "stderr": b""}
    assert tool.first_difference(same, dict(same)) is None
    assert tool.first_difference(same, {**same, "exit": b"1"}) == {
        "stream": "exit", "line": 1, "parent": "0", "change": "1"
    }
    # stdout is looked at before stderr, and a line one side lacks is null
    both = {**same, "stdout": b"a\nb\nc\n", "stderr": b"x"}
    assert tool.first_difference(same, both) == {
        "stream": "stdout", "line": 3, "parent": "", "change": "c"
    }
    # a file only one side writes
    assert tool.first_difference(same, {**same, "file a.csv": b"t,q1\n"}) == {
        "stream": "file a.csv", "line": 1, "parent": None, "change": "t,q1"
    }


def test_each_trees_path_is_one_placeholder(tool, tmp_path):
    trees = [_tree(tmp_path / side, "import sys\nprint(__file__)\n") for side in ("a", "b")]
    runs = [tool.run_case(tree, 0, []) for tree in trees]
    assert runs[0] == runs[1]
    assert runs[0]["stdout"] == b"<tree>/src/keplerreg/cli.py\n"
