"""tools/compare_outputs.py finds the one case in which two trees differ, lists
every differing line, and checks the differences against expected ones."""

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
    assert len(cases) == len(set(names)) == 41
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
        "streams": [{
            "stream": "stdout",
            "count": 1,
            "lines": [{"line": 2, "parent": None, "change": "one more line"}],
        }],
    }
    # the propagate case ran on the workload's 100 scenarios and wrote (and compared) each CSV
    assert len(report[0]["args"]) == 103 and report[0]["args"][-2:] == ["--out-dir", "<out>"]
    assert report[0]["args"][1].startswith("<inputs>/propagate-regularized-23/")
    written = sorted((trees["change"] / "compare-outputs" / "000").iterdir())
    assert len(written) == 100 and written[0].read_text().startswith("n = ")


def test_differences_list_every_differing_line_of_each_stream(tool):
    same = {"exit": b"0", "stdout": b"a\nb\n", "stderr": b""}
    assert tool.differences(same, dict(same)) == []
    assert tool.differences(same, {**same, "exit": b"1"}) == [
        {"stream": "exit", "count": 1, "lines": [{"line": 1, "parent": "0", "change": "1"}]}
    ]
    # stdout is listed before stderr, every differing line is listed, a line
    # one side lacks is null, and the final newline is no line of its own
    both = {**same, "stdout": b"x\nb\nc\n", "stderr": b"y"}
    assert tool.differences(same, both) == [
        {"stream": "stdout", "count": 2, "lines": [
            {"line": 1, "parent": "a", "change": "x"},
            {"line": 3, "parent": None, "change": "c"},
        ]},
        {"stream": "stderr", "count": 1, "lines": [{"line": 1, "parent": None, "change": "y"}]},
    ]
    # a file only one side writes, and a stream that differs only in its final newline
    assert tool.differences(same, {**same, "stdout": b"a\nb", "file a.csv": b"t,q1\n"}) == [
        {"stream": "stdout", "count": 0, "lines": []},
        {"stream": "file a.csv", "count": 1, "lines": [
            {"line": 1, "parent": None, "change": "t,q1"},
        ]},
    ]


# The stub's verify cases end in "--seed S": the change prints its line twice
# at seed 23 and adds a stderr line at seed 0.
_VERIFY_CHANGED = (
    "if args[:1] == ['verify'] and args[-1] == '23':\n    print(*args)\n"
    "if args[:1] == ['verify'] and args[-1] == '0':\n    print('note', file=sys.stderr)\n"
)
_RULE_23 = {"case": "verify all n * seed 23", "stream": "stdout",
            "before": None, "after": r"verify --suite all --n \d --seed 23"}
_RULE_0 = {"case": "verify all * seed 0", "stream": "stderr", "before": None, "after": "note"}


# Each differing line, in report order: the seed 0 stderr line, then the two seed 23 stdout lines.
@pytest.mark.parametrize("rules, as_expected, matched, named", [
    # every differing line matches a rule
    ([_RULE_23, _RULE_0], True, [2, 1], [1, 0, 0]),
    # the stderr line matches none
    ([_RULE_23], False, [2], [None, 0, 0]),
    # a rule matches nothing
    ([_RULE_23, _RULE_0, {**_RULE_0, "case": "help*"}], False, [2, 1, 0], [1, 0, 0]),
    # a pattern must match the whole line, and the stream must be the rule's
    ([{**_RULE_23, "after": "verify"}, _RULE_0], False, [0, 1], [1, None, None]),
    ([{**_RULE_23, "stream": "stderr"}, _RULE_0], False, [0, 1], [1, None, None]),
])
def test_differences_are_checked_against_expected_rules(
    tool, tmp_path, rules, as_expected, matched, named
):
    trees = {
        "parent": _tree(tmp_path / "parent", _STUB),
        "change": _tree(tmp_path / "change", _STUB + _VERIFY_CHANGED),
    }
    inputs = tmp_path / "inputs"
    cases = tool.cases(inputs)
    chosen = [case for case in cases if case[0].startswith("verify all n 1 ") or case[0] == "help"]
    chosen += [case for case in cases if case[0] == "verify all n 2 seed 23"]
    report = tool.compare(trees, inputs, chosen)
    assert [entry["same"] for entry in report] == [False, False, True, True, False]
    rules = [dict(rule) for rule in rules]
    assert tool.check_expected(report, rules) is as_expected
    assert [rule["matched"] for rule in rules] == matched
    lines = [line for entry in report for stream in entry.get("streams", []) for line in stream["lines"]]
    assert [line["rule"] for line in lines] == named


def test_a_stream_that_differs_in_no_line_matches_no_rule(tool):
    report = [{"case": "help", "same": False,
               "streams": [{"stream": "stdout", "count": 0, "lines": []}]}]
    rule = {"case": "*", "stream": "stdout", "before": ".*", "after": ".*"}
    assert tool.check_expected(report, [rule]) is False
    assert tool.check_expected([], [rule]) is False  # nor is it used
    assert tool.check_expected([], []) is True


def test_each_trees_path_is_one_placeholder(tool, tmp_path):
    trees = [_tree(tmp_path / side, "import sys\nprint(__file__)\n") for side in ("a", "b")]
    runs = [tool.run_case(tree, 0, []) for tree in trees]
    assert runs[0] == runs[1]
    assert runs[0]["stdout"] == b"<tree>/src/keplerreg/cli.py\n"
