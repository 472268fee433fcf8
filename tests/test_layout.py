"""Module layout: the closed-form formulas live in keplerreg.kernels, the
other modules depend on each other through few private names, the
package needs numpy alone at run time, each CLI command loads only the
modules it uses, and the benchmark's tracer still sees every layer it
times."""

import ast
import importlib.util
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import keplerreg
from keplerreg import core, kernels
from keplerreg.cli import main

_ROOT = Path(__file__).resolve().parents[1]
_PACKAGE = _ROOT / "src" / "keplerreg"
_PERFBENCH = _ROOT / "perfbench"

# The formulas over (..., n) rows; each is defined in kernels.py alone.
_KERNELS = (
    "DomainError",
    "_CONSTRAINT_TOL",
    "_check_rows",
    "_on_pole",
    "_norm_squared",
    "_nonzero_squares",
    "_bound_root",
    "_inverse_radius",
    "_energy",
    "_energy_of",
    "_lenz",
    "_lenz_of",
    "_lift",
    "_project",
    "_fibration_rows",
    "_scale",
    "_chart_hamiltonians",
    "_rotate",
    "_reproject",
    "_ls_map_rows",
    "_delaunay_energy",
    "_delaunay_flow_rows",
    "_wedge_entries",
    "_upper_pairs",
    "_integral_pairs",
    "_integral_rows",
    "_sphere_integral_rows",
    "_extended_rows",
)

# The one test of each singular set, and the kernel that owns it: x.x = 0
# (the collision q = 0 and the zero section v = 0), and H >= 0, spelled
# ``energy >= 0``, ``not energy < 0`` or, letting no NaN through, ``~(energy < 0)``.
_GUARDS = {
    r"count_nonzero\((\w+)\) != \1\.size": "_nonzero_squares",
    r"\benergy\w*\s*>=\s*0|(~\(|\bnot\s+)energy\w*\s*<\s*0": "_bound_root",
    r"==\s*0(\.0)?\)\.any\(\)": None,  # the retired zero test
    r"np\.any\(\w+ == 0(\.0)?\)": None,  # arc_time's retired zero test
}

# (importer, origin, name) of every private name one non-kernel module
# imports from another.
_PRIVATE_IMPORTS = {
    ("cli", "dynamics", "_leapfrog_span"),
    ("cli", "dynamics", "_regularized_rows"),
    ("dynamics", "ligonschaaf", "_ls_inverse_rows"),
    ("harness", "core", "_bound_rows"),
    ("harness", "ligonschaaf", "_ROOT_TOL"),
    ("harness", "ligonschaaf", "_ls_inverse_rows"),
    ("harness", "ligonschaaf", "_solve_rotation_angle"),
    ("harness", "symmetry", "_bracket_batch"),
    ("harness", "symmetry", "_central_differences"),
}

# Traced functions the tiny seed-0 workloads must reach between them.
_TRACED_LAYERS = (
    "ligonschaaf.ls_map",
    "ligonschaaf.angle_equation",
    "cli.parse_scenario",
    "core.PhasePoint",
    "symmetry._bracket_batch",
    "harness.jacobian",
    "harness.run_suite",
)


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in _PACKAGE.glob("*.py")}


def _imports_from(tree: ast.Module):
    """(origin module, name) of every ``from keplerreg.X import name`` or
    ``from .X import name`` in tree; origin is None for another package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                origin = module
            elif module.startswith("keplerreg."):
                origin = module.removeprefix("keplerreg.")
            else:
                origin = None
            for alias in node.names:
                yield origin, alias.name


def _top_level_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def test_kernels_import_only_numpy_and_own_every_formula():
    modules = _modules()
    tree = modules.pop("kernels")
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # a relative import shows as ".module"
            imported.add("." * node.level + (node.module or ""))
    assert imported == {"__future__", "numpy"}
    assert set(_KERNELS) <= _top_level_names(tree)
    for name, other in modules.items():
        assert not set(_KERNELS) & _top_level_names(other), name
    assert keplerreg.DomainError is core.DomainError is kernels.DomainError


def test_each_singular_set_is_tested_in_one_guard():
    for pattern, guard in _GUARDS.items():
        owners = []
        for path in sorted(_PACKAGE.glob("*.py")):
            source = path.read_text()
            spans = [(node.lineno, node.end_lineno, getattr(node, "name", None))
                     for node in ast.parse(source).body]
            for match in re.finditer(pattern, source):
                line = source.count("\n", 0, match.start()) + 1
                owner = next((name for start, end, name in spans if start <= line <= end), None)
                owners.append((path.stem, owner))
        assert owners == ([("kernels", guard)] if guard else []), pattern


def test_one_row_contract_per_pair():
    # The pair's names pick its rules: no caller passes a sphere flag, and
    # the point classes share the base class's one constructor check.
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                assert "sphere" not in {k.arg for k in node.keywords}, (name, node.lineno)
    plain = (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty)
    params = inspect.signature(kernels._check_rows).parameters.values()
    assert [(p.kind, p.default) for p in params] == [plain] * 3
    assert list(inspect.signature(core._freeze_pair).parameters) == ["obj"]
    for kind in (core.PhasePoint, core.SphereCotangentPoint, core.PlaneCotangentPoint):
        assert "__post_init__" not in vars(kind), kind.__name__
        assert kind.__post_init__ is core._Point.__post_init__


def test_private_imports_between_wrapper_modules():
    found = set()
    for importer, tree in _modules().items():
        if importer == "kernels":
            continue
        for origin, name in _imports_from(tree):
            if origin not in (None, "kernels") and name.startswith("_"):
                found.add((importer, origin, name))
    assert found == _PRIVATE_IMPORTS


def _load(name: str, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_tiny_workloads_reach_every_traced_layer(tmp_path, monkeypatch, capsys):
    workloads = _load("workloads", monkeypatch)
    tracing = _load("tracing", monkeypatch)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for workload in workloads.WORKLOADS:
            workdir = tmp_path / workload
            workdir.mkdir()
            for op in workloads.build(workload, 0, workdir, tiny=True):
                for path, text in op.files.items():
                    path.write_text(text)
                assert tracer.call(op.ident, main, op.argv) == 0, op.ident
    finally:
        tracer.uninstall()
    counts = np.bincount(tracer.arrays(0, tracer.mark())["name"], minlength=len(tracer.names))
    calls = dict(zip(tracer.names, counts.tolist()))
    missing = [name for name in _TRACED_LAYERS if not calls.get(name)]
    assert not missing, f"tiny workloads no longer reach traced layers: {missing}"


def test_runtime_imports_numpy_alone():
    # a fresh interpreter: no test module has imported scipy into it
    code = (
        "import sys, keplerreg, keplerreg.cli\n"
        "from keplerreg import PhasePoint, arc_time, kepler_integrate\n"
        "arc_time(kepler_integrate(PhasePoint([1.0, 0.0], [0.0, 1.0]), 0.5, 0.01))\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(_PACKAGE.parent)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


def _loaded_after(*commands: list[str]) -> list[list[str]]:
    """The keplerreg modules a fresh interpreter (the test session has imported
    every module) holds after ``import keplerreg``, after ``import
    keplerreg.cli`` and after each CLI command in turn."""
    code = (
        "import io, sys, contextlib, keplerreg\n"
        "def loaded():\n"
        "    return sorted(m.partition('.')[2] for m in sys.modules if m.startswith('keplerreg.'))\n"
        "print(loaded())\n"
        "import keplerreg.cli\n"
        "print(loaded())\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert keplerreg.cli.main(argv) == 0, argv\n"
        "    print(loaded())\n"
    )
    env = {**os.environ, "PYTHONPATH": str(_PACKAGE.parent)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return [ast.literal_eval(line) for line in done.stdout.splitlines()]


def test_each_command_loads_only_the_modules_it_uses(tmp_path):
    scenario = tmp_path / "circular.txt"
    scenario.write_text("n = 2\nq = 1,0\np = 0,1\nt_end = 1\nmode = regularized\n")
    bare, cli, propagate, verify, mapped = _loaded_after(
        ["propagate", str(scenario)],
        ["verify", "--suite", "metric", "--samples", "10"],
        ["map", "--which", "moser", "--q", "1,0", "--p", "0,1"],
    )
    assert bare == []
    assert cli == propagate == ["cli", "core", "dynamics", "kernels", "ligonschaaf"]
    assert set(verify) - set(propagate) == {"harness", "symmetry"}
    assert set(mapped) - set(verify) == {"moser", "stereo"}
    # the Ligon-Schaaf maps, each in a fresh interpreter, load no Moser map
    for argv in (
        ["map", "--which", "ls", "--q", "1,0", "--p", "0,1"],
        ["map", "--which", "ls-inverse", "--u", "1,0,0", "--v", "0,1,0"],
    ):
        assert _loaded_after(argv)[-1] == propagate, argv
    # the Moser maps, each in a fresh interpreter, load their module when called
    for argv in (
        ["map", "--which", "fibration", "--q", "1,0", "--p", "0,1"],
        ["map", "--which", "moser-inverse", "--u", "1,0,0", "--v", "0,1,0"],
    ):
        assert set(_loaded_after(argv)[-1]) - set(propagate) == {"moser", "stereo"}, argv


def test_package_namespace_resolves_every_public_name():
    for name in keplerreg.__all__:
        origin = importlib.import_module(f"keplerreg.{keplerreg._ORIGIN[name]}")
        assert getattr(keplerreg, name) is getattr(origin, name), name
    assert len(set(keplerreg.__all__)) == len(keplerreg.__all__)
    assert set(keplerreg.__all__) <= set(dir(keplerreg))
    star: dict = {}
    exec("from keplerreg import *", star)
    assert {name: star[name] for name in keplerreg.__all__} == {
        name: getattr(keplerreg, name) for name in keplerreg.__all__
    }
    assert keplerreg.core is core and "core" in dir(keplerreg)
    with pytest.raises(AttributeError, match="module 'keplerreg' has no attribute 'nope'"):
        keplerreg.nope


def test_each_public_name_is_in_its_module_all():
    for name, module in keplerreg._ORIGIN.items():
        assert name in importlib.import_module(f"keplerreg.{module}").__all__, name


def test_package_imports_name_stdlib_numpy_or_itself():
    allowed = set(sys.stdlib_module_names) | {"numpy", "keplerreg"}
    for module, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = ["keplerreg" if node.level else node.module]
            else:
                continue
            for name in names:
                assert name.partition(".")[0] in allowed, (module, name)


def test_numpy_is_the_only_runtime_dependency():
    import tomllib

    project = tomllib.loads((_ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == ["numpy>=2.0"]
