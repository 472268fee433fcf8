"""The benchmark's tracer names program functions by string; each must
still exist, or a traced benchmark run fails only once it starts."""

import importlib
import importlib.util
from pathlib import Path

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [tracing.ROOT, tracing.POINT]
    names += [f"{origin}.{name}" for origin, fns in tracing.TRACED.items() for name in fns]
    missing = []
    for dotted in names:
        origin, name = dotted.split(".")
        module = importlib.import_module(f"keplerreg.{origin}")
        if origin not in tracing.MODULES or not callable(getattr(module, name, None)):
            missing.append(dotted)
    assert not missing, f"perfbench/tracing.py names missing program functions: {missing}"
