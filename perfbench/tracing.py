"""Span tracing from outside the program.

The tracer rebinds selected functions in the namespace of every keplerreg
module that holds them, so a call such as ``ls_inverse`` from
``keplerreg.cli`` or ``angle_equation`` from inside ``keplerreg.ligonschaaf``
records a span.  ``PhasePoint`` is traced through its ``__init__``.
Nothing in the program is edited; ``uninstall`` restores every binding.

Spans live in flat in-memory arrays (name, parent, owner, start, end) and
are written out once, at the end of the run.
"""

from __future__ import annotations

import importlib
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

MODULES = ("core", "stereo", "moser", "ligonschaaf", "dynamics", "symmetry", "harness", "cli")

# Functions traced, by the module that defines them.  _bracket_batch is the
# entry point the harness's bracket suites use into symmetry.
TRACED = {
    "core": ("kepler_energy",),
    "stereo": ("to_sphere", "to_plane"),
    "moser": ("moser_map", "moser_map_inverse", "moser_fibration", "scale_phase"),
    "ligonschaaf": ("ls_map", "ls_inverse", "angle_equation"),
    "dynamics": ("kepler_integrate", "delaunay_flow", "delaunay_energy"),
    "symmetry": (
        "angular_momentum",
        "lenz_vector",
        "extended_momentum",
        "sphere_momentum",
        "momentum_norm_squared",
        "_bracket_batch",
    ),
    "harness": ("jacobian", "run_suite"),
    "cli": ("parse_scenario",),
}
ROOT = "cli.main"
POINT = "core.PhasePoint"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.owners: list[str] = []
        self.name_ids: array = array("i")
        self.parents: array = array("i")
        self.owner_ids: array = array("i")
        self.starts: array = array("d")
        self.ends: array = array("d")
        self._stack = [-1]
        self._owner = -1
        self._bindings: list[tuple[object, str, object, object]] = []

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _wrap(self, fn, name_id: int):
        name_ids, parents, owner_ids = self.name_ids, self.parents, self.owner_ids
        starts, ends, stack = self.starts, self.ends, self._stack

        def traced(*args, **kwargs):
            span = len(ends)
            name_ids.append(name_id)
            parents.append(stack[-1])
            owner_ids.append(self._owner)
            ends.append(0.0)
            stack.append(span)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[span] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        """Rebind every traced function wherever a keplerreg module holds it."""
        if not self._bindings:
            self._bind_all()
        for holder, name, traced, _ in self._bindings:
            setattr(holder, name, traced)

    def _bind_all(self) -> None:
        modules = {m: importlib.import_module(f"keplerreg.{m}") for m in MODULES}
        self.root = self._wrap(lambda fn, argv: fn(argv), self._name_id(ROOT))
        for origin, names in TRACED.items():
            for name in names:
                original = getattr(modules[origin], name)
                traced = self._wrap(original, self._name_id(f"{origin}.{name}"))
                for module in modules.values():
                    if module.__dict__.get(name) is original:
                        self._bindings.append((module, name, traced, original))
        point = modules["core"].PhasePoint
        traced = self._wrap(point.__init__, self._name_id(POINT))
        self._bindings.append((point, "__init__", traced, point.__init__))

    def uninstall(self) -> None:
        for holder, name, _, original in self._bindings:
            setattr(holder, name, original)

    def call(self, owner: str, fn, argv):
        """Run one CLI call under a root span owned by ``owner``."""
        self.owners.append(owner)
        self._owner = len(self.owners) - 1
        try:
            return self.root(fn, argv)
        finally:
            self._owner = -1

    def mark(self) -> int:
        return len(self.ends)

    def arrays(self, lo: int, hi: int) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name_ids, dtype=np.int32)[lo:hi],
            "parent": np.frombuffer(self.parents, dtype=np.int32)[lo:hi],
            "owner": np.frombuffer(self.owner_ids, dtype=np.int32)[lo:hi],
            "start": np.frombuffer(self.starts, dtype=np.float64)[lo:hi],
            "end": np.frombuffer(self.ends, dtype=np.float64)[lo:hi],
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = self.arrays(0, self.mark())
        np.savez(path, names=np.array(self.names), owners=np.array(self.owners), **spans)


def self_times(spans: dict[str, np.ndarray], offset: int) -> np.ndarray:
    """Each span's duration minus the part its child spans cover.

    Spans are properly nested (one thread), so a child's interval lies
    inside its parent's and siblings do not overlap.  ``offset`` is the
    index of the first span in ``spans`` within the whole trace.
    """
    duration = spans["end"] - spans["start"]
    local_parent = spans["parent"] - offset
    has_parent = local_parent >= 0
    child_time = np.bincount(
        local_parent[has_parent], weights=duration[has_parent], minlength=duration.size
    )
    return duration - child_time
