"""Moser and Ligon-Schaaf regularization of the n-dimensional Kepler problem.

Canonical maps between Kepler phase space and the (punctured) cotangent
bundle of the n-sphere, exact Delaunay-flow propagation through collision
orbits, the hidden so(n+1) symmetry (Lenz vector and moment maps), and a
property-based verification harness.  Units have GM = 1 throughout.

Each public name loads its defining module on first use (PEP 562), so a
process that propagates never compiles the harness or the Moser maps.
"""

import importlib

__version__ = "0.1.0"

# The public names of each module, in the order of __all__: the package's
# and each module's own __all__ read this one table.
_PUBLIC = {
    "core": (
        "DomainError",
        "MomentumMatrix",
        "PhasePoint",
        "PlaneCotangentPoint",
        "SphereCotangentPoint",
        "kepler_energy",
        "sample_bound_states",
    ),
    "dynamics": (
        "CollisionApproachError",
        "FlowTimes",
        "Trajectory",
        "arc_time",
        "delaunay_energy",
        "delaunay_flow",
        "kepler_integrate",
        "kepler_period",
        "kepler_vector_field",
        "regularized_propagate",
    ),
    "harness": (
        "SUITE_NAMES",
        "Failure",
        "SuiteReport",
        "UnknownSuiteError",
        "jacobian",
        "run_suite",
        "standard_form",
        "suite_registry",
        "symplectic_defect",
    ),
    "ligonschaaf": (
        "LSAngle",
        "PunctureError",
        "angle_equation",
        "ls_angle",
        "ls_inverse",
        "ls_map",
    ),
    "moser": (
        "ChartHamiltonians",
        "chart_hamiltonians",
        "fourier",
        "fourier_inverse",
        "moser_fibration",
        "moser_map",
        "moser_map_inverse",
        "scale_phase",
        "scale_sphere",
        "to_reference_shell",
    ),
    "stereo": ("to_plane", "to_sphere"),
    "symmetry": (
        "angular_momentum",
        "angular_momentum_field",
        "extended_momentum",
        "extended_momentum_field",
        "hamiltonian_field",
        "lenz_field",
        "lenz_vector",
        "momentum_norm_squared",
        "poisson_bracket",
        "sphere_momentum",
    ),
}
_ORIGIN = {name: module for module, names in _PUBLIC.items() for name in names}
_SUBMODULES = {*_ORIGIN.values(), "kernels", "cli"}

__all__ = list(_ORIGIN)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_ORIGIN, *_SUBMODULES})
