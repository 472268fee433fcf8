"""Moser and Ligon-Schaaf regularization of the n-dimensional Kepler problem.

Canonical maps between Kepler phase space and the (punctured) cotangent
bundle of the n-sphere, exact Delaunay-flow propagation through collision
orbits, the hidden so(n+1) symmetry (Lenz vector and moment maps), and a
property-based verification harness.  Units have GM = 1 throughout.
"""

from .core import (
    DomainError,
    MomentumMatrix,
    PhasePoint,
    PlaneCotangentPoint,
    SphereCotangentPoint,
    kepler_energy,
    sample_bound_states,
)
from .dynamics import (
    CollisionApproachError,
    FlowTimes,
    Trajectory,
    arc_time,
    delaunay_energy,
    delaunay_flow,
    kepler_integrate,
    kepler_period,
    kepler_vector_field,
    regularized_propagate,
)
from .harness import (
    SUITE_NAMES,
    Failure,
    SuiteReport,
    UnknownSuiteError,
    jacobian,
    run_suite,
    standard_form,
    suite_registry,
    symplectic_defect,
)
from .ligonschaaf import LSAngle, PunctureError, angle_equation, ls_angle, ls_inverse, ls_map
from .moser import (
    ChartHamiltonians,
    chart_hamiltonians,
    fourier,
    fourier_inverse,
    moser_fibration,
    moser_map,
    moser_map_inverse,
    scale_phase,
    scale_sphere,
    to_reference_shell,
)
from .stereo import to_plane, to_sphere
from .symmetry import (
    angular_momentum,
    angular_momentum_field,
    extended_momentum,
    extended_momentum_field,
    hamiltonian_field,
    lenz_field,
    lenz_vector,
    momentum_norm_squared,
    poisson_bracket,
    sphere_momentum,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "MomentumMatrix",
    "PhasePoint",
    "PlaneCotangentPoint",
    "SphereCotangentPoint",
    "kepler_energy",
    "sample_bound_states",
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
    "SUITE_NAMES",
    "Failure",
    "SuiteReport",
    "UnknownSuiteError",
    "jacobian",
    "run_suite",
    "standard_form",
    "suite_registry",
    "symplectic_defect",
    "LSAngle",
    "PunctureError",
    "angle_equation",
    "ls_angle",
    "ls_inverse",
    "ls_map",
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
    "to_plane",
    "to_sphere",
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
]
