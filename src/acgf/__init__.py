"""Gradient-flow solver for a quasi-linear bi-stable system with dynamic
boundary conditions, stepped as proximal implicit Euler on a smoothed
convex energy, plus an experiment harness for its qualitative guarantees."""

from .energy import (
    EnergyParams,
    ForcingField,
    SmoothPerturbation,
    energy_terms,
    free_energy,
    is_feasible,
    phi_exact,
    phi_regularized,
)
from .errors import ConfigError, NonconvergenceError, SolverError
from .flow import FlowParams, StepRecord, proximal_step, run_flow
from .meshes import (
    DiscMesh,
    IntervalMesh,
    bulk_gradient,
    h_inner,
    h_norm,
    surface_gradient,
)
from .potentials import ScalarConvexPotential, indicator, quadratic, tabulated

__all__ = [
    "ConfigError",
    "DiscMesh",
    "EnergyParams",
    "FlowParams",
    "ForcingField",
    "IntervalMesh",
    "NonconvergenceError",
    "ScalarConvexPotential",
    "SmoothPerturbation",
    "SolverError",
    "StepRecord",
    "bulk_gradient",
    "energy_terms",
    "free_energy",
    "h_inner",
    "h_norm",
    "indicator",
    "is_feasible",
    "phi_exact",
    "phi_regularized",
    "proximal_step",
    "quadratic",
    "run_flow",
    "surface_gradient",
    "tabulated",
]
