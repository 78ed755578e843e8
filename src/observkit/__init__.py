"""Observability certificates, simulation, and initial-state reconstruction
for linear time-invariant state-space models."""

from observkit.linalg import (
    NonFiniteError,
    ShapeMismatchError,
    SingularMatrixError,
    expm,
    is_positive_definite,
    matmul,
    rank,
    solve,
    transpose,
)
from observkit.lti import (
    StateSpaceModel,
    Trace,
    make_model,
    simulate_forced,
    simulate_free,
    transition_matrix,
)
from observkit.observability import (
    GramianResult,
    ObservabilityReport,
    SingularGramianError,
    analyze,
    gramian_ode,
    gramian_quadrature,
    observability_matrix,
    rank_test,
    reconstruct_initial_state,
)
from observkit.cardio import CardioParams, build_cardio_model, certify_cardio

__version__ = "0.1.0"

__all__ = [
    "CardioParams",
    "GramianResult",
    "NonFiniteError",
    "ObservabilityReport",
    "ShapeMismatchError",
    "SingularGramianError",
    "SingularMatrixError",
    "StateSpaceModel",
    "Trace",
    "analyze",
    "build_cardio_model",
    "certify_cardio",
    "expm",
    "gramian_ode",
    "gramian_quadrature",
    "is_positive_definite",
    "make_model",
    "matmul",
    "observability_matrix",
    "rank",
    "rank_test",
    "reconstruct_initial_state",
    "simulate_forced",
    "simulate_free",
    "solve",
    "transition_matrix",
    "transpose",
]
