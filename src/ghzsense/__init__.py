"""Fisher-information toolkit for ring-distributed entangled-photon phase sensing.

The package builds the multi-photon shared-pair state, imprints node phases,
computes quantum and classical Fisher information matrices in configurable
parameter charts, removes the average-phase singularity by explicit
reparametrization, evaluates exact and weak variance lower bounds, and checks
bound saturation with a seeded maximum-likelihood measurement simulation.
"""

from .bounds import bound_report, exact_crb, heisenberg_sweep, weak_crb, weak_vs_exact_check
from .errors import ConvergenceError, GhzSenseError, SingularMatrixError, ValidationError
from .ghz_state import RingState, apply_phases, build_input_state
from .measurement import (
    OutcomeDistribution,
    OutcomeLabel,
    cfim,
    cfim_brute_force_oracle,
    outcome_distribution,
    outcome_labels,
)
from .montecarlo import CountTable, crb_saturation_experiment, mle_estimate, sample_counts
from .qfim import (
    Chart,
    FisherMatrix,
    matrix_to_csv,
    original_chart,
    pair_sum_gradients,
    qfim_closed_form_original,
    qfim_finite_difference_oracle,
    qfim_pure,
    rank_and_nullspace,
)
from .reparam import (
    Reparametrization,
    build_mc,
    build_orthogonal_d4,
    closed_form_inverse_check,
    pushforward_fisher,
)

__version__ = "0.1.0"

__all__ = [
    "Chart",
    "ConvergenceError",
    "CountTable",
    "FisherMatrix",
    "GhzSenseError",
    "OutcomeDistribution",
    "OutcomeLabel",
    "Reparametrization",
    "RingState",
    "SingularMatrixError",
    "ValidationError",
    "apply_phases",
    "bound_report",
    "build_input_state",
    "build_mc",
    "build_orthogonal_d4",
    "cfim",
    "cfim_brute_force_oracle",
    "closed_form_inverse_check",
    "crb_saturation_experiment",
    "exact_crb",
    "heisenberg_sweep",
    "matrix_to_csv",
    "mle_estimate",
    "original_chart",
    "outcome_distribution",
    "outcome_labels",
    "pair_sum_gradients",
    "pushforward_fisher",
    "qfim_closed_form_original",
    "qfim_finite_difference_oracle",
    "qfim_pure",
    "rank_and_nullspace",
    "sample_counts",
    "weak_crb",
    "weak_vs_exact_check",
]
