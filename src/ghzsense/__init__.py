"""Fisher-information toolkit for ring-distributed entangled-photon phase sensing.

The package builds the multi-photon shared-pair state, imprints node phases,
computes quantum and classical Fisher information matrices in configurable
parameter charts, removes the average-phase singularity by explicit
reparametrization, evaluates exact and weak variance lower bounds, and checks
bound saturation with a seeded maximum-likelihood measurement simulation.
"""

from .bounds import (
    BoundReport,
    SweepRow,
    WeakExactReport,
    bound_report,
    exact_crb,
    heisenberg_sweep,
    sweep_to_csv,
    sweep_to_json_dict,
    weak_crb,
    weak_vs_exact_check,
)
from .errors import ConvergenceError, GhzSenseError, SingularMatrixError, ValidationError
from .ghz_state import RingState, apply_phases, build_input_state, node_pair, phase_vector
from .measurement import (
    OutcomeDistribution,
    OutcomeLabel,
    cfim,
    cfim_brute_force_oracle,
    distribution_to_csv,
    outcome_distribution,
    outcome_labels,
)
from .montecarlo import (
    CountTable,
    EstimationResult,
    SaturationReport,
    crb_saturation_experiment,
    mle_estimate,
    sample_counts,
)
from .qfim import (
    Chart,
    FisherMatrix,
    RankReport,
    matrix_from_json_dict,
    matrix_to_csv,
    matrix_to_json_dict,
    original_chart,
    pair_sum_gradients,
    qfim_closed_form_original,
    qfim_finite_difference_oracle,
    qfim_pure,
    rank_and_nullspace,
)
from .reparam import (
    InverseCheckReport,
    Reparametrization,
    build_mc,
    build_orthogonal_d4,
    closed_form_inverse_check,
    pushforward_fisher,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "Chart",
    "ConvergenceError",
    "CountTable",
    "EstimationResult",
    "FisherMatrix",
    "GhzSenseError",
    "InverseCheckReport",
    "OutcomeDistribution",
    "OutcomeLabel",
    "RankReport",
    "Reparametrization",
    "RingState",
    "SaturationReport",
    "SingularMatrixError",
    "SweepRow",
    "ValidationError",
    "WeakExactReport",
    "apply_phases",
    "bound_report",
    "build_input_state",
    "build_mc",
    "build_orthogonal_d4",
    "cfim",
    "cfim_brute_force_oracle",
    "closed_form_inverse_check",
    "crb_saturation_experiment",
    "distribution_to_csv",
    "exact_crb",
    "heisenberg_sweep",
    "matrix_from_json_dict",
    "matrix_to_csv",
    "matrix_to_json_dict",
    "mle_estimate",
    "node_pair",
    "original_chart",
    "outcome_distribution",
    "outcome_labels",
    "pair_sum_gradients",
    "phase_vector",
    "pushforward_fisher",
    "qfim_closed_form_original",
    "qfim_finite_difference_oracle",
    "qfim_pure",
    "rank_and_nullspace",
    "sample_counts",
    "sweep_to_csv",
    "sweep_to_json_dict",
    "weak_crb",
    "weak_vs_exact_check",
]
