"""Unbiased loss functions for discrete contextual pricing from observational
sales data: transfer matrices, the left-inverse estimator family, plug-in
demand models, policy evaluation/optimization, and brute-force verifiers.
"""

from .ladder import (
    Dataset,
    OutcomeDist,
    PolicyDist,
    PriceLadder,
    Propensities,
    ValuationDist,
    read_csv,
    validate,
    write_csv,
)
from .transfer import TransferMatrix, build_transfer
from .estimators import (
    EstimatorKind,
    cips_reweight,
    doubly_robust_reward,
    dr_decomposition,
    ips_reweight,
    min_variance_reweight,
    robust_reweight,
    switching_reweight,
)
from .losses import (
    corrupted_loss_vector,
    per_record_losses,
    valuation_loss_vector,
)
from .demand import (
    FittedDemandModel,
    blend_alpha,
    fit_tlearner,
)
from .policy import (
    ConstantPolicy,
    GreedyDemandPolicy,
    LinearSoftmaxPolicy,
    optimize_policy,
    select_switching_weight,
    target_policy_for_evaluation,
)
from .synthgen import (
    DemandSurface,
    GenConfig,
    SurfaceKind,
    generate_dataset,
    sample_surface,
    true_policy_value,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
