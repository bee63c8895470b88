"""Valuation-space and corrupted-label losses, and the dataset-level
coefficient engine that evaluation and learning share.

Sign convention: losses are negative revenue, so estimators minimize and the
reported policy value (reward) is the negated mean loss.

The valuation loss vector for a policy has m+1 entries: slot 0 (buys at no
ladder price) is pinned to 0 and slot j is minus the expected margin the
policy collects from a customer whose valuation is p_j:

    lv[j] = - sum_{k <= j} pi(p_k | x) (p_k - C)

Every corrupted loss is linear in the policy probabilities: for each record
the engine produces one coefficient per rung such that

    corrupted loss of record i  =  sum_j pi(p_j | x_i) * coef[i, j]

with the coefficients independent of the policy. One coefficient matrix per
dataset and kind serves both uses: evaluating a policy (the row-wise dot
product with its rung probabilities) and learning one (``policy`` trains on
the matrix, with gradients through the policy only).

Every estimator kind has the doubly robust form: a per-rung reward plug-in
mu (the direct method) plus the inverse-propensity correction of its
residual at the logged rung j0,

    coef[i, :]   = -mu[i, :]
    coef[i, j0] -= (obs_i - mu[i, j0]) / pi_0(p_j0 | x_i)

where obs_i is the margin collected at the logged price (0 without a sale).
Only mu depends on the kind, with g the demand plug-in's clamped per-rung sale
probabilities and c the switching weight:

    ips     0
    cips    margins
    robust  margins / 2              (half never buy, half always buy)
    mv      margins * g
    cmix    margins * (c g + (1 - c) / 2)

The coefficients are affine in mu, so cmix is built as the c-weighted mix
c * coef_mv + (1 - c) * coef_robust of the mv and robust coefficient matrices,
which equals the formula at its mu.

``estimator_coefficients`` is the one place that decides which matrices a
set of kinds needs and the one place that forms cmix: it builds each matrix
once, and mixes the mv and robust matrices at the weight its caller chooses
from those same matrices (the lowest cross-fold loss variance, at the
evaluated policy for evaluation and at a robust-trained pilot policy for
learning). ``loss_coefficients`` at an explicit weight goes through it too.

The demand plug-in is any object with ``sale_probs_matrix(features)``. Each
build calls it once at the records' features; its output must be (n, m)
with finite entries in [0, 1] (a ``ValueError`` names the shape or the first
bad entry), and it is then clamped away from {0, 1} by ``clamp_probs``.

``per_record_losses_reference`` reaches the same losses through the explicit
per-customer left-inverse matrices of ``estimators``.
"""

from __future__ import annotations

import numpy as np

from .demand import clamp_probs
from .estimators import EstimatorKind, reweight_for
from .ladder import Dataset, OutcomeDist, PolicyDist, PriceLadder, Propensities


def valuation_loss_vector(policy: PolicyDist, ladder: PriceLadder) -> np.ndarray:
    """Length-(m+1) loss vector for one policy decision; entry 0 is 0."""
    if policy.m != ladder.m:
        raise ValueError("policy and ladder sizes differ")
    out = np.zeros(ladder.m + 1)
    out[1:] = -np.cumsum(policy.probs * ladder.margins)
    return out


def corrupted_loss_vector(reweight: np.ndarray, loss_vec: np.ndarray) -> np.ndarray:
    """Per-outcome corrupted losses R' lv, one entry per (price, sale) slot."""
    lv = np.asarray(loss_vec, dtype=np.float64)
    if lv.shape != (reweight.shape[0],):
        raise ValueError(f"loss vector has length {lv.shape}, expected {reweight.shape[0]}")
    return reweight.T @ lv


# ---------------------------------------------------------------------------
# Dataset-level engine
# ---------------------------------------------------------------------------


def _demand_matrix(demand, dataset: Dataset) -> np.ndarray:
    """The plug-in's clamped sale probabilities at the dataset's records, (n, m).

    ``demand.sale_probs_matrix`` is called once; its output must be (n, m)
    with finite entries in [0, 1].
    """
    if demand is None:
        raise ValueError("this estimator needs a demand model")
    g = np.asarray(demand.sale_probs_matrix(dataset.features), dtype=np.float64)
    if g.shape != (dataset.n, dataset.m):
        raise ValueError(
            f"demand matrix has shape {g.shape}, expected (n, m) = {(dataset.n, dataset.m)}"
        )
    bad = ~((g >= 0.0) & (g <= 1.0))  # also catches nan
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValueError(
            f"demand matrix row {i}, column {j}: {float(g[i, j])!r} "
            "is not a sale probability in [0, 1]"
        )
    return clamp_probs(g)


def _reward_plugin(
    dataset: Dataset, ladder: PriceLadder, kind: EstimatorKind, demand
) -> np.ndarray:
    """The kind's per-rung reward plug-in mu, (n, m) or one row for all records."""
    margins = ladder.margins
    if kind == EstimatorKind.IPS:
        return np.zeros_like(margins)
    if kind == EstimatorKind.CIPS:
        return margins
    if kind == EstimatorKind.ROBUST:
        return margins / 2.0
    if kind == EstimatorKind.MIN_VARIANCE:
        return margins * _demand_matrix(demand, dataset)
    raise ValueError(f"unknown estimator kind: {kind}")


def loss_coefficients(
    dataset: Dataset,
    ladder: PriceLadder,
    kind: EstimatorKind,
    demand=None,
    switching_weight: float | None = None,
) -> np.ndarray:
    """Per-record, per-rung coefficients of the corrupted loss, shape (n, m).

    The corrupted loss of record i under any policy is the dot product of the
    policy's probabilities at x_i with row i of this matrix.
    """
    m = dataset.m
    if ladder.m != m:
        raise ValueError("ladder size does not match the dataset")
    if kind == EstimatorKind.SWITCHING:
        if switching_weight is None:
            raise ValueError("switching estimator needs an explicit weight")
        if not 0.0 <= switching_weight <= 1.0:
            raise ValueError("switching weight must lie in [0, 1]")
        per_kind = estimator_coefficients(
            dataset, ladder, [kind], demand, lambda mv, rob: switching_weight
        )
        return per_kind[kind][0]
    mu = np.broadcast_to(_reward_plugin(dataset, ladder, kind, demand), (dataset.n, m))
    rows = np.arange(dataset.n)
    j0 = dataset.price_index - 1
    observed = ladder.margins[j0] * dataset.sold
    coef = -mu
    coef[rows, j0] -= (observed - mu[rows, j0]) / dataset.propensities[rows, j0]
    return coef


def estimator_coefficients(
    dataset: Dataset,
    ladder: PriceLadder,
    kinds,
    demand,
    choose_weight,
) -> dict[EstimatorKind, tuple[np.ndarray, float | None]]:
    """The (n, m) loss coefficients of each kind in ``kinds``, with cmix's weight.

    Each coefficient matrix is built once, and cmix's weight is chosen once
    even when ``kinds`` names cmix twice. For cmix,
    ``choose_weight(coef_mv, coef_rob)`` picks the switching weight from the
    mv and robust matrices, and the weight is returned beside the mixed
    coefficients (``None`` for the other kinds).
    """
    built: dict[EstimatorKind, np.ndarray] = {}

    def coefficients(kind):
        if kind not in built:
            built[kind] = loss_coefficients(dataset, ladder, kind, demand)
        return built[kind]

    out = {}
    for kind in dict.fromkeys(kinds):
        weight = None
        if kind == EstimatorKind.SWITCHING:
            mv = coefficients(EstimatorKind.MIN_VARIANCE)
            rob = coefficients(EstimatorKind.ROBUST)
            weight = choose_weight(mv, rob)
            coef = weight * mv + (1.0 - weight) * rob
        else:
            coef = coefficients(kind)
        out[kind] = (coef, weight)
    return out


def per_record_losses(
    dataset: Dataset,
    policy_matrix: np.ndarray,
    ladder: PriceLadder,
    kind: EstimatorKind,
    demand=None,
    switching_weight: float | None = None,
) -> np.ndarray:
    """Corrupted loss of every record under the given policy probabilities."""
    pm = np.atleast_2d(np.asarray(policy_matrix, dtype=np.float64))
    if pm.shape != (dataset.n, dataset.m):
        raise ValueError(f"policy matrix must be (n, m) = {(dataset.n, dataset.m)}")
    coef = loss_coefficients(dataset, ladder, kind, demand, switching_weight)
    return np.sum(pm * coef, axis=1)


def per_record_losses_reference(
    dataset: Dataset,
    policy_matrix: np.ndarray,
    ladder: PriceLadder,
    kind: EstimatorKind,
    demand=None,
    switching_weight: float | None = None,
) -> np.ndarray:
    """Slow per-record path building one explicit reweight matrix per row.

    Kept as the readable, contract-level implementation; the closed form in
    ``loss_coefficients`` must agree with it to floating-point noise.
    """
    pm = np.atleast_2d(np.asarray(policy_matrix, dtype=np.float64))
    g = None
    if kind in (EstimatorKind.MIN_VARIANCE, EstimatorKind.SWITCHING):
        g = _demand_matrix(demand, dataset)
    out = np.empty(dataset.n)
    k = dataset.outcome_indices()
    for i in range(dataset.n):
        pi0 = Propensities(dataset.propensities[i])
        outcome_hat = None
        if g is not None:
            outcome_hat = OutcomeDist(
                np.hstack([g[i] * pi0.probs, (1.0 - g[i]) * pi0.probs])
            )
        reweight = reweight_for(kind, pi0, outcome_hat, switching_weight)
        lv = valuation_loss_vector(PolicyDist(pm[i]), ladder)
        out[i] = corrupted_loss_vector(reweight, lv)[k[i]]
    return out
