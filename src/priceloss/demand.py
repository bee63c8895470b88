"""Plug-in demand models: per-customer sale probabilities on each ladder rung.

A demand plug-in is any object with ``sale_probs_matrix(features)``, which
returns one sale probability per record and rung, (n, m). The MV and
``cmix`` losses plug these in as their reward model (``losses``, which
checks every plug-in's output and clamps it), and the evaluated policy is
greedy on one (``policy``). Two plug-ins live here: the fitted T-learner and
a wrapped function, which also serves the true surface and its blends with a
constant pessimist.

``fit_tlearner`` fits the T-learner: on each rung's own records, one logistic
regression with an L2 penalty. Each rung's objective is strictly convex, so
the fit is its exact optimum, reached by Newton steps that all rungs take
together. The rows are sorted by rung once and laid out as equal-length row
blocks, each rung's last block padded with zero rows, so a step is a fixed
number of batched numpy calls over all blocks (one ``sigmoid`` among them)
and ends with one batched solve, whatever the number of rungs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ladder import Dataset, PriceLadder

# Predicted probabilities are clamped away from {0, 1} so that inverse
# weights and diag(f)^-1 terms stay bounded.
PROB_CLAMP = 1e-4

# Each rung minimizes its mean log loss + L2_PENALTY / 2 * |w|^2 (bias
# included). The fit stops once every rung's penalized gradient is below
# GRAD_TOL in each coordinate; Newton converges in well under MAX_NEWTON_STEPS.
L2_PENALTY = 1e-3
GRAD_TOL = 1e-8
MAX_NEWTON_STEPS = 50

# The most rows in one block of the Newton step's batched products (see
# ``fit_tlearner``). Each rung pads under one block. At 1024, a fit with at
# most 1024 rows per rung (every replication fit) is one block per rung, and
# a 100k-row fit on five rungs pads at most 5 * 1023 rows. Much smaller
# blocks add per-block overhead; much larger ones pad more than they save.
ROW_BLOCK = 1024

# Sale probability of the constant "pessimist" model that ``blend_alpha``
# mixes in.
PESSIMIST_PROB = 0.01


def clamp_probs(p: np.ndarray) -> np.ndarray:
    return np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-z))`` for z >= 0 and ``exp(z) / (1 + exp(z))`` below,
    without a branch: ``exp`` only sees -|z|, so it cannot overflow. The
    work is done in place, so it needs two arrays of z's size."""
    z = np.asarray(z, dtype=np.float64)
    e = np.abs(z, out=np.empty_like(z))
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.where(z >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


@dataclass
class FittedDemandModel:
    """One logistic model per ladder rung (a T-learner).

    Row j of ``weights`` holds rung j's feature weights with the bias last.
    """

    weights: np.ndarray  # (m, d + 1)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ValueError(
                f"demand weights must be (m, d + 1), got shape {self.weights.shape}"
            )

    def sale_probs_matrix(self, features: np.ndarray) -> np.ndarray:
        w = self.weights
        return clamp_probs(sigmoid(np.atleast_2d(features) @ w[:, :-1].T + w[:, -1]))


@dataclass
class CallableDemandModel:
    """Wraps a vectorized ``(features) -> (n, m) sale prob`` function."""

    fn: object

    def sale_probs_matrix(self, features: np.ndarray) -> np.ndarray:
        return clamp_probs(np.asarray(self.fn(np.atleast_2d(features)), dtype=np.float64))


def blend_alpha(base, alpha: float) -> CallableDemandModel:
    """Convex blend ``alpha * base + (1 - alpha) * PESSIMIST_PROB`` of a plug-in
    with the constant pessimist."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"blend weight must lie in [0, 1], got {alpha}")
    return CallableDemandModel(
        fn=lambda x: alpha * base.sale_probs_matrix(x) + (1.0 - alpha) * PESSIMIST_PROB
    )


def fit_tlearner(dataset: Dataset, ladder: PriceLadder) -> FittedDemandModel:
    """Fit one L2-penalized logistic model per rung on that rung's records.

    Every rung with records starts from zero weights, and all of them take
    Newton steps together until each penalized gradient is below
    ``GRAD_TOL``; a rung whose gradient is below it keeps its weights from
    then on. Rows whose ``price_index`` lies outside 1..m are ignored. Rungs
    with no records predict the pooled sale rate across all prices
    (clamped), which keeps small-n runs well defined. Raises
    ``ArithmeticError`` if the fit has not converged within
    ``MAX_NEWTON_STEPS``.

    The rows are sorted by rung (stably, so each rung keeps its rows' order)
    and cut into blocks of ``length = min(largest rung, ROW_BLOCK)`` rows;
    each rung's last block is padded with zero rows, which add nothing to a
    gradient or a Hessian, so padding stays under m * ``ROW_BLOCK`` rows. A
    Newton step makes a fixed number of numpy calls whatever m is: batched
    products over all blocks for the scores, gradients and Hessians, one
    ``sigmoid``, one ``np.add.reduceat`` per quantity to sum each rung's
    blocks, and one batched solve over the rungs still stepping. Each rung's
    sums are taken block by block, so its weights match those of fitting it
    alone up to rounding.
    """
    if dataset.n == 0:
        raise ValueError("cannot fit a demand model on an empty dataset")
    pooled = float(clamp_probs(dataset.sold.mean()))
    weights = np.zeros((ladder.m, dataset.d + 1))
    weights[:, -1] = np.log(pooled / (1.0 - pooled))

    order = np.argsort(dataset.price_index, kind="stable")
    bounds = np.searchsorted(dataset.price_index[order], np.arange(1, ladder.m + 2))
    sizes = np.diff(bounds)
    fitted = np.flatnonzero(sizes)
    if fitted.size == 0:
        return FittedDemandModel(weights=weights)
    sizes = sizes[fitted]
    length = min(int(sizes.max()), ROW_BLOCK)
    blocks = -(-sizes // length)
    first = np.cumsum(blocks) - blocks  # each rung's first block
    block_rung = np.repeat(np.arange(fitted.size), blocks)
    # Sorted row r of fitted rung k lands in flat slot r - bounds[k] +
    # first[k] * length of the (blocks, length) grid.
    rows = order[bounds[0] : bounds[-1]]
    slots = np.arange(bounds[0], bounds[-1]) - np.repeat(
        bounds[fitted] - first * length, sizes
    )
    block, pos = np.divmod(slots, length)
    # Features with bias, transposed per block: (blocks, d + 1, length).
    xt = np.zeros((block_rung.size, dataset.d + 1, length))
    xt[block, :-1, pos] = dataset.features[rows]
    xt[block, -1, pos] = 1.0
    sold = np.zeros((block_rung.size, length))
    sold[block, pos] = dataset.sold[rows]
    x = xt.transpose(0, 2, 1)
    scaled = np.empty_like(xt)

    w = np.zeros((fitted.size, dataset.d + 1))
    ridge = L2_PENALTY * np.eye(dataset.d + 1)
    active = np.ones(fitted.size, dtype=bool)
    for _ in range(MAX_NEWTON_STEPS):
        p = sigmoid(np.matmul(w[block_rung, None, :], xt)[:, 0])
        grad = np.add.reduceat(np.matmul(xt, (p - sold)[..., None])[..., 0], first)
        grad = grad / sizes[:, None] + L2_PENALTY * w
        np.multiply(xt, (p * (1.0 - p))[:, None, :], out=scaled)
        hess = np.add.reduceat(np.matmul(scaled, x), first) / sizes[:, None, None] + ridge
        # A rung stops once its gradient is small; a non-finite one never stops.
        active &= ~(np.max(np.abs(grad), axis=1) < GRAD_TOL)
        if not active.any():
            break
        w[active] -= np.linalg.solve(hess[active], grad[active][..., None])[..., 0]
    else:
        raise ArithmeticError(
            f"demand fit did not converge in {MAX_NEWTON_STEPS} Newton steps "
            f"(max |gradient| {np.max(np.abs(grad)):.3g})"
        )
    weights[fitted] = w
    return FittedDemandModel(weights=weights)
