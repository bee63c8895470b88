"""Linear-softmax pricing policies and empirical risk minimization.

The corrupted losses are linear in the policy's rung probabilities, so the
objective for a dataset reduces to ``mean_i <softmax(theta [x_i; 1]), coef_i>``
with the coefficient rows supplied by the losses engine. Gradients therefore
flow only through the softmax.

One full-batch adaptive-moment (Adam) trainer, ``_adam_descent``, solves K
such problems at once over shared features: theta is (K, m, d + 1) and the
coefficients are stored rung-major as (K, m, n), so scores ``theta @ Xb.T``
are (K, m, n) and the softmax and ``<p, coef>`` reduce over the m rungs with
whole rows of records as vectors. ``optimize_policy`` is the K = 1 call;
switching-weight cross-validation trains every candidate weight of a fold
in one call.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

from .demand import DemandModel, fit_tlearner
from .estimators import EstimatorKind
from .ladder import Dataset, PolicyDist, PriceLadder
from .losses import loss_coefficients

logger = logging.getLogger(__name__)

# Empirical loss rising by more than this over a 200-iteration window is
# logged as a descent anomaly (diagnostic only).
DESCENT_WINDOW = 200
DESCENT_SLACK = 1e-6


def _softmax_in_place(scores: np.ndarray) -> np.ndarray:
    """Softmax over axis 1 (the rungs), overwriting and returning ``scores``."""
    scores -= scores.max(axis=1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=1, keepdims=True)
    return scores


def softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Softmax over axis 1: the rungs of (n, m) or rung-major (K, m, n) scores."""
    return _softmax_in_place(np.array(scores, dtype=np.float64))


def with_bias(features: np.ndarray) -> np.ndarray:
    features = np.atleast_2d(features)
    return np.hstack([features, np.ones((features.shape[0], 1))])


class Policy:
    """Interface: rung probabilities for one or many customers."""

    def probs_matrix(self, features: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass
class LinearSoftmaxPolicy(Policy):
    """One linear score per rung (bias last), normalized by a softmax."""

    theta: np.ndarray  # (m, d + 1)
    ladder: PriceLadder

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=np.float64)
        if self.theta.shape[0] != self.ladder.m:
            raise ValueError("theta must have one row per ladder rung")

    def probs_matrix(self, features: np.ndarray) -> np.ndarray:
        return softmax_rows(with_bias(features) @ self.theta.T)

    def to_json(self) -> str:
        return json.dumps(
            {
                "type": "linear_softmax",
                "theta": self.theta.tolist(),
                "ladder": {
                    "prices": self.ladder.prices.tolist(),
                    "unit_cost": self.ladder.unit_cost,
                },
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "LinearSoftmaxPolicy":
        doc = json.loads(text)
        if doc.get("type") != "linear_softmax":
            raise ValueError(f"unsupported policy type: {doc.get('type')!r}")
        ladder = PriceLadder(
            np.asarray(doc["ladder"]["prices"], dtype=np.float64),
            float(doc["ladder"].get("unit_cost", 0.0)),
        )
        return cls(theta=np.asarray(doc["theta"], dtype=np.float64), ladder=ladder)


@dataclass
class ConstantPolicy(Policy):
    """Same rung distribution for every customer."""

    dist: PolicyDist

    def probs_matrix(self, features: np.ndarray) -> np.ndarray:
        n = np.atleast_2d(features).shape[0]
        return np.tile(self.dist.probs, (n, 1))


@dataclass
class GreedyDemandPolicy(Policy):
    """Deterministic: pick the rung with the highest estimated reward.

    Ties break toward the lower rung (argmax returns the first maximum).
    """

    demand: DemandModel
    ladder: PriceLadder

    def probs_matrix(self, features: np.ndarray) -> np.ndarray:
        features = np.atleast_2d(features)
        rewards = self.demand.sale_probs_matrix(features) * self.ladder.margins
        best = np.argmax(rewards, axis=1)
        out = np.zeros((features.shape[0], self.ladder.m))
        out[np.arange(features.shape[0]), best] = 1.0
        return out


def policy_probs(theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Softmax rung probabilities for a single customer."""
    theta = np.asarray(theta, dtype=np.float64)
    return softmax_rows(with_bias(x) @ theta.T)[0]


def target_policy_for_evaluation(train_split: Dataset, ladder: PriceLadder) -> GreedyDemandPolicy:
    """The to-be-evaluated policy: greedy on a demand fit from a small split."""
    if train_split.n == 0:
        raise ValueError("target policy needs a nonempty training split")
    model = fit_tlearner(train_split, ladder)
    return GreedyDemandPolicy(demand=model, ladder=ladder)


# ---------------------------------------------------------------------------
# Empirical risk minimization
# ---------------------------------------------------------------------------


@dataclass
class TrainConfig:
    learning_rate: float = 0.05
    max_iters: int = 2000

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")


@dataclass
class TrainResult:
    policy: LinearSoftmaxPolicy
    loss_history: np.ndarray
    descent_anomalies: int = 0


class TrainingDiverged(ArithmeticError):
    pass


class _StackedErm:
    """Mean corrupted loss and gradient of K ERM problems over shared features.

    ``coef_t`` holds each problem's coefficients rung-major, (K, m, n), for
    the n rows of ``features_bias``. The two (K, m, n) work arrays are made
    once and reused by every call: allocating them afresh at each descent
    step costs more in page faults than the arithmetic they hold.
    """

    def __init__(self, features_bias: np.ndarray, coef_t: np.ndarray):
        self.features_bias = features_bias
        self.features_t = np.ascontiguousarray(features_bias.T)
        self.coef_t = np.ascontiguousarray(coef_t, dtype=np.float64)
        self.probs = np.empty(self.coef_t.shape)
        self.weighted = np.empty(self.coef_t.shape)

    def __call__(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Loss (K,) and gradient (K, m, d + 1) at theta (K, m, d + 1)."""
        k, m, n = self.coef_t.shape
        probs, weighted = self.probs, self.weighted
        np.matmul(theta.reshape(k * m, -1), self.features_t, out=probs.reshape(k * m, n))
        _softmax_in_place(probs)
        np.multiply(probs, self.coef_t, out=weighted)
        per_record = weighted.sum(axis=1, keepdims=True)  # (K, 1, n)
        loss = per_record.mean(axis=2)[:, 0]
        if not np.all(np.isfinite(loss)):
            return loss, np.zeros_like(theta)
        # d loss / d score_kji = p_kji (coef_kji - <p_ki, coef_ki>) / n
        probs *= per_record
        weighted -= probs
        weighted /= n
        grad = weighted.reshape(k * m, n) @ self.features_bias
        return loss, grad.reshape(theta.shape)


def erm_loss_and_grad(
    theta: np.ndarray, features_bias: np.ndarray, coef: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean corrupted loss and its gradient in theta (m, d + 1).

    ``coef`` rows are the per-record rung coefficients, (n, m); the loss is
    linear in the policy probabilities, so the chain rule stops at the softmax.
    """
    loss, grad = _StackedErm(features_bias, coef.T[None])(theta[None])
    return float(loss[0]), grad[0]


# Adam's moment decay rates and denominator guard.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _adam_descent(
    features_bias: np.ndarray, coef_t: np.ndarray, cfg: TrainConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Train K linear-softmax policies at once from theta = 0.

    ``coef_t`` is (K, m, n) over the shared (n, d + 1) ``features_bias``.
    Returns theta (K, m, d + 1), the loss history (K, max_iters + 1) with the
    final theta's loss last, and the descent-anomaly count of each problem.
    """
    objective = _StackedErm(features_bias, coef_t)
    k, m, _ = coef_t.shape
    theta = np.zeros((k, m, features_bias.shape[1]))
    mom = np.zeros_like(theta)
    vel = np.zeros_like(theta)
    history = np.empty((k, cfg.max_iters + 1))
    anomalies = np.zeros(k, dtype=int)
    for t in range(1, cfg.max_iters + 1):
        loss, grad = objective(theta)
        if not np.all(np.isfinite(loss)):
            raise TrainingDiverged(
                f"non-finite training loss at iteration {t} "
                f"(|theta|_max={np.max(np.abs(theta)):.3g})"
            )
        history[:, t - 1] = loss
        if t > DESCENT_WINDOW:
            rose = loss > history[:, t - 1 - DESCENT_WINDOW] + DESCENT_SLACK
            if rose.any():
                anomalies += rose
                logger.warning(
                    "empirical loss rose over a %d-iteration window at step %d",
                    DESCENT_WINDOW,
                    t,
                )
        mom = ADAM_BETA1 * mom + (1 - ADAM_BETA1) * grad
        vel = ADAM_BETA2 * vel + (1 - ADAM_BETA2) * grad * grad
        mhat = mom / (1 - ADAM_BETA1**t)
        vhat = vel / (1 - ADAM_BETA2**t)
        theta -= cfg.learning_rate * mhat / (np.sqrt(vhat) + ADAM_EPS)
    history[:, cfg.max_iters], _ = objective(theta)
    return theta, history, anomalies


def optimize_policy(
    dataset: Dataset,
    ladder: PriceLadder,
    kind: EstimatorKind,
    demand=None,
    config: TrainConfig | None = None,
    switching_weight: float | None = None,
    coef: np.ndarray | None = None,
) -> TrainResult:
    """Minimize the empirical corrupted loss over linear-softmax policies.

    ``coef`` may be supplied to skip recomputing the loss coefficients (they
    do not depend on the policy being trained).
    """
    if coef is None:
        coef = loss_coefficients(dataset, ladder, kind, demand, switching_weight)
    theta, history, anomalies = _adam_descent(
        with_bias(dataset.features), coef.T[None], config or TrainConfig()
    )
    return TrainResult(
        policy=LinearSoftmaxPolicy(theta=theta[0], ladder=ladder),
        loss_history=history[0],
        descent_anomalies=int(anomalies[0]),
    )


# ---------------------------------------------------------------------------
# Switching-weight selection
# ---------------------------------------------------------------------------

DEFAULT_WEIGHT_GRID = tuple(np.linspace(0.0, 1.0, 10))
CV_FOLDS = 5


def _fold_slices(n: int, folds: int) -> list[np.ndarray]:
    idx = np.arange(n)
    return [idx[f::folds] for f in range(folds)]


def select_switching_weight(
    dataset: Dataset,
    policy_matrix: np.ndarray,
    ladder: PriceLadder,
    demand,
    grid=DEFAULT_WEIGHT_GRID,
    folds: int = CV_FOLDS,
) -> float:
    """Evaluation-mode choice: the weight with the lowest cross-fold variance.

    The per-record losses of the two mixture endpoints are computed once;
    the candidate's loss is their convex mix, and its empirical variance is
    averaged over held-out folds.
    """
    grid = [float(c) for c in grid]
    if not grid or any(not 0.0 <= c <= 1.0 for c in grid):
        raise ValueError("grid must be nonempty within [0, 1]")
    pm = np.atleast_2d(policy_matrix)
    coef_mv = loss_coefficients(dataset, ladder, EstimatorKind.MIN_VARIANCE, demand)
    coef_rob = loss_coefficients(dataset, ladder, EstimatorKind.ROBUST)
    loss_mv = np.sum(pm * coef_mv, axis=1)
    loss_rob = np.sum(pm * coef_rob, axis=1)
    slices = _fold_slices(dataset.n, min(folds, dataset.n))
    best_c, best_var = grid[0], np.inf
    for c in grid:
        mixed = c * loss_mv + (1.0 - c) * loss_rob
        fold_vars = [float(np.var(mixed[s])) for s in slices if s.size > 0]
        score = float(np.mean(fold_vars))
        if score < best_var:
            best_c, best_var = c, score
    return best_c


def select_switching_weight_for_training(
    dataset: Dataset,
    ladder: PriceLadder,
    demand,
    grid=DEFAULT_WEIGHT_GRID,
    folds: int = CV_FOLDS,
    config: TrainConfig | None = None,
) -> float:
    """Optimization-mode choice: weight whose trained policy cross-validates best.

    For each candidate weight, train on the complement of each fold and score
    the held-out estimated loss with the same switching estimator; pick the
    weight with the lowest average held-out loss. The candidates' coefficients
    are built once, and each fold trains all of them in one stacked descent.
    """
    grid = [float(c) for c in grid]
    if not grid or any(not 0.0 <= c <= 1.0 for c in grid):
        raise ValueError("grid must be nonempty within [0, 1]")
    if len(grid) == 1:
        return grid[0]
    cfg = config or TrainConfig()
    coef_mv = loss_coefficients(dataset, ladder, EstimatorKind.MIN_VARIANCE, demand)
    coef_rob = loss_coefficients(dataset, ladder, EstimatorKind.ROBUST)
    coef_t = np.stack([c * coef_mv.T + (1.0 - c) * coef_rob.T for c in grid])
    Xb = with_bias(dataset.features)
    held_out = np.zeros(len(grid))
    for s in _fold_slices(dataset.n, min(folds, dataset.n)):
        if s.size == 0 or s.size == dataset.n:
            continue
        train = np.ones(dataset.n, dtype=bool)
        train[s] = False
        theta, _, _ = _adam_descent(Xb[train], coef_t[:, :, train], cfg)
        probs = softmax_rows(theta @ Xb[s].T)
        held_out += np.sum(probs * coef_t[:, :, s], axis=(1, 2)) / s.size
    return grid[int(np.argmin(held_out))]
