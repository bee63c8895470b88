"""Linear-softmax pricing policies and empirical risk minimization.

The corrupted losses are linear in the policy's rung probabilities, so the
objective for a dataset reduces to ``mean_i <softmax(theta [x_i; 1]), coef_i>``
over an (n, m) coefficient matrix that the trainer and both switching-weight
selectors take as given (``losses.estimator_coefficients`` decides which
matrices a dataset needs). Gradients therefore flow only through the softmax.
Pushing the softmax toward a vertex keeps lowering that objective, so
training adds an L2 penalty ``ERM_L2 / 2 * |theta|^2`` on every weight, bias
included; the penalized problem has finite stationary points, and a trained
policy is one of them.

Every per-record kernel reduces over the rungs rung-major, on an (m, n)
array, so that numpy adds whole rows of records rather than m entries per
record. ``softmax_rows`` softmaxes an (m, n) copy of its scores and returns
the (n, m) transpose view, so a caller that reduces over the rungs gets the
rung-major array back with ``.T`` and no copy.

``optimize_policy`` trains one policy by damped-Newton (Levenberg-Marquardt)
steps from theta = 0. Its objective stores the coefficients rung-major as
(m, n), so the softmax and ``<p, coef>`` reduce over the m rungs with whole
rows of records as vectors, and it builds the m(d + 1)-square Hessian from
its unique entries (``_ErmObjective`` describes how).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .demand import fit_tlearner
from .ladder import Dataset, PolicyDist, PriceLadder
from .losses import policy_losses


def _softmax_in_place(scores: np.ndarray) -> np.ndarray:
    """Softmax over axis 0, the rungs of (m, n) scores, overwriting and
    returning ``scores``."""
    scores -= scores.max(axis=0)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=0)
    return scores


def softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Softmax over the rungs of (n, m) scores.

    Returns an (n, m) array that is the transpose view of a C-contiguous
    (m, n) one, so ``.T`` gives the rung-major probabilities without a copy.
    """
    work = np.array(np.asarray(scores, dtype=np.float64).T, order="C")
    return _softmax_in_place(work).T


def with_bias(features: np.ndarray) -> np.ndarray:
    features = np.atleast_2d(features)
    return np.hstack([features, np.ones((features.shape[0], 1))])


@dataclass
class LinearSoftmaxPolicy:
    """One linear score per rung (bias last), normalized by a softmax."""

    theta: np.ndarray  # (m, d + 1)
    ladder: PriceLadder

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=np.float64)
        if self.theta.ndim != 2 or self.theta.shape[0] != self.ladder.m:
            raise ValueError("theta must be a matrix with one row per ladder rung")

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


@dataclass
class ConstantPolicy:
    """Same rung distribution for every customer."""

    dist: PolicyDist

    def probs_matrix(self, features: np.ndarray) -> np.ndarray:
        n = np.atleast_2d(features).shape[0]
        return np.tile(self.dist.probs, (n, 1))


@dataclass
class GreedyDemandPolicy:
    """Deterministic: pick the rung with the highest estimated reward.

    Ties break toward the lower rung (argmax returns the first maximum).
    """

    demand: object  # a demand plug-in: anything with ``sale_probs_matrix``
    ladder: PriceLadder

    def probs_matrix(self, features: np.ndarray) -> np.ndarray:
        features = np.atleast_2d(features)
        rewards = self.demand.sale_probs_matrix(features) * self.ladder.margins
        best = np.argmax(rewards, axis=1)
        out = np.zeros((features.shape[0], self.ladder.m))
        out[np.arange(features.shape[0]), best] = 1.0
        return out


def target_policy_for_evaluation(train_split: Dataset, ladder: PriceLadder) -> GreedyDemandPolicy:
    """The to-be-evaluated policy: greedy on a demand fit from a small split."""
    if train_split.n == 0:
        raise ValueError("target policy needs a nonempty training split")
    model = fit_tlearner(train_split, ladder)
    return GreedyDemandPolicy(demand=model, ladder=ladder)


# ---------------------------------------------------------------------------
# Empirical risk minimization
# ---------------------------------------------------------------------------

# Every problem minimizes its mean corrupted loss + ERM_L2 / 2 * |theta|^2
# (bias included). The loss is linear in the rung probabilities, so without
# the penalty pushing the softmax toward a vertex keeps paying and there is no
# finite minimizer. The data gradient sums to zero across rungs, so with the
# bias unpenalized the Hessian would be singular along a common bias shift.
# A problem stops once each entry of its penalized gradient is below
# GRAD_TOL. In a 100-rep learn-sweep at n = 100 and 500 (10 800 descents)
# the median problem took 23 steps and the slowest 116.
ERM_L2 = 1e-2
GRAD_TOL = 1e-8
MAX_DESCENT_STEPS = 500

# Levenberg-Marquardt damping: its starting value, and the factors applied
# after a step that lowered the loss and after one that did not.
DAMPING_START = 1.0
DAMPING_SHRINK = 0.5
DAMPING_GROW = 10.0


@dataclass
class TrainResult:
    """A trained policy and how its descent went.

    ``steps`` counts damped Newton solves, rejected steps included.
    ``loss_history`` holds the penalized loss at theta = 0 and after each
    step (``steps + 1`` entries); it never rises. ``grad_max`` is the final
    penalized gradient's max |entry|, below ``GRAD_TOL``.
    """

    policy: LinearSoftmaxPolicy
    loss_history: np.ndarray
    steps: int
    grad_max: float


class TrainingDiverged(ArithmeticError):
    pass


class _ErmObjective:
    """Penalized mean corrupted loss of one ERM problem, and its derivatives.

    ``coef_t`` holds the coefficients rung-major, (m, n), for the n rows of
    ``features_bias``. Calling the objective at a theta (m, d + 1) returns its
    loss and keeps in the work arrays what ``derivatives`` needs for the
    gradient and Hessian at that theta.

    The data Hessian is ``sum_i S_i kron x_i x_i^T``, where
    ``S_i = diag(g_i) - p_i g_i^T - g_i p_i^T`` is record i's score Hessian
    (g_i the score gradient). Both factors are symmetric, so ``derivatives``
    forms ``S_i`` for the m(m + 1)/2 rung pairs j <= l, multiplies those
    weights against the (d + 1)(d + 2)/2 entries of ``x_i x_i^T`` on and above
    its diagonal in one matrix product, and spreads the result over the full
    m(d + 1)-square Hessian with one precomputed ``take``; the Hessian is
    exactly symmetric. The work arrays are made once and reused by every
    call: allocating them afresh at each step costs more in page faults than
    the arithmetic they hold.
    """

    def __init__(self, features_bias: np.ndarray, coef_t: np.ndarray):
        width = features_bias.shape[1]
        self.features_bias = features_bias
        self.features_t = np.ascontiguousarray(features_bias.T)
        self.coef_t = np.ascontiguousarray(coef_t, dtype=np.float64)
        m = self.coef_t.shape[0]
        # x_i x_i^T of every record, on and above the diagonal: (n, Q).
        first, second, feature_pairs = _upper_triangle(width)
        self.outer = features_bias[:, first] * features_bias[:, second]
        # Hessian entry ((j, a), (l, b)) is entry (pair (j, l), pair (a, b))
        # of the rung-pair weights' product with ``outer``.
        _, _, rung_pairs = _upper_triangle(m)
        self.hess_index = (
            rung_pairs[:, None, :, None] * first.size + feature_pairs[None, :, None, :]
        ).reshape(-1)
        work = np.empty((4,) + self.coef_t.shape)
        self.probs, self.score_grad, self.neg_probs, self.terms = work
        self.hess_weights = np.empty((m * (m + 1) // 2, self.coef_t.shape[1]))

    def __call__(self, theta: np.ndarray) -> float:
        """The penalized loss at theta (m, d + 1)."""
        n = self.features_t.shape[1]
        probs, score_grad = self.probs, self.score_grad
        np.matmul(theta, self.features_t, out=probs)
        _softmax_in_place(probs)
        np.multiply(self.coef_t, probs, out=score_grad)
        per_record = score_grad.sum(axis=0)
        loss = per_record.mean() + 0.5 * ERM_L2 * np.einsum("jd,jd->", theta, theta)
        if np.isfinite(loss):
            # d loss / d score_ji = p_ji (coef_ji - <p_i, coef_i>) / n
            score_grad -= probs * per_record
            score_grad /= n
        return float(loss)

    def derivatives(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gradient (m, d + 1) and Hessian (m(d + 1), m(d + 1)) at the theta of
        the last call."""
        m = self.coef_t.shape[0]
        size = m * self.features_bias.shape[1]
        score_grad, terms = self.score_grad, self.terms
        neg_probs = np.negative(self.probs, out=self.neg_probs)
        grad = score_grad @ self.features_bias + ERM_L2 * theta
        # One diagonal l - j at a time, in the order of _upper_triangle:
        # S_jj = (1 - 2 p_j) g_j, then S_jl = -(p_j g_l + p_l g_j).
        weights = self.hess_weights
        np.multiply(neg_probs, 2.0, out=terms)
        terms += 1.0
        np.multiply(terms, score_grad, out=weights[:m])
        start = m
        for offset in range(1, m):
            block, term = weights[start : start + m - offset], terms[: m - offset]
            np.multiply(neg_probs[: m - offset], score_grad[offset:], out=block)
            np.multiply(score_grad[: m - offset], neg_probs[offset:], out=term)
            block += term
            start += m - offset
        hess = np.take(weights @ self.outer, self.hess_index).reshape(size, size)
        _add_to_diagonal(hess, ERM_L2)
        return grad, hess


def _upper_triangle(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The index pairs (a, b) with a <= b < size, one diagonal b - a at a
    time, as two arrays; and the (size, size) position in that order of each
    entry (a, b), or of (b, a) when b < a."""
    first = np.concatenate([np.arange(size - offset) for offset in range(size)])
    second = first + np.repeat(np.arange(size), np.arange(size, 0, -1))
    positions = np.empty((size, size), dtype=np.intp)
    positions[first, second] = positions[second, first] = np.arange(first.size)
    return first, second, positions


def _add_to_diagonal(matrix: np.ndarray, value: float) -> None:
    """Add ``value`` to the diagonal of the square ``matrix`` in place."""
    matrix.reshape(-1)[:: matrix.shape[0] + 1] += value


def _finite_loss(objective: _ErmObjective, theta: np.ndarray, step: int) -> float:
    loss = objective(theta)
    if not np.isfinite(loss):
        raise TrainingDiverged(
            f"non-finite training loss at step {step} "
            f"(|theta|_max={np.max(np.abs(theta)):.3g})"
        )
    return loss


def optimize_policy(features: np.ndarray, ladder: PriceLadder, coef: np.ndarray) -> TrainResult:
    """Minimize the L2-penalized empirical corrupted loss over linear-softmax
    policies, for the records with these (n, d) ``features`` and (n, m) loss
    coefficients ``coef``.

    The descent starts at theta = 0 and takes Levenberg-Marquardt steps
    ``(H + mu I) s = -grad``. It keeps a step only where it lowers the
    penalized loss, and stops once every gradient entry is below
    ``GRAD_TOL``. Raises ``TrainingDiverged`` on a non-finite loss or when it
    has not converged in ``MAX_DESCENT_STEPS`` steps.
    """
    features_bias = with_bias(features)
    objective = _ErmObjective(features_bias, coef.T)
    theta = np.zeros((coef.shape[1], features_bias.shape[1]))
    loss = _finite_loss(objective, theta, 0)
    grad, hess = objective.derivatives(theta)
    grad_max = np.max(np.abs(grad))
    damping = DAMPING_START
    history = [loss]
    while not grad_max < GRAD_TOL:
        if len(history) > MAX_DESCENT_STEPS:
            raise TrainingDiverged(
                f"training did not converge in {MAX_DESCENT_STEPS} steps "
                f"(max |gradient| {grad_max:.3g})"
            )
        damped = hess.copy()  # a rejected step retries with the same Hessian
        _add_to_diagonal(damped, damping)
        trial = theta - np.linalg.solve(damped, grad.reshape(-1)).reshape(theta.shape)
        trial_loss = _finite_loss(objective, trial, len(history))
        if trial_loss < loss:
            damping *= DAMPING_SHRINK
            theta, loss = trial, trial_loss
            grad, hess = objective.derivatives(trial)
            grad_max = np.max(np.abs(grad))
        else:
            damping *= DAMPING_GROW
        history.append(loss)
    return TrainResult(
        policy=LinearSoftmaxPolicy(theta=theta, ladder=ladder),
        loss_history=np.asarray(history),
        steps=len(history) - 1,
        grad_max=float(grad_max),
    )


# ---------------------------------------------------------------------------
# Switching-weight selection
# ---------------------------------------------------------------------------

# The candidate switching weights, as Python floats so that a chosen weight
# prints the same in JSON.
WEIGHT_GRID = tuple(float(c) for c in np.linspace(0.0, 1.0, 10))
CV_FOLDS = 5


def select_switching_weight(
    policy_matrix: np.ndarray, coef_mv: np.ndarray, coef_rob: np.ndarray, folds: int = CV_FOLDS
) -> float:
    """Evaluation-mode choice: the weight with the lowest cross-fold variance.

    ``coef_mv`` and ``coef_rob`` are the dataset's mv and robust loss
    coefficients. Ties go to the earliest weight in ``WEIGHT_GRID``.
    """
    scores = _cross_fold_variances(policy_matrix, coef_mv, coef_rob, folds)
    return WEIGHT_GRID[int(np.argmin(scores))]


def _cross_fold_variances(
    policy_matrix: np.ndarray, coef_mv: np.ndarray, coef_rob: np.ndarray, folds: int
) -> np.ndarray:
    """Each ``WEIGHT_GRID`` weight's loss variance, averaged over the folds.

    The per-record losses of the two mixture endpoints are computed once;
    each weight's loss is their convex mix, one row per weight, and each
    fold's variance is taken on a strided view of those rows.
    """
    pm = np.atleast_2d(policy_matrix)
    loss_mv = policy_losses(pm, coef_mv)
    loss_rob = policy_losses(pm, coef_rob)
    c = np.asarray(WEIGHT_GRID)[:, None]
    mixed = c * loss_mv + (1.0 - c) * loss_rob
    f = min(folds, loss_mv.shape[0])
    fold_vars = np.stack([np.var(mixed[:, k::f], axis=1) for k in range(f)], axis=1)
    return fold_vars.mean(axis=1)


def select_switching_weight_for_training(
    features: np.ndarray,
    ladder: PriceLadder,
    coef_mv: np.ndarray,
    coef_rob: np.ndarray,
    folds: int = CV_FOLDS,
) -> tuple[float, TrainResult]:
    """Optimization-mode choice: the evaluation rule at a robust pilot policy.

    ``coef_mv`` and ``coef_rob`` are the mv and robust loss coefficients of
    the records with these ``features``. The pilot is the policy trained on
    the robust coefficients, which need no demand model. The weight is the
    one ``select_switching_weight`` picks at the pilot's probabilities on the
    same records: the lowest cross-fold variance of the mixed losses (Wang,
    Agarwal & Dudik, arXiv:1612.01205). Returns the weight and the pilot's
    training, which is the robust policy of these records.
    """
    pilot = optimize_policy(features, ladder, coef_rob)
    probs = pilot.policy.probs_matrix(features)
    return select_switching_weight(probs, coef_mv, coef_rob, folds), pilot
