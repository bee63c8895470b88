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

One damped-Newton (Levenberg-Marquardt) trainer, ``_damped_newton_descent``,
solves K such problems at once over shared features: theta is
(K, m, d + 1) and the coefficients are stored rung-major as (K, m, n), so
scores ``theta @ Xb.T`` are (K, m, n) and the softmax and ``<p, coef>``
reduce over the m rungs with whole rows of records as vectors. Each step
evaluates the loss of the problems still descending only, builds the
m(d + 1)-square Hessians of those whose step was kept, and solves all the
damped Newton systems with one batched solve; each problem stops on its own
gradient tolerance (``_StackedErm`` describes how a Hessian is built).
``optimize_policy`` is the K = 1 call; switching-weight cross-validation
trains every candidate weight of a fold in one call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .demand import fit_tlearner
from .ladder import Dataset, PolicyDist, PriceLadder


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


class _StackedErm:
    """Penalized mean corrupted loss of K ERM problems over shared features.

    ``coef_t`` holds each problem's coefficients rung-major, (K, m, n), for
    the n rows of ``features_bias``. Calling the objective at the theta
    (R, m, d + 1) of the problems ``rows`` returns their R losses, and keeps
    in slot s of the work arrays what ``derivatives`` needs for the gradient
    and Hessian of problem ``rows[s]``. The descent calls it with the problems
    still descending only, so a converged problem costs nothing.

    Each problem's data Hessian is ``sum_i S_i kron x_i x_i^T``, where
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
        n, width = features_bias.shape
        self.features_bias = features_bias
        self.features_t = np.ascontiguousarray(features_bias.T)
        self.coef_t = np.ascontiguousarray(coef_t, dtype=np.float64)
        k, m, _ = self.coef_t.shape
        # x_i x_i^T of every record, on and above the diagonal: (n, Q).
        first, second, feature_pairs = _upper_triangle(width)
        self.outer = features_bias[:, first] * features_bias[:, second]
        # Hessian entry ((j, a), (l, b)) is entry (pair (j, l), pair (a, b))
        # of the rung-pair weights' product with ``outer``.
        _, _, rung_pairs = _upper_triangle(m)
        self.hess_index = (
            rung_pairs[:, None, :, None] * first.size + feature_pairs[None, :, None, :]
        ).reshape(-1)
        self.probs = np.empty(self.coef_t.shape)
        self.score_grad = np.empty(self.coef_t.shape)
        # Flat, so that the first S problems' (m, S, n) view is contiguous.
        self.rung_major = np.empty((3, k * m * n))
        self.hess_weights = np.empty(m * (m + 1) // 2 * k * n)

    def __call__(self, theta: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """Penalized losses (R,) of the problems ``rows`` (all K when None) at
        their theta (R, m, d + 1)."""
        if rows is None:
            rows = np.arange(self.coef_t.shape[0])
        r, m, _ = theta.shape
        n = self.features_t.shape[1]
        probs, score_grad = self.probs[:r], self.score_grad[:r]
        np.matmul(theta.reshape(r * m, -1), self.features_t, out=probs.reshape(r * m, n))
        _softmax_in_place(probs)
        # The indices are valid, and "clip" spares the copy of ``out`` that
        # numpy makes under the default "raise".
        np.take(self.coef_t, rows, axis=0, out=score_grad, mode="clip")
        score_grad *= probs
        per_record = score_grad.sum(axis=1, keepdims=True)  # (R, 1, n)
        loss = per_record.mean(axis=2)[:, 0]
        loss += 0.5 * ERM_L2 * np.einsum("kjd,kjd->k", theta, theta)
        if np.all(np.isfinite(loss)):
            # d loss / d score_kji = p_kji (coef_kji - <p_ki, coef_ki>) / n
            score_grad -= probs * per_record
            score_grad /= n
        return loss

    def derivatives(
        self, theta: np.ndarray, slots: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Gradient (S, m, d + 1) and Hessian (S, m(d + 1), m(d + 1)) of the
        problems in ``slots`` (positions in the last call's rows) at the theta
        of that call."""
        _, m, n = self.coef_t.shape
        width = self.features_bias.shape[1]
        r = slots.size
        # Rung-major (m, S, n), so each block of rung pairs below is contiguous.
        neg_probs, score_grad, terms = (
            work[: m * r * n].reshape(m, r, n) for work in self.rung_major
        )
        np.take(self.probs.transpose(1, 0, 2), slots, axis=1, out=neg_probs, mode="clip")
        np.negative(neg_probs, out=neg_probs)
        np.take(self.score_grad.transpose(1, 0, 2), slots, axis=1, out=score_grad, mode="clip")
        grad = (score_grad.reshape(m * r, n) @ self.features_bias).reshape(m, r, width)
        grad = grad.transpose(1, 0, 2) + ERM_L2 * theta[slots]
        # One diagonal l - j at a time, in the order of _upper_triangle:
        # S_jj = (1 - 2 p_j) g_j, then S_jl = -(p_j g_l + p_l g_j).
        weights = self.hess_weights[: m * (m + 1) // 2 * r * n].reshape(-1, r, n)
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
        products = (weights.reshape(-1, n) @ self.outer).reshape(-1, r, self.outer.shape[1])
        products = products.transpose(1, 0, 2).reshape(r, -1)
        hess = np.take(products, self.hess_index, axis=1).reshape(r, m * width, m * width)
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


def _damped_newton_descent(
    features_bias: np.ndarray, coef_t: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Train K linear-softmax policies at once from theta = 0.

    ``coef_t`` is (K, m, n) over the shared (n, d + 1) ``features_bias``.
    Each problem takes Levenberg-Marquardt steps ``(H + mu I) s = -grad``,
    all solved together, and keeps a step only where it lowers that problem's
    penalized loss. A problem stops once its gradient is below ``GRAD_TOL``,
    and from then on is neither stepped nor evaluated, so each problem's steps
    are those of solving it alone. Returns theta (K, m, d + 1), the penalized
    loss history (K, max steps + 1) with entry t the loss after step t, each
    problem's step count, and each final gradient's max |entry|. Raises
    ``TrainingDiverged`` on a non-finite loss or when a problem has not
    converged in ``MAX_DESCENT_STEPS`` steps.
    """
    objective = _StackedErm(features_bias, coef_t)
    k, m, _ = coef_t.shape
    theta = np.zeros((k, m, features_bias.shape[1]))
    everything = np.arange(k)
    loss = _finite_loss(objective, theta, everything, 0)
    grad, hess = objective.derivatives(theta, everything)
    grad_max = np.max(np.abs(grad), axis=(1, 2))
    damping = np.full(k, DAMPING_START)
    steps = np.zeros(k, dtype=int)
    history = np.empty((k, MAX_DESCENT_STEPS + 1))
    history[:, 0] = loss
    for t in range(1, MAX_DESCENT_STEPS + 1):
        active = np.flatnonzero(~(grad_max < GRAD_TOL))
        if active.size == 0:
            break
        trial = theta[active] - _damped_newton_step(hess[active], grad[active], damping[active])
        trial_loss = _finite_loss(objective, trial, active, t)
        lowered = trial_loss < loss[active]
        better = active[lowered]
        damping[better] *= DAMPING_SHRINK
        damping[active[~lowered]] *= DAMPING_GROW
        steps[active] = t
        if better.size:
            theta[better] = trial[lowered]
            loss[better] = trial_loss[lowered]
            grad[better], hess[better] = objective.derivatives(trial, np.flatnonzero(lowered))
            grad_max[better] = np.max(np.abs(grad[better]), axis=(1, 2))
        history[:, t] = loss
    if not np.all(grad_max < GRAD_TOL):
        raise TrainingDiverged(
            f"training did not converge in {MAX_DESCENT_STEPS} steps "
            f"(max |gradient| {np.max(grad_max):.3g})"
        )
    return theta, history[:, : steps.max() + 1], steps, grad_max


def _damped_newton_step(hess: np.ndarray, grad: np.ndarray, damping: np.ndarray) -> np.ndarray:
    """Solve ``(H + mu I) s = grad`` for each problem, overwriting ``hess``."""
    _add_to_diagonal(hess, damping[:, None])
    return np.linalg.solve(hess, grad.reshape(len(grad), -1, 1)).reshape(grad.shape)


def _add_to_diagonal(matrices: np.ndarray, value) -> None:
    """Add ``value`` (a scalar or one per matrix, (R, 1)) to the diagonal of
    each of the (R, s, s) ``matrices`` in place."""
    size = matrices.shape[-1]
    matrices.reshape(matrices.shape[0], -1)[:, :: size + 1] += value


def _finite_loss(
    objective: _StackedErm, theta: np.ndarray, rows: np.ndarray, step: int
) -> np.ndarray:
    loss = objective(theta, rows)
    if not np.all(np.isfinite(loss)):
        raise TrainingDiverged(
            f"non-finite training loss at step {step} "
            f"(|theta|_max={np.max(np.abs(theta)):.3g})"
        )
    return loss


def optimize_policy(features: np.ndarray, ladder: PriceLadder, coef: np.ndarray) -> TrainResult:
    """Minimize the L2-penalized empirical corrupted loss over linear-softmax
    policies, for the records with these (n, d) ``features`` and (n, m) loss
    coefficients ``coef``."""
    theta, history, steps, grad_max = _damped_newton_descent(with_bias(features), coef.T[None])
    return TrainResult(
        policy=LinearSoftmaxPolicy(theta=theta[0], ladder=ladder),
        loss_history=history[0, : steps[0] + 1],
        steps=int(steps[0]),
        grad_max=float(grad_max[0]),
    )


# ---------------------------------------------------------------------------
# Switching-weight selection
# ---------------------------------------------------------------------------

# The candidate switching weights, as Python floats so that a chosen weight
# prints the same in JSON.
WEIGHT_GRID = tuple(float(c) for c in np.linspace(0.0, 1.0, 10))
CV_FOLDS = 5


def _fold_slices(n: int, folds: int) -> list[np.ndarray]:
    idx = np.arange(n)
    return [idx[f::folds] for f in range(folds)]


def select_switching_weight(
    policy_matrix: np.ndarray, coef_mv: np.ndarray, coef_rob: np.ndarray, folds: int = CV_FOLDS
) -> float:
    """Evaluation-mode choice: the weight with the lowest cross-fold variance.

    ``coef_mv`` and ``coef_rob`` are the dataset's mv and robust loss
    coefficients. The per-record losses of these two mixture endpoints are
    computed once; the candidate's loss is their convex mix, and its
    empirical variance is averaged over held-out folds.
    """
    pm = np.atleast_2d(policy_matrix)
    loss_mv = np.sum(pm * coef_mv, axis=1)
    loss_rob = np.sum(pm * coef_rob, axis=1)
    n = loss_mv.shape[0]
    slices = _fold_slices(n, min(folds, n))
    best_c, best_var = WEIGHT_GRID[0], np.inf
    for c in WEIGHT_GRID:
        mixed = c * loss_mv + (1.0 - c) * loss_rob
        fold_vars = [float(np.var(mixed[s])) for s in slices if s.size > 0]
        score = float(np.mean(fold_vars))
        if score < best_var:
            best_c, best_var = c, score
    return best_c


def select_switching_weight_for_training(
    features: np.ndarray, coef_mv: np.ndarray, coef_rob: np.ndarray, folds: int = CV_FOLDS
) -> float:
    """Optimization-mode choice: weight whose trained policy cross-validates best.

    ``coef_mv`` and ``coef_rob`` are the mv and robust loss coefficients of
    the records with these ``features``. For each candidate weight, train on
    the complement of each fold and score the held-out estimated loss
    (without the training penalty) with the same switching estimator; pick
    the weight with the lowest average held-out loss. Each fold trains all
    the candidates in one stacked descent.
    """
    coef_t = np.stack([c * coef_mv.T + (1.0 - c) * coef_rob.T for c in WEIGHT_GRID])
    Xb = with_bias(features)
    n = Xb.shape[0]
    held_out = np.zeros(len(WEIGHT_GRID))
    for s in _fold_slices(n, min(folds, n)):
        if s.size == 0 or s.size == n:
            continue
        train = np.ones(n, dtype=bool)
        train[s] = False
        theta, _, _, _ = _damped_newton_descent(Xb[train], coef_t[:, :, train])
        probs = softmax_rows(theta @ Xb[s].T)
        held_out += np.sum(probs * coef_t[:, :, s], axis=(1, 2)) / s.size
    return WEIGHT_GRID[int(np.argmin(held_out))]
