"""Plug-in demand models: per-price sale probabilities and what they imply.

A demand model maps customer features to one sale probability per ladder
rung. From that we derive everything the estimators plug in: the joint
outcome distribution (via the logging propensities), a valuation
distribution (via survival differencing, with isotonic repair when the
per-rung predictions are not monotone), and per-rung reward estimates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .ladder import Dataset, OutcomeDist, PriceLadder, Propensities, ValuationDist

# Predicted probabilities are clamped away from {0, 1} so that inverse
# weights and diag(f)^-1 terms stay bounded.
PROB_CLAMP = 1e-4


def clamp_probs(p: np.ndarray) -> np.ndarray:
    return np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class DemandModel:
    """Interface: per-customer sale probabilities across the ladder."""

    m: int

    def sale_probs(self, x: np.ndarray) -> np.ndarray:
        return self.sale_probs_matrix(np.atleast_2d(x))[0]

    def sale_probs_matrix(self, features: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass
class LogisticPredictor:
    """Linear-in-features log-odds model; bias is the last weight."""

    weights: np.ndarray  # (d + 1,)

    def predict(self, features: np.ndarray) -> np.ndarray:
        z = features @ self.weights[:-1] + self.weights[-1]
        return clamp_probs(sigmoid(z))


@dataclass
class FittedDemandModel(DemandModel):
    """One logistic predictor per ladder rung (a T-learner)."""

    predictors: list[LogisticPredictor]

    @property
    def m(self) -> int:
        return len(self.predictors)

    def sale_probs_matrix(self, features: np.ndarray) -> np.ndarray:
        features = np.atleast_2d(features)
        return np.column_stack([p.predict(features) for p in self.predictors])

    def to_json(self) -> str:
        return json.dumps(
            {
                "type": "per_price_logistic",
                "weights": [p.weights.tolist() for p in self.predictors],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "FittedDemandModel":
        doc = json.loads(text)
        if doc.get("type") != "per_price_logistic":
            raise ValueError(f"unsupported demand model type: {doc.get('type')!r}")
        return cls(
            predictors=[LogisticPredictor(np.asarray(w, dtype=np.float64)) for w in doc["weights"]]
        )


@dataclass
class CallableDemandModel(DemandModel):
    """Wraps a vectorized ``(features) -> (n, m) sale prob`` function."""

    fn: object
    m: int

    def sale_probs_matrix(self, features: np.ndarray) -> np.ndarray:
        return clamp_probs(np.asarray(self.fn(np.atleast_2d(features)), dtype=np.float64))


@dataclass
class BlendedDemandModel(DemandModel):
    """Convex blend of a base model with the constant-0.01 pessimist."""

    base: DemandModel
    alpha: float
    pessimist_prob: float = 0.01

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"blend weight must lie in [0, 1], got {self.alpha}")

    @property
    def m(self) -> int:
        return self.base.m

    def sale_probs_matrix(self, features: np.ndarray) -> np.ndarray:
        true_probs = self.base.sale_probs_matrix(features)
        return clamp_probs(
            self.alpha * true_probs + (1.0 - self.alpha) * self.pessimist_prob
        )


def blend_alpha(base: DemandModel, alpha: float) -> BlendedDemandModel:
    return BlendedDemandModel(base=base, alpha=alpha)


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------


@dataclass
class FitConfig:
    learning_rate: float = 0.05
    l2_penalty: float = 1e-3
    max_iters: int = 5000
    grad_tol: float = 1e-6
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def _fit_logistic(X: np.ndarray, y: np.ndarray, cfg: FitConfig) -> LogisticPredictor:
    """Full-batch log-loss minimization with adaptive-moment updates."""
    n, d = X.shape
    Xb = np.hstack([X, np.ones((n, 1))])
    w = np.zeros(d + 1)
    mom = np.zeros_like(w)
    vel = np.zeros_like(w)
    for t in range(1, cfg.max_iters + 1):
        p = sigmoid(Xb @ w)
        grad = Xb.T @ (p - y) / n + cfg.l2_penalty * w
        if np.max(np.abs(grad)) < cfg.grad_tol:
            break
        mom = cfg.beta1 * mom + (1 - cfg.beta1) * grad
        vel = cfg.beta2 * vel + (1 - cfg.beta2) * grad * grad
        mhat = mom / (1 - cfg.beta1**t)
        vhat = vel / (1 - cfg.beta2**t)
        w -= cfg.learning_rate * mhat / (np.sqrt(vhat) + cfg.eps)
    if not np.all(np.isfinite(w)):
        raise ArithmeticError("logistic fit diverged to non-finite weights")
    return LogisticPredictor(weights=w)


def _constant_predictor(rate: float, d: int) -> LogisticPredictor:
    rate = float(np.clip(rate, PROB_CLAMP, 1.0 - PROB_CLAMP))
    w = np.zeros(d + 1)
    w[-1] = np.log(rate / (1.0 - rate))
    return LogisticPredictor(weights=w)


def fit_tlearner(
    dataset: Dataset, ladder: PriceLadder, config: FitConfig | None = None
) -> FittedDemandModel:
    """Fit one sale-probability model per rung on that rung's records.

    Rungs with no observations fall back to the pooled sale rate across all
    prices (clamped), which keeps small-n runs well defined.
    """
    if dataset.n == 0:
        raise ValueError("cannot fit a demand model on an empty dataset")
    cfg = config or FitConfig()
    pooled = float(dataset.sold.mean())
    predictors = []
    for j in range(1, ladder.m + 1):
        rows = dataset.price_index == j
        if not np.any(rows):
            predictors.append(_constant_predictor(pooled, dataset.d))
            continue
        predictors.append(
            _fit_logistic(dataset.features[rows], dataset.sold[rows].astype(np.float64), cfg)
        )
    return FittedDemandModel(predictors=predictors)


# ---------------------------------------------------------------------------
# Derived quantities
# ---------------------------------------------------------------------------


def outcome_dist_from_demand(
    model: DemandModel, pi0: Propensities, x: np.ndarray
) -> OutcomeDist:
    """Joint (price, sale) distribution: sale block g*pi0, no-sale (1-g)*pi0."""
    g = clamp_probs(model.sale_probs(x))
    return OutcomeDist(np.concatenate([g * pi0.probs, (1.0 - g) * pi0.probs]))


def isotonic_nonincreasing(values: np.ndarray) -> np.ndarray:
    """Pool-adjacent-violators fit of a nonincreasing sequence (L2, unweighted)."""
    vals = list(np.asarray(values, dtype=np.float64))
    levels: list[list[float]] = []  # blocks as [mean, count]
    for v in vals:
        levels.append([v, 1.0])
        # A nonincreasing fit pools whenever a later block rises above an
        # earlier one.
        while len(levels) > 1 and levels[-2][0] < levels[-1][0]:
            m2, c2 = levels.pop()
            m1, c1 = levels.pop()
            levels.append([(m1 * c1 + m2 * c2) / (c1 + c2), c1 + c2])
    out = np.empty(len(vals))
    pos = 0
    for mean, count in levels:
        out[pos : pos + int(count)] = mean
        pos += int(count)
    return out


def valuation_dist_and_rewards(
    model: DemandModel, ladder: PriceLadder, x: np.ndarray
) -> tuple[ValuationDist, np.ndarray]:
    """Recover a valuation distribution and per-rung reward estimates.

    The per-rung sale probability is the survival P(V >= p_j); differencing
    gives valuation masses. Non-monotone predictions are repaired by
    isotonic projection on the survival curve first, so the masses stay
    nonnegative.
    """
    survival = repaired_survival(model.sale_probs(x))
    fv = survival_to_valuation_probs(survival)
    mu = ladder.margins * survival
    return ValuationDist(fv), mu


def repaired_survival(sale_probs: np.ndarray) -> np.ndarray:
    s = isotonic_nonincreasing(clamp_probs(np.asarray(sale_probs, dtype=np.float64)))
    return np.clip(s, 0.0, 1.0)


def survival_to_valuation_probs(survival: np.ndarray) -> np.ndarray:
    m = survival.size
    fv = np.empty(m + 1)
    fv[0] = 1.0 - survival[0]
    fv[1:m] = survival[:-1] - survival[1:]
    fv[m] = survival[-1]
    fv = np.maximum(fv, 0.0)
    return fv / fv.sum()
