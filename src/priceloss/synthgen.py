"""Synthetic pricing environments with known latent valuations.

Customers are standard-normal feature vectors. Demand is a logistic surface
whose price slope is nonnegative by construction, so sale probability never
increases with price. Outcomes across the whole ladder are sampled with a
single uniform draw per customer (comonotone coupling): that leaves every
per-price sale marginal untouched but makes the outcome vector monotone, so
each customer has a well-defined valuation index.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .demand import CallableDemandModel, sigmoid
from .ladder import Dataset, PriceLadder
from .policy import softmax_rows


class SurfaceKind(str, enum.Enum):
    BASE = "base"
    MISSPEC_I = "misspec1"
    MISSPEC_II = "misspec2"


_MIN_DIM = {SurfaceKind.BASE: 3, SurfaceKind.MISSPEC_I: 4, SurfaceKind.MISSPEC_II: 4}


@dataclass(frozen=True)
class DemandSurface:
    """Logistic demand: sigmoid(w.x - slope(x) * p / price_scale - logit_shift).

    The price enters the logit normalized by ``price_scale`` (by default the
    top of the canonical 1..5 ladder). With raw prices in the logit the
    achievable revenue collapses to a fraction of what the benchmarks report;
    normalizing reproduces the reported reward and error scales.
    """

    kind: SurfaceKind
    weights: np.ndarray  # (d,)
    logit_shift: float = 0.0
    price_scale: float = 5.0

    def __post_init__(self):
        object.__setattr__(
            self, "weights", np.asarray(self.weights, dtype=np.float64)
        )
        d = self.weights.size
        if d < _MIN_DIM[self.kind]:
            raise ValueError(
                f"surface {self.kind.value} needs at least {_MIN_DIM[self.kind]} features, got {d}"
            )
        if not math.isfinite(self.logit_shift):
            raise ValueError(f"logit shift must be finite, got {self.logit_shift!r}")
        if not math.isfinite(self.price_scale) or self.price_scale <= 0:
            raise ValueError(f"price scale must be positive and finite, got {self.price_scale!r}")

    @property
    def d(self) -> int:
        return int(self.weights.size)

    def price_slope(self, features: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(features)
        if self.kind == SurfaceKind.BASE:
            return np.abs(x[:, 0] + x[:, 1] + x[:, 2])
        if self.kind == SurfaceKind.MISSPEC_I:
            return 5.0 * np.abs(x[:, 0] * x[:, 1] * x[:, 2] * x[:, 3])
        return np.abs(x[:, 0] * x[:, 1] + x[:, 1] * x[:, 2] + x[:, 2] * x[:, 3]) / 3.0

    def demand_matrix(self, features: np.ndarray, prices: np.ndarray) -> np.ndarray:
        """True sale probability at every ladder price, (n, m)."""
        x = np.atleast_2d(features)
        score = x @ self.weights
        slope = self.price_slope(x)
        scaled = np.asarray(prices, dtype=np.float64) / self.price_scale
        logits = score[:, None] - slope[:, None] * scaled - self.logit_shift
        return sigmoid(logits)

    def as_model(self, ladder: PriceLadder) -> CallableDemandModel:
        """Expose the true surface as a demand plug-in."""
        return CallableDemandModel(fn=lambda feats: self.demand_matrix(feats, ladder.prices))


def sample_surface(
    rng: np.random.Generator,
    kind: SurfaceKind = SurfaceKind.BASE,
    d: int = 10,
    logit_shift: float = 0.0,
    price_scale: float = 5.0,
) -> DemandSurface:
    """Draw surface weights uniformly on [0, 1]^d."""
    return DemandSurface(
        kind=kind,
        weights=rng.uniform(0.0, 1.0, size=d),
        logit_shift=logit_shift,
        price_scale=price_scale,
    )


@dataclass(frozen=True)
class GenConfig:
    n: int
    d: int = 10
    ladder: PriceLadder = field(
        default_factory=lambda: PriceLadder(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
    )
    softmax_scale: float = 5.0  # sharpness of the logging policy
    surface_kind: SurfaceKind = SurfaceKind.BASE
    logit_shift: float = 0.0
    price_scale: float = 5.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if not math.isfinite(self.softmax_scale):
            raise ValueError(f"softmax scale must be finite, got {self.softmax_scale!r}")


def logging_policy_matrix(demand: np.ndarray, scale: float = 5.0) -> np.ndarray:
    """Historic pricing distribution: softmax over scale * demand, where
    ``demand`` is the true sale probability at each rung, (n, m)."""
    return softmax_rows(scale * demand)


def _sample_categorical_rows(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One 0-based rung per row of the (n, m) ``probs``, by one uniform each."""
    cum = np.cumsum(np.ascontiguousarray(probs.T), axis=0)
    cum[-1] = 1.0
    u = rng.random(probs.shape[0])
    return (u > cum).sum(axis=0)


def generate_dataset(
    surface: DemandSurface,
    config: GenConfig,
    rng: np.random.Generator,
) -> Dataset:
    """Draw n observational records with latent valuations attached."""
    if surface.d != config.d:
        raise ValueError("surface dimension does not match the config")
    ladder = config.ladder
    X = rng.standard_normal((config.n, config.d))
    demand_t = np.ascontiguousarray(surface.demand_matrix(X, ladder.prices).T)  # (m, n)
    pi0 = logging_policy_matrix(demand_t.T, config.softmax_scale)
    # One uniform per customer drives the outcome at every price; demand is
    # nonincreasing in price, so the outcome vector is monotone and the
    # valuation is just the number of prices the customer accepts.
    u = rng.random(config.n)
    valuation = (u <= demand_t).sum(axis=0)
    price0 = _sample_categorical_rows(pi0, rng)
    sold = valuation >= (price0 + 1)
    return Dataset(
        features=X,
        price_index=price0 + 1,
        sold=sold,
        propensities=pi0,
        valuations=valuation,
    )


def true_policy_value(
    policy_matrix: np.ndarray, valuations: np.ndarray, ladder: PriceLadder
) -> float:
    """Mean valuation-space loss of the policy on records with known latents.

    This is the ground-truth side of the evaluation metric: the expected
    negative margin the policy would collect from these customers.
    """
    if valuations is None:
        raise ValueError("records carry no latent valuations")
    pm = np.atleast_2d(np.asarray(policy_matrix, dtype=np.float64))
    vals = np.asarray(valuations, dtype=np.int64)
    if pm.shape[0] != vals.size:
        raise ValueError("policy matrix rows must match the number of records")
    # Rung-major, (m, n): accept[j, i] = 1 iff customer i buys at rung j+1
    pm_t = np.ascontiguousarray(pm.T)
    accept = (np.arange(1, ladder.m + 1)[:, None] <= vals).astype(np.float64)
    per_record = -((pm_t * ladder.margins[:, None]) * accept).sum(axis=0)
    return float(per_record.mean())

