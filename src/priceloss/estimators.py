"""The left-inverse reweighting family behind every unbiased corrupted loss.

Every matrix built here is (m+1) x 2m and turns an observed (price, sale)
outcome into an unbiased sample of the valuation-space loss: with R from this
module and ``lv`` a valuation loss vector, the per-outcome corrupted losses
are the entries of ``R.T @ lv``.

Two families live side by side:

* exact left inverses (``R @ T = I``): minimum-variance, robust, switching;
* generalized inverses (``T' R' lv = lv`` for every valuation loss vector):
  inverse propensity scoring and its complement, which are sparse and need
  no demand input.

The doubly robust pieces reproduce the minimum-variance matrix as
``R_DM + R_IPS - R_DIPS`` whenever the plugged-in outcome distribution is the
push-forward of the plugged-in valuation distribution.

Each matrix is built explicitly for one customer with numpy's dense solver.
They are the readable reference for the closed form in ``losses``, which must
reach the same corrupted losses. Minimum-variance plug-ins are used as given,
so every outcome needs positive plug-in mass.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .ladder import OutcomeDist, Propensities, ValuationDist
from .transfer import TransferMatrix, build_transfer, lower_mask, upper_mask

LEFT_INVERSE_TOL = 1e-9


class EstimatorKind(str, enum.Enum):
    MIN_VARIANCE = "mv"
    ROBUST = "robust"
    IPS = "ips"
    CIPS = "cips"
    SWITCHING = "cmix"


def hop_matrix(m: int) -> np.ndarray:
    """H: (m+1, m) bidiagonal with -1 on the diagonal, +1 below.

    Satisfies U @ H = I and L @ H = -I for the transfer masks.
    """
    h = np.zeros((m + 1, m))
    idx = np.arange(m)
    h[idx, idx] = -1.0
    h[idx + 1, idx] = 1.0
    return h


def left_inverse_defect(reweight: np.ndarray, transfer: TransferMatrix) -> float:
    """Max-abs deviation of R @ T from the identity."""
    return float(np.max(np.abs(reweight @ transfer.mat - np.eye(transfer.m + 1))))


def min_variance_reweight(transfer: TransferMatrix, outcome_hat: OutcomeDist) -> np.ndarray:
    """Left inverse with minimum conditional loss variance at ``outcome_hat``.

    Computed by solving (T' D^-1 T) R = T' D^-1 rather than forming any
    explicit inverse; a wrong plug-in only costs variance, never bias. Every
    outcome needs positive plug-in mass, since D^-1 divides by it.
    """
    if outcome_hat.m != transfer.m:
        raise ValueError("outcome distribution size does not match the transfer matrix")
    f = outcome_hat.probs
    if np.any(f <= 0.0):
        raise ValueError("plug-in outcome distribution has nonpositive mass")
    weighted = transfer.mat.T / f  # T' D^-1, shape (m+1, 2m)
    mat = np.linalg.solve(weighted @ transfer.mat, weighted)
    defect = left_inverse_defect(mat, transfer)
    if defect > LEFT_INVERSE_TOL:
        raise ArithmeticError(
            f"minimum-variance construction lost the left-inverse property ({defect:.2e})"
        )
    return mat


def robust_reweight(transfer: TransferMatrix) -> np.ndarray:
    """Left inverse minimizing the worst-case variance over valuation distributions.

    The adversary's optimum splits customers between the never-buys and
    always-buys slots, so the matrix is the minimum-variance solution at the
    outcome distribution induced by that split: diag weights (pi_0; pi_0).
    Using the mask factorization this is (U'diag(pi0)U + L'diag(pi0)L)^-1 [U' L'].
    """
    m = transfer.m
    pi0 = transfer.pi0
    u, low = upper_mask(m), lower_mask(m)
    gram = u.T @ (pi0[:, None] * u) + low.T @ (pi0[:, None] * low)
    mat = np.linalg.solve(gram, np.hstack([u.T, low.T]))
    if left_inverse_defect(mat, transfer) > LEFT_INVERSE_TOL:
        raise ArithmeticError("robust construction lost the left-inverse property")
    return mat


def ips_reweight(pi0: Propensities) -> np.ndarray:
    """Inverse-propensity reweighting: sparse, supported on sale outcomes only.

    A generalized inverse: T' R' lv = lv holds for every valuation loss
    vector (which is pinned to 0 at the no-purchase slot), though R T != I.
    Zero variance when nobody's valuation reaches the cheapest rung.
    """
    m = pi0.m
    mat = np.zeros((m + 1, 2 * m))
    mat[:, :m] = hop_matrix(m) / pi0.probs
    return mat


def cips_reweight(pi0: Propensities) -> np.ndarray:
    """Complement of IPS: the data-dependent part lives on no-sale outcomes.

    The mirrored bidiagonal block alone telescopes against the top of the
    loss vector instead of the pinned bottom slot, so it recovers
    ``lv - lv[m] * ones`` rather than ``lv``. Because every column of the
    transfer matrix sums to one, adding the constant ``lv[m]`` to every
    outcome (a rank-one last row of ones) restores the exact generalized
    inverse identity. The result has zero variance when every customer's
    valuation tops the ladder: all mass falls on sale outcomes, which carry
    only the constant.
    """
    m = pi0.m
    mat = np.zeros((m + 1, 2 * m))
    mat[:, m:] = -hop_matrix(m) / pi0.probs
    mat[m, :] += 1.0
    return mat


def switching_reweight(min_variance: np.ndarray, robust: np.ndarray, weight: float) -> np.ndarray:
    """Convex mix ``c * R_mv + (1-c) * R_robust``; unbiased by linearity."""
    if not 0.0 <= weight <= 1.0:
        raise ValueError(f"switching weight must lie in [0, 1], got {weight}")
    if min_variance.shape != robust.shape:
        raise ValueError("component matrices have mismatched shapes")
    return weight * min_variance + (1.0 - weight) * robust


# ---------------------------------------------------------------------------
# Doubly robust pieces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DoublyRobustParts:
    direct: np.ndarray  # R_DM: every outcome gets the direct-method value
    ips: np.ndarray  # R_IPS
    direct_ips: np.ndarray  # R_DIPS: the overlap correction

    def combined(self) -> np.ndarray:
        return self.direct + self.ips - self.direct_ips


def dr_decomposition(
    transfer: TransferMatrix,
    valuation_hat: ValuationDist,
    pi0: Propensities,
) -> DoublyRobustParts:
    """Split the minimum-variance matrix into direct, IPS and correction parts.

    The plug-in outcome distribution implied by ``valuation_hat`` must give
    every outcome positive mass, otherwise the minimum-variance matrix it
    should reproduce does not exist and we refuse to proceed.
    """
    m = transfer.m
    if valuation_hat.m != m or pi0.m != m:
        raise ValueError("mismatched ladder sizes")
    induced = transfer.mat @ valuation_hat.probs
    if np.any(induced <= 0.0):
        raise ValueError("plug-in valuation distribution induces nonpositive outcome mass")
    survival_tail = np.cumsum(valuation_hat.probs[::-1])[::-1]  # P(V >= slot)
    sale_mass = pi0.probs * survival_tail[1:]  # f_hat on the sale block
    h = hop_matrix(m)
    direct = np.outer(valuation_hat.probs, np.ones(2 * m))
    ips = np.zeros((m + 1, 2 * m))
    ips[:, :m] = h / pi0.probs
    block = h * (sale_mass / pi0.probs**2)
    direct_ips = np.hstack([block, block])
    return DoublyRobustParts(direct=direct, ips=ips, direct_ips=direct_ips)


def plugin_rewards(valuation_hat: ValuationDist, margins: np.ndarray) -> np.ndarray:
    """Estimated per-rung reward: (p_j - C) * P(V >= p_j) under the plug-in."""
    survival = np.cumsum(valuation_hat.probs[::-1])[::-1][1:]
    return np.asarray(margins, dtype=np.float64) * survival


def doubly_robust_reward(
    price_index: int,
    sold: bool,
    policy_probs: np.ndarray,
    mu_hat: np.ndarray,
    pi0: Propensities,
    margins: np.ndarray,
) -> float:
    """Direct-method reward plus the inverse-propensity residual correction.

    Equals the negated minimum-variance corrupted loss when ``mu_hat`` comes
    from the same plug-in that feeds the minimum-variance matrix.
    """
    j = price_index - 1
    observed = float(margins[j]) * (1.0 if sold else 0.0)
    base = float(np.dot(mu_hat, policy_probs))
    correction = (observed - float(mu_hat[j])) / float(pi0.probs[j])
    return base + correction * float(policy_probs[j])


def reweight_for(
    kind: EstimatorKind,
    pi0: Propensities,
    outcome_hat: OutcomeDist | None = None,
    switching_weight: float | None = None,
) -> np.ndarray:
    """Build the reweight matrix of the requested kind for one customer."""
    transfer = build_transfer(pi0)
    if kind == EstimatorKind.IPS:
        return ips_reweight(pi0)
    if kind == EstimatorKind.CIPS:
        return cips_reweight(pi0)
    if kind == EstimatorKind.ROBUST:
        return robust_reweight(transfer)
    if kind == EstimatorKind.MIN_VARIANCE:
        if outcome_hat is None:
            raise ValueError(f"{kind.value} needs a plug-in outcome distribution")
        return min_variance_reweight(transfer, outcome_hat)
    if kind == EstimatorKind.SWITCHING:
        if outcome_hat is None:
            raise ValueError("switching needs a plug-in outcome distribution")
        if switching_weight is None:
            raise ValueError("switching needs an explicit weight in [0, 1]")
        return switching_reweight(
            min_variance_reweight(transfer, outcome_hat),
            robust_reweight(transfer),
            switching_weight,
        )
    raise ValueError(f"unknown estimator kind: {kind}")
