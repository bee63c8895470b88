"""Transfer matrix: the linear map from valuation to observed-outcome space.

For a ladder of m prices and logging distribution pi_0, the transfer matrix
is the 2m x (m+1) stochastic-column matrix

    rows 0..m-1   (sale at p_{i+1}):    pi_0(p_{i+1}) wherever valuation >= price
    rows m..2m-1  (no sale at p_{i+1}): pi_0(p_{i+1}) wherever valuation <  price

so column v is the outcome distribution of a customer whose valuation sits in
slot v. It factors as ``diag(pi_0, pi_0) @ [U; L]`` with the 0/1 masks below;
that factorization is what the closed-form estimators exploit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ladder import Propensities


def upper_mask(m: int) -> np.ndarray:
    """U: (m, m+1) 0/1 mask, U[i, v] = 1 iff a valuation-v customer buys at rung i+1."""
    return np.triu(np.ones((m, m + 1)), k=1)


def lower_mask(m: int) -> np.ndarray:
    """L: (m, m+1) 0/1 mask, L[i, v] = 1 iff a valuation-v customer refuses rung i+1."""
    return np.tril(np.ones((m, m + 1)), k=0)


@dataclass(frozen=True)
class TransferMatrix:
    mat: np.ndarray  # (2m, m+1)
    m: int

    @property
    def pi0(self) -> np.ndarray:
        """The logging distribution recoverable from any row pair."""
        return self.mat[: self.m, self.m]


def build_transfer(pi0: Propensities) -> TransferMatrix:
    """Construct the transfer matrix for one customer's logging distribution;
    each column sums to the propensities' total (1 within ``SIMPLEX_TOL``)."""
    m = pi0.m
    p = pi0.probs[:, None]
    return TransferMatrix(mat=np.vstack([p * upper_mask(m), p * lower_mask(m)]), m=m)

