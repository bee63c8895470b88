"""Independent brute-force verifiers for the closed forms and equivalences.

Nothing here reuses the closed-form construction paths it checks: linear
algebra goes through numpy's general routines, feasible sets are
parameterized analytically from the structure of the transfer matrix, and
optima are found by enumeration or unconstrained quadratic minimization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import (
    EstimatorKind,
    ReweightMatrix,
    cips_reweight,
    dr_decomposition,
    ips_reweight,
    min_variance_reweight,
    plugin_rewards,
    robust_reweight,
)
from .ladder import OutcomeDist, PolicyDist, Propensities, PriceLadder, ValuationDist
from .losses import corrupted_loss_vector, valuation_loss_vector
from .transfer import TransferMatrix, build_transfer


def exact_expectation(
    reweight: ReweightMatrix,
    loss_vec: np.ndarray,
    valuation_dist: ValuationDist,
    transfer: TransferMatrix,
) -> float:
    """Expected corrupted loss by full enumeration of the 2m outcomes."""
    outcome_probs = transfer.mat @ valuation_dist.probs
    per_outcome = reweight.mat.T @ np.asarray(loss_vec, dtype=np.float64)
    return float(np.dot(outcome_probs, per_outcome))


def left_null_basis(transfer: TransferMatrix) -> np.ndarray:
    """Basis N (2m, m-1) of {w : T' w = 0}, derived from the mask structure.

    Writing a = pi0 * w_sale and b = pi0 * w_nosale, the null conditions
    telescope to a = b with sum(b) = 0, so the null space is spanned by
    vectors that place (e_1 - e_k)/pi0 on both blocks.
    """
    m = transfer.m
    pi0 = transfer.pi0
    basis = np.zeros((2 * m, m - 1))
    for k in range(1, m):
        c = np.zeros(m)
        c[0], c[k] = 1.0, -1.0
        w = c / pi0
        basis[:m, k - 1] = w
        basis[m:, k - 1] = w
    if np.max(np.abs(transfer.mat.T @ basis)) > 1e-9:
        raise AssertionError("analytic null-space basis failed T' N = 0")
    return basis


def qp_min_variance(transfer: TransferMatrix, outcome_dist: OutcomeDist) -> np.ndarray:
    """Numerical minimum-variance left inverse via null-space coordinates.

    Each row r of a feasible R is r0 + N z; minimizing r' D r row by row is
    an unconstrained convex quadratic solved directly. The row-wise optimum
    also minimizes the loss variance for every loss vector at once, so it
    needs none; callers check the variance for theirs.
    """
    f = np.asarray(outcome_dist.probs, dtype=np.float64)
    if np.any(f <= 0.0):
        raise ValueError("outcome distribution must be strictly positive")
    t = transfer.mat
    r0 = np.linalg.pinv(t)  # any particular left inverse
    if np.max(np.abs(r0 @ t - np.eye(t.shape[1]))) > 1e-8:
        raise ValueError("transfer matrix is rank deficient")
    nbasis = left_null_basis(transfer)
    gram = nbasis.T @ (f[:, None] * nbasis)  # N' D N
    rhs = nbasis.T @ (f[:, None] * r0.T)  # N' D r0' for all rows at once
    z = np.linalg.solve(gram, -rhs)  # (m-1, m+1)
    r = r0 + (nbasis @ z).T
    return r


def loss_variance(
    corrupted: np.ndarray, valuation_probs: np.ndarray, transfer: TransferMatrix
) -> float:
    """Variance of per-outcome losses when valuations follow ``valuation_probs``."""
    f = transfer.mat @ valuation_probs
    mean = float(f @ corrupted)
    return float(f @ (corrupted * corrupted)) - mean * mean


def simplex_grid(dims: int, step: float) -> np.ndarray:
    """All probability vectors on a regular grid with the given step."""
    ticks = int(round(1.0 / step))
    points: list[list[int]] = []

    def rec(prefix: list[int], remaining: int, slots: int):
        if slots == 1:
            points.append(prefix + [remaining])
            return
        for v in range(remaining + 1):
            rec(prefix + [v], remaining - v, slots - 1)

    rec([], ticks, dims)
    return np.asarray(points, dtype=np.float64) / ticks


@dataclass
class MinimaxReport:
    worst_case: dict[str, float]
    saddle_gap: float  # robust worst-case minus variance at the half/half split
    saddle_distance: float  # grid distance from the split to the nearest maximizer
    grid_step: float

    def robust_wins(self, slack: float = 1e-12) -> bool:
        rob = self.worst_case["robust"]
        return all(rob <= v + slack for v in self.worst_case.values())


def _grid_variances(
    corrupted: np.ndarray, grid: np.ndarray, transfer: TransferMatrix
) -> np.ndarray:
    # var(fV) = <T'(c^2), fV> - <T'c, fV>^2, vectorized over the grid.
    q = transfer.mat.T @ (corrupted * corrupted)
    s = transfer.mat.T @ corrupted
    return grid @ q - (grid @ s) ** 2


def minimax_grid(
    transfer: TransferMatrix,
    loss_vec: np.ndarray,
    grid_step: float,
    include_plugins: bool = True,
) -> MinimaxReport:
    """Grid search of worst-case variances across the whole estimator family.

    Enumerates valuation distributions on a simplex grid; for each candidate
    reweighting (robust, IPS, CIPS and, optionally, the minimum-variance
    matrix plugged in at every grid point whose outcome distribution gives
    every outcome positive mass) records the maximal variance.

    The robust candidate's variance depends on the valuation distribution
    only through its expected loss, so its maximizers form a whole slice of
    the simplex; the report records how far the half-lowest/half-highest
    split sits from that argmax set and how much variance it gives up.
    """
    m = transfer.m
    if m > 4:
        raise ValueError("minimax grid search is limited to m <= 4")
    pi0 = Propensities(transfer.pi0)
    grid = simplex_grid(m + 1, grid_step)
    lv = np.asarray(loss_vec, dtype=np.float64)

    candidates: dict[str, np.ndarray] = {
        "robust": robust_reweight(transfer).mat,
        "ips": ips_reweight(pi0).mat,
        "cips": cips_reweight(pi0).mat,
    }

    worst: dict[str, float] = {}
    saddle_gap = saddle_distance = np.nan
    split = np.zeros(m + 1)
    split[0] = split[m] = 0.5
    for name, mat in candidates.items():
        variances = _grid_variances(mat.T @ lv, grid, transfer)
        top = float(variances.max())
        worst[name] = top
        if name == "robust":
            c = mat.T @ lv
            q = transfer.mat.T @ (c * c)
            s = transfer.mat.T @ c
            saddle_gap = top - (float(q @ split) - float(s @ split) ** 2)
            tol = 1e-9 * max(1.0, abs(top))
            maximizers = grid[variances >= top - tol]
            saddle_distance = float(
                np.min(np.max(np.abs(maximizers - split), axis=1))
            )

    if include_plugins:
        best_plugin = np.inf
        for fv in grid:
            fy = transfer.mat @ fv
            if np.any(fy <= 0.0):
                continue  # no minimum-variance matrix without full outcome support
            plugged = min_variance_reweight(transfer, OutcomeDist(fy))
            variances = _grid_variances(plugged.mat.T @ lv, grid, transfer)
            best_plugin = min(best_plugin, float(variances.max()))
        worst["best_plugin_mv"] = best_plugin

    return MinimaxReport(
        worst_case=worst,
        saddle_gap=saddle_gap,
        saddle_distance=saddle_distance,
        grid_step=grid_step,
    )


# ---------------------------------------------------------------------------
# Random-instance sweeps
# ---------------------------------------------------------------------------


def random_instance(
    rng: np.random.Generator, m: int | None = None, unit_cost: float = 0.0
) -> tuple[PriceLadder, Propensities, PolicyDist, ValuationDist]:
    """One random well-conditioned problem instance.

    Masses are bounded away from zero so that plug-in inversions stay well
    conditioned and the exact identities hold to roundoff.
    """
    if m is None:
        m = int(rng.integers(2, 7))
    prices = np.cumsum(rng.uniform(0.5, 2.0, size=m)) + unit_cost
    ladder = PriceLadder(prices, unit_cost)
    pi0 = Propensities(_interior_simplex(rng, m))
    policy = PolicyDist(_interior_simplex(rng, m))
    fv = ValuationDist(_interior_simplex(rng, m + 1))
    return ladder, pi0, policy, fv


def _interior_simplex(rng: np.random.Generator, size: int, floor: float = 0.05) -> np.ndarray:
    raw = rng.uniform(0.0, 1.0, size=size)
    probs = raw / raw.sum()
    probs = (1.0 - floor * size) * probs + floor
    return probs / probs.sum()


@dataclass
class SweepRow:
    check: str
    seed: int
    max_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tolerance

    def as_csv_row(self) -> list[str]:
        return [
            self.check,
            str(self.seed),
            f"{self.max_error:.3e}",
            f"{self.tolerance:.1e}",
            "pass" if self.passed else "FAIL",
        ]


def unbiasedness_sweep(n_instances: int, seed: int) -> list[SweepRow]:
    """Exact-expectation identity for every estimator family member."""
    rows = []
    worst = 0.0
    for i in range(n_instances):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        ladder, pi0, policy, fv = random_instance(rng)
        transfer = build_transfer(pi0)
        lv = valuation_loss_vector(policy, ladder)
        truth = float(np.dot(fv.probs, lv))
        fy_plugin = OutcomeDist(transfer.mat @ _interior_simplex(rng, ladder.m + 1))
        mv = min_variance_reweight(transfer, fy_plugin)
        rob = robust_reweight(transfer)
        estimators = {
            "mv": mv,
            "robust": rob,
            "switching": ReweightMatrix(
                0.5 * mv.mat + 0.5 * rob.mat, EstimatorKind.SWITCHING
            ),
            "ips": ips_reweight(pi0),
            "cips": cips_reweight(pi0),
        }
        for reweight in estimators.values():
            err = abs(exact_expectation(reweight, lv, fv, transfer) - truth)
            worst = max(worst, err)
    rows.append(SweepRow("unbiasedness_exact_expectation", seed, worst, 1e-10))
    return rows


def inverse_condition_sweep(n_instances: int, seed: int, policies_each: int = 5) -> list[SweepRow]:
    """Left-inverse and generalized-inverse defects across random instances.

    Also rebuilds the robust matrix as the minimum-variance solution at the
    outcome distribution of the half-never/half-always split, through
    ``min_variance_reweight``, and records how far it lands from
    ``robust_reweight``.
    """
    worst_left = 0.0
    worst_gen = 0.0
    worst_paths = 0.0
    for i in range(n_instances):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1000 + i]))
        m = int(rng.integers(2, 11))
        ladder, pi0, _, _ = random_instance(rng, m=m)
        transfer = build_transfer(pi0)
        eye = np.eye(m + 1)
        fy_plugin = OutcomeDist(transfer.mat @ _interior_simplex(rng, m + 1))
        mv = min_variance_reweight(transfer, fy_plugin)
        rob = robust_reweight(transfer)
        split = transfer.mat[:, 0] + transfer.mat[:, -1]  # = (pi_0; pi_0)
        alt = min_variance_reweight(transfer, OutcomeDist(split / 2.0)).mat
        worst_paths = max(worst_paths, float(np.max(np.abs(rob.mat - alt))))
        mix = ReweightMatrix(0.3 * mv.mat + 0.7 * rob.mat, EstimatorKind.SWITCHING)
        for reweight in (mv, rob, mix):
            worst_left = max(worst_left, float(np.max(np.abs(reweight.mat @ transfer.mat - eye))))
        for _ in range(policies_each):
            policy = PolicyDist(_interior_simplex(rng, m))
            lv = valuation_loss_vector(policy, ladder)
            for reweight in (ips_reweight(pi0), cips_reweight(pi0)):
                resid = transfer.mat.T @ (reweight.mat.T @ lv) - lv
                worst_gen = max(worst_gen, float(np.max(np.abs(resid))))
    return [
        SweepRow("left_inverse_defect", seed, worst_left, 1e-9),
        SweepRow("generalized_inverse_defect", seed, worst_gen, 1e-9),
        SweepRow("robust_paths_agree", seed, worst_paths, 1e-10),
    ]


def dr_equivalence_sweep(n_instances: int, seed: int) -> list[SweepRow]:
    """Doubly robust identity: per-outcome equality and matrix decomposition."""
    worst_loss = 0.0
    worst_mat = 0.0
    for i in range(n_instances):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 2000 + i]))
        ladder, pi0, policy, fv_hat = random_instance(rng)
        transfer = build_transfer(pi0)
        lv = valuation_loss_vector(policy, ladder)
        mv = min_variance_reweight(transfer, OutcomeDist(transfer.mat @ fv_hat.probs))
        parts = dr_decomposition(transfer, fv_hat, pi0)
        worst_mat = max(worst_mat, float(np.max(np.abs(mv.mat - parts.combined()))))
        mu = plugin_rewards(fv_hat, ladder.margins)
        per_outcome = corrupted_loss_vector(mv, lv)
        m = ladder.m
        for j in range(1, m + 1):
            for sold in (True, False):
                observed = float(ladder.margins[j - 1]) * sold
                dr = float(np.dot(mu, policy.probs)) + (
                    observed - mu[j - 1]
                ) / pi0.probs[j - 1] * policy.probs[j - 1]
                k = (j - 1) if sold else (m + j - 1)
                worst_loss = max(worst_loss, abs(per_outcome[k] + dr))
    return [
        SweepRow("dr_loss_equivalence", seed, worst_loss, 1e-9),
        SweepRow("dr_matrix_decomposition", seed, worst_mat, 1e-8),
    ]


def qp_match_sweep(n_instances: int, seed: int, n_perturbations: int = 10_000) -> list[SweepRow]:
    """Closed-form minimum variance vs the null-space QP and random feasible Rs."""
    worst_match = 0.0
    worst_opt = 0.0
    for i in range(n_instances):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 3000 + i]))
        ladder, pi0, policy, fv = random_instance(rng)
        transfer = build_transfer(pi0)
        lv = valuation_loss_vector(policy, ladder)
        fy = OutcomeDist(transfer.mat @ fv.probs)
        closed = min_variance_reweight(transfer, fy)
        numerical = qp_min_variance(transfer, fy)
        worst_match = max(worst_match, float(np.max(np.abs(closed.mat - numerical))))
        # The closed form must not lose to any feasible perturbation.
        nbasis = left_null_basis(transfer)
        base_c = closed.mat.T @ lv
        base_var = loss_variance(base_c, fv.probs, transfer)
        z = rng.standard_normal((nbasis.shape[1], n_perturbations))
        perturbed = base_c[:, None] + nbasis @ z  # corrupted losses of R + (Nz)' rows
        f = transfer.mat @ fv.probs
        variances = f @ (perturbed * perturbed) - (f @ perturbed) ** 2
        worst_opt = max(worst_opt, float(base_var - variances.min()))
    return [
        SweepRow("qp_matches_closed_form", seed, worst_match, 1e-6),
        SweepRow("closed_form_beats_perturbations", seed, max(worst_opt, 0.0), 1e-10),
    ]


def run_all(seed: int = 0, n_instances: int = 200) -> list[SweepRow]:
    rows = []
    rows += inverse_condition_sweep(n_instances, seed)
    rows += unbiasedness_sweep(n_instances, seed)
    rows += dr_equivalence_sweep(n_instances, seed)
    rows += qp_match_sweep(20, seed)
    return rows
