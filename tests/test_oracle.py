import numpy as np
import pytest

from priceloss import oracle
from priceloss.estimators import (
    ips_reweight,
    min_variance_reweight,
    robust_reweight,
)
from priceloss.ladder import OutcomeDist, PolicyDist, PriceLadder, Propensities, ValuationDist
from priceloss.losses import valuation_loss_vector
from priceloss.transfer import build_transfer


def test_exact_expectation_is_the_identity_for_left_inverses():
    rng = np.random.default_rng(0)
    for _ in range(20):
        ladder, pi0, policy, fv = oracle.random_instance(rng)
        transfer = build_transfer(pi0)
        lv = valuation_loss_vector(policy, ladder)
        rob = robust_reweight(transfer)
        assert abs(oracle.exact_expectation(rob, lv, fv, transfer) - float(fv.probs @ lv)) < 1e-10


def test_exact_expectation_negative_control():
    rng = np.random.default_rng(1)
    ladder, pi0, policy, fv = oracle.random_instance(rng)
    transfer = build_transfer(pi0)
    lv = valuation_loss_vector(policy, ladder)
    broken = robust_reweight(transfer)
    # row 0 multiplies the pinned zero loss slot, so break a row that matters
    broken[1, 0] += 0.1
    assert abs(oracle.exact_expectation(broken, lv, fv, transfer) - float(fv.probs @ lv)) > 1e-6


def test_exact_expectation_degenerate_valuation():
    rng = np.random.default_rng(2)
    ladder, pi0, policy, _ = oracle.random_instance(rng)
    transfer = build_transfer(pi0)
    lv = valuation_loss_vector(policy, ladder)
    m = transfer.m
    for slot in range(m + 1):
        fv = np.zeros(m + 1)
        fv[slot] = 1.0
        rob = robust_reweight(transfer)
        got = oracle.exact_expectation(rob, lv, ValuationDist(fv), transfer)
        assert abs(got - lv[slot]) < 1e-10


def test_left_null_basis_annihilates_transfer():
    rng = np.random.default_rng(3)
    for _ in range(20):
        _, pi0, _, _ = oracle.random_instance(rng)
        transfer = build_transfer(pi0)
        nbasis = oracle.left_null_basis(transfer)
        assert nbasis.shape == (2 * transfer.m, transfer.m - 1)
        assert np.max(np.abs(transfer.mat.T @ nbasis)) < 1e-12


def test_qp_matches_closed_form_on_random_instances():
    rng = np.random.default_rng(4)
    for _ in range(10):
        _, pi0, _, fv = oracle.random_instance(rng)
        transfer = build_transfer(pi0)
        fy = OutcomeDist(transfer.mat @ fv.probs)
        closed = min_variance_reweight(transfer, fy)
        numerical = oracle.qp_min_variance(transfer, fy)
        assert np.max(np.abs(closed - numerical)) < 1e-6


def test_qp_result_beats_random_feasible_matrices():
    rng = np.random.default_rng(5)
    ladder, pi0, policy, fv = oracle.random_instance(rng)
    transfer = build_transfer(pi0)
    lv = valuation_loss_vector(policy, ladder)
    fy = OutcomeDist(transfer.mat @ fv.probs)
    solution = oracle.qp_min_variance(transfer, fy)
    c0 = solution.T @ lv
    base = oracle.loss_variance(c0, fv.probs, transfer)
    nbasis = oracle.left_null_basis(transfer)
    z = rng.standard_normal((nbasis.shape[1], 10_000))
    perturbed = c0[:, None] + nbasis @ z
    f = transfer.mat @ fv.probs
    variances = f @ (perturbed**2) - (f @ perturbed) ** 2
    assert variances.min() >= base - 1e-10


def test_qp_near_ips_at_nobody_buys_plugin():
    # plugging in the outcome law of "nobody buys" (softened) recovers a
    # matrix whose sale-block behavior matches inverse propensity scoring
    pi0 = Propensities(np.array([0.3, 0.7]))
    transfer = build_transfer(pi0)
    ladder = PriceLadder(np.array([1.0, 2.0]))
    lv = valuation_loss_vector(PolicyDist(np.array([0.5, 0.5])), ladder)
    nobody = np.zeros(3)
    nobody[0] = 1.0
    softened = transfer.mat @ (0.999 * nobody + 0.001 * np.full(3, 1 / 3))
    r = oracle.qp_min_variance(transfer, OutcomeDist(softened / softened.sum()))
    ips = ips_reweight(pi0)
    c_r = transfer.mat.T @ (r.T @ lv)
    c_ips = transfer.mat.T @ (ips.T @ lv)
    assert np.max(np.abs(c_r - c_ips)) < 1e-8  # both satisfy the same identity
    # variances at the nobody-buys law agree to the softening error
    v_r = oracle.loss_variance(r.T @ lv, nobody, transfer)
    v_ips = oracle.loss_variance(ips.T @ lv, nobody, transfer)
    assert abs(v_r - v_ips) < 1e-2


def test_minimax_grid_m2():
    pi0 = Propensities(np.array([0.5, 0.5]))
    transfer = build_transfer(pi0)
    lv = valuation_loss_vector(
        PolicyDist(np.array([0.4, 0.6])), PriceLadder(np.array([1.0, 2.0]))
    )
    report = oracle.minimax_grid(transfer, lv, grid_step=0.01)
    assert report.robust_wins(slack=1e-3)
    assert report.saddle_gap < 1e-9
    assert report.saddle_distance <= 0.01
    # the plug-in built at the worst-case point ties the robust maximum
    assert abs(report.worst_case["best_plugin_mv"] - report.worst_case["robust"]) < 1e-6
    # non-robust candidates strictly lose somewhere
    assert report.worst_case["ips"] > report.worst_case["robust"] + 1e-3
    assert report.worst_case["cips"] > report.worst_case["robust"] + 1e-3


def test_minimax_grid_m3():
    rng = np.random.default_rng(6)
    raw = rng.uniform(0.1, 1.0, 3)
    pi0 = Propensities(raw / raw.sum())
    transfer = build_transfer(pi0)
    policy = rng.uniform(0.1, 1.0, 3)
    lv = valuation_loss_vector(
        PolicyDist(policy / policy.sum()), PriceLadder(np.array([1.0, 2.0, 3.0]))
    )
    report = oracle.minimax_grid(transfer, lv, grid_step=0.05)
    assert report.robust_wins(slack=1e-3)
    assert report.saddle_distance <= 0.05


def test_minimax_grid_size_limit():
    pi0 = Propensities(np.full(5, 0.2))
    transfer = build_transfer(pi0)
    with pytest.raises(ValueError, match="m <= 4"):
        oracle.minimax_grid(transfer, np.zeros(6), grid_step=0.25)


def test_simplex_grid_covers_vertices():
    grid = oracle.simplex_grid(3, 0.25)
    assert grid.shape[1] == 3
    assert np.allclose(grid.sum(axis=1), 1.0)
    for v in np.eye(3):
        assert np.any(np.all(np.isclose(grid, v), axis=1))


def test_sweeps_pass_and_are_deterministic():
    rows_a = oracle.run_all(seed=11, n_instances=25)
    rows_b = oracle.run_all(seed=11, n_instances=25)
    assert all(r.passed for r in rows_a)
    assert [r.max_error for r in rows_a] == [r.max_error for r in rows_b]
    names = {r.check for r in rows_a}
    assert {
        "left_inverse_defect",
        "generalized_inverse_defect",
        "robust_paths_agree",
        "unbiasedness_exact_expectation",
        "dr_loss_equivalence",
        "dr_matrix_decomposition",
        "qp_matches_closed_form",
        "closed_form_beats_perturbations",
    } <= names


def test_sweep_row_csv_shape():
    row = oracle.SweepRow("demo", 3, 1e-12, 1e-9)
    assert row.passed
    assert row.as_csv_row()[-1] == "pass"
    bad = oracle.SweepRow("demo", 3, 1e-3, 1e-9)
    assert not bad.passed
    assert bad.as_csv_row()[-1] == "FAIL"
