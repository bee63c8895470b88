import numpy as np
import pytest

from priceloss.estimators import (
    EstimatorKind,
    cips_reweight,
    doubly_robust_reward,
    dr_decomposition,
    hop_matrix,
    ips_reweight,
    left_inverse_defect,
    min_variance_reweight,
    plugin_rewards,
    robust_reweight,
    switching_reweight,
)
from priceloss.ladder import (
    OutcomeDist,
    PolicyDist,
    PriceLadder,
    Propensities,
    ValuationDist,
)
from priceloss.losses import corrupted_loss_vector, valuation_loss_vector
from priceloss.oracle import left_null_basis, loss_variance, qp_min_variance, random_instance
from priceloss.transfer import build_transfer, lower_mask, upper_mask


def test_hop_matrix_inverts_the_masks():
    for m in range(1, 8):
        h = hop_matrix(m)
        assert np.array_equal(upper_mask(m) @ h, np.eye(m))
        assert np.array_equal(lower_mask(m) @ h, -np.eye(m))


def _random_setup(rng, m=None):
    ladder, pi0, policy, fv = random_instance(rng, m=m)
    transfer = build_transfer(pi0)
    lv = valuation_loss_vector(policy, ladder)
    return ladder, pi0, policy, fv, transfer, lv


def test_min_variance_is_left_inverse():
    rng = np.random.default_rng(0)
    for _ in range(20):
        _, pi0, _, fv, transfer, _ = _random_setup(rng)
        r = min_variance_reweight(transfer, OutcomeDist(transfer.mat @ fv.probs))
        assert left_inverse_defect(r, transfer) < 1e-9


def test_min_variance_matches_qp_oracle_worked_case():
    pi0 = Propensities(np.array([0.5, 0.5]))
    transfer = build_transfer(pi0)
    fy = OutcomeDist(np.array([1 / 3, 1 / 6, 1 / 6, 1 / 3]))
    closed = min_variance_reweight(transfer, fy)
    numerical = qp_min_variance(transfer, fy)
    assert np.max(np.abs(closed.mat - numerical)) < 1e-6


def test_min_variance_beats_null_space_perturbations():
    rng = np.random.default_rng(1)
    _, pi0, policy, fv, transfer, lv = _random_setup(rng)
    fy = OutcomeDist(transfer.mat @ fv.probs)
    r = min_variance_reweight(transfer, fy)
    base = loss_variance(corrupted_loss_vector(r, lv), fv.probs, transfer)
    nbasis = left_null_basis(transfer)
    for _ in range(1000):
        z = rng.standard_normal((transfer.m + 1, nbasis.shape[1]))
        perturbed = r.mat + z @ nbasis.T
        c = perturbed.T @ lv
        var = float(fy.probs @ (c * c)) - float(fy.probs @ c) ** 2
        assert var >= base - 1e-10


def test_robust_is_left_inverse_and_paths_agree():
    rng = np.random.default_rng(2)
    for _ in range(20):
        _, pi0, _, _, transfer, _ = _random_setup(rng)
        r = robust_reweight(transfer)  # oracle's robust_paths_agree covers the second path
        assert left_inverse_defect(r, transfer) < 1e-9


def test_robust_worst_case_sits_at_half_split():
    from priceloss.oracle import minimax_grid

    pi0 = Propensities(np.array([0.5, 0.5]))
    transfer = build_transfer(pi0)
    lv = valuation_loss_vector(
        PolicyDist(np.array([0.4, 0.6])), PriceLadder(np.array([1.0, 2.0]))
    )
    report = minimax_grid(transfer, lv, grid_step=0.01, include_plugins=False)
    assert report.saddle_gap <= 1e-9
    assert report.saddle_distance <= 0.01


def test_ips_structure_and_values():
    pi0 = Propensities(np.array([0.5, 0.5]))
    r = ips_reweight(pi0)
    lv = valuation_loss_vector(
        PolicyDist(np.array([0.4, 0.6])), PriceLadder(np.array([1.0, 2.0]))
    )
    c = corrupted_loss_vector(r, lv)
    # sale at p2 when pi(p2) = 0.6 and pi0(p2) = 0.5: loss -2 * 0.6 / 0.5
    assert np.isclose(c[1], -2.4)
    # no-sale outcomes carry zero loss
    assert np.allclose(c[2:], 0.0)


def test_ips_generalized_inverse_identity():
    rng = np.random.default_rng(3)
    for _ in range(30):
        ladder, pi0, policy, _, transfer, lv = _random_setup(rng)
        r = ips_reweight(pi0)
        assert np.max(np.abs(transfer.mat.T @ (r.mat.T @ lv) - lv)) < 1e-9


def test_ips_minimum_variance_when_nobody_buys():
    rng = np.random.default_rng(4)
    _, pi0, policy, _, transfer, lv = _random_setup(rng)
    m = transfer.m
    fv_nobody = np.zeros(m + 1)
    fv_nobody[0] = 1.0
    r = ips_reweight(pi0)
    c = corrupted_loss_vector(r, lv)
    base = loss_variance(c, fv_nobody, transfer)
    assert base < 1e-18  # exactly zero: only zero-loss outcomes occur
    nbasis = left_null_basis(transfer)
    for _ in range(1000):
        z = rng.standard_normal(nbasis.shape[1])
        var = loss_variance(c + nbasis @ z, fv_nobody, transfer)
        assert var >= base - 1e-12


def test_cips_structure_and_values():
    pi0 = Propensities(np.array([0.5, 0.5]))
    ladder = PriceLadder(np.array([1.0, 2.0]))
    policy = PolicyDist(np.array([0.4, 0.6]))
    lv = valuation_loss_vector(policy, ladder)
    c = corrupted_loss_vector(cips_reweight(pi0), lv)
    expected_revenue = 0.4 * 1 + 0.6 * 2  # the constant every outcome carries
    # sale outcomes: only the constant part
    assert np.allclose(c[:2], -expected_revenue)
    # no-sale at p2: magnitude p2 * pi(p2) / pi0(p2) = 2.4 above the constant
    assert np.isclose(c[3] - (-expected_revenue), 2.4)


def test_cips_generalized_inverse_identity():
    rng = np.random.default_rng(5)
    for _ in range(30):
        _, pi0, _, _, transfer, lv = _random_setup(rng)
        r = cips_reweight(pi0)
        assert np.max(np.abs(transfer.mat.T @ (r.mat.T @ lv) - lv)) < 1e-9


def test_cips_minimum_variance_when_everyone_buys():
    rng = np.random.default_rng(6)
    _, pi0, _, _, transfer, lv = _random_setup(rng)
    m = transfer.m
    fv_all = np.zeros(m + 1)
    fv_all[m] = 1.0
    c = corrupted_loss_vector(cips_reweight(pi0), lv)
    base = loss_variance(c, fv_all, transfer)
    assert base < 1e-18  # all mass on sale outcomes, which share the constant
    nbasis = left_null_basis(transfer)
    for _ in range(1000):
        z = rng.standard_normal(nbasis.shape[1])
        var = loss_variance(c + nbasis @ z, fv_all, transfer)
        assert var >= base - 1e-12


def test_switching_endpoints_and_linearity():
    rng = np.random.default_rng(7)
    _, pi0, _, fv, transfer, lv = _random_setup(rng)
    mv = min_variance_reweight(transfer, OutcomeDist(transfer.mat @ fv.probs))
    rob = robust_reweight(transfer)
    assert np.array_equal(switching_reweight(mv, rob, 1.0).mat, mv.mat)
    assert np.array_equal(switching_reweight(mv, rob, 0.0).mat, rob.mat)
    half = switching_reweight(mv, rob, 0.5)
    assert left_inverse_defect(half, transfer) < 1e-9
    c = corrupted_loss_vector(half, lv)
    assert np.allclose(
        c, 0.5 * corrupted_loss_vector(mv, lv) + 0.5 * corrupted_loss_vector(rob, lv)
    )
    with pytest.raises(ValueError):
        switching_reweight(mv, rob, 1.2)


def test_dr_decomposition_sums_to_min_variance():
    rng = np.random.default_rng(8)
    for _ in range(30):
        m = int(rng.integers(2, 7))
        _, pi0, _, fv, transfer, _ = _random_setup(rng, m=m)
        parts = dr_decomposition(transfer, fv, pi0)
        mv = min_variance_reweight(transfer, OutcomeDist(transfer.mat @ fv.probs))
        assert np.max(np.abs(mv.mat - parts.combined())) < 1e-8


def test_dr_direct_part_is_expected_plugin_reward():
    rng = np.random.default_rng(9)
    ladder, pi0, policy, fv, transfer, lv = _random_setup(rng)
    parts = dr_decomposition(transfer, fv, pi0)
    mu = plugin_rewards(fv, ladder.margins)
    per_outcome = parts.direct.T @ lv
    assert np.allclose(per_outcome, -float(mu @ policy.probs))


def test_plugin_rewards_hand_example():
    fv = ValuationDist(np.array([0.2, 0.3, 0.5]))
    mu = plugin_rewards(fv, PriceLadder(np.array([1.0, 2.0])).margins)
    assert np.allclose(mu, [0.8, 1.0])


def test_dr_reward_hand_example():
    ladder = PriceLadder(np.array([1.0, 2.0]))
    pi0 = Propensities(np.array([0.5, 0.5]))
    policy = np.array([0.4, 0.6])
    mu = np.array([0.8, 1.0])
    value = doubly_robust_reward(1, True, policy, mu, pi0, ladder.margins)
    assert np.isclose(value, 1.08)


def test_dr_reward_matches_min_variance_loss_on_all_outcomes():
    rng = np.random.default_rng(10)
    for _ in range(20):
        ladder, pi0, policy, fv, transfer, lv = _random_setup(rng)
        m = transfer.m
        mv = min_variance_reweight(transfer, OutcomeDist(transfer.mat @ fv.probs))
        c = corrupted_loss_vector(mv, lv)
        mu = plugin_rewards(fv, ladder.margins)
        for j in range(1, m + 1):
            for sold in (True, False):
                dr = doubly_robust_reward(j, sold, policy.probs, mu, pi0, ladder.margins)
                k = (j - 1) if sold else (m + j - 1)
                assert abs(c[k] + dr) < 1e-9


def test_dr_reward_exact_model_zero_correction():
    ladder = PriceLadder(np.array([1.0, 3.0]))
    pi0 = Propensities(np.array([0.4, 0.6]))
    policy = np.array([0.5, 0.5])
    mu = np.array([1.0, 0.0])
    # observed reward equals the plug-in at the logged price: correction dies
    value = doubly_robust_reward(1, True, policy, mu, pi0, ladder.margins)
    assert np.isclose(value, float(mu @ policy))


def test_dr_decomposition_rejects_floored_plugins():
    pi0 = Propensities(np.array([0.5, 0.5]))
    transfer = build_transfer(pi0)
    degenerate = ValuationDist(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="nonpositive outcome mass"):
        dr_decomposition(transfer, degenerate, pi0)
