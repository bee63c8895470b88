import numpy as np
import pytest

from priceloss.demand import FittedDemandModel
from priceloss.estimators import (
    EstimatorKind,
    ReweightMatrix,
    cips_reweight,
    ips_reweight,
    min_variance_reweight,
    robust_reweight,
)
from priceloss.ladder import (
    Dataset,
    OutcomeDist,
    PolicyDist,
    PriceLadder,
    Propensities,
)
from priceloss.losses import (
    corrupted_loss_vector,
    loss_coefficients,
    per_record_losses,
    per_record_losses_reference,
    valuation_loss_vector,
)
from priceloss.oracle import loss_variance, random_instance
from priceloss.synthgen import GenConfig, SurfaceKind, generate_dataset, sample_surface
from priceloss.transfer import build_transfer


def test_valuation_loss_vector_hand_example():
    lv = valuation_loss_vector(
        PolicyDist(np.array([0.4, 0.6])), PriceLadder(np.array([1.0, 2.0]))
    )
    assert np.allclose(lv, [0.0, -0.4, -1.6])


def test_valuation_loss_vector_deterministic_policy():
    m = 4
    ladder = PriceLadder(np.arange(1.0, m + 1))
    j = 2  # price index 3, 0-based 2
    probs = np.zeros(m)
    probs[j] = 1.0
    lv = valuation_loss_vector(PolicyDist(probs), ladder)
    expected = np.array([0.0] * (j + 1) + [-ladder.prices[j]] * (m - j))
    assert np.allclose(lv, expected)


def test_valuation_loss_vector_zero_margin():
    with pytest.warns(UserWarning):
        ladder = PriceLadder(np.array([1.0, 2.0]), unit_cost=1.0)
    lv = valuation_loss_vector(PolicyDist(np.array([1.0, 0.0])), ladder)
    assert np.allclose(lv, [0.0, 0.0, 0.0])


def test_corrupted_loss_vector_worked_example():
    # the feasible cascade matrix from the two-price example
    r = ReweightMatrix(
        np.array([[0.0, 0.0, 2.0, 0.0], [2.0, -2.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0]]),
        EstimatorKind.IPS,
    )
    out = corrupted_loss_vector(r, np.array([0.0, -0.4, -1.6]))
    assert np.allclose(out, [-0.8, -2.4, 0.0, 0.0])


def test_corrupted_loss_shape_mismatch():
    r = ips_reweight(Propensities(np.array([0.5, 0.5])))
    with pytest.raises(ValueError):
        corrupted_loss_vector(r, np.zeros(5))


def test_unbiasedness_identity_random_instances():
    rng = np.random.default_rng(3)
    for _ in range(50):
        ladder, pi0, policy, fv = random_instance(rng)
        transfer = build_transfer(pi0)
        lv = valuation_loss_vector(policy, ladder)
        truth = float(fv.probs @ lv)
        fy = OutcomeDist(transfer.mat @ fv.probs)
        for reweight in (
            ips_reweight(pi0),
            cips_reweight(pi0),
            robust_reweight(transfer),
            min_variance_reweight(transfer, fy),
        ):
            c = corrupted_loss_vector(reweight, lv)
            assert abs(float(fy.probs @ c) - truth) < 1e-10


def test_conditional_variance_degenerate_and_zero_loss():
    pi0 = Propensities(np.array([0.5, 0.5]))
    transfer = build_transfer(pi0)
    r = ips_reweight(pi0)
    # valuation below every price: each outcome is a no-sale, whose IPS loss is 0
    never_buys = np.array([1.0, 0.0, 0.0])
    lv = np.array([0.0, -0.4, -1.6])
    assert loss_variance(corrupted_loss_vector(r, lv), never_buys, transfer) == 0.0
    uniform = np.full(3, 1.0 / 3)
    assert loss_variance(corrupted_loss_vector(r, np.zeros(3)), uniform, transfer) == 0.0


def test_conditional_variance_matches_enumeration():
    rng = np.random.default_rng(4)
    for _ in range(20):
        ladder, pi0, policy, fv = random_instance(rng)
        transfer = build_transfer(pi0)
        lv = valuation_loss_vector(policy, ladder)
        fy = OutcomeDist(transfer.mat @ fv.probs)
        r = robust_reweight(transfer)
        c = corrupted_loss_vector(r, lv)
        second = float(fy.probs @ (c * c))
        mean = float(fy.probs @ c)
        assert abs(loss_variance(c, fv.probs, transfer) - (second - mean * mean)) < 1e-12


def test_conditional_variance_matches_monte_carlo():
    rng = np.random.default_rng(5)
    pi0 = Propensities(np.array([0.3, 0.7]))
    transfer = build_transfer(pi0)
    ladder = PriceLadder(np.array([1.0, 2.0]))
    lv = valuation_loss_vector(PolicyDist(np.array([0.25, 0.75])), ladder)
    fv = np.array([0.4, 0.3, 0.3])
    fy = OutcomeDist(transfer.mat @ fv)
    r = min_variance_reweight(transfer, fy)
    c = corrupted_loss_vector(r, lv)
    draws = 1_000_000
    samples = c[rng.choice(4, size=draws, p=fy.probs)]
    sample_var = samples.var(ddof=1)
    # standard error of a sample variance via the fourth central moment
    mu = samples.mean()
    m4 = np.mean((samples - mu) ** 4)
    se = np.sqrt((m4 - sample_var**2) / draws)
    assert abs(loss_variance(c, fv, transfer) - sample_var) <= 3 * se


def _synthetic_dataset(n=200, seed=0, m=5):
    rng = np.random.default_rng(seed)
    surface = sample_surface(rng, SurfaceKind.BASE, 10)
    cfg = GenConfig(n=n, d=10)
    return generate_dataset(surface, cfg, rng), cfg.ladder


@pytest.mark.parametrize(
    "kind",
    [
        EstimatorKind.IPS,
        EstimatorKind.CIPS,
        EstimatorKind.ROBUST,
        EstimatorKind.MIN_VARIANCE,
        EstimatorKind.SWITCHING,
    ],
)
def test_batched_losses_agree_with_reference(kind):
    from priceloss.demand import fit_tlearner

    ds, ladder = _synthetic_dataset(n=120, seed=1)
    model = fit_tlearner(ds, ladder)
    rng = np.random.default_rng(2)
    pm = rng.dirichlet(np.ones(ladder.m), size=ds.n)
    weight = 0.37 if kind == EstimatorKind.SWITCHING else None
    fast = per_record_losses(ds, pm, ladder, kind, model, weight)
    slow = per_record_losses_reference(ds, pm, ladder, kind, model, weight)
    assert np.max(np.abs(fast - slow)) < 1e-9


def test_min_variance_is_the_doubly_robust_reward_without_outcome_floor():
    from priceloss.demand import fit_tlearner
    from priceloss.estimators import doubly_robust_reward

    rng = np.random.default_rng(8)
    surface = sample_surface(rng, SurfaceKind.BASE, 10)
    fit_split = generate_dataset(surface, GenConfig(n=100, d=10), rng)
    cfg = GenConfig(n=3000, d=10)
    ds = generate_dataset(surface, cfg, rng)
    ladder = cfg.ladder
    model = fit_tlearner(fit_split, ladder)
    g = model.sale_probs_matrix(ds.features)
    # the plug-in outcome mass g*pi falls below 1e-4 somewhere, which an
    # outcome floor at that level would have clipped
    assert np.any(g * ds.propensities < 1e-4)
    pm = np.random.default_rng(9).dirichlet(np.ones(ladder.m), size=ds.n)
    losses = per_record_losses(ds, pm, ladder, EstimatorKind.MIN_VARIANCE, model)
    rewards = np.array(
        [
            doubly_robust_reward(
                int(ds.price_index[i]),
                bool(ds.sold[i]),
                pm[i],
                ladder.margins * g[i],
                Propensities(ds.propensities[i]),
                ladder.margins,
            )
            for i in range(ds.n)
        ]
    )
    assert np.max(np.abs(losses + rewards)) < 1e-9


def test_estimate_zero_margin_ladder_gives_zero():
    ds, _ = _synthetic_dataset(n=50, seed=3)
    # prices must stay strictly increasing, so "all margins zero" is taken to
    # the limit: rungs an epsilon above the unit cost
    prices = 2.0 + 1e-9 * np.arange(5)
    with pytest.warns(UserWarning):
        flat = PriceLadder(prices, unit_cost=2.0)
    pm = np.full((ds.n, 5), 0.2)
    for kind in (EstimatorKind.IPS, EstimatorKind.CIPS, EstimatorKind.ROBUST):
        val = per_record_losses(ds, pm, flat, kind).mean()
        assert abs(val) < 1e-6


def test_on_policy_ips_reduces_to_mean_revenue():
    ds, ladder = _synthetic_dataset(n=300, seed=4)
    pm = ds.propensities.copy()  # evaluate the logging policy itself
    value = per_record_losses(ds, pm, ladder, EstimatorKind.IPS).mean()
    revenue = np.where(ds.sold, ladder.prices[ds.price_index - 1], 0.0).mean()
    assert abs(value + revenue) < 1e-12


def test_loss_coefficients_linearity_contract():
    ds, ladder = _synthetic_dataset(n=80, seed=5)
    coef = loss_coefficients(ds, ladder, EstimatorKind.ROBUST)
    rng = np.random.default_rng(6)
    pm = rng.dirichlet(np.ones(ladder.m), size=ds.n)
    direct = per_record_losses(ds, pm, ladder, EstimatorKind.ROBUST)
    assert np.allclose(direct, np.sum(pm * coef, axis=1))


class _FixedDemand:
    """A demand plug-in that returns one given matrix, unclamped."""

    def __init__(self, matrix):
        self.matrix = matrix

    def sale_probs_matrix(self, features):
        return self.matrix


def test_missing_demand_model_raises():
    ds, ladder = _synthetic_dataset(n=20, seed=7)
    pm = np.full((ds.n, 5), 0.2)
    with pytest.raises(ValueError, match="demand"):
        per_record_losses(ds, pm, ladder, EstimatorKind.MIN_VARIANCE).mean()
    with pytest.raises(ValueError, match="weight"):
        per_record_losses(
            ds, pm, ladder, EstimatorKind.SWITCHING,
            demand=_FixedDemand(np.full((ds.n, 5), 0.5)),
        ).mean()


def test_raw_demand_matrix_is_clamped_and_checked():
    ds, ladder = _synthetic_dataset(n=20, seed=8)
    pm = np.random.default_rng(9).dirichlet(np.ones(5), size=ds.n)
    ones = _FixedDemand(np.ones((ds.n, 5)))
    for kind, weight in ((EstimatorKind.MIN_VARIANCE, None), (EstimatorKind.SWITCHING, 0.4)):
        batched = per_record_losses(ds, pm, ladder, kind, ones, weight)
        reference = per_record_losses_reference(ds, pm, ladder, kind, ones, weight)
        assert np.max(np.abs(batched - reference)) < 1e-9
    bad = np.full((ds.n, 5), 0.5)
    bad[3, 2] = 1.5
    for path in (per_record_losses, per_record_losses_reference):
        with pytest.raises(ValueError, match=r"row 3, column 2: 1\.5"):
            path(ds, pm, ladder, EstimatorKind.MIN_VARIANCE, _FixedDemand(bad))
    # a plug-in with too few rungs is refused, not broadcast across the ladder
    one_rung = FittedDemandModel(weights=np.zeros((1, ds.d + 1)))
    for path in (per_record_losses, per_record_losses_reference):
        with pytest.raises(ValueError, match=r"shape \(20, 4\), expected \(n, m\) = \(20, 5\)"):
            path(ds, pm, ladder, EstimatorKind.MIN_VARIANCE, _FixedDemand(bad[:, :4]))
        with pytest.raises(ValueError, match=r"shape \(20, 1\), expected \(n, m\) = \(20, 5\)"):
            path(ds, pm, ladder, EstimatorKind.MIN_VARIANCE, one_rung)
