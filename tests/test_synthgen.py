import numpy as np
import pytest

from priceloss.ladder import PriceLadder, validate
from priceloss.synthgen import (
    DemandSurface,
    GenConfig,
    SurfaceKind,
    generate_dataset,
    logging_policy_matrix,
    sample_surface,
    true_policy_value,
)

LADDER = PriceLadder(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))


def test_flat_surface_gives_half_demand():
    surface = DemandSurface(SurfaceKind.BASE, weights=np.zeros(3))
    x = np.zeros((1, 3))
    x[0] = [1.0, -1.0, 0.0]  # slope |x0+x1+x2| = 0, score w.x = 0
    d = surface.demand_matrix(x, LADDER.prices)
    assert np.allclose(d, 0.5)


def test_large_shift_kills_demand():
    rng = np.random.default_rng(0)
    surface = sample_surface(rng, SurfaceKind.BASE, 5, logit_shift=10.0)
    x = rng.standard_normal((200, 5))
    d = surface.demand_matrix(x, LADDER.prices)
    assert np.median(d) < 0.0067  # sigmoid(-5) for typical draws


def test_demand_nonincreasing_in_price():
    rng = np.random.default_rng(1)
    for kind in SurfaceKind:
        surface = sample_surface(rng, kind, 6)
        x = rng.standard_normal((10_000, 6))
        d = surface.demand_matrix(x, LADDER.prices)
        assert np.all(np.diff(d, axis=1) <= 1e-12)


def test_surface_dimension_checks():
    with pytest.raises(ValueError):
        DemandSurface(SurfaceKind.BASE, weights=np.zeros(2))
    with pytest.raises(ValueError):
        DemandSurface(SurfaceKind.MISSPEC_I, weights=np.zeros(3))


def test_logging_policy_uniform_cases():
    surface = DemandSurface(SurfaceKind.BASE, weights=np.zeros(3))
    x = np.array([[1.0, -1.0, 0.0]])  # flat demand across prices
    pi = logging_policy_matrix(surface, x, LADDER, scale=5.0)
    assert np.allclose(pi, 0.2)
    pi0_scale0 = logging_policy_matrix(surface, np.random.default_rng(2).standard_normal((5, 3)), LADDER, scale=0.0)
    assert np.allclose(pi0_scale0, 0.2)


def test_logging_policy_softmax_values():
    # demands (0.8, 0.2) at scale 5 -> softmax(4, 1)
    class TwoPrice(DemandSurface):
        def demand_matrix(self, features, prices):
            return np.tile([0.8, 0.2], (np.atleast_2d(features).shape[0], 1))

    surface = TwoPrice(SurfaceKind.BASE, weights=np.zeros(3))
    pi = logging_policy_matrix(surface, np.zeros((1, 3)), PriceLadder(np.array([1.0, 2.0])), scale=5.0)
    expected = np.exp([4.0, 1.0])
    expected /= expected.sum()
    assert np.max(np.abs(pi[0] - expected)) < 1e-4
    assert np.isclose(pi[0, 0], 0.9526, atol=1e-4)


def test_generated_outcomes_are_monotone_and_consistent():
    rng = np.random.default_rng(3)
    surface = sample_surface(rng, SurfaceKind.BASE, 5)
    ds = generate_dataset(surface, GenConfig(n=2000, d=5), rng)
    assert np.array_equal(ds.sold, ds.price_index <= ds.valuations)  # consistency
    assert validate(ds).size == 0  # overlap
    assert np.all(ds.valuations >= 0)
    assert np.all(ds.valuations <= 5)
    assert np.array_equal(ds.sold, ds.price_index <= ds.valuations)


def test_extreme_uniform_draws():
    # u ~ 0 buys everywhere, u ~ 1 buys nowhere; emulate via logit shifts
    rng = np.random.default_rng(4)
    surface = sample_surface(rng, SurfaceKind.BASE, 5, logit_shift=-30.0)
    ds = generate_dataset(surface, GenConfig(n=50, d=5), rng)
    assert np.all(ds.valuations == 5)  # demand ~1 at every price
    surface = sample_surface(rng, SurfaceKind.BASE, 5, logit_shift=30.0)
    ds = generate_dataset(surface, GenConfig(n=50, d=5), rng)
    assert np.all(ds.valuations == 0)


def test_marginal_sale_frequency_matches_demand():
    rng = np.random.default_rng(5)
    surface = sample_surface(rng, SurfaceKind.BASE, 4)
    x = rng.standard_normal(4)
    draws = 100_000
    X = np.tile(x, (draws, 1))
    demand = surface.demand_matrix(x[None, :], LADDER.prices)[0]
    cfg = GenConfig(n=draws, d=4)
    # redraw outcomes for a fixed customer by regenerating with fixed features
    u = rng.random(draws)
    accepts = u[:, None] <= demand[None, :]
    freq = accepts.mean(axis=0)
    se = np.sqrt(demand * (1 - demand) / draws)
    assert np.all(np.abs(freq - demand) <= 4 * se + 1e-12)


def test_true_policy_value_against_enumeration():
    rng = np.random.default_rng(6)
    surface = sample_surface(rng, SurfaceKind.BASE, 4)
    ds = generate_dataset(surface, GenConfig(n=100_000, d=4), rng)
    pm = np.tile([0.1, 0.2, 0.3, 0.2, 0.2], (ds.n, 1))
    empirical = true_policy_value(pm, ds.valuations, LADDER)
    # analytic expectation: E[l] = -sum_j pi_j p_j P(V >= j) via true demand
    demand = surface.demand_matrix(ds.features, LADDER.prices)
    analytic = -float((pm * LADDER.prices * demand).sum(axis=1).mean())
    # match within Monte-Carlo noise of the valuation draws
    per_record = -(pm * LADDER.prices * (np.arange(1, 6) <= ds.valuations[:, None])).sum(axis=1)
    se = per_record.std(ddof=1) / np.sqrt(ds.n)
    assert abs(empirical - analytic) <= 4 * se


def test_true_policy_value_requires_latents():
    with pytest.raises(ValueError):
        true_policy_value(np.full((3, 5), 0.2), None, LADDER)


def test_never_sell_regime_has_near_zero_value():
    rng = np.random.default_rng(7)
    surface = sample_surface(rng, SurfaceKind.BASE, 5, logit_shift=10.0)
    ds = generate_dataset(surface, GenConfig(n=5000, d=5), rng)
    pm = np.full((ds.n, 5), 0.2)
    assert abs(true_policy_value(pm, ds.valuations, LADDER)) < 0.05


def test_generation_is_deterministic_given_seed():
    surface_a = sample_surface(np.random.default_rng(42), SurfaceKind.BASE, 5)
    surface_b = sample_surface(np.random.default_rng(42), SurfaceKind.BASE, 5)
    ds_a = generate_dataset(surface_a, GenConfig(n=200, d=5), np.random.default_rng([9, 3]))
    ds_b = generate_dataset(surface_b, GenConfig(n=200, d=5), np.random.default_rng([9, 3]))
    assert np.array_equal(ds_a.features, ds_b.features)
    assert np.array_equal(ds_a.price_index, ds_b.price_index)
    assert np.array_equal(ds_a.sold, ds_b.sold)
    ds_c = generate_dataset(surface_a, GenConfig(n=200, d=5), np.random.default_rng([9, 4]))
    assert not np.array_equal(ds_a.features, ds_c.features)


def test_misspec_surfaces_match_their_formulas():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((20, 6))
    w = rng.uniform(0, 1, 6)
    p = np.array([2.0])
    s1 = DemandSurface(SurfaceKind.MISSPEC_I, w)
    expected1 = 1 / (1 + np.exp(-(x @ w - 5 * np.abs(x[:, 0] * x[:, 1] * x[:, 2] * x[:, 3]) * (2.0 / 5.0))))
    assert np.allclose(s1.demand_matrix(x, p)[:, 0], expected1)
    s2 = DemandSurface(SurfaceKind.MISSPEC_II, w)
    inter = np.abs(x[:, 0] * x[:, 1] + x[:, 1] * x[:, 2] + x[:, 2] * x[:, 3]) / 3.0
    expected2 = 1 / (1 + np.exp(-(x @ w - inter * (2.0 / 5.0))))
    assert np.allclose(s2.demand_matrix(x, p)[:, 0], expected2)
