import numpy as np
import pytest

from priceloss.ladder import Propensities, SimplexError
from priceloss.transfer import build_transfer


def test_two_price_uniform_matches_worked_layout():
    t = build_transfer(Propensities(np.array([0.5, 0.5])))
    expected = np.array(
        [
            [0.0, 0.5, 0.5],
            [0.0, 0.0, 0.5],
            [0.5, 0.0, 0.0],
            [0.5, 0.5, 0.0],
        ]
    )
    assert np.array_equal(t.mat, expected)


def test_single_price_ladder():
    t = build_transfer(Propensities(np.array([1.0])))
    assert np.array_equal(t.mat, np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_column_sums_are_one():
    t = build_transfer(Propensities(np.array([0.2, 0.3, 0.5])))
    assert np.max(np.abs(t.mat.sum(axis=0) - 1.0)) < 1e-12


def test_zero_propensity_rejected():
    with pytest.raises(SimplexError):
        # a Propensities is strictly positive, so no transfer matrix is built
        build_transfer(Propensities(np.array([1.0, 0.0])))


def test_columns_sum_to_the_propensity_total_within_the_simplex_tolerance():
    pi0 = Propensities(np.array([0.2, 0.3, 0.5 + 5e-10]))
    t = build_transfer(pi0)
    assert np.allclose(t.mat.sum(axis=0), pi0.probs.sum(), rtol=0.0, atol=1e-15)


def test_push_forward_uniform_valuations():
    t = build_transfer(Propensities(np.array([0.5, 0.5])))
    out = t.mat @ np.full(3, 1.0 / 3)
    assert np.allclose(out, [1 / 3, 1 / 6, 1 / 6, 1 / 3])


def test_push_forward_extreme_valuations():
    pi0 = np.array([0.2, 0.3, 0.5])
    t = build_transfer(Propensities(pi0))
    everyone_buys = t.mat @ np.array([0.0, 0.0, 0.0, 1.0])
    assert np.allclose(everyone_buys[:3], pi0)
    assert np.allclose(everyone_buys[3:], 0.0)
    nobody_buys = t.mat @ np.array([1.0, 0.0, 0.0, 0.0])
    assert np.allclose(nobody_buys[:3], 0.0)
    assert np.allclose(nobody_buys[3:], pi0)


def test_push_forward_stays_on_simplex():
    rng = np.random.default_rng(0)
    for _ in range(100):
        m = int(rng.integers(1, 9))
        pi0 = rng.dirichlet(np.ones(m)) * 0.9 + 0.1 / m
        fv = rng.dirichlet(np.ones(m + 1))
        out = build_transfer(Propensities(pi0)).mat @ fv
        assert np.all(out >= 0)
        assert abs(out.sum() - 1.0) < 1e-10


def test_push_forward_matches_monte_carlo_frequencies():
    rng = np.random.default_rng(7)
    m = 3
    pi0 = np.array([0.2, 0.3, 0.5])
    fv = np.array([0.1, 0.2, 0.3, 0.4])
    t = build_transfer(Propensities(pi0))
    expected = t.mat @ fv

    draws = 100_000
    valuations = rng.choice(m + 1, size=draws, p=fv)
    prices = rng.choice(m, size=draws, p=pi0) + 1
    sold = prices <= valuations
    outcome = np.where(sold, prices - 1, m + prices - 1)
    freq = np.bincount(outcome, minlength=2 * m) / draws

    se = np.sqrt(expected * (1 - expected) / draws)
    assert np.all(np.abs(freq - expected) <= 4 * se + 1e-12)
