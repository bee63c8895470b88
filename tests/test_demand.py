import warnings

import numpy as np
import pytest

from priceloss import demand
from priceloss.demand import (
    FittedDemandModel,
    blend_alpha,
    clamp_probs,
    fit_tlearner,
    sigmoid,
)
from priceloss.ladder import Dataset, PriceLadder
from priceloss.synthgen import GenConfig, SurfaceKind, generate_dataset, sample_surface


def _dataset(n, seed=0, d=4):
    rng = np.random.default_rng(seed)
    surface = sample_surface(rng, SurfaceKind.BASE, d)
    return generate_dataset(surface, GenConfig(n=n, d=d), rng)


def test_fit_separable_slice_reaches_low_log_loss():
    rng = np.random.default_rng(1)
    n = 200
    x = rng.standard_normal((n, 2))
    y = x[:, 0] > 0.5  # cleanly separable by one coordinate
    ds = Dataset(
        features=x,
        price_index=np.ones(n, dtype=int),
        sold=y,
        propensities=np.ones((n, 1)),
    )
    model = fit_tlearner(ds, PriceLadder(np.array([1.0])))
    p = model.sale_probs_matrix(x)[:, 0]
    log_loss = -np.mean(y * np.log(p) + (~y) * np.log(1 - p))
    assert log_loss < 0.1


def test_fit_constant_labels_gives_clamped_base_rate():
    n = 30
    ds = Dataset(
        features=np.random.default_rng(2).standard_normal((n, 3)),
        price_index=np.ones(n, dtype=int),
        sold=np.ones(n, dtype=bool),
        propensities=np.ones((n, 1)),
    )
    model = fit_tlearner(ds, PriceLadder(np.array([1.0])))
    p = model.sale_probs_matrix(ds.features)[:, 0]
    assert np.all(p > 0.97)
    assert np.all(p <= 1 - 1e-4)


def test_fit_recovers_known_logistic_model():
    rng = np.random.default_rng(3)
    n, d = 5000, 4
    x = rng.standard_normal((n, d))
    w_true = np.array([0.8, -0.5, 0.3, 0.0])
    p_true = 1.0 / (1.0 + np.exp(-(x @ w_true + 0.2)))
    y = rng.random(n) < p_true
    ds = Dataset(
        features=x,
        price_index=np.ones(n, dtype=int),
        sold=y,
        propensities=np.ones((n, 1)),
    )
    model = fit_tlearner(ds, PriceLadder(np.array([1.0])))
    p_hat = model.sale_probs_matrix(x)[:, 0]
    assert np.mean(np.abs(p_hat - p_true)) < 0.05


def test_missing_rung_falls_back_to_pooled_rate():
    n = 40
    rng = np.random.default_rng(4)
    ds = Dataset(
        features=rng.standard_normal((n, 3)),
        price_index=np.ones(n, dtype=int),  # rung 2 never observed
        sold=rng.random(n) < 0.25,
        propensities=np.full((n, 2), 0.5),
    )
    model = fit_tlearner(ds, PriceLadder(np.array([1.0, 2.0])))
    p2 = model.sale_probs_matrix(ds.features)[:, 1]
    pooled = ds.sold.mean()
    assert np.allclose(p2, np.clip(pooled, 1e-4, 1 - 1e-4))


def test_empty_dataset_rejected():
    ds = Dataset(
        features=np.zeros((0, 2)),
        price_index=np.zeros(0, dtype=int),
        sold=np.zeros(0, dtype=bool),
        propensities=np.zeros((0, 1)),
    )
    with pytest.raises(ValueError, match="empty"):
        fit_tlearner(ds, PriceLadder(np.array([1.0])))


def test_blend_alpha_endpoints_and_midpoint():
    rng = np.random.default_rng(5)
    ladder = PriceLadder(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
    surface = sample_surface(rng, SurfaceKind.BASE, 5)
    base = surface.as_model(ladder)
    x = rng.standard_normal((7, 5))
    truth = base.sale_probs_matrix(x)
    assert np.allclose(blend_alpha(base, 1.0).sale_probs_matrix(x), truth)
    assert np.allclose(blend_alpha(base, 0.0).sale_probs_matrix(x), 0.01)
    mid = blend_alpha(base, 0.5).sale_probs_matrix(x)
    assert np.allclose(mid, 0.5 * truth + 0.5 * 0.01)
    with pytest.raises(ValueError):
        blend_alpha(base, 1.5)


def test_blend_midpoint_arithmetic():
    class Fixed:
        def sale_probs_matrix(self, features):
            return np.full((np.atleast_2d(features).shape[0], 1), 0.61)

    out = blend_alpha(Fixed(), 0.5).sale_probs_matrix(np.zeros((1, 1)))
    assert np.isclose(out[0, 0], 0.31)


def _rung_gradient(model, ds, j):
    """Rung j's penalized log-loss gradient over its own rows."""
    rows = ds.price_index == j + 1
    xb = np.hstack([ds.features[rows], np.ones((rows.sum(), 1))])
    w = model.weights[j]
    p = sigmoid(xb @ w)
    return xb.T @ (p - ds.sold[rows]) / rows.sum() + demand.L2_PENALTY * w


def test_fit_is_the_exact_penalized_optimum():
    ladder = PriceLadder(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
    for seed, n in [(11, 100), (12, 500), (13, 2000)]:
        ds = _dataset(n=n, seed=seed)
        model = fit_tlearner(ds, ladder)
        assert model.weights.shape == (ladder.m, ds.d + 1)
        for j in range(ladder.m):
            assert np.max(np.abs(_rung_gradient(model, ds, j))) < 1e-8


def test_joint_fit_matches_each_rung_fitted_alone():
    base = _dataset(n=400, seed=14)
    price_index = base.price_index.copy()
    price_index[price_index == 3] = 2  # rung 3 has no records
    price_index[np.flatnonzero(price_index == 4)[1:]] = 5  # rung 4 has one
    ds = Dataset(
        features=base.features,
        price_index=price_index,
        sold=base.sold,
        propensities=base.propensities,
    )
    assert np.any(np.diff(ds.price_index) < 0)  # rows are not sorted by rung
    ladder = PriceLadder(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
    joint = fit_tlearner(ds, ladder)
    pooled = clamp_probs(ds.sold.mean())
    assert joint.weights[2].tolist() == [0.0] * ds.d + [np.log(pooled / (1.0 - pooled))]
    for j in (0, 1, 3, 4):
        rows = ds.price_index == j + 1
        alone = Dataset(
            features=ds.features[rows],
            price_index=np.ones(rows.sum(), dtype=int),
            sold=ds.sold[rows],
            propensities=np.ones((rows.sum(), 1)),
        )
        single = fit_tlearner(alone, PriceLadder(ladder.prices[j : j + 1]))
        # Alone, the rung has another block length, so its sums round differently.
        assert np.max(np.abs(joint.weights[j] - single.weights[0])) <= 1e-12


def _fit_one_rung_at_a_time(dataset, ladder):
    """The reference for ``fit_tlearner``: each rung's own Newton loop, with
    its gradient and Hessian summed over all its rows in one product."""
    pooled = float(clamp_probs(dataset.sold.mean()))
    weights = np.zeros((ladder.m, dataset.d + 1))
    weights[:, -1] = np.log(pooled / (1.0 - pooled))
    ridge = demand.L2_PENALTY * np.eye(dataset.d + 1)
    for j in range(ladder.m):
        rows = dataset.price_index == j + 1
        size = rows.sum()
        if size == 0:
            continue
        x = np.hstack([dataset.features[rows], np.ones((size, 1))])
        y = dataset.sold[rows].astype(np.float64)
        w = np.zeros(dataset.d + 1)
        for _ in range(demand.MAX_NEWTON_STEPS):
            p = sigmoid(x @ w)
            grad = x.T @ (p - y) / size + demand.L2_PENALTY * w
            if np.max(np.abs(grad)) < demand.GRAD_TOL:
                break
            hess = (x.T * (p * (1.0 - p))) @ x / size + ridge
            w = w - np.linalg.solve(hess, grad)
        else:
            raise ArithmeticError("reference fit did not converge")
        weights[j] = w
    return weights


def _with_rung_sizes(sizes, seed, d=4, outside=0):
    """A dataset whose rung j + 1 has ``sizes[j]`` records, in shuffled row
    order, plus ``outside`` records priced at 0, m + 1 or -2 (no rung)."""
    rng = np.random.default_rng(seed)
    on_ladder = np.repeat(np.arange(1, len(sizes) + 1), sizes)
    price_index = np.concatenate([on_ladder, rng.choice([0, len(sizes) + 1, -2], outside)])
    rng.shuffle(price_index)
    n = price_index.size
    x = rng.standard_normal((n, d))
    return Dataset(
        features=x,
        price_index=price_index,
        sold=rng.random(n) < 1.0 / (1.0 + np.exp(-(x[:, 0] - 0.2 * price_index))),
        propensities=np.full((n, len(sizes)), 1.0 / len(sizes)),
    )


@pytest.mark.parametrize(
    "row_block, sizes, outside",
    [
        (7, (20, 0, 7, 1, 8, 14), 9),  # several blocks, exact and one-over fits
        (7, (3, 5, 1), 0),  # every rung below the block length
        (1024, (1500, 1024, 1025, 50, 1, 0), 30),  # the default block length
        (1024, (30, 17, 0, 22, 31), 4),  # one block per rung
        (1024, (0, 0), 6),  # no record on the ladder
    ],
)
def test_block_fit_matches_the_per_rung_reference(monkeypatch, row_block, sizes, outside):
    monkeypatch.setattr(demand, "ROW_BLOCK", row_block)
    ds = _with_rung_sizes(sizes, seed=sum(sizes), outside=outside)
    assert np.any(np.diff(ds.price_index) < 0)  # rows are not sorted by rung
    ladder = PriceLadder(np.arange(1.0, len(sizes) + 1.0))
    got = fit_tlearner(ds, ladder).weights
    expected = _fit_one_rung_at_a_time(ds, ladder)
    assert np.max(np.abs(got - expected)) <= 1e-12
    pooled = clamp_probs(ds.sold.mean())
    for j in np.flatnonzero(np.asarray(sizes) == 0):
        assert got[j].tolist() == [0.0] * ds.d + [np.log(pooled / (1.0 - pooled))]


def test_sigmoid_matches_the_two_branch_formula_without_warnings():
    edges = [0.0, -0.0, 709.0, -709.0, 746.0, -746.0, np.inf, -np.inf, 5e-324, -5e-324]
    z = np.concatenate([edges, 10.0 * np.random.default_rng(16).standard_normal(10_000)])
    expected = np.empty_like(z)
    pos = z >= 0
    expected[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    expected[~pos] = np.exp(z[~pos]) / (1.0 + np.exp(z[~pos]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sigmoid(z)
    assert got.view(np.int64).tolist() == expected.view(np.int64).tolist()


def test_hand_written_json_predicts_logistic_per_rung():
    weights = [[0.5, -1.0, 0.2], [0.0, 2.0, -0.3]]
    model = FittedDemandModel(weights=weights)
    x = np.array([[0.0, 0.0], [1.0, -0.5], [-2.0, 0.25], [0.3, 0.7]])
    expected = np.column_stack(
        [1.0 / (1.0 + np.exp(-(x @ np.array(w[:2]) + w[2]))) for w in weights]
    )
    assert model.sale_probs_matrix(x).shape == (4, 2)
    assert np.allclose(model.sale_probs_matrix(x), expected, rtol=0, atol=1e-15)
    with pytest.raises(ValueError, match="must be"):
        FittedDemandModel(weights=[0.5, 0.2])


def test_fit_fails_loudly_at_the_newton_step_cap(monkeypatch):
    monkeypatch.setattr(demand, "MAX_NEWTON_STEPS", 1)
    with pytest.raises(ArithmeticError, match="did not converge"):
        fit_tlearner(_dataset(n=100, seed=15), PriceLadder(np.arange(1.0, 6.0)))


def test_clamp_bounds():
    assert clamp_probs(np.array([0.0, 1.0, 0.5])).tolist() == [1e-4, 1 - 1e-4, 0.5]
