import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from priceloss.estimators import EstimatorKind
from priceloss.demand import fit_tlearner
from priceloss.ladder import Dataset, PriceLadder
from priceloss.losses import loss_coefficients, per_record_losses
from priceloss import policy
from priceloss.cli import _load_policy
from priceloss.policy import (
    ERM_L2,
    GRAD_TOL,
    ConstantPolicy,
    GreedyDemandPolicy,
    LinearSoftmaxPolicy,
    WEIGHT_GRID,
    TrainingDiverged,
    _StackedErm,
    _cross_fold_variances,
    _damped_newton_descent,
    optimize_policy,
    select_switching_weight,
    select_switching_weight_for_training,
    softmax_rows,
    target_policy_for_evaluation,
    with_bias,
)
from priceloss.synthgen import GenConfig, SurfaceKind, generate_dataset, sample_surface
from priceloss.ladder import PolicyDist

LADDER = PriceLadder(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))


def _dataset(n, seed=0, d=6):
    rng = np.random.default_rng(seed)
    surface = sample_surface(rng, SurfaceKind.BASE, d)
    return generate_dataset(surface, GenConfig(n=n, d=d), rng)


def test_zero_scores_give_uniform_policy():
    pol = LinearSoftmaxPolicy(np.zeros((5, 4)), LADDER)
    assert np.allclose(pol.probs_matrix(np.ones((1, 3))), 0.2)


def test_saturated_score_concentrates():
    theta = np.zeros((3, 2))
    theta[1, -1] = 1000.0
    pol = LinearSoftmaxPolicy(theta, PriceLadder(np.array([1.0, 2.0, 3.0])))
    assert pol.probs_matrix(np.zeros((1, 1)))[0, 1] > 1 - 1e-9


def test_softmax_shift_invariance():
    rng = np.random.default_rng(0)
    scores = rng.standard_normal((10, 5))
    shifted = scores + rng.standard_normal((10, 1))
    assert np.max(np.abs(softmax_rows(scores) - softmax_rows(shifted))) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_policy_rows_sum_to_one(seed):
    rng = np.random.default_rng(seed)
    theta = rng.standard_normal((4, 3)) * 5
    x = rng.standard_normal((6, 2))
    pm = LinearSoftmaxPolicy(theta, PriceLadder(np.array([1.0, 2, 3, 4.0]))).probs_matrix(x)
    assert np.max(np.abs(pm.sum(axis=1) - 1.0)) < 1e-12


def _erm_problem(rng, k=1, n=12, d=3, m=4):
    xb = with_bias(rng.standard_normal((n, d)))
    coef_t = rng.standard_normal((k, m, n))
    theta = rng.standard_normal((k, m, d + 1)) * 0.5
    return _StackedErm(xb, coef_t), theta


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    for _ in range(20):
        objective, theta = _erm_problem(rng)
        objective(theta)
        grad, _ = objective.derivatives(theta, np.arange(1))
        h = 1e-5
        for _ in range(5):
            i, j = rng.integers(theta.shape[1]), rng.integers(theta.shape[2])
            bump = np.zeros_like(theta)
            bump[0, i, j] = h
            fd = (objective(theta + bump)[0] - objective(theta - bump)[0]) / (2 * h)
            denom = max(abs(fd), abs(grad[0, i, j]), 1e-8)
            assert abs(grad[0, i, j] - fd) / denom < 1e-4


def test_hessian_matches_finite_differences_of_the_gradient():
    rng = np.random.default_rng(13)
    for _ in range(10):
        objective, theta = _erm_problem(rng, k=3)
        rows = np.arange(3)
        objective(theta)
        _, hess = objective.derivatives(theta, rows)
        assert np.max(np.abs(hess - hess.transpose(0, 2, 1))) < 1e-15
        h = 1e-6
        fd = np.empty_like(hess)
        for a in range(hess.shape[1]):
            bump = np.zeros(theta.size // 3)
            bump[a] = h
            bump = np.broadcast_to(bump.reshape(theta.shape[1:]), theta.shape)
            objective(theta + bump)
            up, _ = objective.derivatives(theta + bump, rows)
            objective(theta - bump)
            down, _ = objective.derivatives(theta - bump, rows)
            fd[:, :, a] = (up - down).reshape(3, -1) / (2 * h)
        assert np.max(np.abs(hess - fd)) < 1e-8


def _dense_derivatives(xb, coef_t, theta):
    """Gradient and Hessian of each problem's penalized loss, built whole:
    sum_i g_i x_i^T and sum_i S_i kron x_i x_i^T with S_i the score Hessian."""
    n = xb.shape[0]
    k, m, width = theta.shape
    probs = softmax_rows(theta @ xb.T)
    score_grad = probs * (coef_t - np.sum(probs * coef_t, axis=1, keepdims=True)) / n
    score_hess = (
        np.einsum("jl,kji->kjli", np.eye(m), score_grad)
        - np.einsum("kji,kli->kjli", probs, score_grad)
        - np.einsum("kji,kli->kjli", score_grad, probs)
    )
    grad = np.einsum("kji,ia->kja", score_grad, xb) + ERM_L2 * theta
    hess = np.einsum("kjli,ia,ib->kjalb", score_hess, xb, xb).reshape(k, m * width, m * width)
    return grad, hess + ERM_L2 * np.eye(m * width)


def _strict_subset(rng, count):
    """Ascending indices of a random strict subset of range(count); [0] for 1."""
    size = int(rng.integers(1, count)) if count > 1 else 1
    return np.sort(rng.choice(count, size, replace=False))


def test_derivatives_match_a_dense_reference():
    rng = np.random.default_rng(14)
    shapes = [(1, 1, 0, 1), (2, 1, 3, 7), (3, 4, 0, 9), (1, 5, 10, 40)]
    shapes += [tuple(int(v) for v in rng.integers([1, 1, 0, 1], [7, 8, 9, 60])) for _ in range(30)]
    for k, m, d, n in shapes:
        xb = with_bias(rng.standard_normal((n, d)))
        coef_t = rng.standard_normal((k, m, n))
        theta = rng.standard_normal((k, m, d + 1)) * 0.5
        objective = _StackedErm(xb, coef_t)
        rows = _strict_subset(rng, k)
        slots = _strict_subset(rng, rows.size)
        objective(theta[rows], rows)
        grad, hess = objective.derivatives(theta[rows], slots)
        ref_grad, ref_hess = _dense_derivatives(xb, coef_t[rows[slots]], theta[rows[slots]])
        assert np.max(np.abs(grad - ref_grad)) < 1e-12
        assert np.max(np.abs(hess - ref_hess)) < 1e-12


def test_objective_on_a_subset_matches_the_full_evaluation():
    rng = np.random.default_rng(15)
    for _ in range(30):
        k, m, d, n = (int(v) for v in rng.integers([2, 1, 0, 1], [12, 8, 12, 300]))
        objective, theta = _erm_problem(rng, k=k, n=n, d=d, m=m)
        full = objective(theta)
        rows = _strict_subset(rng, k)
        assert np.array_equal(objective(theta[rows], rows), full[rows])


def _fit(ds, kind=EstimatorKind.ROBUST, ladder=LADDER):
    """The policy trained on the dataset's ``kind`` coefficients."""
    return optimize_policy(ds.features, ladder, loss_coefficients(ds, ladder, kind))


def test_dominant_arm_is_learned():
    # identical customers, one price strictly dominant in realized reward
    rng = np.random.default_rng(2)
    n, m = 4000, 3
    ladder = PriceLadder(np.array([1.0, 2.0, 3.0]))
    x = np.zeros((n, 1))
    pis = np.full((n, m), 1.0 / m)
    price = rng.integers(1, m + 1, size=n)
    # valuations: everyone buys at prices 1 and 2, nobody at 3 -> price 2 dominates
    valuation = np.full(n, 2)
    sold = price <= valuation
    ds = Dataset(features=x, price_index=price, sold=sold, propensities=pis, valuations=valuation)
    result = _fit(ds, EstimatorKind.IPS, ladder)
    probs = result.policy.probs_matrix(np.zeros((1, 1)))[0]
    assert probs[1] >= 0.95


def test_training_loss_trajectory_descends():
    ds = _dataset(n=300, seed=3)
    result = _fit(ds)
    hist = result.loss_history
    assert hist[-1] < hist[0]
    assert np.all(np.diff(hist) <= 0)
    assert len(hist) == result.steps + 1
    assert result.grad_max < GRAD_TOL


def test_training_is_deterministic():
    ds = _dataset(n=100, seed=4)
    a = _fit(ds)
    b = _fit(ds)
    assert np.array_equal(a.policy.theta, b.policy.theta)


def test_target_policy_greedy_tie_break():
    class Flat:
        def sale_probs_matrix(self, features):
            return np.full((np.atleast_2d(features).shape[0], 3), 0.5)

    ladder = PriceLadder(np.array([1.0, 2.0, 3.0]))
    pol = GreedyDemandPolicy(demand=Flat(), ladder=ladder)
    pm = pol.probs_matrix(np.zeros((2, 1)))
    # equal sale probability: the highest margin wins
    assert np.allclose(pm, [[0, 0, 1], [0, 0, 1]])

    class Exact:
        def sale_probs_matrix(self, features):
            return np.tile([0.9, 0.1], (np.atleast_2d(features).shape[0], 1))

    pol2 = GreedyDemandPolicy(demand=Exact(), ladder=PriceLadder(np.array([1.0, 2.0])))
    assert np.allclose(pol2.probs_matrix(np.zeros((1, 1))), [[1.0, 0.0]])

    class Tied:
        def sale_probs_matrix(self, features):
            return np.tile([0.8, 0.4], (np.atleast_2d(features).shape[0], 1))

    # rewards tie at 0.8: the lower rung is chosen
    pol3 = GreedyDemandPolicy(demand=Tied(), ladder=PriceLadder(np.array([1.0, 2.0])))
    assert np.allclose(pol3.probs_matrix(np.zeros((1, 1))), [[1.0, 0.0]])


def test_target_policy_from_training_split():
    ds = _dataset(n=100, seed=6)
    pol = target_policy_for_evaluation(ds, LADDER)
    pm = pol.probs_matrix(ds.features)
    assert pm.shape == (100, 5)
    assert np.allclose(pm.sum(axis=1), 1.0)
    assert np.all(np.max(pm, axis=1) == 1.0)  # deterministic


def _mv_and_robust(ds, model):
    """The mv and robust coefficients that the switching-weight selectors mix."""
    return (
        loss_coefficients(ds, LADDER, EstimatorKind.MIN_VARIANCE, model),
        loss_coefficients(ds, LADDER, EstimatorKind.ROBUST),
    )


def test_select_weight_prefers_exact_plugin():
    # feed the true outcome law as the plug-in: the minimum-variance matrix is
    # genuinely minimum variance, so the variance criterion picks c near 1
    rng = np.random.default_rng(8)
    d = 6
    surface = sample_surface(rng, SurfaceKind.BASE, d)
    ds = generate_dataset(surface, GenConfig(n=4000, d=d), rng)
    truth = surface.as_model(LADDER)
    pm = np.full((ds.n, 5), 0.2)
    c = select_switching_weight(pm, *_mv_and_robust(ds, truth))
    assert c >= 0.8


def test_select_weight_shuns_adversarial_plugin():
    from priceloss.demand import blend_alpha

    rng = np.random.default_rng(9)
    d = 6
    surface = sample_surface(rng, SurfaceKind.BASE, d)
    ds = generate_dataset(surface, GenConfig(n=2000, d=d), rng)
    wrong = blend_alpha(surface.as_model(LADDER), 0.0)  # everything sells at 0.01
    pol = target_policy_for_evaluation(
        generate_dataset(surface, GenConfig(n=100, d=d), rng), LADDER
    )
    pm = pol.probs_matrix(ds.features)
    c_wrong = select_switching_weight(pm, *_mv_and_robust(ds, wrong))
    c_right = select_switching_weight(pm, *_mv_and_robust(ds, surface.as_model(LADDER)))
    assert c_wrong < c_right


def _select_weight_one_at_a_time(pm, coef_mv, coef_rob, folds):
    """The selector as one loop over weights and folds: the reference for the
    batched scores, which must match it bit for bit."""
    loss_mv = np.sum(pm * coef_mv, axis=1)
    loss_rob = np.sum(pm * coef_rob, axis=1)
    n = loss_mv.shape[0]
    f = min(folds, n)
    slices = [np.arange(n)[k::f] for k in range(f)]
    best_c, best_var, scores = WEIGHT_GRID[0], np.inf, []
    for c in WEIGHT_GRID:
        mixed = c * loss_mv + (1.0 - c) * loss_rob
        score = float(np.mean([float(np.var(mixed[s])) for s in slices if s.size > 0]))
        scores.append(score)
        if score < best_var:
            best_c, best_var = c, score
    return best_c, scores


@pytest.mark.parametrize("folds", [2, 5])
@pytest.mark.parametrize("n", [1, 2, 7, 500])
def test_select_weight_matches_the_loop_over_weights(n, folds):
    rng = np.random.default_rng(100 * n + folds)
    pm = rng.dirichlet(np.ones(LADDER.m), size=n)
    coef_mv = rng.standard_normal((n, LADDER.m))
    for coef_rob in (rng.standard_normal((n, LADDER.m)), coef_mv.copy()):
        expected, scores = _select_weight_one_at_a_time(pm, coef_mv, coef_rob, folds)
        assert select_switching_weight(pm, coef_mv, coef_rob, folds) == expected
        assert _cross_fold_variances(pm, coef_mv, coef_rob, folds).tolist() == scores
    # Equal endpoints whose mix is exact for every weight (random equal
    # endpoints are mixed with rounding, which can break the tie): every
    # score is 0, and the tie goes to the first weight.
    zero = np.zeros((n, LADDER.m))
    expected, scores = _select_weight_one_at_a_time(pm, zero, zero, folds)
    assert scores == [0.0] * len(WEIGHT_GRID) and expected == WEIGHT_GRID[0]
    assert select_switching_weight(pm, zero, zero, folds) == WEIGHT_GRID[0]


def test_policy_serialization_round_trip(tmp_path):
    theta = np.random.default_rng(10).standard_normal((5, 7))
    pol = LinearSoftmaxPolicy(theta=theta, ladder=LADDER)
    path = tmp_path / "policy.json"
    path.write_text(pol.to_json())
    back, ladder = _load_policy(str(path))
    assert ladder is back.ladder
    x = np.random.default_rng(11).standard_normal((3, 6))
    assert np.allclose(pol.probs_matrix(x), back.probs_matrix(x))
    assert back.ladder.unit_cost == LADDER.unit_cost


def test_constant_policy():
    pol = ConstantPolicy(PolicyDist(np.array([0.3, 0.7])))
    assert np.allclose(pol.probs_matrix(np.zeros((4, 2))), [[0.3, 0.7]] * 4)


def test_non_finite_loss_raises():
    ds = _dataset(n=20, seed=12)
    coef = np.full((20, 5), np.inf)
    with pytest.raises(ArithmeticError, match="non-finite"):
        optimize_policy(ds.features, LADDER, coef)


@pytest.mark.parametrize("seed", [20, 21, 22])
def test_training_weight_is_the_variance_rule_at_the_robust_pilot(seed):
    ds = _dataset(n=120, seed=seed)
    demand = fit_tlearner(_dataset(n=100, seed=seed + 100), LADDER)
    coef_mv, coef_rob = _mv_and_robust(ds, demand)
    pilot = optimize_policy(ds.features, LADDER, coef_rob).policy
    expected = select_switching_weight(pilot.probs_matrix(ds.features), coef_mv, coef_rob, 4)
    chosen = select_switching_weight_for_training(ds.features, LADDER, coef_mv, coef_rob, 4)
    assert chosen == expected


def test_training_weight_trains_one_problem_once(monkeypatch):
    problems = []
    descent = policy._damped_newton_descent

    def counting(features_bias, coef_t):
        problems.append(coef_t.shape[0])
        return descent(features_bias, coef_t)

    monkeypatch.setattr(policy, "_damped_newton_descent", counting)
    ds = _dataset(n=200, seed=25)
    demand = fit_tlearner(_dataset(n=100, seed=125), LADDER)
    select_switching_weight_for_training(ds.features, LADDER, *_mv_and_robust(ds, demand))
    assert problems == [1]


def test_stacked_descent_matches_each_problem_alone():
    ds = _dataset(n=90, seed=23)
    coefs = [
        loss_coefficients(ds, LADDER, EstimatorKind.ROBUST),
        loss_coefficients(ds, LADDER, EstimatorKind.CIPS),
        loss_coefficients(ds, LADDER, EstimatorKind.IPS),
    ]
    theta, history, steps, grad_max = _damped_newton_descent(
        with_bias(ds.features), np.stack([c.T for c in coefs])
    )
    assert theta.shape == (3, 5, ds.features.shape[1] + 1)
    assert history.shape == (3, steps.max() + 1)
    for k, coef in enumerate(coefs):
        alone = optimize_policy(ds.features, LADDER, coef)
        assert steps[k] == alone.steps
        assert np.max(np.abs(theta[k] - alone.policy.theta)) < 1e-12
        assert np.max(np.abs(history[k, : steps[k] + 1] - alone.loss_history)) < 1e-12
        assert grad_max[k] < GRAD_TOL and alone.grad_max < GRAD_TOL


def test_descent_raises_at_the_step_cap(monkeypatch):
    monkeypatch.setattr(policy, "MAX_DESCENT_STEPS", 1)
    with pytest.raises(TrainingDiverged, match="did not converge in 1 steps"):
        _fit(_dataset(n=60, seed=24))


def test_descent_converges_across_surfaces_shifts_and_sizes():
    # Every problem must stop on the gradient tolerance, far below the cap.
    steps = []
    for kind, shift, n in itertools.product(SurfaceKind, (-10.0, 0.0, 10.0), (50, 500)):
        rng = np.random.default_rng([int(shift) + 20, n])
        gen = GenConfig(n=n, d=10, surface_kind=kind, logit_shift=shift)
        surface = sample_surface(rng, kind, 10, shift)
        ds = generate_dataset(surface, gen, rng)
        truth = surface.as_model(LADDER)
        coef_t = np.stack(
            [
                loss_coefficients(ds, LADDER, EstimatorKind(e), truth).T
                for e in ("ips", "cips", "robust", "mv")
            ]
        )
        _, _, k_steps, grad_max = _damped_newton_descent(with_bias(ds.features), coef_t)
        assert np.all(grad_max < GRAD_TOL)
        steps += k_steps.tolist()
    assert max(steps) <= policy.MAX_DESCENT_STEPS // 3
