"""Benchmark suites: seeded, replicated experiments with CSV output.

Each replication draws a fresh demand surface, builds the policy under
evaluation from a small training split, generates observational data from
the logging policy, and then either estimates the policy's value (evaluation
suites) or trains a new policy against each corrupted loss (optimization
suites). Replications use counter-derived RNG streams, so results do not
depend on execution order and parallel runs reproduce serial ones.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from .demand import blend_alpha, fit_tlearner
from .estimators import EstimatorKind
from .ladder import PriceLadder, _opened
from .losses import estimator_coefficients, policy_losses
from .policy import (
    optimize_policy,
    select_switching_weight,
    select_switching_weight_for_training,
    target_policy_for_evaluation,
)
from .synthgen import (
    DemandSurface,
    GenConfig,
    SurfaceKind,
    generate_dataset,
    sample_surface,
    true_policy_value,
)

RESULT_COLUMNS = [
    "experiment",
    "method",
    "n",
    "alpha",
    "shift",
    "rep",
    "metric",
    "value",
    "stderr",
    "seed",
    "config_hash",
]

DEFAULT_ESTIMATORS = ("ips", "mv", "robust", "cmix")


@dataclass(frozen=True)
class BenchConfig:
    n_grid: tuple[int, ...] = (50, 100, 500, 2000)
    alpha_grid: tuple[float, ...] | None = None  # None: fit demand from the data
    d: int = 10
    ladder: tuple[float, ...] = (1.0, 2.0, 3.0, 4.0, 5.0)
    unit_cost: float = 0.0
    lam: float = 5.0
    shift: float = 0.0
    reps: int = 500
    seed: int = 0
    estimators: tuple[str, ...] = DEFAULT_ESTIMATORS
    surface: str = "base"
    price_scale: float = 5.0
    n_policy_train: int = 100  # split used to build the evaluated policy
    n_demand_fit: int = 100  # independent split used to fit the plug-in demand
    test_size: int = 10000
    # Folds of cmix's switching-weight rule, the lowest cross-fold loss
    # variance: at the evaluated policy when evaluating, and at a
    # robust-trained pilot policy when learning.
    cv_folds: int = 5
    workers: int = 1

    def __post_init__(self):
        """Check the fields before any replication runs: a bad value raises a
        ``ValueError`` that names the fields its check reads."""
        for fields, check in (
            ("reps", lambda: _at_least(self.reps, 1)),
            ("cv_folds", lambda: _at_least(self.cv_folds, 2)),
            ("seed", lambda: _at_least(self.seed, 0)),
            ("n_grid", lambda: [_at_least(n, 1) for n in _nonempty(self.n_grid)]),
            ("lam", lambda: GenConfig(n=1, softmax_scale=self.lam)),
            ("n_policy_train", lambda: _at_least(self.n_policy_train, 1)),
            ("n_demand_fit", lambda: _at_least(self.n_demand_fit, 1)),
            ("test_size", lambda: _at_least(self.test_size, 1)),
            ("ladder/unit_cost", self.price_ladder),
            ("estimators", lambda: [EstimatorKind(name) for name in _nonempty(self.estimators)]),
            ("surface", lambda: SurfaceKind(self.surface)),
            (
                "d/price_scale",
                lambda: DemandSurface(
                    SurfaceKind(self.surface), np.zeros(self.d), price_scale=self.price_scale
                ),
            ),
            ("shift", self._check_shift),
            ("alpha_grid", self._check_alphas),
            ("workers", lambda: _at_least(self.workers, 1)),
        ):
            try:
                check()
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{fields}: {exc}") from None

    def _check_shift(self) -> None:
        """The shift is a finite logit offset whose RNG stream key exists."""
        DemandSurface(SurfaceKind(self.surface), np.zeros(self.d), logit_shift=self.shift)
        try:
            _stream_key(self.shift)
        except OverflowError:
            raise ValueError(f"{self.shift!r} is too large for an RNG stream key") from None

    def _check_alphas(self) -> None:
        """A given grid is nonempty, each alpha is a blend weight, and no two
        share an RNG stream."""
        if self.alpha_grid is None:
            return
        alphas: dict[int, float] = {}
        for alpha in _nonempty(self.alpha_grid):
            blend_alpha(None, alpha)  # only checks the range here
            key = _stream_key(alpha)
            if key in alphas:
                raise ValueError(f"{alphas[key]!r} and {alpha!r} round to one RNG stream key")
            alphas[key] = alpha

    def price_ladder(self) -> PriceLadder:
        return PriceLadder(np.asarray(self.ladder, dtype=np.float64), self.unit_cost)

    def config_hash(self) -> str:
        """Hash of the experiment parameters; ``workers`` only sets how reps run."""
        params = {k: v for k, v in asdict(self).items() if k != "workers"}
        doc = json.dumps(params, sort_keys=True, default=str)
        return hashlib.sha256(doc.encode()).hexdigest()[:12]


def load_config(path: str, **overrides) -> BenchConfig:
    with open(path) as f:
        doc = json.load(f)
    return config_from_dict(doc, **overrides)


def config_from_dict(doc: dict, **overrides) -> BenchConfig:
    known = {f for f in BenchConfig.__dataclass_fields__}
    unknown = set(doc) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    merged = {**doc, **{k: v for k, v in overrides.items() if v is not None}}
    for key in ("n_grid", "ladder", "estimators"):
        if key in merged and merged[key] is not None:
            merged[key] = tuple(merged[key])
    if merged.get("alpha_grid") is not None:
        merged["alpha_grid"] = tuple(float(a) for a in merged["alpha_grid"])
    return BenchConfig(**merged)


def _at_least(value, low) -> None:
    """``value`` is an integer of at least ``low``; a bool is no integer here."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"need an integer, got {value!r}")
    if not value >= low:
        raise ValueError(f"need at least {low}, got {value!r}")


def _nonempty(values: tuple) -> tuple:
    if not values:
        raise ValueError("need at least one entry")
    return values


def _stream_key(k: float) -> int:
    """The seed entry of a float key: its magnitude to 1e-3, offset when negative."""
    return int(abs(k) * 1000) + (1 << 20) * (k < 0)


def _rep_rng(seed: int, *keys: float) -> np.random.Generator:
    ints = [seed] + [_stream_key(k) for k in keys]
    return np.random.default_rng(np.random.SeedSequence(ints))


# ---------------------------------------------------------------------------
# Single replications
# ---------------------------------------------------------------------------


def _gen_config(cfg: BenchConfig, n: int, ladder: PriceLadder) -> GenConfig:
    return GenConfig(
        n=n,
        d=cfg.d,
        ladder=ladder,
        softmax_scale=cfg.lam,
        surface_kind=SurfaceKind(cfg.surface),
        logit_shift=cfg.shift,
        price_scale=cfg.price_scale,
    )


def _plugin_demand(cfg: BenchConfig, surface, ladder, alpha, rng):
    """The direct-method model: an alpha blend of the truth, or a T-learner
    fit on an independent draw so its quality does not depend on the
    evaluation sample (and it cannot memorize the records it reweights)."""
    if alpha is not None:
        return blend_alpha(surface.as_model(ladder), alpha)
    split = generate_dataset(surface, _gen_config(cfg, cfg.n_demand_fit, ladder), rng)
    return fit_tlearner(split, ladder)


def eval_replication(
    cfg: BenchConfig, n: int, alpha: float | None, rep: int
) -> dict[str, float]:
    """One evaluation draw: squared error of each estimator's value estimate."""
    rng = _rep_rng(cfg.seed, 1, n, -1.0 if alpha is None else alpha, cfg.shift, rep)
    ladder = cfg.price_ladder()
    surface = sample_surface(
        rng, SurfaceKind(cfg.surface), cfg.d, cfg.shift, cfg.price_scale
    )
    train_split = generate_dataset(surface, _gen_config(cfg, cfg.n_policy_train, ladder), rng)
    policy = target_policy_for_evaluation(train_split, ladder)
    demand = _plugin_demand(cfg, surface, ladder, alpha, rng)
    obs = generate_dataset(surface, _gen_config(cfg, n, ladder), rng)
    pm = policy.probs_matrix(obs.features)
    truth = true_policy_value(pm, obs.valuations, ladder)

    per_kind = estimator_coefficients(
        obs,
        ladder,
        [EstimatorKind(name) for name in cfg.estimators],
        demand,
        lambda mv, rob: select_switching_weight(pm, mv, rob, folds=cfg.cv_folds),
    )
    return {
        kind.value: (float(policy_losses(pm, coef).mean()) - truth) ** 2
        for kind, (coef, _) in per_kind.items()
    }


def learn_replication(
    cfg: BenchConfig, n: int, alpha: float | None, rep: int
) -> dict[str, float]:
    """One optimization draw: true test reward of each trained policy."""
    rng = _rep_rng(cfg.seed, 2, n, -1.0 if alpha is None else alpha, cfg.shift, rep)
    ladder = cfg.price_ladder()
    surface = sample_surface(
        rng, SurfaceKind(cfg.surface), cfg.d, cfg.shift, cfg.price_scale
    )
    obs = generate_dataset(surface, _gen_config(cfg, n, ladder), rng)
    demand = _plugin_demand(cfg, surface, ladder, alpha, rng)
    test = generate_dataset(surface, _gen_config(cfg, cfg.test_size, ladder), rng)

    # cmix's weight is chosen at a pilot trained on the robust coefficients of
    # these records: that pilot is the robust policy, so it is trained once.
    trained = {}

    def choose_weight(mv, rob):
        weight, trained[EstimatorKind.ROBUST] = select_switching_weight_for_training(
            obs.features, ladder, mv, rob, folds=cfg.cv_folds
        )
        return weight

    per_kind = estimator_coefficients(
        obs, ladder, [EstimatorKind(name) for name in cfg.estimators], demand, choose_weight
    )
    out: dict[str, float] = {}
    for kind, (coef, _) in per_kind.items():
        if kind not in trained:
            trained[kind] = optimize_policy(obs.features, ladder, coef)
        test_pm = trained[kind].policy.probs_matrix(test.features)
        out[kind.value] = -true_policy_value(test_pm, test.valuations, ladder)
    return out


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


@dataclass
class ResultRow:
    experiment: str
    method: str
    n: int
    alpha: float | None
    shift: float
    rep: int | str
    metric: str
    value: float
    stderr: float | None
    seed: int
    config_hash: str

    def as_csv(self) -> list[str]:
        return [
            self.experiment,
            self.method,
            str(self.n),
            "" if self.alpha is None else repr(float(self.alpha)),
            repr(float(self.shift)),
            str(self.rep),
            self.metric,
            repr(float(self.value)),
            "" if self.stderr is None else repr(float(self.stderr)),
            str(self.seed),
            self.config_hash,
        ]


def _run_reps(fn, cfg: BenchConfig, n: int, alpha, reps: int) -> list[dict[str, float]]:
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            futures = [pool.submit(fn, cfg, n, alpha, rep) for rep in range(reps)]
            return [f.result() for f in futures]
    return [fn(cfg, n, alpha, rep) for rep in range(reps)]


def _aggregate(
    cfg: BenchConfig,
    experiment: str,
    per_rep: list[dict[str, float]],
    n: int,
    alpha,
    metric: str,
    agg_metric: str,
) -> list[ResultRow]:
    chash = cfg.config_hash()
    rows: list[ResultRow] = []
    for rep, values in enumerate(per_rep):
        for method, value in values.items():
            rows.append(
                ResultRow(
                    experiment, method, n, alpha, cfg.shift, rep, metric, value, None,
                    cfg.seed, chash,
                )
            )
    for method in per_rep[0]:
        vals = np.asarray([r[method] for r in per_rep])
        stderr = float(vals.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
        rows.append(
            ResultRow(
                experiment, method, n, alpha, cfg.shift, len(vals), agg_metric,
                float(vals.mean()), stderr, cfg.seed, chash,
            )
        )
    return rows


def _run_sweep(
    cfg: BenchConfig, experiment: str, replication, metric: str, agg_metric: str
) -> list[ResultRow]:
    """Every (n, alpha) cell of the config: one row per rep and metric, then
    each method's mean with its standard error."""
    rows: list[ResultRow] = []
    alphas: tuple[float | None, ...] = (
        (None,) if cfg.alpha_grid is None else cfg.alpha_grid
    )
    for n in cfg.n_grid:
        for alpha in alphas:
            per_rep = _run_reps(replication, cfg, n, alpha, cfg.reps)
            rows += _aggregate(cfg, experiment, per_rep, n, alpha, metric, agg_metric)
    return rows


def run_eval_sweep(cfg: BenchConfig) -> list[ResultRow]:
    return _run_sweep(cfg, "eval-sweep", eval_replication, "sq_error", "mse")


def run_learn_sweep(cfg: BenchConfig) -> list[ResultRow]:
    return _run_sweep(cfg, "learn-sweep", learn_replication, "reward", "reward_mean")


def sales_regime_estimators(cfg: BenchConfig) -> tuple[str, ...]:
    """The configured estimators that ``run_sales_regime`` runs: ips and
    robust. Raises ``ValueError`` naming ``estimators`` if it lists neither."""
    estimators = tuple(e for e in cfg.estimators if e in ("ips", "robust"))
    if not estimators:
        raise ValueError(
            f"estimators: sales-regime runs only ips and robust, got {list(cfg.estimators)}"
        )
    return estimators


def run_sales_regime(cfg: BenchConfig) -> list[ResultRow]:
    """Evaluation and optimization at logit shifts -10 / 0 / +10, n = 500.

    Optimization runs ``max(1, reps // 25)`` reps per shift.
    """
    rows: list[ResultRow] = []
    shifts = (-10.0, 0.0, 10.0)
    estimators = sales_regime_estimators(cfg)
    n = cfg.n_grid[0] if len(cfg.n_grid) == 1 else 500
    lreps = max(1, cfg.reps // 25)
    for shift in shifts:
        shifted = replace(cfg, shift=shift, estimators=estimators)
        per_rep = _run_reps(eval_replication, shifted, n, None, cfg.reps)
        rows += _aggregate(shifted, "sales-regime", per_rep, n, None, "sq_error", "mse")
        per_rep = _run_reps(learn_replication, shifted, n, None, lreps)
        rows += _aggregate(
            shifted, "sales-regime", per_rep, n, None, "reward", "reward_mean"
        )
    return rows


def write_rows(rows: list[ResultRow], path_or_buf) -> None:
    with _opened(path_or_buf, "w") as f:
        writer = csv.writer(f)
        writer.writerow(RESULT_COLUMNS)
        writer.writerows(row.as_csv() for row in rows)
