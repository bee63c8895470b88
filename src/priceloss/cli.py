"""Command-line harness: oracle checks, benchmark sweeps, data generation,
and external-dataset evaluation.

Exit codes: 0 success, 1 oracle/acceptance failure, 2 input error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from . import bench, oracle
from .demand import fit_tlearner
from .estimators import EstimatorKind
from .ladder import (
    PolicyDist,
    PriceLadder,
    Propensities,
    SchemaError,
    _opened,
    read_csv,
    validate,
    write_csv,
)
from .losses import estimator_coefficients
from .policy import ConstantPolicy, LinearSoftmaxPolicy, select_switching_weight
from .synthgen import GenConfig, SurfaceKind, sample_surface, generate_dataset


class InputError(ValueError):
    pass


def _parse_ladder(text: str, unit_cost: float) -> PriceLadder:
    try:
        return PriceLadder(np.asarray([float(p) for p in text.split(",")]), unit_cost)
    except ValueError as exc:
        raise InputError(f"bad --ladder {text!r}: {exc}") from exc


def _policy_ladder(doc: dict) -> PriceLadder:
    lad = doc["ladder"]
    prices = np.asarray(lad["prices"], dtype=np.float64)
    return PriceLadder(prices, float(lad.get("unit_cost", 0.0)))


def _load_policy(path: str):
    """The policy in a JSON file and the ladder it carries (``None`` if none).

    A ``linear_softmax`` document holds ``theta`` and ``ladder``; a
    ``constant`` one holds ``probs`` and optionally ``ladder``.
    """
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read policy file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"policy file {path} holds a JSON {type(doc).__name__}, not an object")
    kind = doc.get("type")
    if kind not in ("linear_softmax", "constant"):
        raise InputError(f"unsupported policy type {kind!r} in {path}")
    try:
        if kind == "linear_softmax":
            ladder = _policy_ladder(doc)
            theta = np.asarray(doc["theta"], dtype=np.float64)
            return LinearSoftmaxPolicy(theta=theta, ladder=ladder), ladder
        policy = ConstantPolicy(PolicyDist(np.asarray(doc["probs"], dtype=np.float64)))
        return policy, (_policy_ladder(doc) if "ladder" in doc else None)
    except KeyError as exc:
        raise InputError(f"policy file {path} has no {exc} entry") from exc
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad policy file {path}: {exc}") from exc


def cmd_oracle_check(args) -> int:
    rows = oracle.run_all(seed=args.seed, n_instances=args.instances)
    if args.inject_broken:
        rows.append(oracle.SweepRow("injected_negative_control", args.seed, 1.0, 1e-9))
    failures = [r for r in rows if not r.passed]
    with _opened(args.out or sys.stdout, "w") as f:
        writer = csv.writer(f)
        writer.writerow(["check", "seed", "max_error", "tolerance", "verdict"])
        writer.writerows(row.as_csv_row() for row in rows)
    for row in failures:
        print(f"FAILED: {','.join(row.as_csv_row())}", file=sys.stderr)
    return 1 if failures else 0


def _load_bench_config(args) -> bench.BenchConfig:
    overrides = {"seed": args.seed, "reps": args.reps}
    try:
        if args.config:
            return bench.load_config(args.config, **overrides)
        return bench.config_from_dict({}, **overrides)
    except (OSError, json.JSONDecodeError, ValueError, TypeError) as exc:
        raise InputError(f"bad config: {exc}") from exc


def cmd_sweep(args, runner) -> int:
    cfg = _load_bench_config(args)
    rows = runner(cfg)
    bench.write_rows(rows, args.out or sys.stdout)
    return 0


def cmd_gen(args) -> int:
    rng = np.random.default_rng(args.seed)
    ladder = _parse_ladder(args.ladder, args.unit_cost)
    kind = SurfaceKind(args.surface)
    try:
        surface = sample_surface(rng, kind, args.d, args.shift)
        cfg = GenConfig(
            n=args.n, d=args.d, ladder=ladder, softmax_scale=args.lam,
            surface_kind=kind, logit_shift=args.shift,
        )
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    dataset = generate_dataset(surface, cfg, rng)
    write_csv(dataset, args.out or sys.stdout)
    return 0


def cmd_eval_csv(args) -> int:
    policy, ladder = _load_policy(args.policy)
    if args.ladder:
        ladder = _parse_ladder(args.ladder, args.unit_cost)
    if ladder is None:
        raise InputError("no ladder given: pass --ladder or use a policy file that carries one")
    linear = isinstance(policy, LinearSoftmaxPolicy)
    rungs = policy.theta.shape[0] if linear else policy.dist.m
    if rungs != ladder.m:
        raise InputError(f"policy has {rungs} rungs but the ladder has {ladder.m}")
    const = None
    if args.propensities:
        try:
            const = Propensities(np.asarray([float(p) for p in args.propensities.split(",")])).probs
        except ValueError as exc:
            raise InputError(f"bad --propensities {args.propensities!r}: {exc}") from exc
    try:
        dataset = read_csv(args.dataset, constant_propensities=const)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read dataset {args.dataset}: {exc}") from exc
    except SchemaError as exc:
        raise InputError(f"schema violation: {exc}") from exc
    if dataset.m != ladder.m:
        raise InputError(
            f"dataset has {dataset.m} propensity columns but the ladder has {ladder.m} rungs"
        )
    if linear and policy.theta.shape[1] != dataset.d + 1:
        cols, d = policy.theta.shape[1], dataset.d
        raise InputError(f"policy theta has {cols} columns but {d} features need {d + 1}")
    overlap_violations = validate(dataset)
    pm = policy.probs_matrix(dataset.features)

    kinds = []
    for name in (k.strip() for k in args.estimators.split(",")):
        try:
            kinds.append(EstimatorKind(name))
        except ValueError as exc:
            raise InputError(f"unknown estimator {name!r}") from exc
    needs_demand = any(k in (EstimatorKind.MIN_VARIANCE, EstimatorKind.SWITCHING) for k in kinds)
    demand = fit_tlearner(dataset, ladder) if needs_demand else None

    results = {}
    per_kind = estimator_coefficients(
        dataset, ladder, kinds, demand, lambda mv, rob: select_switching_weight(pm, mv, rob)
    )
    for kind, (coef, weight) in per_kind.items():
        losses = np.sum(pm * coef, axis=1)
        entry = {
            "estimated_loss": float(losses.mean()),
            "estimated_reward": float(-losses.mean()),
            "loss_variance": float(losses.var(ddof=1)) if dataset.n > 1 else 0.0,
        }
        if weight is not None:
            entry["chosen_c"] = weight
        results[kind.value] = entry

    doc = {
        "n": dataset.n,
        "min_propensity": float(dataset.propensities.min()),
        "overlap_violations": len(overlap_violations),
        "estimators": results,
    }
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="priceloss",
        description="Benchmarks for unbiased pricing-loss estimators on observational sales data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("oracle-check", help="run all brute-force verifier sweeps")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--instances", type=int, default=200)
    p.add_argument("--inject-broken", action="store_true", help=argparse.SUPPRESS)

    for name, help_text in (
        ("eval-sweep", "policy-evaluation accuracy sweep"),
        ("learn-sweep", "policy-optimization reward sweep"),
        ("sales-regime", "evaluation/learning at shifted sale probabilities"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--reps", type=int, default=None)
        p.add_argument("--out", default=None)

    p = sub.add_parser("gen", help="emit a synthetic dataset CSV")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--d", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shift", type=float, default=0.0)
    p.add_argument("--lam", type=float, default=5.0)
    p.add_argument("--surface", default="base", choices=[k.value for k in SurfaceKind])
    p.add_argument("--ladder", default="1,2,3,4,5")
    p.add_argument("--unit-cost", type=float, default=0.0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("eval-csv", help="evaluate a policy file on an external dataset CSV")
    p.add_argument("dataset")
    p.add_argument("--policy", required=True)
    p.add_argument("--estimators", default="ips,mv,robust,cmix")
    p.add_argument("--propensities", default=None, help="constant pi_1,..,pi_m")
    p.add_argument("--ladder", default=None, help="prices p_1,..,p_m")
    p.add_argument("--unit-cost", type=float, default=0.0)
    p.add_argument("--out", default=None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "oracle-check":
            return cmd_oracle_check(args)
        if args.command == "eval-sweep":
            return cmd_sweep(args, bench.run_eval_sweep)
        if args.command == "learn-sweep":
            return cmd_sweep(args, bench.run_learn_sweep)
        if args.command == "sales-regime":
            return cmd_sweep(args, bench.run_sales_regime)
        if args.command == "gen":
            return cmd_gen(args)
        if args.command == "eval-csv":
            return cmd_eval_csv(args)
        raise InputError(f"unknown command {args.command!r}")
    except (InputError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
