"""The three benchmark workloads, each driving ``priceloss``'s public functions.

Every input comes from the workload seed. A workload is a closed loop of
units: one caller, the next unit starts when the previous one returns.
Calls go through the module namespaces (``bench.eval_replication``,
``cli.main``, ...) so that a traced run records them.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

from priceloss import bench, cli, demand, ladder, policy, synthgen

# Independent RNG streams derived from the workload seed.
CSV_STREAM = 1
CHECK_STREAM = 2

CHECK_ROWS = 500  # records in the batched-vs-reference and round-trip checks
ESTIMATE_SIGMAS = 6.0  # eval-csv estimate vs true value, in standard errors


def _gen_config(cfg: bench.BenchConfig, n: int) -> synthgen.GenConfig:
    return synthgen.GenConfig(
        n=n,
        d=cfg.d,
        ladder=cfg.price_ladder(),
        softmax_scale=cfg.lam,
        surface_kind=synthgen.SurfaceKind(cfg.surface),
        logit_shift=cfg.shift,
        price_scale=cfg.price_scale,
    )


def _surface(cfg: bench.BenchConfig, rng) -> synthgen.DemandSurface:
    return synthgen.sample_surface(
        rng, synthgen.SurfaceKind(cfg.surface), cfg.d, cfg.shift, cfg.price_scale
    )


def _random_policy(rng, cfg: bench.BenchConfig) -> policy.LinearSoftmaxPolicy:
    lad = cfg.price_ladder()
    theta = rng.normal(scale=0.5, size=(lad.m, cfg.d + 1))
    return policy.LinearSoftmaxPolicy(theta=theta, ladder=lad)


def _nonfinite_fields(doc, path="") -> list[str]:
    """Paths of every number in a JSON document that is not finite."""
    if isinstance(doc, dict):
        return [p for k, v in doc.items() for p in _nonfinite_fields(v, f"{path}.{k}")]
    if isinstance(doc, list):
        return [p for k, v in enumerate(doc) for p in _nonfinite_fields(v, f"{path}[{k}]")]
    if isinstance(doc, (int, float)) and not isinstance(doc, bool) and not math.isfinite(doc):
        return [path or "."]
    return []


class CheckSample(NamedTuple):
    """Records, policy probabilities and an independent plug-in for the checks."""

    dataset: object
    policy_matrix: np.ndarray
    ladder: object
    demand: object


class Replications:
    """Shared part of the two replication workloads (n = 500, fitted demand)."""

    n = 500
    # Name of the bench function one unit calls, looked up on the module at
    # each call so that a traced run reaches the wrapper.
    replicate = None

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.cfg = bench.BenchConfig(seed=seed, n_grid=(self.n,), workers=1)

    def config_hash(self) -> str:
        return self.cfg.config_hash()

    def set_up(self) -> None:
        """Nothing to generate ahead: each replication draws its own data."""

    def unit(self, i: int) -> dict[str, float]:
        return getattr(bench, self.replicate)(self.cfg, self.n, None, i)

    def output_errors(self, out: dict[str, float]) -> list[str]:
        errors = []
        if tuple(out) != self.cfg.estimators:
            errors.append(f"estimators {tuple(out)} != {self.cfg.estimators}")
        errors += [f"{k} = {v!r} is not finite" for k, v in out.items() if not math.isfinite(v)]
        return errors

    def check_sample(self) -> CheckSample:
        rng = np.random.default_rng([self.seed, CHECK_STREAM])
        surface = _surface(self.cfg, rng)
        obs = synthgen.generate_dataset(surface, _gen_config(self.cfg, self.n), rng)
        split = synthgen.generate_dataset(
            surface, _gen_config(self.cfg, self.cfg.n_demand_fit), rng
        )
        pm = _random_policy(rng, self.cfg).probs_matrix(obs.features)
        lad = self.cfg.price_ladder()
        return CheckSample(obs, pm, lad, demand.fit_tlearner(split, lad))


class EvalRep(Replications):
    """One unit is ``bench.eval_replication`` at n = 500; outputs are squared errors."""

    name = "eval-rep"
    replicate = "eval_replication"
    quality_reps = 16

    def output_errors(self, out):
        return super().output_errors(out) + [f"{k} = {v!r} < 0" for k, v in out.items() if v < 0]

    def quality(self, outs: list[dict[str, float]]) -> dict[str, float]:
        return {
            f"eval_rmse_{k}": math.sqrt(math.fsum(o[k] for o in outs) / len(outs))
            for k in ("mv", "cmix")
        }


class LearnRep(Replications):
    """One unit is ``bench.learn_replication`` at n = 500; outputs are true test rewards."""

    name = "learn-rep"
    replicate = "learn_replication"
    quality_reps = 1

    def quality(self, outs: list[dict[str, float]]) -> dict[str, float]:
        rewards = [v for o in outs for v in o.values()]
        return {"learn_reward_mean": math.fsum(rewards) / len(rewards)}


class CsvEval:
    """One unit is ``priceloss eval-csv`` on a 100k-row CSV, run in-process.

    Units cycle over seeded policy files: two linear-softmax, one constant.
    """

    name = "csv-eval"
    n = 100_000
    quality_reps = 0

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.cfg = bench.BenchConfig(seed=seed, n_grid=(self.n,), workers=1)
        self.work_dir = work_dir
        self.csv_path = work_dir / "data.csv"
        self.policy_paths = [work_dir / f"policy_{k}.json" for k in range(3)]
        self.data = None
        self.policies = []

    def config_hash(self) -> str:
        return self.cfg.config_hash()

    def set_up(self) -> None:
        """Draw the records and write them as CSV, then write the policy files."""
        rng = np.random.default_rng([self.seed, CSV_STREAM])
        surface = _surface(self.cfg, rng)
        self.data = synthgen.generate_dataset(surface, _gen_config(self.cfg, self.n), rng)
        self.work_dir.mkdir(parents=True, exist_ok=True)
        ladder.write_csv(self.data, str(self.csv_path))
        lad = self.cfg.price_ladder()
        linear = [_random_policy(rng, self.cfg) for _ in range(2)]
        probs = rng.dirichlet(np.ones(lad.m))
        docs = [json.loads(p.to_json()) for p in linear] + [
            {
                "type": "constant",
                "probs": probs.tolist(),
                "ladder": {"prices": lad.prices.tolist(), "unit_cost": lad.unit_cost},
            }
        ]
        for path, doc in zip(self.policy_paths, docs):
            path.write_text(json.dumps(doc))
        self.policies = linear + [policy.ConstantPolicy(ladder.PolicyDist(probs))]

    def unit(self, i: int) -> tuple[int, Path, int]:
        """Returns the exit code, the output path and the policy's index."""
        k = i % len(self.policy_paths)
        out = self.work_dir / f"out_{i}.json"
        argv = ["eval-csv", str(self.csv_path), "--policy", str(self.policy_paths[k]), "--out", str(out)]
        return cli.main(argv), out, k

    def output_errors(self, out) -> list[str]:
        code, path, k = out
        if code != 0:
            return [f"eval-csv exited {code}"]
        return self.doc_errors(json.loads(path.read_text()), self.policies[k])

    def doc_errors(self, doc: dict, pol) -> list[str]:
        """Finite fields, the right row count, and every estimate within
        ``ESTIMATE_SIGMAS`` standard errors of the policy's true value."""
        errors = [f"{p} is not finite" for p in _nonfinite_fields(doc)]
        if doc.get("n") != self.n:
            errors.append(f"n = {doc.get('n')!r}, expected {self.n}")
        expected = set(self.cfg.estimators)
        if set(doc.get("estimators", {})) != expected:
            errors.append(f"estimators {sorted(doc.get('estimators', {}))} != {sorted(expected)}")
        if errors:
            return errors
        pm = pol.probs_matrix(self.data.features)
        truth = -synthgen.true_policy_value(pm, self.data.valuations, self.cfg.price_ladder())
        for name, entry in doc["estimators"].items():
            se = math.sqrt(entry["loss_variance"] / self.n)
            if abs(entry["estimated_reward"] - truth) > ESTIMATE_SIGMAS * se:
                errors.append(
                    f"{name}: estimate {entry['estimated_reward']:.6f} is more than "
                    f"{ESTIMATE_SIGMAS} se ({se:.2e}) from the true value {truth:.6f}"
                )
        return errors

    def quality(self, outs) -> dict[str, float]:
        return {}

    def check_sample(self) -> CheckSample:
        rng = np.random.default_rng([self.seed, CHECK_STREAM])
        rows = rng.choice(self.n, size=2 * CHECK_ROWS, replace=False)
        sample = self.data.subset(rows[:CHECK_ROWS])
        fit_on = self.data.subset(rows[CHECK_ROWS:])
        lad = self.cfg.price_ladder()
        pm = self.policies[0].probs_matrix(sample.features)
        return CheckSample(sample, pm, lad, demand.fit_tlearner(fit_on, lad))


WORKLOADS = {w.name: w for w in (EvalRep, LearnRep, CsvEval)}
