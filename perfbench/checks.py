"""Correctness checks run after the timed units, outside the timing.

Each check returns ``(name, errors)``; an empty error list is a pass.
"""

from __future__ import annotations

import io

import numpy as np

from priceloss import ladder, losses, oracle
from priceloss.estimators import EstimatorKind

KINDS = ("ips", "cips", "robust", "mv", "cmix")
AGREEMENT_TOL = 1e-9  # the tolerance of the repository's own agreement test
SWITCHING_WEIGHT = 0.5
ORACLE_INSTANCES = 10


def losses_agree(sample) -> list[tuple[str, list[str]]]:
    """Batched per-record losses match the per-record reference for every kind."""
    out = []
    for name in KINDS:
        kind = EstimatorKind(name)
        weight = SWITCHING_WEIGHT if kind == EstimatorKind.SWITCHING else None
        args = (sample.dataset, sample.policy_matrix, sample.ladder, kind, sample.demand, weight)
        batched = losses.per_record_losses(*args)
        diff = float(np.max(np.abs(batched - losses.per_record_losses_reference(*args))))
        ok = diff < AGREEMENT_TOL  # also false for NaN
        out.append(
            (f"losses_agree.{name}", [] if ok else [f"max |batched - reference| = {diff:.3e}"])
        )
    return out


def oracle_passes(seed: int, rows=None) -> tuple[str, list[str]]:
    """The brute-force verifier sweeps all pass at a small instance count."""
    rows = oracle.run_all(seed=seed, n_instances=ORACLE_INSTANCES) if rows is None else rows
    return "oracle.run_all", [",".join(r.as_csv_row()) for r in rows if not r.passed]


def csv_round_trip(dataset, read=None) -> tuple[str, list[str]]:
    """``read_csv(write_csv(ds))`` reproduces every column bit for bit."""
    read = read or ladder.read_csv
    buf = io.StringIO()
    ladder.write_csv(dataset, buf)
    buf.seek(0)
    back = read(buf)
    errors = []
    for col in ("features", "price_index", "sold", "propensities", "valuations"):
        a, b = getattr(dataset, col), getattr(back, col)
        same = (a is None and b is None) or (
            a is not None
            and b is not None
            and a.dtype == b.dtype
            and a.shape == b.shape
            and a.tobytes() == b.tobytes()
        )
        if not same:
            errors.append(f"column {col} changed in the round trip")
    return "csv_round_trip", errors


def run_all(sample, seed: int) -> list[tuple[str, list[str]]]:
    return losses_agree(sample) + [oracle_passes(seed), csv_round_trip(sample.dataset)]
