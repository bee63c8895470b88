"""Tests of the benchmark itself: self-time arithmetic, wrapping, and the
negative controls that prove its correctness checks can fail.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from priceloss import losses, oracle  # noqa: E402
from priceloss.estimators import EstimatorKind  # noqa: E402


def make_spans(rows):
    """Spans from (name, parent index, start, end) tuples."""
    return [spans.Span(k, name, parent, 0, a, b) for k, (name, parent, a, b) in enumerate(rows)]


# ---------------------------------------------------------------------------
# Self time
# ---------------------------------------------------------------------------


def test_self_time_of_nested_spans():
    s = make_spans([("root", None, 0.0, 10.0), ("child", 0, 1.0, 5.0), ("grandchild", 1, 2.0, 3.0)])
    selfs = spans.self_times(s)
    assert selfs == {0: 6.0, 1: 3.0, 2: 1.0}
    assert sum(selfs.values()) == s[0].duration


def test_self_time_of_touching_siblings_counts_the_shared_instant_once():
    s = make_spans([("root", None, 0.0, 3.0), ("a", 0, 0.0, 1.0), ("b", 0, 1.0, 2.0)])
    assert spans.self_times(s)[0] == 1.0


def test_self_time_takes_the_union_of_overlapping_children_clipped_to_the_parent():
    s = make_spans([("root", None, 0.0, 4.0), ("a", 0, 1.0, 3.0), ("b", 0, 2.0, 5.0)])
    assert spans.self_times(s)[0] == 1.0
    assert spans.covered_length([(5.0, 6.0), (-2.0, -1.0)], 0.0, 4.0) == 0.0


def test_installed_records_nested_layers_and_restores_the_originals():
    sample = small_sample()
    original = losses.loss_coefficients
    tracer = spans.Tracer()
    with spans.installed(tracer):
        losses.per_record_losses(
            sample.dataset, sample.policy_matrix, sample.ladder, EstimatorKind.SWITCHING,
            sample.demand, 0.5,
        )
    assert losses.loss_coefficients is original
    names = [s.name for s in tracer.spans]
    assert names == [
        "losses.per_record_losses",
        "losses.loss_coefficients.cmix",
        "losses.loss_coefficients.mv",
        "demand.sale_probs_matrix",
        "losses.loss_coefficients.robust",
    ]
    parents = [s.parent for s in tracer.spans]
    assert parents == [None, 0, 1, 2, 1]


def test_tail_percentile_needs_ten_units_beyond_it():
    assert run.tail_percentile([1.0] * 9) is None
    assert run.tail_percentile([float(k) for k in range(20)])[0] == 50
    assert run.tail_percentile([float(k) for k in range(100)]) == (90, 89.0)


def test_meter_samples_during_the_block_and_restores_the_signal_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with speed.Meter(period=0.01) as meter:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(meter.samples) >= 5
    assert 0.0 < meter.spent < 0.2
    assert meter.scale() == pytest.approx(speed.REFERENCE_S * len(meter.samples) / sum(meter.samples))


# ---------------------------------------------------------------------------
# Negative controls: each check must fail on a corrupted coefficient or output
# ---------------------------------------------------------------------------


def small_sample():
    wl = workloads.EvalRep(seed=3, work_dir=None)
    wl.n = 200
    return wl.check_sample()


def test_losses_agree_passes_on_the_real_engine():
    assert all(not errors for _, errors in checks.losses_agree(small_sample()))


def test_losses_agree_fails_on_a_corrupted_coefficient(monkeypatch):
    real = losses.loss_coefficients

    def corrupted(*args, **kwargs):
        coef = real(*args, **kwargs).copy()
        coef[0, 0] += 1e-7
        return coef

    monkeypatch.setattr(losses, "loss_coefficients", corrupted)
    results = checks.losses_agree(small_sample())
    assert [name for name, errors in results if errors] == [
        f"losses_agree.{k}" for k in checks.KINDS
    ]


def test_oracle_check_fails_on_an_injected_broken_row():
    rows = oracle.run_all(seed=0, n_instances=2)
    assert checks.oracle_passes(0, rows)[1] == []
    rows.append(oracle.SweepRow("injected_negative_control", 0, 1.0, 1e-9))
    assert checks.oracle_passes(0, rows)[1]


def test_round_trip_fails_when_the_reader_loses_precision():
    sample = small_sample()
    assert checks.csv_round_trip(sample.dataset)[1] == []

    def lossy(buf):
        ds = checks.ladder.read_csv(buf)
        ds.features = np.float32(ds.features).astype(np.float64)
        return ds

    assert checks.csv_round_trip(sample.dataset, read=lossy)[1] == [
        "column features changed in the round trip"
    ]


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    wl = workloads.CsvEval(seed=5, work_dir=tmp_path_factory.mktemp("csv"))
    wl.n = 3000
    wl.set_up()
    return wl


def test_eval_csv_output_passes_and_corruptions_fail(small_csv):
    code, path, k = small_csv.unit(0)
    assert small_csv.output_errors((code, path, k)) == []
    doc = json.loads(path.read_text())
    pol = small_csv.policies[k]

    nan = json.loads(json.dumps(doc))
    nan["estimators"]["mv"]["loss_variance"] = math.nan
    assert small_csv.doc_errors(nan, pol) == [".estimators.mv.loss_variance is not finite"]

    shifted = json.loads(json.dumps(doc))
    shifted["estimators"]["ips"]["estimated_reward"] += 1.0
    errors = small_csv.doc_errors(shifted, pol)
    assert len(errors) == 1 and errors[0].startswith("ips: estimate")

    assert small_csv.output_errors((1, path, k)) == ["eval-csv exited 1"]


def test_replication_output_check_rejects_non_finite_values():
    wl = workloads.EvalRep(seed=0, work_dir=None)
    good = {"ips": 0.1, "mv": 0.2, "robust": 0.1, "cmix": 0.0}
    assert wl.output_errors(good) == []
    assert wl.output_errors({**good, "mv": math.inf}) == ["mv = inf is not finite"]


def test_run_fails_without_a_printed_result_outside_a_checkout(tmp_path):
    """In a directory holding only the benchmark, the command exits non-zero
    and prints nothing on standard output."""
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval-rep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_lists_exactly_the_metrics_and_workloads_the_run_prints():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.per_layer_units()
