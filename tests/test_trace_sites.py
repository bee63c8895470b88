"""The benchmark in ``perfbench/`` traces ``priceloss`` by wrapping public
functions where they are imported (``perfbench/spans.py``). Installing its
wrappers raises ``LookupError`` when a layer has lost every wrap site, so a
refactor that renames or moves one fails here instead of in the benchmark.
"""

import importlib.util
import sys
from pathlib import Path

from priceloss import bench, cli, demand, ladder, losses, policy

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def _sites():
    return (
        bench.fit_tlearner,
        policy.fit_tlearner,
        demand.FittedDemandModel.sale_probs_matrix,
        cli.read_csv,
        ladder.write_csv,
        cli.select_switching_weight,
        bench.select_switching_weight,
        bench.optimize_policy,
        bench.select_switching_weight_for_training,
        losses.loss_coefficients,
    )


def test_benchmark_wrap_sites_install_and_restore():
    spans = _load_spans()
    originals = _sites()
    with spans.installed(spans.Tracer()):
        assert all(now is not before for now, before in zip(_sites(), originals))
    assert _sites() == originals
