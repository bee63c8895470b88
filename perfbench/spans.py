"""In-memory spans around calls into ``priceloss``, and self-time arithmetic.

A :class:`Tracer` keeps every span in a list; nothing is written until the
benchmark ends. Spans nest through a stack (the benchmark is one thread), so
each span knows the span that caused it. :func:`installed` wraps the public
functions listed in :data:`LAYERS` at every module they are imported into and
restores the originals on exit; code outside that block runs unwrapped.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    unit: object  # unit index, "setup", or None
    start: float
    end: float = 0.0
    rows: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.unit: object = None
        self._stack: list[Span] = []

    def current_name(self) -> str | None:
        return self._stack[-1].name if self._stack else None

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.unit, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def wrap(self, fn, name: str, suffix=None, rows=None):
        """Wrap ``fn`` so each call records a span.

        ``suffix(parent_name, args, kwargs)`` extends the span name, and
        ``rows(result, args, kwargs)`` records how many rows the call handled.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            full = name if suffix is None else f"{name}.{suffix(self.current_name(), args, kwargs)}"
            span = self.open(full)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if rows is not None:
                span.rows = int(rows(result, args, kwargs))
            return result

        return traced


# ---------------------------------------------------------------------------
# Self time
# ---------------------------------------------------------------------------


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    run_start = run_end = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its direct children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: s.duration - covered_length(children[s.id], s.start, s.end) for s in spans
    }


# ---------------------------------------------------------------------------
# Layers: which public functions are wrapped, and where they are looked up
# ---------------------------------------------------------------------------


def _kind_suffix(parent, args, kwargs):
    kind = kwargs["kind"] if "kind" in kwargs else args[2]
    return getattr(kind, "value", kind)


def _optimize_suffix(parent, args, kwargs):
    return "cv" if parent == "policy.select_switching_weight_for_training" else "final"


def _rows_arg0(result, args, kwargs):
    return args[0].n


def _rows_config(result, args, kwargs):
    config = kwargs["config"] if "config" in kwargs else args[1]
    return config.n


def _rows_result(result, args, kwargs):
    return result.n


# (layer name, modules the function is looked up in, attribute, suffix, rows).
# A module is listed wherever the function is imported, so calls made through
# that module's namespace are the ones that get recorded.
LAYERS = [
    ("bench.eval_replication", ["bench"], "eval_replication", None, None),
    ("bench.learn_replication", ["bench"], "learn_replication", None, None),
    ("policy.target_policy_for_evaluation", ["bench"], "target_policy_for_evaluation", None, None),
    ("demand.fit_tlearner", ["bench", "policy", "cli"], "fit_tlearner", None, _rows_arg0),
    ("demand.sale_probs_matrix", ["demand.FittedDemandModel"], "sale_probs_matrix", None, None),
    ("synthgen.generate_dataset", ["bench", "synthgen"], "generate_dataset", None, _rows_config),
    ("synthgen.true_policy_value", ["bench"], "true_policy_value", None, None),
    ("policy.select_switching_weight", ["bench", "cli"], "select_switching_weight", None, None),
    (
        "policy.select_switching_weight_for_training",
        ["bench"],
        "select_switching_weight_for_training",
        None,
        None,
    ),
    ("policy.optimize_policy", ["bench", "policy"], "optimize_policy", _optimize_suffix, None),
    ("losses.loss_coefficients", ["losses", "policy"], "loss_coefficients", _kind_suffix, None),
    ("losses.per_record_losses", ["losses", "cli"], "per_record_losses", None, None),
    ("cli.cmd_eval_csv", ["cli"], "cmd_eval_csv", None, None),
    ("ladder.read_csv", ["cli"], "read_csv", None, _rows_result),
    ("ladder.validate", ["cli"], "validate", None, None),
    ("ladder.write_csv", ["ladder"], "write_csv", None, None),
]


def _resolve(site: str):
    module, _, cls = site.partition(".")
    obj = importlib.import_module(f"priceloss.{module}")
    return getattr(obj, cls) if cls else obj


@contextmanager
def installed(tracer: Tracer):
    """Wrap every layer function at its import sites for the block's duration.

    A site that no longer has the attribute is skipped, but every layer must be
    wrapped somewhere, so a renamed function fails loudly instead of vanishing
    from the trace.
    """
    undo = []
    try:
        for name, sites, attr, suffix, rows in LAYERS:
            found = False
            for site in sites:
                owner = _resolve(site)
                original = owner.__dict__.get(attr)
                if original is None:
                    continue
                undo.append((owner, attr, original))
                setattr(owner, attr, tracer.wrap(original, name, suffix, rows))
                found = True
            if not found:
                raise LookupError(f"layer {name}: no module exposes {attr}")
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Per-layer figures
# ---------------------------------------------------------------------------


def layer_totals(spans: list[Span], selfs: dict[int, float], scales: dict) -> dict[str, dict]:
    """Calls, inclusive seconds, self seconds and rows per span name, summed
    over the spans recorded while a unit in ``scales`` was running, with each
    unit's seconds multiplied by its scale."""
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "rows": 0})
    for s in spans:
        if s.unit not in scales:
            continue
        scale = scales[s.unit]
        row = out[s.name]
        row["calls"] += 1
        row["s"] += s.duration * scale
        row["self_s"] += selfs[s.id] * scale
        row["rows"] += s.rows or 0
    return dict(out)
