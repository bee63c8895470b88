"""Benchmark of ``priceloss``: replication throughput and offline-evaluation
latency, end to end and layer by layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload eval-rep --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``eval-rep``, ``learn-rep``, ``csv-eval``;
``--workload all`` runs the three in turn, each in its own interpreter.
With ``--trace 0`` no wrapper is installed and the last line of standard
output carries the end-to-end metrics. With ``--trace 1`` units run in
pairs, one traced and one not, and the last line carries the per-layer
metrics and the tracing overhead. Correctness checks follow the timed
units in both modes; any failure makes the exit code 1.

Times in the metrics are seconds at a reference machine speed: a meter
(``speed.py``) samples the host's current speed while each unit runs, so a
busy shared host does not read as a slower program. Raw wall times are
printed beside them and kept in the record.

A record with every metric and the run metadata is written under
``.perfbench/results/`` in the checkout; traced runs also write their spans
there as JSON lines.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread, set before numpy loads: the loop has one caller, and a
# shared machine times a single thread more steadily.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import spans  # noqa: E402
import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

SETUP_TRIALS = 3
IMPORT_TRIALS = 9
# Run in a fresh interpreter: import the package, then sample the machine's
# speed in the same process. Arguments: the source and benchmark directories.
IMPORT_PROBE = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
import priceloss.bench, priceloss.cli
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import speed
kernel_s = speed.sample()
print(json.dumps({"sampling_s": time.perf_counter() - t0, "kernel_s": kernel_s}))
"""
SELF_TIME_TOL = 0.01  # layer self times must cover a traced unit's wall time to 1%

END_TO_END = {
    "setup_s": "s",
    "units_per_s": "1/s",
    "unit_s_p50": "s",
    "peak_rss_mb": "MB",
}

# Per-layer figures, per traced unit. Each layer reports calls, inclusive
# seconds and self seconds; the ones marked True also report rows handled.
LAYER_KEYS = {
    "bench.eval_replication": False,
    "bench.learn_replication": False,
    "policy.target_policy_for_evaluation": False,
    "demand.fit_tlearner": True,
    "demand.sale_probs_matrix": False,
    "synthgen.generate_dataset": True,
    "synthgen.true_policy_value": False,
    "policy.select_switching_weight": False,
    "policy.select_switching_weight_for_training": False,
    "policy.optimize_policy.cv": False,
    "policy.optimize_policy.final": False,
    "losses.loss_coefficients.ips": False,
    "losses.loss_coefficients.robust": False,
    "losses.loss_coefficients.mv": False,
    "losses.loss_coefficients.cmix": False,
    "losses.per_record_losses": False,
    "cli.cmd_eval_csv": False,
    "ladder.read_csv": True,
    "ladder.validate": False,
}
SETUP_LAYERS = ("synthgen.generate_dataset", "ladder.write_csv")
QUALITY = {"eval_rmse_mv": "revenue", "eval_rmse_cmix": "revenue", "learn_reward_mean": "revenue"}


def per_layer_units() -> dict[str, str]:
    """Name and unit of every per-layer metric, in report order."""
    units = {}
    for key, has_rows in LAYER_KEYS.items():
        units[f"{key}.calls"] = "count"
        units[f"{key}.s"] = "s"
        units[f"{key}.self_s"] = "s"
        if has_rows:
            units[f"{key}.rows"] = "count"
    for key in SETUP_LAYERS:
        units[f"setup.{key}.s"] = "s"
    units["unit.s"] = "s"
    units["trace.unattributed_frac"] = "ratio"
    units["trace.overhead_frac"] = "ratio"
    for key, unit in QUALITY.items():
        units[f"quality.{key}"] = unit
    return units


# ---------------------------------------------------------------------------
# Run metadata
# ---------------------------------------------------------------------------


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def src_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def blas_threads() -> int | None:
    """Threads OpenBLAS will use, asked of the library numpy loaded."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    env = os.environ.get("OPENBLAS_NUM_THREADS")
    return int(env) if env else None


def run_metadata(workload, args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "config_hash": workload.config_hash(),
        "git_sha": git_sha(ROOT),
        "src_sha256": src_digest(SRC),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def fresh_import() -> dict:
    """A new interpreter starting and importing the package: wall seconds,
    and seconds at the reference speed sampled right after in that process."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
        cwd=ROOT,
        check=True,
        timeout=120,
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - t0
    probe = json.loads(proc.stdout)
    wall = elapsed - probe["sampling_s"]
    return {"wall": wall, "s": wall * speed.REFERENCE_S / probe["kernel_s"]}


def tail_percentile(times: list[float]) -> tuple[float, float] | None:
    """Highest listed percentile with at least ten units beyond it."""
    n = len(times)
    for pct in (99.9, 99, 95, 90, 75, 50):
        rank = math.ceil(round(pct * n / 100, 6))  # 1-based rank of the percentile
        if n - rank >= 10:
            return pct, sorted(times)[rank - 1]
    return None


class Run:
    """One workload's set-up, timed loop and per-unit records.

    Every time is kept twice: ``wall`` as measured, less the speed meter's
    own passes, and ``s`` scaled to the reference speed by that meter.
    """

    def __init__(self, workload, seconds: float, tracer=None):
        self.workload = workload
        self.seconds = seconds
        self.tracer = tracer
        self.units: list[dict] = []  # i, traced, wall, scale, s, out, errors
        self.import_trials: list[dict] = []  # wall, s
        self.setup_trials: list[dict] = []  # wall, scale, s

    @staticmethod
    def _timed(fn) -> dict:
        """Run ``fn`` under a speed meter; returns its times and result."""
        with speed.Meter() as meter:
            t0 = time.perf_counter()
            result = fn()
            wall = time.perf_counter() - t0 - meter.spent
        scale = meter.scale()
        return {"wall": wall, "scale": scale, "s": wall * scale, "result": result}

    def _traced(self, unit, fn):
        self.tracer.unit = unit
        try:
            with spans.installed(self.tracer), self.tracer.span("setup" if unit == "setup" else "unit"):
                return fn()
        finally:
            self.tracer.unit = None

    def unit(self, i: int, traced: bool) -> None:
        errors = []

        def call():
            try:
                if traced:
                    return self._traced(i, lambda: self.workload.unit(i))
                return self.workload.unit(i)
            except Exception:  # a failing unit is counted, and the loop goes on
                errors.append(traceback.format_exc(limit=3))
                return None

        record = self._timed(call)
        record.update(i=i, traced=traced, out=record.pop("result"), errors=errors)
        self.units.append(record)

    def set_up(self) -> dict[str, float]:
        """Median import plus median input generation, in scaled and wall seconds.

        Imports are cheap and noisy, so they are repeated more often than
        the generation.
        """
        self.import_trials = [fresh_import() for _ in range(IMPORT_TRIALS)]
        for _ in range(SETUP_TRIALS):
            if self.tracer is None:
                gen = self._timed(self.workload.set_up)
            else:
                gen = self._timed(lambda: self._traced("setup", self.workload.set_up))
            self.setup_trials.append({k: gen[k] for k in ("wall", "scale", "s")})
        return {
            k: statistics.median(t[k] for t in self.import_trials)
            + statistics.median(t[k] for t in self.setup_trials)
            for k in ("s", "wall")
        }

    def timed_loop(self) -> None:
        """Closed loop until ``seconds`` have passed.

        Traced runs execute each unit twice, traced and untraced, alternating
        which goes first, so the two can be compared on identical inputs.
        """
        start = time.perf_counter()
        i = 0
        while time.perf_counter() - start < self.seconds:
            if self.tracer is None:
                order = (False,)
            else:
                order = (True, False) if i % 2 == 0 else (False, True)
            for traced in order:
                self.unit(i, traced)
            i += 1

    def quality(self) -> dict[str, float]:
        """Quality from a fixed set of units, so it repeats for a seed.

        Units the timed loop did not reach are run now, untimed.
        """
        need = self.workload.quality_reps
        outs = {u["i"]: u["out"] for u in self.units if not u["errors"] and not u["traced"]}
        for i in range(need):
            if i not in outs:
                outs[i] = self.workload.unit(i)
        return self.workload.quality([outs[i] for i in range(need)]) if need else {}


def layer_metrics(run: Run) -> dict[str, float]:
    """Per-layer figures per traced unit, in seconds at the reference speed."""
    tracer = run.tracer
    selfs = spans.self_times(tracer.spans)
    traced = [u for u in run.units if u["traced"]]
    plain = {u["i"]: u["s"] for u in run.units if not u["traced"]}
    n = len(traced)
    totals = spans.layer_totals(tracer.spans, selfs, {u["i"]: u["scale"] for u in traced})
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0, "rows": 0}
    out = {}
    for key, has_rows in LAYER_KEYS.items():
        row = totals.get(key, zero)
        out[f"{key}.calls"] = row["calls"] / n
        out[f"{key}.s"] = row["s"] / n
        out[f"{key}.self_s"] = row["self_s"] / n
        if has_rows:
            out[f"{key}.rows"] = row["rows"] / n
    trials = run.setup_trials
    setup = spans.layer_totals(
        tracer.spans, selfs, {"setup": statistics.fmean(t["scale"] for t in trials)}
    )
    for key in SETUP_LAYERS:
        out[f"setup.{key}.s"] = setup.get(key, zero)["s"] / len(trials)
    roots = [s for s in tracer.spans if s.name == "unit"]
    out["unit.s"] = statistics.fmean(u["s"] for u in traced)
    out["trace.unattributed_frac"] = sum(selfs[s.id] for s in roots) / sum(s.duration for s in roots)
    paired = [u for u in traced if u["i"] in plain]
    out["trace.overhead_frac"] = sum(u["s"] for u in paired) / sum(plain[u["i"]] for u in paired) - 1
    return out


def self_time_check(run: Run) -> tuple[str, list[str]]:
    """In every traced unit, the layers' self times add up to the unit's wall time."""
    selfs = spans.self_times(run.tracer.spans)
    errors = []
    for root in (s for s in run.tracer.spans if s.name == "unit"):
        layers = sum(selfs[s.id] for s in run.tracer.spans if s.unit == root.unit and s is not root)
        gap = abs(root.duration - layers) / root.duration
        if gap > SELF_TIME_TOL:
            errors.append(f"unit {root.unit}: layer self times miss {gap:.2%} of its wall time")
    return "trace.self_time_sum", errors


def dominant_layer(metrics: dict[str, float]) -> str:
    selfs = {k[: -len(".self_s")]: v for k, v in metrics.items() if k.endswith(".self_s")}
    return max(selfs, key=selfs.get)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "priceloss" / "__init__.py").is_file():
        print(f"perfbench: no priceloss sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks
    from workloads import WORKLOADS

    if args.workload == "all":
        # Each workload in its own interpreter, so set-up and peak memory
        # stay per workload.
        return max(
            subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT,
            ).returncode
            for name in WORKLOADS
        )
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)} or all", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, OUT_DIR / "work" / args.workload)
    run = Run(workload, args.seconds, spans.Tracer() if args.trace else None)

    setup = run.set_up()
    run.timed_loop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for u in run.units:
        if not u["errors"]:
            u["errors"] = workload.output_errors(u["out"])
    check_results = checks.run_all(workload.check_sample(), args.seed)
    try:
        quality = run.quality()
    except Exception:  # counted as a failed check, so the run still reports
        quality = {}
        check_results.append(("quality", [traceback.format_exc(limit=3)]))
    if run.tracer is not None:
        check_results.append(self_time_check(run))

    failed_units = sum(1 for u in run.units if u["errors"])
    failed_checks = sum(1 for _, errors in check_results if errors)
    attempted = len(run.units) + len(check_results)
    failed = failed_units + failed_checks

    plain = [u["s"] for u in run.units if not u["traced"]]
    plain_wall = [u["wall"] for u in run.units if not u["traced"]]
    end_to_end = {
        "setup_s": setup["s"],
        "units_per_s": len(plain) / math.fsum(plain),
        "unit_s_p50": statistics.median(plain),
        "peak_rss_mb": peak_rss_mb,
    }
    wall = {
        "setup_s": setup["wall"],
        "units_per_s": len(plain_wall) / math.fsum(plain_wall),
        "unit_s_p50": statistics.median(plain_wall),
    }
    if run.tracer is None:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in end_to_end.items()}
    else:
        units = per_layer_units()
        values = layer_metrics(run)
        values.update({f"quality.{k}": quality.get(k, 0.0) for k in QUALITY})
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    meta = run_metadata(workload, args)
    tail = tail_percentile(plain)
    if run.tracer is None:
        for k, v in end_to_end.items():
            raw = f" (wall {wall[k]:.6g})" if k in wall else ""
            print(f"{args.workload} {k} = {v:.6g} {END_TO_END[k]}{raw}")
    print(f"{args.workload} units = {len(plain)} untraced" + (f", {len(run.units) - len(plain)} traced" if run.tracer else ""))
    if tail:
        print(f"{args.workload} unit_s_tail = p{tail[0]:g} {tail[1]:.6g} s (n = {len(plain)})")
    else:
        print(f"{args.workload} unit_s_tail = not reported: {len(plain)} units leave fewer than 10 beyond any percentile")
    print(f"{args.workload} failed_frac = {failed / attempted:.6g} ({failed} of {attempted})")
    for k, v in quality.items():
        print(f"{args.workload} {k} = {v!r} {QUALITY[k]}")
    if run.tracer is not None:
        print(f"{args.workload} dominant layer (self time) = {dominant_layer(values)}")
    for name, errors in check_results:
        print(f"{args.workload} check {name}: {'FAIL ' + '; '.join(errors) if errors else 'pass'}")
    for u in run.units:
        for e in u["errors"]:
            print(f"{args.workload} unit {u['i']} failed: {e}", file=sys.stderr)
    print("meta " + json.dumps(meta, sort_keys=True))

    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "meta": meta,
        "metrics": metrics,
        "end_to_end": end_to_end,
        "end_to_end_wall": wall,
        "quality": quality,
        "unit_s_tail": tail,
        "units": [{k: u[k] for k in ("i", "traced", "wall", "scale", "s")} for u in run.units],
        "import_trials": run.import_trials,
        "setup_trials": run.setup_trials,
        "checks": dict(check_results),
        "failed": failed,
        "attempted": attempted,
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if run.tracer is not None:
        with open(results / f"{stem}.spans.jsonl", "w") as f:
            for s in run.tracer.spans:
                f.write(json.dumps(s.__dict__, default=str) + "\n")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
