import csv
import json

import numpy as np
import pytest

from priceloss import bench
from priceloss.cli import main
from priceloss.demand import FittedDemandModel
from priceloss.ladder import read_csv
from priceloss.policy import LinearSoftmaxPolicy
from priceloss.ladder import PriceLadder


def test_gen_writes_valid_schema(tmp_path):
    out = tmp_path / "data.csv"
    assert main(["gen", "--n", "50", "--seed", "3", "--out", str(out)]) == 0
    ds = read_csv(str(out))
    assert ds.n == 50
    assert ds.m == 5
    assert ds.valuations is not None


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["gen", "--n", "30", "--seed", "9", "--out", str(a)])
    main(["gen", "--n", "30", "--seed", "9", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_oracle_check_passes_and_negative_control(tmp_path):
    out = tmp_path / "oracle.csv"
    assert main(["oracle-check", "--seed", "1", "--instances", "20", "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0].startswith("check,seed,max_error")
    assert all(line.endswith("pass") for line in rows[1:])
    assert (
        main(
            [
                "oracle-check",
                "--seed",
                "1",
                "--instances",
                "5",
                "--inject-broken",
                "--out",
                str(tmp_path / "bad.csv"),
            ]
        )
        == 1
    )


def test_oracle_check_verdicts_stable_across_seeds(tmp_path):
    for seed in ("2", "7"):
        code = main(
            ["oracle-check", "--seed", seed, "--instances", "15", "--out", str(tmp_path / f"o{seed}.csv")]
        )
        assert code == 0


def _write_policy(tmp_path, kind="constant"):
    path = tmp_path / "policy.json"
    if kind == "constant":
        doc = {
            "type": "constant",
            "probs": [0.2, 0.2, 0.2, 0.2, 0.2],
            "ladder": {"prices": [1, 2, 3, 4, 5], "unit_cost": 0.0},
        }
        path.write_text(json.dumps(doc))
    else:
        pol = LinearSoftmaxPolicy(
            theta=np.zeros((5, 11)), ladder=PriceLadder(np.arange(1.0, 6.0))
        )
        path.write_text(pol.to_json())
    return path


def test_eval_csv_round_trip(tmp_path, capsys):
    data = tmp_path / "data.csv"
    main(["gen", "--n", "400", "--seed", "5", "--out", str(data)])
    policy = _write_policy(tmp_path, "linear")
    out = tmp_path / "result.json"
    code = main(["eval-csv", str(data), "--policy", str(policy), "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["n"] == 400
    assert set(doc["estimators"]) == {"ips", "mv", "robust", "cmix"}
    assert "chosen_c" in doc["estimators"]["cmix"]
    assert doc["min_propensity"] > 0


def test_eval_csv_builds_each_coefficient_matrix_once(tmp_path, monkeypatch):
    # mv, robust, cmix and the choice of cmix's weight share one mv matrix, so
    # the fitted plug-in is evaluated once over the records
    data = tmp_path / "data.csv"
    main(["gen", "--n", "300", "--seed", "5", "--out", str(data)])
    policy = _write_policy(tmp_path, "linear")
    calls = []
    original = FittedDemandModel.sale_probs_matrix

    def counted(self, features):
        calls.append(features.shape)
        return original(self, features)

    monkeypatch.setattr(FittedDemandModel, "sale_probs_matrix", counted)
    out = tmp_path / "result.json"
    assert main(["eval-csv", str(data), "--policy", str(policy), "--out", str(out)]) == 0
    assert set(json.loads(out.read_text())["estimators"]) == {"ips", "mv", "robust", "cmix"}
    assert calls == [(300, 10)]


def test_learn_replication_builds_each_coefficient_matrix_once(monkeypatch):
    # the cmix weight's choice, the cmix training and the mv training
    # share one mv matrix, so the fitted plug-in runs once
    calls = []
    original = FittedDemandModel.sale_probs_matrix

    def counted(self, features):
        calls.append(features.shape)
        return original(self, features)

    monkeypatch.setattr(FittedDemandModel, "sale_probs_matrix", counted)
    cfg = bench.BenchConfig(n_grid=(60,), reps=1, seed=3)
    assert set(bench.learn_replication(cfg, 60, None, 0)) == {"ips", "mv", "robust", "cmix"}
    assert calls == [(60, 10)]


def test_eval_csv_on_policy_ips_identity(tmp_path):
    # constant logging propensities; evaluating that same constant policy with
    # IPS returns exactly the empirical mean revenue
    rng = np.random.default_rng(0)
    n, m = 200, 3
    rows = ["x_0,price_index,sold"]
    prices = np.array([1.0, 2.0, 3.0])
    revenue = []
    for i in range(n):
        p = rng.integers(1, m + 1)
        sold = int(rng.random() < 0.5)
        revenue.append(prices[p - 1] * sold)
        rows.append(f"{rng.standard_normal():.6f},{p},{sold}")
    data = tmp_path / "data.csv"
    data.write_text("\n".join(rows) + "\n")
    policy = tmp_path / "policy.json"
    policy.write_text(
        json.dumps(
            {
                "type": "constant",
                "probs": [1 / 3, 1 / 3, 1 / 3],
                "ladder": {"prices": [1, 2, 3], "unit_cost": 0.0},
            }
        )
    )
    out = tmp_path / "res.json"
    code = main(
        [
            "eval-csv",
            str(data),
            "--policy",
            str(policy),
            "--estimators",
            "ips",
            "--propensities",
            "0.3333333333333333,0.3333333333333333,0.3333333333333333",
            "--ladder",
            "1,2,3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert abs(doc["estimators"]["ips"]["estimated_reward"] - np.mean(revenue)) < 1e-9


def test_eval_csv_schema_violation_exits_two(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x_0,price_index,sold\n0.1,9,1\n")
    policy = _write_policy(tmp_path, "constant")
    code = main(
        ["eval-csv", str(bad), "--policy", str(policy), "--propensities", "0.2,0.2,0.2,0.2,0.2", "--ladder", "1,2,3,4,5"]
    )
    assert code == 2


def test_eval_csv_missing_ladder_exits_two(tmp_path):
    data = tmp_path / "d.csv"
    data.write_text("x_0,price_index,sold,pi_1,pi_2\n0.1,1,1,0.5,0.5\n")
    policy = tmp_path / "p.json"
    policy.write_text(json.dumps({"type": "constant", "probs": [0.5, 0.5]}))
    assert main(["eval-csv", str(data), "--policy", str(policy)]) == 2


def test_sweep_with_config_and_byte_identical_reruns(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "n_grid": [40],
                "reps": 3,
                "seed": 2,
                "estimators": ["ips", "robust"],
            }
        )
    )
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["eval-sweep", "--config", str(config), "--out", str(out_a)]) == 0
    assert main(["eval-sweep", "--config", str(config), "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    header = out_a.read_text().splitlines()[0]
    assert header == ",".join(bench.RESULT_COLUMNS)


def test_learn_sweep_trains_every_estimator_and_reruns_byte_identical(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "n_grid": [60],
                "reps": 2,
                "seed": 3,
            }
        )
    )
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["learn-sweep", "--config", str(config), "--out", str(out_a)]) == 0
    assert main(["learn-sweep", "--config", str(config), "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    with open(out_a, newline="") as f:
        rows = list(csv.DictReader(f))
    means = {r["method"]: float(r["value"]) for r in rows if r["metric"] == "reward_mean"}
    assert set(means) == set(bench.DEFAULT_ESTIMATORS)
    assert all(np.isfinite(v) for v in means.values())


def test_sales_regime_covers_every_shift_and_reruns_byte_identical(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_grid": [40], "reps": 2, "seed": 6}))
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sales-regime", "--config", str(config), "--out", str(out_a)]) == 0
    assert main(["sales-regime", "--config", str(config), "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    with open(out_a, newline="") as f:
        rows = list(csv.DictReader(f))
    assert {r["experiment"] for r in rows} == {"sales-regime"}
    assert {r["n"] for r in rows} == {"40"}
    for shift in ("-10.0", "0.0", "10.0"):
        at = [r for r in rows if r["shift"] == shift]
        assert {(r["method"], r["metric"]) for r in at if r["stderr"]} == {
            (method, metric)
            for method in ("ips", "robust")
            for metric in ("mse", "reward_mean")
        }
        assert all(np.isfinite(float(r["value"])) for r in at)


def test_sweep_rows_carry_seed_and_hash(tmp_path):
    cfg = bench.config_from_dict(
        {"n_grid": [30], "reps": 2, "seed": 4, "estimators": ["robust"]}
    )
    rows = bench.run_eval_sweep(cfg)
    assert all(r.seed == 4 for r in rows)
    assert len({r.config_hash for r in rows}) == 1
    aggregates = [r for r in rows if r.stderr is not None]
    assert aggregates and all(r.rep == 2 for r in aggregates)


def test_bad_config_exits_two(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"not_a_key": 1}))
    assert main(["eval-sweep", "--config", str(config)]) == 2


def test_removed_train_key_exits_two_and_is_named(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"train": {"iters": 100}}))
    assert main(["learn-sweep", "--config", str(config)]) == 2
    assert "'train'" in capsys.readouterr().err


def test_removed_experiment_key_exits_two_and_is_named(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": "learn-sweep", "n_grid": [40], "reps": 2}))
    assert main(["eval-sweep", "--config", str(config)]) == 2
    assert "'experiment'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, doc, named",
    [
        ("eval-sweep", {"reps": 0}, "reps"),
        ("learn-sweep", {"reps": -1}, "reps"),
        ("eval-sweep", {"cv_folds": 0}, "cv_folds"),
        ("learn-sweep", {"cv_folds": 0}, "cv_folds"),
        ("eval-sweep", {"n_grid": [0]}, "n_grid"),
        ("sales-regime", {"test_size": 0}, "test_size"),
        ("eval-sweep", {"estimators": ["bogus"]}, "estimators"),
        ("eval-sweep", {"alpha_grid": [1.5]}, "alpha_grid"),
        ("eval-sweep", {"alpha_grid": [0.5, 0.5004]}, "alpha_grid"),
        ("learn-sweep", {"d": 2}, "d/price_scale"),
        ("eval-sweep", {"surface": "nope"}, "surface"),
        ("eval-sweep", {"ladder": [3, 2, 1]}, "ladder/unit_cost"),
        ("eval-sweep", {"estimators": []}, "estimators"),
        ("eval-sweep", {"n_grid": []}, "n_grid"),
        ("eval-sweep", {"alpha_grid": []}, "alpha_grid"),
        ("sales-regime", {"estimators": ["mv", "cmix"]}, "estimators"),
        ("eval-sweep", {"lam": float("nan")}, "lam"),
        ("learn-sweep", {"lam": float("inf")}, "lam"),
        ("eval-sweep", {"shift": float("nan")}, "shift"),
        ("eval-sweep", {"shift": 1e308}, "shift"),
        ("sales-regime", {"shift": float("-inf")}, "shift"),
        ("eval-sweep", {"price_scale": float("nan")}, "d/price_scale"),
        ("eval-sweep", {"unit_cost": float("nan")}, "ladder/unit_cost"),
    ],
    ids=lambda v: v if isinstance(v, str) else ",".join(f"{k}={v[k]}" for k in v),
)
def test_bad_sweep_config_exits_two_before_any_rep(tmp_path, capsys, command, doc, named):
    config, out = tmp_path / "config.json", tmp_path / "out.csv"
    config.write_text(json.dumps({"n_grid": [30], "reps": 2, **doc}))
    argv = [command, "--config", str(config), "--out", str(out)]
    if "reps" in doc:
        argv += ["--reps", str(doc["reps"])]  # as given on the command line
    assert main(argv) == 2
    assert f"bad config: {named}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--lam", "nan"], "softmax scale must be finite"),
        (["--lam", "inf"], "softmax scale must be finite"),
        (["--shift", "nan"], "logit shift must be finite"),
        (["--shift=-inf"], "logit shift must be finite"),
        (["--unit-cost", "nan"], "unit cost must be nonnegative and finite"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else "",
)
def test_non_finite_gen_flag_exits_two(tmp_path, capsys, flags, message):
    out = tmp_path / "data.csv"
    assert main(["gen", "--n", "5", "--out", str(out), *flags]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_parallel_sweep_reproduces_the_serial_one(tmp_path):
    outs = []
    for workers in (1, 2):
        config = tmp_path / f"config_{workers}.json"
        config.write_text(
            json.dumps({"n_grid": [40], "reps": 3, "seed": 5, "workers": workers})
        )
        outs.append(tmp_path / f"out_{workers}.csv")
        assert main(["eval-sweep", "--config", str(config), "--out", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_unknown_estimator_exits_two(tmp_path):
    data = tmp_path / "d.csv"
    main(["gen", "--n", "20", "--seed", "1", "--out", str(data)])
    policy = _write_policy(tmp_path, "linear")
    for name in ("bogus", "dr"):
        assert (
            main(["eval-csv", str(data), "--policy", str(policy), "--estimators", name])
            == 2
        )


def _policy_file(tmp_path, doc):
    path = tmp_path / "policy.json"
    path.write_text(json.dumps(doc))
    return str(path)


_LADDER = {"prices": [1, 2, 3, 4, 5], "unit_cost": 0.0}


@pytest.mark.parametrize(
    "dataset, extra, policy_doc, named",
    [
        ("d.csv", ["--propensities", "0.2,x,0.2,0.2,0.2"], None, "'x'"),
        ("d.csv", ["--propensities", "0.5,0.5,0.5,0.5,0.5"], None, "sum to 2.5"),
        ("d.csv", ["--ladder", "1,2,zz"], None, "'zz'"),
        ("d.csv", ["--ladder", "5,4,3,2,1"], None, "'5,4,3,2,1'"),
        ("d.csv", [], {"type": "constant", "ladder": _LADDER}, "'probs'"),
        (
            "d.csv",
            [],
            {"type": "linear_softmax", "theta": [[0.0] * 11] * 4, "ladder": _LADDER},
            "theta",
        ),
        ("d.csv", [], [1, 2], "policy.json holds a JSON list"),
        (
            "d.csv",
            ["--ladder", "1,2,3,4,5"],
            {"type": "constant", "probs": [0.2, 0.3, 0.5]},
            "policy has 3 rungs but the ladder has 5",
        ),
        (
            "d.csv",
            [],
            {"type": "linear_softmax", "theta": [[0.0] * 7] * 5, "ladder": _LADDER},
            "policy theta has 7 columns but 10 features need 11",
        ),
        (
            "d.csv",
            [],
            {"type": "linear_softmax", "theta": [0.0] * 5, "ladder": _LADDER},
            "theta must be a matrix",
        ),
        ("missing.csv", [], None, "cannot read dataset"),
    ],
    ids=[
        "propensity-not-a-number",
        "propensities-off-simplex",
        "ladder-not-a-number",
        "ladder-decreasing",
        "constant-policy-without-probs",
        "theta-row-count",
        "policy-not-an-object",
        "policy-rungs-differ-from-ladder",
        "theta-column-count",
        "theta-not-a-matrix",
        "dataset-missing",
    ],
)
def test_eval_csv_input_errors_exit_two_and_name_the_value(
    tmp_path, capsys, dataset, extra, policy_doc, named
):
    data = tmp_path / "d.csv"
    assert main(["gen", "--n", "20", "--seed", "1", "--out", str(data)]) == 0
    if policy_doc is None:
        policy = str(_write_policy(tmp_path, "constant"))
    else:
        policy = _policy_file(tmp_path, policy_doc)
    capsys.readouterr()
    assert main(["eval-csv", str(tmp_path / dataset), "--policy", policy] + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


@pytest.mark.parametrize("bad", ["dataset", "policy"])
def test_eval_csv_names_a_file_that_is_not_utf8(tmp_path, capsys, bad):
    data = tmp_path / "d.csv"
    assert main(["gen", "--n", "20", "--seed", "1", "--out", str(data)]) == 0
    policy = _write_policy(tmp_path, "constant")
    path = data if bad == "dataset" else policy
    path.write_bytes(b"\xff\xfe\x00" + path.read_bytes())
    capsys.readouterr()
    assert main(["eval-csv", str(data), "--policy", str(policy)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read ") and str(path) in err


@pytest.mark.parametrize(
    "argv, named", [(["--n", "0"], "got 0"), (["--d", "2"], "got 2")], ids=["n-zero", "d-two"]
)
def test_gen_input_errors_exit_two_and_name_the_value(tmp_path, capsys, argv, named):
    assert main(["gen", "--out", str(tmp_path / "g.csv")] + argv) == 2
    assert named in capsys.readouterr().err
