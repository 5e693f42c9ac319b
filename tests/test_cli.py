import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps

import mixreg
from mixreg import mixup
from mixreg.cli import DEFAULT_CONFIG, _t_interval, main
from mixreg.data import load_csv
from mixreg.losses import LossKind
from mixreg.models import LinearModel, init_rff, save_model_json

TINY_CONFIG = {
    "seed": 0,
    "dataset": {"kind": "two_moons", "n": 40, "noise": 0.05,
                "train_fraction": 0.5, "flip_fraction": 0.1},
    "model": {"kind": "rff", "features": 30, "scale": 3.0},
    "train": {"method": "mixup", "alpha": 1.0, "epochs": 4,
              "batch_size": 10, "step_size": 2.0, "loss": "ce"},
    "repetitions": 2,
}


def _write_config(tmp_path, **overrides):
    cfg = json.loads(json.dumps(TINY_CONFIG))
    for key, val in overrides.items():
        if isinstance(val, dict):
            cfg[key].update(val)
        else:
            cfg[key] = val
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_train_outputs_and_determinism(tmp_path):
    cfg = _write_config(tmp_path)
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["train", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["train", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "model.json").exists() and (out1 / "trace.csv").exists()
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
    assert (out1 / "model.json").read_bytes() == (out2 / "model.json").read_bytes()
    echoed = json.loads((out1 / "config.json").read_text())
    assert echoed["train"]["method"] == "mixup"
    model = json.loads((out1 / "model.json").read_text())
    assert model["kind"] == "rff"
    assert model["extra"]["alpha"] == 1.0
    assert set(model["extra"]["rescale"]) == {"xbar", "ybar", "theta_bar"}
    rows = (out1 / "trace.csv").read_text().splitlines()
    assert rows[0] == "epoch,objective,train_acc,test_acc,test_loss"
    assert len(rows) == 5


@pytest.mark.parametrize(
    "section, key",
    [(None, "repetition"), ("dataset", "noize"), ("model", "width"), ("train", "stepsize"),
     ("train", "momentum")],
)
def test_unknown_config_key_exits_2_and_names_it(tmp_path, capsys, section, key):
    cfg = json.loads(json.dumps(TINY_CONFIG))
    (cfg if section is None else cfg[section])[key] = 0.1
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", str(path), "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "section, key, value",
    [("dataset", "kind", "spiral"), ("model", "kind", "mlp"), ("train", "method", "nope"),
     ("train", "loss", "xe")],
)
def test_invalid_config_value_exits_2_and_names_it(tmp_path, capsys, section, key, value):
    cfg = json.loads(json.dumps(TINY_CONFIG))
    cfg[section][key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", str(path), "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"{section}.{key}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_value_train_config_rejects_exits_2_before_any_output(tmp_path, capsys):
    path = _write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", str(path), "--alphas", "1.0,0.0", "--seeds", "0",
              "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "alpha" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _moons_csv(tmp_path):
    """The tiny two-moons split saved as tr.csv and te.csv; its dataset keys."""
    from mixreg.data import make_two_moons, save_csv, train_test_split

    tr, te = train_test_split(make_two_moons(40, 0.05, seed=0), 0.5, seed=1)
    save_csv(tr, tmp_path / "tr.csv")
    save_csv(te, tmp_path / "te.csv")
    return {"kind": "csv", "train": str(tmp_path / "tr.csv"), "test": str(tmp_path / "te.csv")}


# config overrides per bad input; csv paths are relative to the run's directory
_BAD_INPUTS = {
    "csv without test": {"dataset": {"kind": "csv", "train": "tr.csv"}},
    "missing csv file": {"dataset": {"kind": "csv", "train": "tr.csv", "test": "absent.csv"}},
    "bad csv header": {"dataset": {"kind": "csv", "train": "tr.csv", "test": "bad.csv"}},
    "odd two-moons n": {"dataset": {"n": 41}},
    "two-moons n as a string": {"dataset": {"n": "40"}},
    "epochs as a string": {"train": {"epochs": "4"}},
    "epochs not a whole number": {"train": {"epochs": 1.5}},
    "batch_size as a float": {"train": {"batch_size": 50.0}},
    "no features": {"model": {"features": 0}},
    "features not a whole number": {"model": {"features": 2.5}},
    "negative feature scale": {"model": {"scale": -1.0}},
    "negative seed": {"seed": -1},
    "drop_r2 as a string": {"train": {"method": "mixup_approx", "drop_r2": "false"}},
    "non-finite csv cell": {"dataset": {"kind": "csv", "train": "tr.csv", "test": "nan.csv"}},
    "non-number csv cell": {"dataset": {"kind": "csv", "train": "tr.csv", "test": "abc.csv"}},
    "train_fraction above 1": {"dataset": {"train_fraction": 1.5}},
    "batch_size not dividing 20 rows": {"train": {"batch_size": 7}},
    "logistic loss on two columns": {"train": {"loss": "lr"}},
    "no repetitions": {"repetitions": 0},
    # trains, but eval and sweep score classifiers
    "regression csv": {"dataset": {"kind": "csv", "train": "reg.csv", "test": "reg.csv"},
                       "model": {"kind": "linear"}, "train": {"loss": "se"}},
}


def _regression_csv(tmp_path):
    """20 rows of two inputs and one real-valued target, as reg.csv."""
    from mixreg.data import Dataset, save_csv

    X = np.random.default_rng(0).normal(size=(20, 2))
    save_csv(Dataset(X, X @ np.array([[1.0], [-2.0]])), tmp_path / "reg.csv")


@pytest.mark.parametrize(
    "command, case",
    [("train", c) for c in _BAD_INPUTS if c not in ("no repetitions", "regression csv")]
    + [("sweep", "batch_size not dividing 20 rows"), ("sweep", "no repetitions"),
       ("sweep", "regression csv"), ("eval", "regression csv")],
)
def test_bad_input_exits_2_and_creates_no_output(tmp_path, capsys, monkeypatch, command, case):
    from mixreg.models import LinearModel, save_model_json

    monkeypatch.chdir(tmp_path)
    _moons_csv(tmp_path)
    _regression_csv(tmp_path)
    (tmp_path / "bad.csv").write_text("a,b\n1.0,2.0\n")
    (tmp_path / "nan.csv").write_text("x0,x1,y0,y1\n0.5,nan,1.0,0.0\n")
    (tmp_path / "abc.csv").write_text("x0,x1,y0,y1\n0.5,abc,1.0,0.0\n")
    save_model_json(LinearModel(W=np.zeros((1, 2)), b=np.zeros(1)), tmp_path / "model.json")
    path = _write_config(tmp_path, **_BAD_INPUTS[case])
    model = ["--model", "model.json"] if command == "eval" else []
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(path), *model, "--out", "out"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("mixreg: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("d, c", [(3, 2), (2, 3)], ids=["three inputs", "three outputs"])
@pytest.mark.parametrize("command", ["train", "sweep"])
def test_test_set_of_another_width_exits_2_and_names_both(tmp_path, capsys, monkeypatch,
                                                          command, d, c):
    from mixreg.data import Dataset, save_csv

    monkeypatch.chdir(tmp_path)
    dataset = _moons_csv(tmp_path)
    rng = np.random.default_rng(0)
    save_csv(Dataset(rng.normal(size=(20, d)), np.eye(c)[rng.integers(c, size=20)]),
             tmp_path / "te_wide.csv")
    path = _write_config(tmp_path, dataset=dict(dataset, test="te_wide.csv"))
    seeds = ["--seeds", "0"] if command == "sweep" else []
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(path), *seeds, "--out", "out"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "mixreg: invalid dataset: the training set maps 2 inputs to 2 outputs, "
        f"the test set {d} inputs to {c} outputs\n")
    assert not (tmp_path / "out").exists()


def test_train_and_breakdown_accept_regression_data(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _regression_csv(tmp_path)
    path = _write_config(tmp_path, **_BAD_INPUTS["regression csv"])
    assert main(["train", "--config", str(path), "--out", "train"]) == 0
    assert main(["breakdown", "--config", str(path), "--model", "train/model.json",
                 "--out", "breakdown"]) == 0
    assert (tmp_path / "breakdown" / "breakdown.csv").exists()


# --config contents per unreadable config file; None leaves the file absent
_BAD_CONFIGS = {"missing file": None, "not JSON": "{bad", "not an object": "[1, 2]",
                "section a number": '{"train": 5}', "section a list": '{"dataset": []}'}


@pytest.mark.parametrize("case", _BAD_CONFIGS)
def test_unreadable_config_exits_2_and_names_it(tmp_path, capsys, case):
    path = tmp_path / "absent.json"
    if _BAD_CONFIGS[case] is not None:
        path.write_text(_BAD_CONFIGS[case])
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", str(path), "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("mixreg: ") and str(path) in err
    assert not (tmp_path / "out").exists()


# model.json contents per unloadable artifact; None leaves the file absent
_BAD_MODELS = {"missing file": None, "not JSON": "not json\n", "not an object": "[1, 2]",
               "unknown kind": '{"kind": "mlp"}'}


@pytest.mark.parametrize("command", ["eval", "breakdown"])
@pytest.mark.parametrize("case", _BAD_MODELS)
def test_unloadable_model_exits_2_and_names_it(tmp_path, capsys, command, case):
    model = tmp_path / "model.json"
    if _BAD_MODELS[case] is not None:
        model.write_text(_BAD_MODELS[case])
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(_write_config(tmp_path)), "--model", str(model),
              "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(f"mixreg: cannot load model {model}: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, value", [("--seeds", "a"), ("--alphas", "0.2,x")])
def test_unparsable_sweep_list_exits_2_and_names_the_flag(tmp_path, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", str(_write_config(tmp_path)), flag, value,
              "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"mixreg: {flag} ") and repr(value) in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, value, repeated", [("--seeds", "0,1,0", "0"),
                                                    ("--alphas", "1,0.5,1.0", "1.0")])
def test_repeated_sweep_value_exits_2_before_any_work(tmp_path, capsys, monkeypatch, flag, value,
                                                      repeated):
    """A seed or alpha given twice would run and count the same runs twice."""
    import mixreg.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("the command started work")

    monkeypatch.setattr(cli, "run_method", no_work)
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", str(_write_config(tmp_path)), flag, value,
              "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(f"mixreg: {flag} repeats {repeated};")
    assert not (tmp_path / "out").exists()


# the arguments of each command besides --out
_COMMAND_ARGS = {"train": [], "sweep": ["--seeds", "0"], "verify": [],
                 "eval": ["--model", "model.json"], "breakdown": ["--model", "model.json"]}


@pytest.mark.parametrize("under", [False, True], ids=["out a file", "out under a file"])
@pytest.mark.parametrize("command", _COMMAND_ARGS)
def test_out_that_cannot_be_a_directory_exits_2_before_any_work(
    tmp_path, capsys, monkeypatch, command, under
):
    """An --out that is, or lies under, an existing file ends the command with
    exit code 2 naming it, before anything is trained, scored or checked."""
    import mixreg.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("the command started work")

    for name in ("train", "run_method", "run_all", "metrics", "r_terms_general", "load_model_json"):
        monkeypatch.setattr(cli, name, no_work)
    monkeypatch.chdir(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("keep")
    out = taken / "sub" if under else taken
    args = ["--config", str(_write_config(tmp_path))] if command != "verify" else []
    with pytest.raises(SystemExit) as exc:
        main([command, *args, *_COMMAND_ARGS[command], "--out", str(out)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(f"mixreg: --out {out}: {taken} ")
    assert taken.read_text() == "keep"


def test_help_prints_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "95% CIs" in capsys.readouterr().out


def test_default_config_is_the_experiment_spec():
    """With no config file, the command line trains the two-moons protocol
    of ExperimentSpec, and TrainConfig's defaults are the spec's."""
    import argparse
    import dataclasses

    from mixreg.cli import _load_config, _resolve
    from mixreg.experiment import ExperimentSpec, make_instance
    from mixreg.training import TrainConfig

    spec = ExperimentSpec()
    for seed in (None, 3):
        args = argparse.Namespace(config=None, seed=seed, alpha=None, method=None)
        (ds_train, ds_test), tc, record = _resolve(_load_config(args))
        seed = 0 if seed is None else seed
        assert tc == spec.train_config("mixup", seed)
        train_keys = {k: v for k, v in DEFAULT_CONFIG["train"].items() if k != "drop_r2"}
        assert record == {"seed": seed, "dataset": DEFAULT_CONFIG["dataset"],
                          "model": DEFAULT_CONFIG["model"], "train": train_keys}
        want_train, want_test = make_instance(spec, seed)
        assert np.array_equal(ds_train.inputs, want_train.inputs)
        assert np.array_equal(ds_train.outputs, want_train.outputs)
        assert np.array_equal(ds_test.inputs, want_test.inputs)
    moons = DEFAULT_CONFIG["dataset"]
    assert moons["kind"] == "two_moons"
    assert {k: moons[k] for k in ("n", "noise", "train_fraction", "flip_fraction")} == {
        k: getattr(spec, k) for k in ("n", "noise", "train_fraction", "flip_fraction")
    }
    assert DEFAULT_CONFIG["repetitions"] == spec.repetitions
    shared = {f.name for f in dataclasses.fields(ExperimentSpec)} & {
        f.name for f in dataclasses.fields(TrainConfig)
    }
    assert shared and all(getattr(TrainConfig(), k) == getattr(spec, k) for k in shared)


def test_default_config_loads_as_a_config_file(tmp_path):
    import argparse

    from mixreg.cli import _load_config

    path = tmp_path / "default.json"
    path.write_text(json.dumps(DEFAULT_CONFIG))
    assert _load_config(argparse.Namespace(config=str(path))) == DEFAULT_CONFIG


def test_flag_overrides_config(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "erm"
    assert main(["train", "--config", str(cfg), "--out", str(out), "--method", "erm",
                 "--seed", "7"]) == 0
    echoed = json.loads((out / "config.json").read_text())
    assert echoed["train"]["method"] == "erm"
    assert echoed["seed"] == 7
    model = json.loads((out / "model.json").read_text())
    assert "rescale" not in model["extra"]


def test_eval_both_modes(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "train"
    main(["train", "--config", str(cfg), "--out", str(out)])
    for mode in ("raw", "rescaled"):
        eval_out = tmp_path / f"eval_{mode}"
        code = main(["eval", "--config", str(cfg), "--model", str(out / "model.json"),
                     "--mode", mode, "--out", str(eval_out)])
        assert code == 0
        with open(eval_out / "metrics.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["mode"] == mode
        assert 0.0 <= float(rows[0]["accuracy"]) <= 1.0
        with open(eval_out / "confidence_histogram.csv") as fh:
            hist = list(csv.DictReader(fh))
        assert len(hist) == 20
        assert sum(int(r["count"]) for r in hist) == 20  # test half of n=40


def test_eval_rescaled_requires_stats(tmp_path, capsys):
    cfg = _write_config(tmp_path, train={"method": "erm"})
    out = tmp_path / "erm_model"
    main(["train", "--config", str(cfg), "--out", str(out)])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--config", str(cfg), "--model", str(out / "model.json"),
              "--mode", "rescaled", "--out", str(tmp_path / "bad")])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("mixreg: model artifact carries no rescaling")
    assert not (tmp_path / "bad").exists()


def test_eval_and_breakdown_default_to_the_model_seed(tmp_path):
    from mixreg.experiment import ExperimentSpec, make_instance
    from mixreg.metrics import metrics
    from mixreg.models import load_model_json
    from mixreg.regularizers import r_terms_general
    from mixreg.truncbeta import mix_coefficients

    cfg = _write_config(tmp_path)
    out = tmp_path / "train"
    main(["train", "--config", str(cfg), "--out", str(out), "--seed", "3"])
    model_path = str(out / "model.json")
    ds = TINY_CONFIG["dataset"]
    spec = ExperimentSpec(n=ds["n"], noise=ds["noise"], train_fraction=ds["train_fraction"],
                          flip_fraction=ds["flip_fraction"])
    ds_train, ds_test = make_instance(spec, 3)
    model, _ = load_model_json(model_path)

    main(["eval", "--config", str(cfg), "--model", model_path, "--out", str(tmp_path / "ev")])
    with open(tmp_path / "ev" / "metrics.csv") as fh:
        (row,) = csv.DictReader(fh)
    assert row["seed"] == "3"
    assert float(row["accuracy"]) == metrics(model, ds_test).accuracy

    main(["breakdown", "--config", str(cfg), "--model", model_path, "--out", str(tmp_path / "bd")])
    total = float((tmp_path / "bd" / "breakdown.csv").read_text().splitlines()[1].split(",")[5])
    br = r_terms_general(ds_train, model, LossKind.CROSS_ENTROPY, mix_coefficients(1.0))
    assert total == br.total

    main(["eval", "--config", str(cfg), "--model", model_path, "--seed", "0",
          "--out", str(tmp_path / "ev0")])
    with open(tmp_path / "ev0" / "metrics.csv") as fh:
        (row,) = csv.DictReader(fh)
    assert row["seed"] == "0"


def test_verify_exit_code_and_json(tmp_path, monkeypatch, run_all_reports):
    import mixreg.cli as cli

    seeds = []
    monkeypatch.setattr(cli, "run_all", lambda seed: seeds.append(seed) or run_all_reports)
    code = main(["verify", "--seed", "0", "--out", str(tmp_path / "v")])
    assert code == 0 and seeds == [0]
    payload = json.loads((tmp_path / "v" / "verify.json").read_text())
    assert all(set(r) == {"name", "passed", "discrepancy", "tolerance", "runtime_s", "cpu_s", "details", "alpha"}
               for r in payload)
    assert all(r["passed"] for r in payload)
    summary = json.loads((tmp_path / "v" / "verify_summary.json").read_text())
    assert [r["alpha"] for r in payload] == [r.alpha for r in run_all_reports]
    assert summary["mc_workers"] == mixup._WORKERS >= 1
    assert 0.0 <= summary["cpu_s"] and summary["total_s"] >= 0.0


def test_verify_writes_a_run_summary(tmp_path, monkeypatch):
    import mixreg.cli as cli
    from mixreg.verification import CheckReport

    reports = [CheckReport("a", True, 0.0, 1.0, 0.25, cpu_s=0.5), CheckReport("a", True, 0.0, 1.0, 0.5, cpu_s=0.75),
               CheckReport("b", False, 2.0, 1.0, 0.125, "", 0.0625, 0.7)]
    monkeypatch.setattr(cli, "run_all", lambda seed: reports)
    assert main(["verify", "--out", str(tmp_path)]) == 1
    summary = json.loads((tmp_path / "verify_summary.json").read_text())
    assert set(summary) == {"total_s", "cpu_s", "mc_workers", "numpy", "peak_rss_mb"}
    assert summary["numpy"] == np.__version__
    assert summary["total_s"] >= 0.0 and summary["peak_rss_mb"] > 0.0
    payload = json.loads((tmp_path / "verify.json").read_text())
    assert [{k: r[k] for k in ("name", "alpha", "runtime_s", "cpu_s")} for r in payload] == [
        {"name": r.name, "alpha": r.alpha, "runtime_s": r.runtime_s, "cpu_s": r.cpu_s} for r in reports
    ]
    assert [r["alpha"] for r in payload] == [None, None, 0.7]


def test_verify_summary_times_come_from_the_check_clocks(tmp_path, monkeypatch, run_all_reports):
    """verify_summary.json's total_s and cpu_s are differences of the clock
    pair every check's runtime_s and cpu_s come from."""
    import mixreg.cli as cli

    ticks = iter([(1.0, 10.0), (3.5, 14.25)])
    monkeypatch.setattr(cli, "_clocks", lambda: next(ticks))
    monkeypatch.setattr(cli, "run_all", lambda seed: run_all_reports)
    assert main(["verify", "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "verify_summary.json").read_text())
    assert (summary["total_s"], summary["cpu_s"]) == (2.5, 4.25)


def test_verify_negative_seed_exits_2_before_any_output(tmp_path, capsys, monkeypatch):
    import mixreg.cli as cli

    def no_work(seed):
        raise AssertionError("the suite started")

    monkeypatch.setattr(cli, "run_all", no_work)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--seed", "-1", "--out", str(tmp_path / "v")])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("mixreg: --seed ")
    assert not (tmp_path / "v").exists()


@pytest.mark.parametrize("platform, maxrss", [("linux", 3 * 2**10), ("darwin", 3 * 2**20)])
def test_peak_rss_reads_ru_maxrss_in_the_platform_unit(platform, maxrss, monkeypatch):
    import resource
    import types

    import mixreg.cli as cli

    monkeypatch.setattr(cli.sys, "platform", platform)
    monkeypatch.setattr(resource, "getrusage", lambda who: types.SimpleNamespace(ru_maxrss=maxrss))
    assert cli._peak_rss_mb() == 3.0


def test_breakdown_csv(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "train"
    main(["train", "--config", str(cfg), "--out", str(out)])
    bout = tmp_path / "bd"
    assert main(["breakdown", "--config", str(cfg), "--model", str(out / "model.json"),
                 "--out", str(bout)]) == 0
    lines = (bout / "breakdown.csv").read_text().splitlines()
    assert lines[0] == "erm_modified,r1,r2,r3,r4,total,clipped_inverses"
    vals = [float(v) for v in lines[1].split(",")]
    assert vals[5] == pytest.approx(sum(vals[:5]), abs=1e-9)


def test_breakdown_reports_clipped_inverses(tmp_path):
    from mixreg.experiment import ExperimentSpec, make_instance
    from mixreg.models import load_model_json
    from mixreg.regularizers import r_terms_general
    from mixreg.truncbeta import mix_coefficients

    cfg = _write_config(tmp_path)
    out = tmp_path / "train"
    main(["train", "--config", str(cfg), "--out", str(out)])
    main(["breakdown", "--config", str(cfg), "--model", str(out / "model.json"),
          "--out", str(tmp_path / "bd")])
    with open(tmp_path / "bd" / "breakdown.csv") as fh:
        (row,) = csv.DictReader(fh)
    model, _ = load_model_json(out / "model.json")
    ds = TINY_CONFIG["dataset"]
    spec = ExperimentSpec(n=ds["n"], noise=ds["noise"], train_fraction=ds["train_fraction"],
                          flip_fraction=ds["flip_fraction"])
    ds_train, _ = make_instance(spec, 0)
    br = r_terms_general(ds_train, model, LossKind.CROSS_ENTROPY, mix_coefficients(1.0))
    # the softmax Hessian has a null vector on every row
    assert int(row["clipped_inverses"]) == br.clipped_inverses >= ds_train.n


def test_eval_refuses_flags_the_artifact_fixes(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "train"
    main(["train", "--config", str(cfg), "--out", str(out)])
    for flag, value in (("--alpha", "8"), ("--method", "erm")):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--config", str(cfg), "--model", str(out / "model.json"),
                  "--mode", "rescaled", flag, value, "--out", str(tmp_path / "ev_bad")])
        assert exc.value.code != 0
        assert flag in capsys.readouterr().err
    assert not (tmp_path / "ev_bad").exists()
    main(["eval", "--config", str(cfg), "--model", str(out / "model.json"),
          "--mode", "rescaled", "--out", str(tmp_path / "ev")])
    echoed = json.loads((tmp_path / "ev" / "config.json").read_text())
    assert "train" not in echoed and "alpha" not in json.dumps(echoed)
    assert echoed["seed"] == 0 and echoed["mode"] == "rescaled"


# per artifact whose stored metadata the command cannot use: the command,
# its arguments besides the config, model and --out, a change to the parsed
# model.json, and the start of the message after "mixreg: "
_BAD_METADATA = {
    "extra not an object": ("eval", [], lambda p: p.update(extra=[1]),
                            "cannot load model {model}: extra and extra.rescale must be"),
    "rescale not an object": ("breakdown", [], lambda p: p["extra"].update(rescale=[1]),
                              "cannot load model {model}: extra and extra.rescale must be"),
    "rescale without xbar": ("eval", ["--mode", "rescaled"], lambda p: p["extra"]["rescale"].pop("xbar"),
                             "model {model}: unreadable rescaling statistics (KeyError: 'xbar')"),
    "xbar of the wrong length": ("eval", ["--mode", "rescaled"],
                                 lambda p: p["extra"]["rescale"].update(xbar=[0.0] * 3),
                                 "model {model}: the rescaling statistics must be"),
    "ybar not finite": ("eval", ["--mode", "rescaled"],
                        lambda p: p["extra"]["rescale"].update(ybar=[float("nan"), 0.5]),
                        "model {model}: the rescaling statistics must be"),
    "theta_bar below 1/2": ("eval", ["--mode", "rescaled"],
                            lambda p: p["extra"]["rescale"].update(theta_bar=0.3),
                            "model {model}: the rescaling statistics must be"),
    "alpha not positive": ("breakdown", [], lambda p: p["extra"].update(alpha=-1.0),
                           "model {model}: alpha must be a finite positive number"),
    "alpha not a number": ("breakdown", [], lambda p: p["extra"].update(alpha="1.0"),
                           "model {model}: alpha must be a finite positive number"),
    "loss not a loss kind": ("breakdown", [], lambda p: p["extra"].update(loss="hinge"),
                             "model {model}: 'hinge' is not a valid LossKind"),
    "--alpha not positive": ("breakdown", ["--alpha", "-1"], lambda p: None,
                             "invalid config: alpha must be a finite positive number"),
    # mixing artifacts once stored alpha twice; the copy under rescale is not read
    "alpha only under rescale": ("breakdown", [],
                                 lambda p: p["extra"]["rescale"].update(alpha=p["extra"].pop("alpha")),
                                 "model artifact stores no alpha; pass --alpha"),
}


@pytest.mark.parametrize("case", _BAD_METADATA)
def test_unusable_artifact_metadata_exits_2_and_names_it(tmp_path, capsys, case):
    command, flags, change, message = _BAD_METADATA[case]
    cfg = _write_config(tmp_path)
    main(["train", "--config", str(cfg), "--out", str(tmp_path / "train")])
    payload = json.loads((tmp_path / "train" / "model.json").read_text())
    change(payload)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(payload))
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg), "--model", str(model), *flags,
              "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("mixreg: " + message.format(model=model))
    assert not (tmp_path / "out").exists()


def test_breakdown_of_erm_uses_the_trained_alpha(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "erm"
    main(["train", "--config", str(cfg), "--out", str(out), "--method", "erm",
          "--alpha", "0.3"])
    model_path = out / "model.json"
    assert json.loads(model_path.read_text())["extra"]["alpha"] == 0.3
    main(["breakdown", "--config", str(cfg), "--model", str(model_path),
          "--out", str(tmp_path / "stored")])
    main(["breakdown", "--config", str(cfg), "--model", str(model_path), "--alpha", "0.3",
          "--out", str(tmp_path / "flag")])
    main(["breakdown", "--config", str(cfg), "--model", str(model_path), "--alpha", "1.0",
          "--out", str(tmp_path / "one")])
    stored, flag, one = ((tmp_path / d / "breakdown.csv").read_text() for d in ("stored", "flag", "one"))
    assert stored == flag
    assert stored != one

    # an erm artifact written before alpha was stored for every method
    payload = json.loads(model_path.read_text())
    del payload["extra"]["alpha"]
    old_path = tmp_path / "old_model.json"
    old_path.write_text(json.dumps(payload))
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["breakdown", "--config", str(cfg), "--model", str(old_path),
              "--out", str(tmp_path / "old")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("mixreg: ") and "--alpha" in err
    assert not (tmp_path / "old").exists()
    main(["breakdown", "--config", str(cfg), "--model", str(old_path), "--alpha", "0.3",
          "--out", str(tmp_path / "old")])
    assert (tmp_path / "old" / "breakdown.csv").read_text() == flag


# the csv columns that hold names; every other cell is a number
_TEXT_COLUMNS = {"method", "mode", "metric"}
_INT_COLUMNS = {"epoch", "seed", "count", "repetitions", "clipped_inverses"}


def test_every_csv_cell_reads_back_as_a_number(tmp_path):
    """Each csv that train, eval (raw and rescaled), sweep and breakdown
    write parses with csv.DictReader into names and plain numbers, and the
    histogram edges are the 21 equal-width edges on [0, 1]."""
    cfg = str(_write_config(tmp_path))
    model = str(tmp_path / "train" / "model.json")
    runs = {
        "train": (["train"], ["trace.csv"]),
        "raw": (["eval", "--model", model], ["metrics.csv", "confidence_histogram.csv"]),
        "rescaled": (["eval", "--model", model, "--mode", "rescaled"],
                     ["metrics.csv", "confidence_histogram.csv"]),
        "sweep": (["sweep", "--seeds", "0,1", "--alphas", "0.5,1"], ["sweep.csv"]),
        "breakdown": (["breakdown", "--model", model], ["breakdown.csv"]),
    }
    for out, (args, files) in runs.items():
        assert main([*args, "--config", cfg, "--out", str(tmp_path / out)]) == 0
        for name in files:
            with open(tmp_path / out / name, newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert rows
            for row in rows:
                for column, cell in row.items():
                    if column not in _TEXT_COLUMNS:
                        (int if column in _INT_COLUMNS else float)(cell)
            if name == "confidence_histogram.csv":
                edges = [float(r["bin_left"]) for r in rows] + [float(rows[-1]["bin_right"])]
                assert edges == np.linspace(0.0, 1.0, 21).tolist()
                assert [float(r["bin_right"]) for r in rows] == edges[1:]


def _cosine_head(c):
    model = init_rff(2, 30, 3.0, c, seed=0)
    model.w = np.random.default_rng(0).normal(size=model.w.shape)
    return model


# models whose input or output width does not fit two-moons (2 inputs, 2 classes)
_MISFIT_MODELS = {
    "3-input linear": lambda: LinearModel(W=np.zeros((2, 3)), b=np.zeros(2)),
    "1-output cosine head": lambda: _cosine_head(1),
    "3-output cosine head": lambda: _cosine_head(3),
}


@pytest.mark.parametrize("command", ["eval", "breakdown"])
@pytest.mark.parametrize("case", _MISFIT_MODELS)
def test_a_model_that_does_not_fit_the_data_exits_2_before_any_output(tmp_path, capsys, command, case):
    model = tmp_path / "model.json"
    save_model_json(_MISFIT_MODELS[case](), model,
                    extra={"method": "erm", "loss": "ce", "seed": 0, "alpha": 1.0})
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(_write_config(tmp_path)), "--model", str(model),
              "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(f"mixreg: model {model} maps ")
    assert not (tmp_path / "out").exists()


# (model kind, weight array, value put in its first entry)
_NONFINITE_WEIGHTS = [("linear", "W", np.nan), ("linear", "b", np.inf), ("rff", "S", np.inf),
                      ("rff", "B", np.nan), ("rff", "w", np.nan), ("rff", "w", -np.inf)]


@pytest.mark.parametrize("command", ["eval", "breakdown"])
@pytest.mark.parametrize("kind, name, value", _NONFINITE_WEIGHTS)
def test_a_model_with_non_finite_weights_exits_2_and_names_the_array(tmp_path, capsys, command,
                                                                     kind, name, value):
    model = tmp_path / "model.json"
    fitted = LinearModel(W=np.ones((2, 2)), b=np.zeros(2)) if kind == "linear" else _cosine_head(2)
    save_model_json(fitted, model, extra={"method": "erm", "loss": "ce", "seed": 0, "alpha": 1.0})
    payload = json.loads(model.read_text())
    array = np.array(payload[name], dtype=float)
    array.flat[0] = value
    payload[name] = array.tolist()
    model.write_text(json.dumps(payload))
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(_write_config(tmp_path)), "--model", str(model),
              "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(f"mixreg: cannot load model {model}: {name} has a non-finite")
    assert not (tmp_path / "out").exists()


def test_eval_and_breakdown_ignore_the_training_batch_size(tmp_path):
    """A 40-row csv pair and a config that names only the dataset: the
    default training batch of 50 does not divide 40 rows, and neither
    command trains, so both succeed."""
    from mixreg.data import make_two_moons, save_csv, train_test_split

    tr, te = train_test_split(make_two_moons(80, 0.05, seed=0), 0.5, seed=1)
    save_csv(tr, tmp_path / "tr.csv")
    save_csv(te, tmp_path / "te.csv")
    dataset = {"kind": "csv", "train": str(tmp_path / "tr.csv"), "test": str(tmp_path / "te.csv")}
    assert tr.n == 40 and DEFAULT_CONFIG["train"]["batch_size"] == 50
    assert main(["train", "--config", str(_write_config(tmp_path, dataset=dataset)),
                 "--out", str(tmp_path / "train")]) == 0
    only_data = tmp_path / "data.json"
    only_data.write_text(json.dumps({"dataset": dataset}))
    model = str(tmp_path / "train" / "model.json")
    for args in (["eval", "--mode", "rescaled"], ["breakdown"]):
        assert main([*args, "--config", str(only_data), "--model", model,
                     "--out", str(tmp_path / args[0])]) == 0


def test_sweep_aggregation(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--alphas", "0.5,1.0",
                 "--seeds", "0,1,2", "--out", str(out)]) == 0
    with open(out / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    # 2 alphas x 2 modes x 5 metrics
    assert len(rows) == 20
    assert all(int(r["repetitions"]) == 3 for r in rows)
    accs = [r for r in rows if r["metric"] == "accuracy" and r["mode"] == "raw"]
    for r in accs:
        assert float(r["ci_low"]) <= float(r["mean"]) <= float(r["ci_high"])


def test_sweep_means_are_run_method_means(tmp_path):
    """Each sweep.csv mean is the mean over seeds of the matching
    ``run_method`` metric: raw rows from the raw metrics, rescaled rows from
    the natural ones, and none for a method that predicts raw."""
    from mixreg.experiment import ExperimentSpec, make_instance, run_method
    from mixreg.training import TrainConfig

    cfg = _write_config(tmp_path)
    ds, m, t = TINY_CONFIG["dataset"], TINY_CONFIG["model"], TINY_CONFIG["train"]
    spec = ExperimentSpec(n=ds["n"], noise=ds["noise"], train_fraction=ds["train_fraction"],
                          flip_fraction=ds["flip_fraction"])
    seeds = (0, 1, 2)
    for method, alphas in (("mixup", (0.5, 1.0)), ("erm", (0.5,))):
        out = tmp_path / method
        assert main(["sweep", "--config", str(cfg), "--method", method,
                     "--alphas", ",".join(map(str, alphas)), "--seeds", "0,1,2",
                     "--out", str(out)]) == 0
        with open(out / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["mode"] for r in rows} == ({"raw"} if method == "erm" else {"raw", "rescaled"})
        for alpha in alphas:
            results = [
                run_method(*make_instance(spec, s), TrainConfig(
                    method=method, alpha=alpha, epochs=t["epochs"], batch_size=t["batch_size"],
                    step_size=t["step_size"], seed=s, loss=LossKind(t["loss"]),
                    model=m["kind"], rff_features=m["features"], rff_scale=m["scale"]))
                for s in seeds
            ]
            for r in (r for r in rows if float(r["alpha"]) == alpha):
                scored = [res.raw if r["mode"] == "raw" else res.natural for res in results]
                assert r["method"] == method and int(r["repetitions"]) == len(seeds)
                assert float(r["mean"]) == float(np.mean([getattr(row, r["metric"]) for row in scored]))


def test_csv_sweep_reads_its_datasets_once(tmp_path, monkeypatch):
    """Every (alpha, seed) run of a csv sweep shares one read of the pair."""
    import mixreg.cli as cli

    reads = []
    monkeypatch.setattr(cli, "load_csv", lambda path: reads.append(path) or load_csv(path))
    cfg = _write_config(tmp_path, dataset=_moons_csv(tmp_path))
    assert main(["sweep", "--config", str(cfg), "--alphas", "0.5,1.0", "--seeds", "0,1,2",
                 "--out", str(tmp_path / "sweep")]) == 0
    assert reads == [str(tmp_path / "tr.csv"), str(tmp_path / "te.csv")]
    with open(tmp_path / "sweep" / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 20 and all(int(r["repetitions"]) == 3 for r in rows)


def test_sweep_single_seed_ci_na(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "sweep1"
    main(["sweep", "--config", str(cfg), "--alphas", "1.0", "--seeds", "5",
          "--out", str(out)])
    with open(out / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert all(r["ci_low"] == "n/a" and r["ci_high"] == "n/a" for r in rows)


def test_train_and_eval_from_csv_dataset(tmp_path):
    cfg = _write_config(tmp_path, dataset=_moons_csv(tmp_path))
    out = tmp_path / "csvrun"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    eval_out = tmp_path / "csveval"
    assert main(["eval", "--config", str(cfg), "--model", str(out / "model.json"),
                 "--mode", "rescaled", "--out", str(eval_out)]) == 0
    with open(eval_out / "metrics.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and 0.0 <= float(rows[0]["accuracy"]) <= 1.0


def test_echoed_config_holds_only_the_keys_the_run_read(tmp_path):
    """A csv dataset and a linear model: the echo drops the two-moons and
    cosine-feature keys the file carries, the sweep-only repetitions, and
    drop_r2, which only mixup_approx reads."""
    csv_keys = _moons_csv(tmp_path)
    cfg = _write_config(tmp_path, dataset=csv_keys, model={"kind": "linear"})
    assert json.loads(cfg.read_text())["dataset"]["n"] == 40
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    echoed = json.loads((out / "config.json").read_text())
    assert echoed == {
        "seed": 0,
        "dataset": csv_keys,
        "model": {"kind": "linear"},
        "train": TINY_CONFIG["train"],
    }
    main(["train", "--config", str(cfg), "--method", "mixup_approx", "--out", str(out)])
    assert json.loads((out / "config.json").read_text())["train"]["drop_r2"] is True
    main(["eval", "--config", str(cfg), "--model", str(out / "model.json"),
          "--out", str(tmp_path / "ev")])
    assert json.loads((tmp_path / "ev" / "config.json").read_text())["dataset"] == csv_keys


@pytest.mark.parametrize("case", ["rff mixup on two-moons", "linear on csv",
                                  "mixup_approx with the Hessian term"])
def test_train_reruns_from_its_echoed_config(tmp_path, case):
    """The echoed config.json, passed back as the only config, trains the
    same model and trace byte for byte and echoes itself."""
    overrides, flags = {
        "rff mixup on two-moons": ({}, []),
        "linear on csv": ({"model": {"kind": "linear"}, "dataset": _moons_csv(tmp_path)}, []),
        "mixup_approx with the Hessian term": ({"train": {"drop_r2": False}},
                                               ["--method", "mixup_approx"]),
    }[case]
    first, again = tmp_path / "first", tmp_path / "again"
    cfg = _write_config(tmp_path, **overrides)
    assert main(["train", "--config", str(cfg), *flags, "--out", str(first)]) == 0
    assert main(["train", "--config", str(first / "config.json"), "--out", str(again)]) == 0
    for name in ("model.json", "trace.csv", "config.json"):
        assert (again / name).read_bytes() == (first / name).read_bytes()
    if flags:
        assert json.loads((first / "config.json").read_text())["train"]["drop_r2"] is False


def test_breakdown_echoes_what_it_read(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "train"
    main(["train", "--config", str(cfg), "--out", str(out), "--seed", "3"])
    model_path = str(out / "model.json")
    for flags, alpha in (([], 1.0), (["--alpha", "0.3"], 0.3)):
        bd = tmp_path / f"bd{alpha}"
        main(["breakdown", "--config", str(cfg), "--model", model_path, *flags, "--out", str(bd)])
        assert json.loads((bd / "config.json").read_text()) == {
            "seed": 3, "dataset": TINY_CONFIG["dataset"], "model_path": model_path, "alpha": alpha}


def test_sweep_records_its_seeds_and_alphas(tmp_path):
    """The sweep's config.json is the train record with the swept seeds and
    alphas in place of seed, repetitions and train.alpha."""
    cfg = _write_config(tmp_path)
    main(["train", "--config", str(cfg), "--out", str(tmp_path / "train")])
    trained = json.loads((tmp_path / "train" / "config.json").read_text())
    del trained["seed"], trained["train"]["alpha"]
    for flags, seeds, alphas in ((["--seeds", "5", "--alphas", "1.0"], [5], [1.0]),
                                 (["--seed", "3"], [3, 4], [1.0])):
        out = tmp_path / f"sweep{seeds[0]}"
        assert main(["sweep", "--config", str(cfg), *flags, "--out", str(out)]) == 0
        echoed = json.loads((out / "config.json").read_text())
        assert echoed == dict(trained, seeds=seeds, alphas=alphas)


def test_t_interval_against_scipy_oracle():
    # two seeds (df = 1, the heaviest tail) and five seeds (df = 4)
    for values in (np.array([0.8, 0.9]), np.array([0.8, 0.9, 0.85, 0.95, 0.7])):
        mean, lo, hi = _t_interval(values)
        ref_lo, ref_hi = sps.t.interval(0.95, len(values) - 1, loc=values.mean(),
                                        scale=sps.sem(values))
        assert mean == pytest.approx(values.mean())
        assert lo == pytest.approx(ref_lo, abs=1e-12)
        assert hi == pytest.approx(ref_hi, abs=1e-12)
    # identical rows collapse to a zero-width interval
    mean, lo, hi = _t_interval(np.full(4, 0.25))
    assert mean == lo == hi == 0.25


def test_command_line_import_loads_no_scipy_stats():
    """Importing the package and its command line, as every command does,
    loads no scipy module, and neither do training, a logistic objective
    gradient or the mixing coefficients: only ``sweep``'s t interval imports
    ``scipy.special``, and only when it runs."""
    src = str(Path(mixreg.__file__).resolve().parent.parent)
    code = (
        "import sys, mixreg, mixreg.cli\n"
        "import numpy as np\n"
        "from mixreg.data import Dataset\n"
        "from mixreg.experiment import ExperimentSpec, make_instance, run_seed\n"
        "from mixreg.losses import LossKind\n"
        "from mixreg.models import init_rff\n"
        "from mixreg.training import approx_gradient\n"
        "from mixreg.truncbeta import mix_coefficients\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "print(loaded())\n"
        "spec = ExperimentSpec(n=40, rff_features=30, epochs=3, batch_size=10)\n"
        "run_seed(spec, 0)\n"
        "print(loaded())\n"
        "tr, _ = make_instance(spec, 0)\n"
        "tr = Dataset(tr.inputs, tr.outputs[:, 1:])\n"
        "model = init_rff(2, 20, 2.0, 1, seed=0)\n"
        "approx_gradient(tr, model, LossKind.LOGISTIC, mix_coefficients(0.8), drop_r2=False)\n"
        "print(loaded())\n"
        "mix_coefficients(0.3)\n"
        "print(loaded())\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split("\n")[:4] == ["[]"] * 4


def test_command_line_import_and_training_start_no_thread():
    """Importing the package and its command line, and training, start no
    thread: the Monte Carlo task pool is made on first use."""
    src = str(Path(mixreg.__file__).resolve().parent.parent)
    code = (
        "import threading, mixreg, mixreg.cli\n"
        "from mixreg.experiment import ExperimentSpec, run_seed\n"
        "print(threading.active_count())\n"
        "run_seed(ExperimentSpec(n=40, rff_features=30, epochs=3, batch_size=10), 0)\n"
        "print(threading.active_count(), mixreg.mixup._pool.cache_info().currsize)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["1", "1", "0"]
