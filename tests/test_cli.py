import csv
import json

import numpy as np
import pytest
from scipy import stats as sps

from mixreg.cli import _t_interval, main
from mixreg.losses import LossKind

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
    assert "rescale" in model["extra"]
    rows = (out1 / "trace.csv").read_text().splitlines()
    assert rows[0] == "epoch,objective,train_acc,test_acc,test_loss"
    assert len(rows) == 5


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


def test_eval_rescaled_requires_stats(tmp_path):
    cfg = _write_config(tmp_path, train={"method": "erm"})
    out = tmp_path / "erm_model"
    main(["train", "--config", str(cfg), "--out", str(out)])
    with pytest.raises(SystemExit):
        main(["eval", "--config", str(cfg), "--model", str(out / "model.json"),
              "--mode", "rescaled", "--out", str(tmp_path / "bad")])


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


def test_verify_exit_code_and_json(tmp_path):
    code = main(["verify", "--seed", "0", "--out", str(tmp_path / "v")])
    assert code == 0
    payload = json.loads((tmp_path / "v" / "verify.json").read_text())
    assert all(set(r) == {"name", "passed", "discrepancy", "tolerance", "runtime_s", "details"}
               for r in payload)
    assert all(r["passed"] for r in payload)


def test_breakdown_csv(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "train"
    main(["train", "--config", str(cfg), "--out", str(out)])
    bout = tmp_path / "bd"
    assert main(["breakdown", "--config", str(cfg), "--model", str(out / "model.json"),
                 "--out", str(bout)]) == 0
    lines = (bout / "breakdown.csv").read_text().splitlines()
    assert lines[0] == "erm_modified,r1,r2,r3,r4,total"
    vals = [float(v) for v in lines[1].split(",")]
    assert vals[5] == pytest.approx(sum(vals[:5]), abs=1e-9)


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


def test_sweep_single_seed_ci_na(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "sweep1"
    main(["sweep", "--config", str(cfg), "--alphas", "1.0", "--seeds", "5",
          "--out", str(out)])
    with open(out / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert all(r["ci_low"] == "n/a" and r["ci_high"] == "n/a" for r in rows)


def test_train_and_eval_from_csv_dataset(tmp_path):
    from mixreg.data import make_two_moons, save_csv, train_test_split

    full = make_two_moons(40, 0.05, seed=0)
    tr, te = train_test_split(full, 0.5, seed=1)
    save_csv(tr, tmp_path / "tr.csv")
    save_csv(te, tmp_path / "te.csv")
    cfg = _write_config(
        tmp_path,
        dataset={"kind": "csv", "train": str(tmp_path / "tr.csv"),
                 "test": str(tmp_path / "te.csv")},
    )
    out = tmp_path / "csvrun"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    eval_out = tmp_path / "csveval"
    assert main(["eval", "--config", str(cfg), "--model", str(out / "model.json"),
                 "--mode", "rescaled", "--out", str(eval_out)]) == 0
    with open(eval_out / "metrics.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and 0.0 <= float(rows[0]["accuracy"]) <= 1.0


def test_t_interval_against_scipy_oracle():
    values = np.array([0.8, 0.9, 0.85, 0.95, 0.7])
    mean, lo, hi = _t_interval(values)
    ref_lo, ref_hi = sps.t.interval(0.95, len(values) - 1, loc=values.mean(),
                                    scale=sps.sem(values))
    assert mean == pytest.approx(values.mean())
    assert lo == pytest.approx(ref_lo, abs=1e-12)
    assert hi == pytest.approx(ref_hi, abs=1e-12)
    # identical rows collapse to a zero-width interval
    mean, lo, hi = _t_interval(np.full(4, 0.25))
    assert mean == lo == hi == 0.25
