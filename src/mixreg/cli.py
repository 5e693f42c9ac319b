"""Experiment runner. Outputs are CSV/JSON tables meant for plotting.

Subcommands:
  train       fit one model per the config, save model JSON + trace CSV
  eval        score a saved model on a dataset, raw or rescaled
  sweep       repeat train+eval over alphas and seeds, aggregate mean / 95% CI
  verify      run the numerical certification suite (exit 0 iff all pass)
  breakdown   the regularizer decomposition of a saved model on a dataset

eval and breakdown rebuild the dataset at the seed stored in model.json
unless --seed is given; eval --mode rescaled uses the rescaling statistics
stored there.

Config file (JSON; flags override file values):

    {
      "seed": 0,
      "dataset": {"kind": "two_moons", "n": 300, "noise": 0.01,
                  "train_fraction": 0.5, "flip_fraction": 0.2}
                 or {"kind": "csv", "train": "tr.csv", "test": "te.csv"},
      "model":   {"kind": "rff", "features": 1000, "scale": 10.0}
                 or {"kind": "linear"},
      "train":   {"method": "mixup", "alpha": 1.0, "epochs": 500,
                  "batch_size": 50, "step_size": 5.0, "loss": "ce",
                  "drop_r2": true, "momentum": 0.0, "weight_decay": 0.0},
      "repetitions": 10
    }
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np
from scipy import stats as sps

from .data import load_csv
from .experiment import ExperimentSpec, make_instance
from .losses import LossKind
from .metrics import Rescale, metrics, write_histogram_csv
from .models import load_model_json, save_model_json
from .regularizers import r_terms_general
from .training import TrainConfig, train
from .truncbeta import mix_coefficients
from .verification import format_report_table, reports_to_json, run_all

_LOSS_BY_NAME = {"se": LossKind.SQUARED_ERROR, "ce": LossKind.CROSS_ENTROPY, "lr": LossKind.LOGISTIC}

DEFAULT_CONFIG = {
    "seed": 0,
    "dataset": {
        "kind": "two_moons",
        "n": 300,
        "noise": 0.01,
        "train_fraction": 0.5,
        "flip_fraction": 0.2,
    },
    "model": {"kind": "rff", "features": 1000, "scale": 10.0},
    "train": {
        "method": "mixup",
        "alpha": 1.0,
        "epochs": 500,
        "batch_size": 50,
        "step_size": 5.0,
        "loss": "ce",
        "drop_r2": True,
        "momentum": 0.0,
        "weight_decay": 0.0,
    },
    "repetitions": 10,
}


def _deep_update(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_update(out[key], value)
        else:
            out[key] = value
    return out


def _load_config(args) -> dict:
    cfg = DEFAULT_CONFIG
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = _deep_update(cfg, json.load(fh))
    override: dict = {}
    if getattr(args, "seed", None) is not None:
        override["seed"] = args.seed
    train_over = {}
    if getattr(args, "alpha", None) is not None:
        train_over["alpha"] = args.alpha
    if getattr(args, "method", None) is not None:
        train_over["method"] = args.method
    if train_over:
        override["train"] = train_over
    return _deep_update(cfg, override)


def _datasets_from_config(cfg: dict, seed: int):
    ds_cfg = cfg["dataset"]
    if ds_cfg["kind"] == "two_moons":
        spec = ExperimentSpec(
            n=ds_cfg["n"],
            noise=ds_cfg["noise"],
            train_fraction=ds_cfg["train_fraction"],
            flip_fraction=ds_cfg.get("flip_fraction", 0.0),
        )
        return make_instance(spec, seed)
    if ds_cfg["kind"] == "csv":
        return load_csv(ds_cfg["train"]), load_csv(ds_cfg["test"])
    raise ValueError(f"unknown dataset kind {ds_cfg['kind']!r}")


def _train_config(cfg: dict, seed: int) -> TrainConfig:
    t = cfg["train"]
    m = cfg["model"]
    return TrainConfig(
        method=t["method"],
        alpha=t["alpha"],
        epochs=t["epochs"],
        batch_size=t["batch_size"],
        step_size=t["step_size"],
        seed=seed,
        drop_r2=t.get("drop_r2", True),
        loss=_LOSS_BY_NAME[t.get("loss", "ce")],
        model=m["kind"],
        rff_features=m.get("features", 1000),
        rff_scale=m.get("scale", 10.0),
        momentum=t.get("momentum", 0.0),
        weight_decay=t.get("weight_decay", 0.0),
    )


def _echo_config(cfg: dict, out: Path) -> None:
    with open(out / "config.json", "w") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)


def cmd_train(args) -> int:
    cfg = _load_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _echo_config(cfg, out)
    seed = cfg["seed"]
    ds_train, ds_test = _datasets_from_config(cfg, seed)
    tc = _train_config(cfg, seed)
    model, trace = train(ds_train, ds_test, tc)
    extra = {"method": tc.method, "loss": tc.loss.value, "seed": seed}
    if trace.rescale is not None:
        extra["rescale"] = {
            "xbar": trace.rescale.xbar.tolist(),
            "ybar": trace.rescale.ybar.tolist(),
            "theta_bar": trace.rescale.theta_bar,
            "alpha": tc.alpha,
        }
    save_model_json(model, out / "model.json", extra=extra)
    trace.write_csv(out / "trace.csv")
    print(f"wrote {out / 'model.json'} and {out / 'trace.csv'}")
    return 0


def _load_model(args):
    """The saved model, its metadata, and the config at the seed it was trained
    on unless ``--seed`` is given."""
    model, extra = load_model_json(args.model)
    cfg = _load_config(args)
    if args.seed is None and "seed" in extra:
        cfg = dict(cfg, seed=extra["seed"])
    return model, extra, cfg


def cmd_eval(args) -> int:
    model, extra, cfg = _load_model(args)
    _, ds_test = _datasets_from_config(cfg, cfg["seed"])
    rescale = None
    if args.mode == "rescaled":
        resc = extra.get("rescale")
        if resc is None:
            raise SystemExit("model artifact carries no rescaling statistics; cannot eval rescaled")
        rescale = Rescale(np.asarray(resc["xbar"]), np.asarray(resc["ybar"]), resc["theta_bar"])
    row = metrics(model, ds_test, rescale)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _echo_config(cfg, out)
    with open(out / "metrics.csv", "w") as fh:
        fh.write("method,mode,seed," + row.csv_header() + "\n")
        fh.write(
            f"{extra.get('method', 'unknown')},{args.mode},{cfg['seed']}," + row.csv_row() + "\n"
        )
    write_histogram_csv(row.confidence_histogram, out / "confidence_histogram.csv")
    print(f"wrote {out / 'metrics.csv'} and {out / 'confidence_histogram.csv'}")
    return 0


def _t_interval(values: np.ndarray):
    n = len(values)
    mean = float(np.mean(values))
    if n < 2:
        return mean, None, None
    half = float(sps.t.ppf(0.975, n - 1) * np.std(values, ddof=1) / np.sqrt(n))
    return mean, mean - half, mean + half


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    alphas = [float(a) for a in args.alphas.split(",")] if args.alphas else [cfg["train"]["alpha"]]
    if args.seeds:
        seeds = [int(s) for s in args.seeds.split(",")]
    else:
        seeds = list(range(cfg["seed"], cfg["seed"] + cfg["repetitions"]))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _echo_config(cfg, out)

    metric_names = ("accuracy", "ce_loss", "ece", "mean_entropy", "mean_confidence")
    rows = []
    for alpha in alphas:
        per_mode: dict = {"raw": {m: [] for m in metric_names}, "rescaled": {m: [] for m in metric_names}}
        for seed in seeds:
            run_cfg = _deep_update(cfg, {"seed": seed, "train": {"alpha": alpha}})
            ds_train, ds_test = _datasets_from_config(run_cfg, seed)
            tc = _train_config(run_cfg, seed)
            model, trace = train(ds_train, ds_test, tc)
            modes = {"raw": None}
            if trace.rescale is not None:
                modes["rescaled"] = trace.rescale
            for mode_name, rescale in modes.items():
                row = metrics(model, ds_test, rescale)
                for name in metric_names:
                    per_mode[mode_name][name].append(getattr(row, name))
        for mode_name, totals in per_mode.items():
            if not totals["accuracy"]:
                continue
            for name in metric_names:
                mean, lo, hi = _t_interval(np.asarray(totals[name]))
                rows.append(
                    (
                        cfg["train"]["method"],
                        alpha,
                        mode_name,
                        name,
                        mean,
                        "n/a" if lo is None else repr(lo),
                        "n/a" if hi is None else repr(hi),
                        len(totals[name]),
                    )
                )
    with open(out / "sweep.csv", "w") as fh:
        fh.write("method,alpha,mode,metric,mean,ci_low,ci_high,repetitions\n")
        for r in rows:
            fh.write("%s,%r,%s,%s,%r,%s,%s,%d\n" % r)
    print(f"wrote {out / 'sweep.csv'} ({len(rows)} rows)")
    return 0


def cmd_verify(args) -> int:
    reports = run_all(seed=args.seed if args.seed is not None else 0)
    print(format_report_table(reports))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "verify.json", "w") as fh:
            fh.write(reports_to_json(reports))
        print(f"wrote {out / 'verify.json'}")
    return 0 if all(r.passed for r in reports) else 1


def cmd_breakdown(args) -> int:
    model, extra, cfg = _load_model(args)
    ds_train, _ = _datasets_from_config(cfg, cfg["seed"])
    alpha = args.alpha if args.alpha is not None else extra.get("rescale", {}).get("alpha", 1.0)
    kind = _LOSS_BY_NAME[extra.get("loss", "ce")]
    br = r_terms_general(ds_train, model, kind, mix_coefficients(alpha))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "breakdown.csv", "w") as fh:
        fh.write("erm_modified,r1,r2,r3,r4,total\n")
        fh.write("%r,%r,%r,%r,%r,%r\n" % (br.erm_modified, br.r1, br.r2, br.r3, br.r4, br.total))
    print(f"wrote {out / 'breakdown.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mixreg", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_mode=False):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--method", default=None)
        p.add_argument("--out", default="out", help="output directory")
        if with_mode:
            p.add_argument("--mode", choices=("raw", "rescaled"), default="raw")

    p_train = sub.add_parser("train", help="train one model")
    common(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a saved model")
    common(p_eval, with_mode=True)
    p_eval.add_argument("--model", required=True, help="model.json path")
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="alpha x seed sweep with 95% CIs")
    common(p_sweep)
    p_sweep.add_argument("--alphas", default=None, help="comma-separated alpha grid")
    p_sweep.add_argument("--seeds", default=None, help="comma-separated seed list")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the certification suite")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_break = sub.add_parser("breakdown", help="regularizer decomposition of a model")
    common(p_break)
    p_break.add_argument("--model", required=True, help="model.json path")
    p_break.set_defaults(func=cmd_breakdown)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
