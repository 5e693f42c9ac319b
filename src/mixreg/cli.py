"""Experiment runner. Outputs are CSV/JSON tables meant for plotting.

Subcommands:
  train       fit one model per the config, save model JSON + trace CSV
  eval        score a saved model on a dataset, raw or rescaled
  sweep       experiment.run_method over alphas and seeds, aggregate mean / 95% CI
  verify      run the numerical certification suite (exit 0 iff all pass);
              --out writes verify.json (one report per check) and
              verify_summary.json (total seconds, CPU seconds over the same
              span, Monte Carlo worker threads, the numpy version and peak
              RSS; each check's alpha and seconds are in its report)
  breakdown   the regularizer decomposition of a saved model on a dataset

eval and breakdown check model.json against the dataset rebuilt at its
stored seed (or --seed); neither trains, so they read no train or model
keys. The artifact fixes the method and alpha, so eval takes neither flag;
breakdown takes --alpha for its penalties, else the stored alpha.

Config file (JSON; flags override file values). The defaults, shown here,
are ExperimentSpec's two-moons protocol trained with mixup:

    {
      "seed": 0,
      "dataset": {"kind": "two_moons", "n": 300, "noise": 0.01,
                  "train_fraction": 0.5, "flip_fraction": 0.2}
                 or {"kind": "csv", "train": "tr.csv", "test": "te.csv"},
      "model":   {"kind": "rff", "features": 1000, "scale": 10.0}
                 or {"kind": "linear"},
      "train":   {"method": "mixup", "alpha": 1.0, "epochs": 200,
                  "batch_size": 50, "step_size": 5.0, "loss": "ce",
                  "drop_r2": true},
      "repetitions": 10
    }

A config file that is not a readable JSON object (or has a section that is
not one), a key outside this layout, a value its key does not allow, an
unreadable csv dataset or one with a cell that is not a finite number,
invalid two-moons values, for train and sweep data the train keys cannot
train on, or, for eval and sweep, test targets off the probability simplex
ends the command with exit code 2 before any output, as does an --out that
names, or lies under, something that exists and is not a directory, a
negative verify --seed, or model.json metadata that eval or breakdown cannot
use, such as a model whose widths do not fit the data or whose weights are
not all finite. Every csv is written by data.write_csv; the config.json each
command writes holds only the keys its run read (README, "Command line").
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from collections import namedtuple
from pathlib import Path

import numpy as np

from . import mixup
from .data import load_csv, write_csv
from .experiment import ExperimentSpec, make_instance, run_method
from .losses import LossKind
from .metrics import CONFIDENCE_BINS, Rescale, metrics
from .models import load_model_json, save_model_json
from .regularizers import r_terms_general
from .training import METHODS, MODELS, TrainConfig, check_data, check_targets, train
from .truncbeta import mix_coefficients
from .verification import _clocks, format_report_table, reports_to_json, run_all

_SPEC = ExperimentSpec()
_DEFAULT_TRAIN = _SPEC.train_config("mixup", TrainConfig.seed)
# the keys each dataset and model kind reads besides "kind"
_KIND_KEYS = {
    "dataset": {"two_moons": ("n", "noise", "train_fraction", "flip_fraction"),
                "csv": ("train", "test")},
    "model": {"rff": ("features", "scale"), "linear": ()},
}
# config key -> TrainConfig field, by section
_TRAIN_FIELDS = {
    "model": {"kind": "model", "features": "rff_features", "scale": "rff_scale"},
    "train": {k: k for k in ("method", "alpha", "epochs", "batch_size", "step_size", "loss",
                             "drop_r2")},
}
_CHOICES = {
    ("dataset", "kind"): tuple(_KIND_KEYS["dataset"]),
    ("model", "kind"): MODELS,
    ("train", "method"): METHODS,
    ("train", "loss"): tuple(k.value for k in LossKind),
}


DEFAULT_CONFIG = {
    "seed": _DEFAULT_TRAIN.seed,
    "dataset": {"kind": "two_moons",
                **{k: getattr(_SPEC, k) for k in _KIND_KEYS["dataset"]["two_moons"]}},
    **{s: {k: getattr(_DEFAULT_TRAIN, f) for k, f in keys.items()}
       for s, keys in _TRAIN_FIELDS.items()},
    "repetitions": _SPEC.repetitions,
}
DEFAULT_CONFIG["train"]["loss"] = _DEFAULT_TRAIN.loss.value
# the MetricsRow fields eval and sweep write, in column order
_METRICS = ("accuracy", "ce_loss", "ece", "mean_entropy", "mean_confidence")


def _fail(message: str):
    print(f"mixreg: {message}", file=sys.stderr)
    raise SystemExit(2)


def _unknown_keys(cfg: dict) -> list:
    """Keys of a config file that no config section knows, as dotted paths."""
    known = {s: set(DEFAULT_CONFIG[s]) for s in ("dataset", "model", "train")}
    known["dataset"] |= set(_KIND_KEYS["dataset"]["csv"])
    return [k for k in cfg if k not in DEFAULT_CONFIG] + [
        f"{s}.{k}" for s in known for k in cfg.get(s, {}) if k not in known[s]
    ]


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
        try:
            with open(args.config) as fh:
                from_file = json.load(fh)
        except (OSError, ValueError) as exc:
            _fail(f"cannot read config {args.config}: {exc}")
        if not isinstance(from_file, dict):
            _fail(f"config {args.config} must hold a JSON object, got {type(from_file).__name__}")
        for s in ("dataset", "model", "train"):
            if not isinstance(from_file.get(s, {}), dict):
                _fail(f"config {args.config}: section {s} must be a JSON object, "
                      f"got {type(from_file[s]).__name__}")
        unknown = _unknown_keys(from_file)
        if unknown:
            _fail(f"unknown config keys in {args.config}: {', '.join(unknown)}")
        cfg = _deep_update(cfg, from_file)
    flags = {k: getattr(args, k, None) for k in ("seed", "alpha", "method")}
    override = {"train": {k: flags[k] for k in ("alpha", "method") if flags[k] is not None}}
    if flags["seed"] is not None:
        override["seed"] = flags["seed"]
    return _deep_update(cfg, override)


def _section(cfg: dict, s: str) -> dict:
    """Section ``s`` of a merged config as a run reads it, its choices
    checked: the kind and that kind's own keys for dataset and model, every
    key but drop_r2, which only mixup_approx reads, for train."""
    for (section, key), choices in _CHOICES.items():
        if section == s and cfg[s][key] not in choices:
            _fail(f"{s}.{key} must be one of {choices}, got {cfg[s][key]!r}")
    if s == "train":
        return {k: v for k, v in cfg[s].items() if k != "drop_r2" or cfg[s]["method"] == "mixup_approx"}
    keys = ("kind",) + _KIND_KEYS[s][cfg[s]["kind"]]
    if not set(keys) <= set(cfg[s]):
        _fail(f"a {cfg[s]['kind']} {s} needs {', '.join(f'{s}.{k}' for k in keys[1:])}")
    return {k: cfg[s][k] for k in keys}


def _load_data(cfg: dict, loaded: dict | None = None):
    """The (train, test) datasets of a merged config and their record, the
    seed and the dataset section; bad data exits 2. Runs that share
    ``loaded`` read a csv pair once and make two-moons data once per seed."""
    record = {"seed": cfg["seed"], "dataset": _section(cfg, "dataset")}
    ds = record["dataset"]
    loaded = {} if loaded is None else loaded
    key = "csv" if ds["kind"] == "csv" else record["seed"]
    try:
        if key not in loaded:
            if ds["kind"] == "csv":
                loaded[key] = load_csv(ds["train"]), load_csv(ds["test"])
            else:
                moons = ExperimentSpec(**{k: ds[k] for k in _KIND_KEYS["dataset"]["two_moons"]})
                loaded[key] = make_instance(moons, record["seed"])
    except (OSError, TypeError, ValueError) as exc:
        _fail(f"invalid dataset: {exc}")
    return loaded[key], record


def _resolve(cfg: dict, loaded: dict | None = None):
    """The (train, test) datasets, the TrainConfig and the record of a merged
    config for train and sweep: its layout holding exactly the keys a run
    reads, from which the TrainConfig and every config.json are made. Data
    the TrainConfig cannot train on exits 2 too."""
    record = {s: _section(cfg, s) for s in ("model", "train")}
    fields = {f: record[s][k] for s, keys in _TRAIN_FIELDS.items() for k, f in keys.items()
              if k in record[s]}
    try:
        tc = TrainConfig(seed=cfg["seed"], **dict(fields, loss=LossKind(fields["loss"])))
    except (TypeError, ValueError) as exc:
        _fail(f"invalid config: {exc}")
    datasets, data_record = _load_data(cfg, loaded)
    try:
        check_data(*datasets, tc)
    except ValueError as exc:
        _fail(f"invalid dataset: {exc}")
    return datasets, tc, dict(record, **data_record)


def _check_scorable(command: str, *test_sets) -> None:
    """Exit with code 2 unless ``metrics`` can score every test set: eval and
    sweep score classifiers, so the test targets must lie on the simplex."""
    if not all(ds.is_classification() for ds in test_sets):
        _fail(f"{command} scores classifiers; the test targets must lie on the probability simplex")


def _check_out(out: str) -> None:
    """Exit with code 2, naming the path, when --out or a path above it
    exists and is not a directory, so the output directory cannot be made;
    checked before a command trains, evaluates or certifies anything."""
    path = Path(out)
    for p in (path, *path.parents):
        if p.exists():
            if not p.is_dir():
                _fail(f"--out {out}: {p} exists and is not a directory")
            return


def _output_dir(args, record: dict) -> Path:
    """The --out directory, made, with the run's record as its config.json."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(record, indent=2, sort_keys=True))
    return out


def cmd_train(args) -> int:
    (ds_train, ds_test), tc, record = _resolve(_load_config(args))
    out = _output_dir(args, record)
    model, trace = train(ds_train, ds_test, tc)
    extra = {"method": tc.method, "loss": tc.loss.value, "seed": tc.seed, "alpha": tc.alpha}
    if trace.rescale is not None:
        extra["rescale"] = {
            "xbar": trace.rescale.xbar.tolist(),
            "ybar": trace.rescale.ybar.tolist(),
            "theta_bar": trace.rescale.theta_bar,
        }
    save_model_json(model, out / "model.json", extra=extra)
    trace.write_csv(out / "trace.csv")
    print(f"wrote {out / 'model.json'} and {out / 'trace.csv'}")
    return 0


_Artifact = namedtuple("_Artifact", "model method loss rescale alpha datasets record")


def _load_model(args) -> _Artifact:
    """The one reader of model.json metadata. Against the datasets rebuilt
    at the stored seed (or --seed) it checks the model's widths, the stored
    loss kind (cross-entropy if none), the rescaling statistics (None if
    none) and the alpha (--alpha if given, else the stored one or None);
    what eval and breakdown cannot use exits 2, naming the artifact."""
    try:
        model, extra = load_model_json(args.model)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        _fail(f"cannot load model {args.model}: {exc}")
    if not isinstance(extra, dict) or not isinstance(extra.get("rescale", {}), dict):
        _fail(f"cannot load model {args.model}: extra and extra.rescale must be JSON objects")
    name = f"model {args.model}"
    cfg = _load_config(args)
    stored_seed = args.seed is None and "seed" in extra
    seed = extra["seed"] if stored_seed else cfg["seed"]
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        _fail(f"{name if stored_seed else 'invalid config'}: seed must be an integer >= 0, got {seed!r}")
    datasets, record = _load_data(dict(cfg, seed=seed))
    d, c = model.in_dim, model.out_dim
    for ds in datasets:
        if (ds.d, ds.c) != (d, c):
            _fail(f"{name} maps {d} inputs to {c} outputs, the data {ds.d} to {ds.c}")
    try:
        loss = LossKind(extra.get("loss", TrainConfig.loss.value))
        check_targets(loss, *datasets)
    except ValueError as exc:
        _fail(f"{name}: {exc}")
    rescale = extra.get("rescale")
    if rescale is not None:
        try:
            xbar, ybar, tb = (np.asarray(rescale[k], dtype=float) for k in ("xbar", "ybar", "theta_bar"))
        except (KeyError, TypeError, ValueError) as exc:
            _fail(f"{name}: unreadable rescaling statistics ({type(exc).__name__}: {exc})")
        if (xbar.shape, ybar.shape, tb.shape) != ((d,), (c,), ()) or not (
                np.isfinite(xbar).all() and np.isfinite(ybar).all() and 0.5 <= tb <= 1):
            _fail(f"{name}: the rescaling statistics must be xbar of {d} finite values, ybar of "
                  f"{c} and theta_bar in [1/2, 1], got theta_bar {rescale['theta_bar']!r}")
        rescale = Rescale(xbar, ybar, float(tb))
    flagged = getattr(args, "alpha", None) is not None
    alpha = args.alpha if flagged else extra.get("alpha")
    if alpha is not None and (type(alpha) not in (int, float) or not 0 < alpha < np.inf):
        _fail(f"{'invalid config' if flagged else name}: alpha must be a finite positive number, "
              f"got {alpha!r}")
    return _Artifact(model, extra.get("method", "unknown"), loss, rescale, alpha, datasets,
                     dict(record, model_path=str(args.model)))


def cmd_eval(args) -> int:
    art = _load_model(args)
    _check_scorable("eval", art.datasets[1])
    if args.mode == "rescaled" and art.rescale is None:
        _fail("model artifact carries no rescaling statistics; cannot eval rescaled")
    row = metrics(art.model, art.datasets[1], art.rescale if args.mode == "rescaled" else None)
    out = _output_dir(args, dict(art.record, mode=args.mode))
    write_csv(out / "metrics.csv", ("method", "mode", "seed") + _METRICS,
              [(art.method, args.mode, art.record["seed"], *(getattr(row, k) for k in _METRICS))])
    edges = np.linspace(0.0, 1.0, CONFIDENCE_BINS + 1)
    write_csv(out / "confidence_histogram.csv", ("bin_left", "bin_right", "count"),
              zip(edges[:-1], edges[1:], row.confidence_histogram))
    print(f"wrote {out / 'metrics.csv'} and {out / 'confidence_histogram.csv'}")
    return 0


def _t_interval(values: np.ndarray):
    # only sweep needs a t quantile; importing scipy here keeps it off the
    # start-up of every other command
    from scipy.special import stdtrit

    n = len(values)
    mean = float(np.mean(values))
    if n < 2:
        return mean, None, None
    half = float(stdtrit(n - 1, 0.975) * np.std(values, ddof=1) / np.sqrt(n))
    return mean, mean - half, mean + half


def _flag_list(flag: str, text: str, cast) -> list:
    """A comma-separated flag value as a list of distinct ``cast`` values."""
    try:
        values = [cast(v) for v in text.split(",")]
    except ValueError:
        _fail(f"--{flag} takes comma-separated {cast.__name__} values, got {text!r}")
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        _fail(f"--{flag} repeats {', '.join(map(str, repeated))}; give each value once")
    return values


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    alphas = _flag_list("alphas", args.alphas, float) if args.alphas else [cfg["train"]["alpha"]]
    if args.seeds:
        seeds = _flag_list("seeds", args.seeds, int)
    else:
        seeds = list(range(cfg["seed"], cfg["seed"] + cfg["repetitions"]))
    if not seeds:
        _fail(f"a sweep needs a seed; repetitions must be positive, got {cfg['repetitions']!r}")
    loaded = {}
    runs = [
        (alpha, [_resolve(_deep_update(cfg, {"seed": s, "train": {"alpha": alpha}}), loaded)
                 for s in seeds])
        for alpha in alphas
    ]
    _check_scorable("sweep", *(ds_test for _, alpha_runs in runs for (_, ds_test), _, _ in alpha_runs))
    # the first run's record, with the seeds and alphas swept in place of its own
    record = runs[0][1][0][2]
    del record["seed"], record["train"]["alpha"]
    out = _output_dir(args, dict(record, seeds=seeds, alphas=alphas))

    rows = []
    for alpha, alpha_runs in runs:
        results = [run_method(*datasets, tc) for datasets, tc, _ in alpha_runs]
        modes = {"raw": [r.raw for r in results],
                 "rescaled": [r.natural for r in results if r.trace.rescale is not None]}
        for mode_name, scored in modes.items():
            if not scored:
                continue
            for name in _METRICS:
                mean, *ci = _t_interval(np.asarray([getattr(row, name) for row in scored]))
                ci = ["n/a" if v is None else v for v in ci]
                rows.append((cfg["train"]["method"], alpha, mode_name, name, mean, *ci, len(scored)))
    write_csv(out / "sweep.csv",
              ("method", "alpha", "mode", "metric", "mean", "ci_low", "ci_high", "repetitions"), rows)
    print(f"wrote {out / 'sweep.csv'} ({len(rows)} rows)")
    return 0


def _peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB; ``ru_maxrss`` counts
    bytes on macOS and KiB on Linux and the BSDs."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


def cmd_verify(args) -> int:
    if args.seed < 0:
        _fail(f"--seed must be a non-negative integer, got {args.seed}")
    t0 = _clocks()
    reports = run_all(seed=args.seed)
    total_s, cpu_s = (end - start for end, start in zip(_clocks(), t0))
    print(format_report_table(reports))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "verify.json", "w") as fh:
            fh.write(reports_to_json(reports))
        summary = {
            "total_s": total_s,
            "cpu_s": cpu_s,
            "mc_workers": mixup._WORKERS,
            "numpy": np.__version__,
            "peak_rss_mb": _peak_rss_mb(),
        }
        with open(out / "verify_summary.json", "w") as fh:
            json.dump(summary, fh, indent=2)
        print(f"wrote {out / 'verify.json'} and {out / 'verify_summary.json'}")
    return 0 if all(r.passed for r in reports) else 1


def cmd_breakdown(args) -> int:
    art = _load_model(args)
    if art.alpha is None:
        _fail("model artifact stores no alpha; pass --alpha for the breakdown")
    br = r_terms_general(art.datasets[0], art.model, art.loss, mix_coefficients(art.alpha))
    out = _output_dir(args, dict(art.record, alpha=art.alpha))
    terms = ("erm_modified", "r1", "r2", "r3", "r4", "total", "clipped_inverses")
    write_csv(out / "breakdown.csv", terms, [[getattr(br, k) for k in terms]])
    print(f"wrote {out / 'breakdown.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mixreg", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_alpha=True, with_method=True, with_mode=False):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=None)
        if with_alpha:
            p.add_argument("--alpha", type=float, default=None)
        if with_method:
            p.add_argument("--method", default=None)
        p.add_argument("--out", default="out", help="output directory")
        if with_mode:
            p.add_argument("--mode", choices=("raw", "rescaled"), default="raw")

    p_train = sub.add_parser("train", help="train one model")
    common(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a saved model")
    common(p_eval, with_alpha=False, with_method=False, with_mode=True)
    p_eval.add_argument("--model", required=True, help="model.json path")
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="alpha x seed sweep with 95%% CIs")
    common(p_sweep)
    p_sweep.add_argument("--alphas", default=None, help="comma-separated alpha grid")
    p_sweep.add_argument("--seeds", default=None, help="comma-separated seed list")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the certification suite")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_break = sub.add_parser("breakdown", help="regularizer decomposition of a model")
    common(p_break, with_method=False)
    p_break.add_argument("--model", required=True, help="model.json path")
    p_break.set_defaults(func=cmd_breakdown)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.out is not None:
        _check_out(args.out)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
