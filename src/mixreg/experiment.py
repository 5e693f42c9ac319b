"""The noisy two-moons protocol: data pipeline, four training methods, and
the per-seed summaries the comparison figures are built from.

Pipeline per seed: generate the moons, split half for training, corrupt a
fraction of the training labels, fit a cosine-feature classifier under each
objective, then score with each method's natural predictor (direct for plain
fitting, rescaled through the training statistics for the methods that learn
on mean-shrunk data).
"""

from __future__ import annotations

from dataclasses import dataclass

from .data import Dataset, flip_labels, make_two_moons, train_test_split
from .losses import LossKind
from .metrics import MetricsRow, metrics
from .training import TrainConfig, TrainTrace, _penalty_sum, train
from .truncbeta import mix_coefficients

__all__ = ["ExperimentSpec", "MethodResult", "make_instance", "run_method", "run_seed"]

DEFAULT_METHODS = ("erm", "erm_modified", "mixup", "mixup_approx")


@dataclass(frozen=True)
class ExperimentSpec:
    """The noisy two-moons protocol at desk scale. The training fields take
    their defaults from :class:`TrainConfig`, so the two cannot disagree."""

    n: int = 300
    noise: float = 0.01
    train_fraction: float = 0.5
    flip_fraction: float = 0.2
    alpha: float = TrainConfig.alpha
    rff_features: int = TrainConfig.rff_features
    rff_scale: float = TrainConfig.rff_scale
    batch_size: int = TrainConfig.batch_size
    step_size: float = TrainConfig.step_size
    epochs: int = TrainConfig.epochs
    loss: LossKind = TrainConfig.loss
    repetitions: int = 10

    def train_config(self, method: str, seed: int) -> TrainConfig:
        return TrainConfig(
            method=method,
            alpha=self.alpha,
            epochs=self.epochs,
            batch_size=self.batch_size,
            step_size=self.step_size,
            seed=seed,
            loss=self.loss,
            rff_features=self.rff_features,
            rff_scale=self.rff_scale,
        )


@dataclass
class MethodResult:
    """A trained model scored on the test set by the raw and by the natural
    predictor (rescaled for the shrunk-data methods, else the raw row). The
    four floats copy the two rows' accuracy and mean confidence under the
    names the comparisons read."""

    model: object
    trace: TrainTrace
    raw: MetricsRow
    natural: MetricsRow
    test_acc: float
    test_acc_raw: float
    mean_conf_natural: float
    mean_conf_raw: float


def make_instance(spec: ExperimentSpec, seed: int):
    """Dataset pair for one repetition; sub-seeds keep the stages independent."""
    full = make_two_moons(spec.n, spec.noise, seed)
    ds_train, ds_test = train_test_split(full, spec.train_fraction, seed + 1)
    if spec.flip_fraction > 0:
        ds_train = flip_labels(ds_train, spec.flip_fraction, seed + 2)
    return ds_train, ds_test


def run_method(ds_train: Dataset, ds_test: Dataset, cfg: TrainConfig) -> MethodResult:
    """Train one config, then score it raw and with its natural predictor."""
    model, trace = train(ds_train, ds_test, cfg)
    raw = metrics(model, ds_test)
    natural = raw if trace.rescale is None else metrics(model, ds_test, trace.rescale)
    return MethodResult(model, trace, raw, natural, natural.accuracy, raw.accuracy,
                        natural.mean_confidence, raw.mean_confidence)


def run_seed(spec: ExperimentSpec, seed: int, methods=DEFAULT_METHODS) -> dict:
    """Train every method on one instance and summarize the comparisons.

    ``reg_sum_erm`` and ``reg_sum_mixup`` are the penalty the regularized
    objective trains on, R1 + R3 + R4 with the Hessian penalty dropped, at
    the plain-fit and mixing-trained models over the training set. They
    come in the objective's uncompleted form, stacked over rows, not from
    the completed breakdown :func:`regularizers.r_terms_general`: the two
    agree to round-off, but the completed form cancels catastrophically on
    rows whose loss curvature nearly vanishes.
    """
    ds_train, ds_test = make_instance(spec, seed)
    results = {m: run_method(ds_train, ds_test, spec.train_config(m, seed)) for m in methods}
    out = {"seed": seed, "results": results}
    if "erm" in results and "mixup" in results:
        coeffs = mix_coefficients(spec.alpha)
        for m in ("erm", "mixup"):
            out[f"reg_sum_{m}"] = _penalty_sum(ds_train, results[m].model, spec.loss, coeffs)
    return out
