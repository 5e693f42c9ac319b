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
from .metrics import metrics
from .regularizers import r_terms_general
from .training import TrainConfig, train
from .truncbeta import mix_coefficients

__all__ = ["ExperimentSpec", "MethodResult", "make_instance", "run_method", "run_seed"]

DEFAULT_METHODS = ("erm", "erm_modified", "mixup", "mixup_approx")


@dataclass(frozen=True)
class ExperimentSpec:
    """Defaults reproduce the noisy two-moons protocol at desk scale."""

    n: int = 300
    noise: float = 0.01
    train_fraction: float = 0.5
    flip_fraction: float = 0.2
    alpha: float = 1.0
    rff_features: int = 1000
    rff_scale: float = 10.0
    batch_size: int = 50
    step_size: float = 5.0
    epochs: int = 200
    loss: LossKind = LossKind.CROSS_ENTROPY
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
            model="rff",
            rff_features=self.rff_features,
            rff_scale=self.rff_scale,
        )


@dataclass
class MethodResult:
    method: str
    model: object
    trace: object
    test_acc: float          # natural predictor (rescaled for shrunk-data methods)
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


def run_method(
    spec: ExperimentSpec, ds_train: Dataset, ds_test: Dataset, method: str, seed: int
) -> MethodResult:
    cfg = spec.train_config(method, seed)
    model, trace = train(ds_train, ds_test, cfg)
    m_raw = metrics(model, ds_test)
    natural = m_raw if trace.rescale is None else metrics(model, ds_test, trace.rescale)
    return MethodResult(
        method=method,
        model=model,
        trace=trace,
        test_acc=natural.accuracy,
        test_acc_raw=m_raw.accuracy,
        mean_conf_natural=natural.mean_confidence,
        mean_conf_raw=m_raw.mean_confidence,
    )


def run_seed(spec: ExperimentSpec, seed: int, methods=DEFAULT_METHODS) -> dict:
    """Train every method on one instance and summarize the comparisons.

    The regularizer sums (Hessian penalty dropped, matching the trained
    objective) are evaluated on the training set at the plain-fit and
    mixing-trained models.
    """
    ds_train, ds_test = make_instance(spec, seed)
    results = {m: run_method(spec, ds_train, ds_test, m, seed) for m in methods}
    out = {"seed": seed, "results": results}
    if "erm" in results and "mixup" in results:
        coeffs = mix_coefficients(spec.alpha)
        reg = {
            m: r_terms_general(
                ds_train, results[m].model, spec.loss, coeffs
            ).regularizer_sum_no_r2
            for m in ("erm", "mixup")
        }
        out["reg_sum_erm"] = reg["erm"]
        out["reg_sum_mixup"] = reg["mixup"]
    return out
