"""Test-time rescaled prediction and classification metrics.

A model trained against the pairwise-mixing risk fits the mean-shrunk data,
so at test time the input is shrunk with the training statistics and the
output unshrunk:

    pred(x) = ybar (1 - 1/theta_bar) + f(theta_bar x + (1 - theta_bar) xbar) / theta_bar.

For classifiers this transforms the logits; softmax is applied afterwards by
the metric code. With theta_bar = 1 the map is the identity, and for balanced
classes it only shifts every logit by the same constant, leaving the argmax
at the shrunk point unchanged.

Training builds the statistics (xbar, ybar, theta_bar) once per run as a
:class:`Rescale` value, or None for plain fitting; :func:`predict` and
:func:`metrics` take that value as it is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .losses import LossKind, entropy, loss_values, softmax_rows

__all__ = [
    "Rescale",
    "MetricsRow",
    "rescaled_predict",
    "predict",
    "ece",
    "metrics",
    "confidence_histogram",
    "write_histogram_csv",
]

ECE_BINS = 15
CONFIDENCE_BINS = 20


@dataclass(frozen=True)
class Rescale:
    """Frozen training statistics of the rescaled predictor.

    Methods that fit mean-shrunk rows carry one; plain fitting carries None,
    which means raw prediction.
    """

    xbar: np.ndarray
    ybar: np.ndarray
    theta_bar: float

    @property
    def zero_logit(self) -> float:
        """Rescaled value of a zero raw logit: the class threshold of a scalar output."""
        return float(self.ybar[0] * (1.0 - 1.0 / self.theta_bar))


@dataclass(frozen=True)
class MetricsRow:
    """Headline classification metrics plus a confidence histogram."""

    accuracy: float
    ce_loss: float
    ece: float
    mean_entropy: float
    mean_confidence: float
    confidence_histogram: np.ndarray

    def csv_header(self) -> str:
        return "accuracy,ce_loss,ece,mean_entropy,mean_confidence"

    def csv_row(self) -> str:
        return "%r,%r,%r,%r,%r" % (
            self.accuracy,
            self.ce_loss,
            self.ece,
            self.mean_entropy,
            self.mean_confidence,
        )


def rescaled_predict(model, x: np.ndarray, xbar, ybar, theta_bar: float) -> np.ndarray:
    """Evaluate the model at the shrunk input and map the output back."""
    if not 0.5 <= theta_bar <= 1.0:
        raise ValueError("theta_bar must lie in [1/2, 1]")
    x = np.asarray(x, dtype=float)
    xbar = np.asarray(xbar, dtype=float)
    ybar = np.asarray(ybar, dtype=float)
    shrunk = theta_bar * x + (1.0 - theta_bar) * xbar
    return ybar * (1.0 - 1.0 / theta_bar) + model.predict(shrunk) / theta_bar


def predict(model, x: np.ndarray, rescale: Rescale | None = None) -> np.ndarray:
    """Raw outputs when ``rescale`` is None, else the rescaled prediction."""
    if rescale is None:
        return model.predict(x)
    return rescaled_predict(model, x, rescale.xbar, rescale.ybar, rescale.theta_bar)


def ece(confidences, correct, n_bins: int = ECE_BINS) -> float:
    """Binned expected calibration error.

    Equal-width right-closed bins on (0, 1]; each bin contributes its share of
    |accuracy - mean confidence|, empty bins contribute nothing.
    """
    conf = np.asarray(confidences, dtype=float)
    corr = np.asarray(correct, dtype=float)
    if conf.shape != corr.shape:
        raise ValueError("confidences and correctness flags must align")
    if conf.size == 0:
        return 0.0
    if np.any(conf < 0.0) or np.any(conf > 1.0):
        raise ValueError("confidences must lie in [0, 1]")
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    total = 0.0
    n = conf.size
    for b in range(n_bins):
        in_bin = (conf > edges[b]) & (conf <= edges[b + 1])
        if b == 0:
            in_bin |= conf == 0.0
        cnt = int(in_bin.sum())
        if cnt:
            total += (cnt / n) * abs(corr[in_bin].mean() - conf[in_bin].mean())
    return float(total)


def confidence_histogram(confidences, n_bins: int = CONFIDENCE_BINS) -> np.ndarray:
    """Counts over equal-width bins on [0, 1]; sums to the sample size."""
    counts, _ = np.histogram(np.asarray(confidences, dtype=float), bins=n_bins, range=(0.0, 1.0))
    return counts


def metrics(
    model, ds_test: Dataset, rescale: Rescale | None = None, n_ece_bins: int = ECE_BINS
) -> MetricsRow:
    """Accuracy, cross-entropy, calibration error, entropy and confidence stats
    of the raw (``rescale`` None) or rescaled predictor."""
    if not ds_test.is_classification():
        raise ValueError("metrics require simplex-valued test outputs")
    logits = predict(model, ds_test.inputs, rescale)
    probs = softmax_rows(logits)
    labels = ds_test.labels()
    pred = probs.argmax(axis=1)
    conf = probs.max(axis=1)
    correct = (pred == labels).astype(float)
    return MetricsRow(
        accuracy=float(correct.mean()),
        ce_loss=float(loss_values(LossKind.CROSS_ENTROPY, ds_test.outputs, logits).mean()),
        ece=ece(conf, correct, n_bins=n_ece_bins),
        mean_entropy=float(np.mean([entropy(p) for p in probs])),
        mean_confidence=float(conf.mean()),
        confidence_histogram=confidence_histogram(conf),
    )


def write_histogram_csv(hist: np.ndarray, path) -> None:
    """Write bins as rows of bin_left,bin_right,count."""
    edges = np.linspace(0.0, 1.0, len(hist) + 1)
    with open(path, "w") as fh:
        fh.write("bin_left,bin_right,count\n")
        for b, cnt in enumerate(hist):
            fh.write("%r,%r,%d\n" % (edges[b], edges[b + 1], int(cnt)))
