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
:func:`metrics` take that value as it is. Its ``shrink`` step is
:func:`data.shrink`, which also makes the fitted rows, and ``unshrink`` is
the only copy of the output side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, shrink
from .losses import LossKind, entropy, loss_values, softmax_rows

__all__ = [
    "Rescale",
    "MetricsRow",
    "predict",
    "ece",
    "metrics",
    "confidence_histogram",
]

ECE_BINS = 15
CONFIDENCE_BINS = 20


@dataclass(frozen=True)
class Rescale:
    """Frozen training statistics of the rescaled predictor.

    Methods that fit mean-shrunk rows carry one; plain fitting carries None,
    which means raw prediction. The map is split in two steps so that a
    caller can featurize the shrunk rows once and unshrink fresh outputs:
    ``unshrink(f(shrink(x)))`` is the rescaled prediction.
    """

    xbar: np.ndarray
    ybar: np.ndarray
    theta_bar: float

    def shrink(self, x: np.ndarray) -> np.ndarray:
        """Input side: theta_bar x + (1 - theta_bar) xbar."""
        return shrink(x, self.xbar, self.theta_bar)

    def unshrink(self, out: np.ndarray) -> np.ndarray:
        """Output side: ybar (1 - 1/theta_bar) + out / theta_bar."""
        tb = self.theta_bar
        return np.asarray(self.ybar, dtype=float) * (1.0 - 1.0 / tb) + out / tb

    @property
    def zero_logit(self) -> float:
        """Rescaled value of a zero raw logit: the class threshold of a scalar output."""
        return float(self.unshrink(0.0)[0])


@dataclass(frozen=True)
class MetricsRow:
    """Headline classification metrics plus a confidence histogram."""

    accuracy: float
    ce_loss: float
    ece: float
    mean_entropy: float
    mean_confidence: float
    confidence_histogram: np.ndarray


def predict(model, x: np.ndarray, rescale: Rescale | None = None) -> np.ndarray:
    """Raw outputs when ``rescale`` is None, else the rescaled prediction."""
    if rescale is None:
        return model.predict(x)
    return rescale.unshrink(model.predict(rescale.shrink(x)))


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


def confidence_histogram(confidences) -> np.ndarray:
    """Counts over ``CONFIDENCE_BINS`` equal-width bins on [0, 1]; sums to
    the sample size."""
    return np.histogram(np.asarray(confidences, dtype=float), bins=CONFIDENCE_BINS, range=(0.0, 1.0))[0]


def metrics(model, ds_test: Dataset, rescale: Rescale | None = None) -> MetricsRow:
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
        ece=ece(conf, correct),
        mean_entropy=float(entropy(probs).mean()),
        mean_confidence=float(conf.mean()),
        confidence_histogram=confidence_histogram(conf),
    )
