import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixreg.data import Dataset, make_two_moons
from mixreg.metrics import (
    Rescale,
    confidence_histogram,
    ece,
    metrics,
    predict,
    rescaled_predict,
)
from mixreg.models import LinearModel, init_rff


class _ConstantLogits:
    def __init__(self, logits):
        self.logits = np.asarray(logits, dtype=float)

    def predict(self, x):
        x = np.asarray(x)
        if x.ndim == 1:
            return self.logits.copy()
        return np.tile(self.logits, (x.shape[0], 1))


def test_rescaled_identity_at_theta_one():
    rng = np.random.default_rng(0)
    model = init_rff(2, 30, 3.0, 2, seed=0)
    model.w = rng.normal(size=model.w.shape)
    X = rng.normal(size=(20, 2))
    xbar, ybar = rng.normal(size=2), rng.normal(size=2)
    out = rescaled_predict(model, X, xbar, ybar, 1.0)
    assert np.abs(out - model.predict(X)).max() < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 12),
    d=st.integers(1, 4),
    c=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_rescaled_identity_at_theta_one_property(n, d, c, seed):
    rng = np.random.default_rng(seed)
    model = init_rff(d, 20, 3.0, c, seed=seed)
    model.w = rng.normal(size=model.w.shape)
    X = rng.normal(size=(n, d))
    rescale = Rescale(rng.normal(size=d), rng.normal(size=c), 1.0)
    assert np.array_equal(predict(model, X, rescale), model.predict(X))


def test_rescaled_noop_for_centered_homogeneous_linear():
    rng = np.random.default_rng(1)
    model = LinearModel(W=rng.normal(size=(2, 3)), b=np.zeros(2))
    X = rng.normal(size=(15, 3))
    out = rescaled_predict(model, X, np.zeros(3), np.zeros(2), 0.75)
    assert np.abs(out - model.predict(X)).max() < 1e-12


def test_rescaled_balanced_classes_argmax_matches_shrunk_point():
    rng = np.random.default_rng(2)
    model = init_rff(2, 60, 5.0, 2, seed=2)
    model.w = rng.normal(size=model.w.shape)
    X = rng.normal(size=(50, 2))
    xbar = rng.normal(size=2)
    ybar = np.array([0.5, 0.5])
    tb = 0.75
    resc = rescaled_predict(model, X, xbar, ybar, tb)
    shrunk_logits = model.predict(tb * X + (1 - tb) * xbar)
    assert np.array_equal(resc.argmax(axis=1), shrunk_logits.argmax(axis=1))


def test_rescaled_theta_validation():
    model = LinearModel(W=np.eye(2), b=np.zeros(2))
    with pytest.raises(ValueError):
        rescaled_predict(model, np.zeros((2, 2)), np.zeros(2), np.zeros(2), 0.3)
    with pytest.raises(ValueError):
        predict(model, np.zeros((2, 2)), Rescale(np.zeros(2), np.zeros(2), 1.4))
    with pytest.raises(TypeError):
        Rescale(np.zeros(2), np.zeros(2))


def test_ece_trivial_cases():
    assert ece([1.0] * 10, [1.0] * 10) == 0.0
    assert ece([1.0] * 10, [1, 0] * 5) == pytest.approx(0.5, abs=1e-12)


def test_ece_three_bin_hand_case():
    conf = [0.6, 0.6, 0.9, 0.9]
    corr = [1, 0, 1, 1]
    assert ece(conf, corr, n_bins=3) == pytest.approx(0.10, abs=1e-12)


def test_ece_permutation_and_duplication_invariance():
    rng = np.random.default_rng(3)
    conf = rng.uniform(size=200)
    corr = (rng.uniform(size=200) < conf).astype(float)
    base = ece(conf, corr)
    perm = rng.permutation(200)
    assert ece(conf[perm], corr[perm]) == pytest.approx(base, abs=1e-15)
    assert ece(np.tile(conf, 2), np.tile(corr, 2)) == pytest.approx(base, abs=1e-15)


def test_ece_validation():
    with pytest.raises(ValueError):
        ece([1.2], [1.0])
    with pytest.raises(ValueError):
        ece([0.5, 0.5], [1.0])


def test_metrics_constant_uniform_predictor():
    ds = make_two_moons(200, 0.05, seed=4)
    row = metrics(_ConstantLogits([0.0, 0.0]), ds)
    assert row.mean_entropy == pytest.approx(np.log(2.0), abs=1e-12)
    assert row.mean_confidence == pytest.approx(0.5, abs=1e-12)
    assert abs(row.accuracy - 0.5) < 4 * np.sqrt(0.25 / 200) + 1e-9
    assert row.ce_loss == pytest.approx(np.log(2.0), abs=1e-12)
    assert row.confidence_histogram.sum() == 200


def test_metrics_perfect_predictor():
    ds = make_two_moons(40, 0.0, seed=5)
    model = LinearModel(W=np.zeros((2, 2)), b=np.zeros(2))

    class _Oracle:
        def predict(self, X):
            lab = make_two_moons(40, 0.0, seed=5).labels()
            out = np.where(np.arange(40)[:, None] >= 0, 0.0, 0.0)
            logits = np.full((X.shape[0], 2), -50.0)
            logits[np.arange(X.shape[0]), lab[: X.shape[0]]] = 50.0
            return logits

    row = metrics(_Oracle(), ds)
    assert row.accuracy == 1.0
    assert row.ece == pytest.approx(0.0, abs=1e-9)


def test_metrics_requires_classification():
    ds = Dataset(np.zeros((4, 2)), np.random.default_rng(6).normal(size=(4, 2)))
    with pytest.raises(ValueError):
        metrics(_ConstantLogits([0.0, 0.0]), ds)


def test_histogram_bins_and_modes():
    hist = confidence_histogram([0.0, 0.51, 0.49, 1.0], n_bins=20)
    assert hist.sum() == 4
    ds = make_two_moons(30, 0.05, seed=7)
    model = init_rff(2, 40, 3.0, 2, seed=7)
    model.w = np.random.default_rng(7).normal(size=model.w.shape)
    out = predict(model, ds.inputs, Rescale(ds.x_mean, ds.y_mean, 0.75))
    expected = rescaled_predict(model, ds.inputs, ds.x_mean, ds.y_mean, 0.75)
    assert np.array_equal(out, expected)
