import copy
import itertools
import sys
import time

import numpy as np
import pytest
from conftest import mc_memory_bound, traced_peak
from hypothesis import given, settings
from hypothesis import strategies as st

from mixreg import mixup, verification
from mixreg.data import Dataset, make_two_moons, modify
from mixreg.losses import LossKind, loss_values
from mixreg.mixup import (
    mixup_minibatch,
    mixup_risk_mc,
    pair_loss_values,
    perturbed_erm_risk_mc,
    perturbation,
    perturbed_loss_values,
)
from mixreg.models import _PHASE_ELEMS, LinearModel, init_rff
from mixreg.regularizers import exact_se_mixup_risk, per_example_covariances
from mixreg.truncbeta import mix_coefficients, sample_theta


class _ConstantModel:
    def __init__(self, value):
        self.value = np.asarray(value, dtype=float)

    def predict(self, x):
        x = np.asarray(x)
        if x.ndim == 1:
            return self.value.copy()
        return np.tile(self.value, (x.shape[0], 1))


def _small_regression(seed=0, n=8, d=2, c=2):
    rng = np.random.default_rng(seed)
    return Dataset(rng.normal(size=(n, d)), rng.normal(size=(n, c)))


def test_constant_model_same_draw_identity():
    """With shared draws the risk estimate equals the direct residual average."""
    ds = _small_regression(1)
    model = _ConstantModel(ds.y_mean)
    rng = np.random.default_rng(3)
    n_draws = 2000
    I = rng.integers(ds.n, size=n_draws)
    J = rng.integers(ds.n, size=n_draws)
    lam = rng.beta(1.0, 1.0, size=n_draws)
    vals = pair_loss_values(ds, model, LossKind.SQUARED_ERROR, I, J, lam)
    Yc = ds.outputs - ds.y_mean
    direct = 0.5 * np.sum(
        (lam[:, None] * Yc[I] + (1 - lam[:, None]) * Yc[J]) ** 2, axis=1
    )
    assert np.abs(vals - direct).max() < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 12),
    d=st.integers(1, 4),
    c=st.integers(1, 4),
    log_alpha=st.floats(np.log(1e-3), np.log(1e6)),
    draws=st.lists(
        st.tuples(st.integers(0, 10**6), st.integers(0, 10**6), st.floats(0.0, 1.0)),
        min_size=1, max_size=8,
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_per_draw_identity_property(n, d, c, log_alpha, draws, seed):
    """Each pairwise summand equals the perturbed-form summand
    l(y~_i + eps_i, f(x~_i + delta_i)) of the same draw, folded so that
    theta = max(lam, 1 - lam) and row i is the one weighted by theta.

    Summands are compared relative to their size, or absolutely below one.
    """
    rng = np.random.default_rng(seed)
    I = np.array([i % n for i, _, _ in draws])
    J = np.array([j % n for _, j, _ in draws])
    lam = np.array([lam for _, _, lam in draws])
    theta = np.maximum(lam, 1.0 - lam)[:, None]
    rows = np.where(lam >= 0.5, I, J)
    partners = np.where(lam >= 0.5, J, I)
    tb = mix_coefficients(float(np.exp(log_alpha))).theta_bar
    models = (
        LinearModel(W=rng.normal(size=(c, d)), b=rng.normal(size=c)),
        init_rff(d, 8, 2.0, c, seed=int(rng.integers(2**31))),
    )
    models[1].w = rng.normal(size=models[1].w.shape)
    x = rng.normal(size=(n, d))
    cases = [(LossKind.SQUARED_ERROR, Dataset(x, rng.normal(size=(n, c))))]
    if c >= 2:
        cases.append((LossKind.CROSS_ENTROPY, Dataset(x, rng.dirichlet(np.ones(c), size=n))))
    for kind, ds in cases:
        mod = modify(ds, tb)
        delta = ((theta - tb) * ds.inputs[rows] + (1.0 - theta) * ds.inputs[partners]
                 - (1.0 - tb) * ds.x_mean)
        eps = ((theta - tb) * ds.outputs[rows] + (1.0 - theta) * ds.outputs[partners]
               - (1.0 - tb) * ds.y_mean)
        for model in models:
            pair = pair_loss_values(ds, model, kind, I, J, lam)
            pert = loss_values(kind, mod.outputs[rows] + eps,
                               model.predict(mod.inputs[rows] + delta))
            assert np.all(np.abs(pair - pert) <= 1e-12 * np.maximum(np.abs(pert), 1.0))


def test_alpha_to_zero_recovers_plain_risk():
    ds = _small_regression(2)
    rng = np.random.default_rng(0)
    model = LinearModel(W=rng.normal(size=(2, 2)), b=rng.normal(size=2))
    est = mixup_risk_mc(ds, model, LossKind.SQUARED_ERROR, 0.01, 200_000, np.random.default_rng(5))
    erm = float(loss_values(LossKind.SQUARED_ERROR, ds.outputs, model.predict(ds.inputs)).mean())
    assert abs(est.mean - erm) < 3 * est.stderr + 0.02 * abs(erm)


def test_mc_matches_closed_form_se_linear():
    """Four-point 1-D dataset: MC estimate vs the exact moment expression."""
    ds = Dataset(np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([[0.5], [0.1], [2.0], [2.2]]))
    model = LinearModel(W=np.array([[0.7]]), b=np.array([0.2]))
    coeffs = mix_coefficients(1.0)
    exact = exact_se_mixup_risk(ds, model, coeffs)
    est = mixup_risk_mc(ds, model, LossKind.SQUARED_ERROR, 1.0, 1_000_000, np.random.default_rng(11))
    assert abs(est.mean - exact) < 4 * est.stderr


def test_perturbation_identity_and_vanishing_case():
    ds = _small_regression(3)
    coeffs = mix_coefficients(0.8)
    mod = modify(ds, coeffs.theta_bar)
    rng = np.random.default_rng(7)
    for _ in range(200):
        i = int(rng.integers(ds.n))
        theta = sample_theta(coeffs.alpha, rng)
        j = int(rng.integers(ds.n))
        delta, epsilon = perturbation(ds, coeffs.theta_bar, i, j, theta)
        mixed_x = theta * ds.inputs[i] + (1 - theta) * ds.inputs[j]
        mixed_y = theta * ds.outputs[i] + (1 - theta) * ds.outputs[j]
        assert np.abs(mod.inputs[i] + delta - mixed_x).max() < 1e-12
        assert np.abs(mod.outputs[i] + epsilon - mixed_y).max() < 1e-12

    # a dataset containing its own mean: theta = theta_bar and x_j = xbar
    # make both terms of the perturbation vanish
    X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]])
    Y = np.array([[1.0], [-1.0], [0.0]])
    ds_mean = Dataset(X, Y)
    assert np.allclose(ds_mean.x_mean, 0.0)
    tb = coeffs.theta_bar
    delta, epsilon = perturbation(ds_mean, tb, 0, 2, tb)
    assert np.abs(delta).max() == 0.0 and np.abs(epsilon).max() == 0.0


def _broadcast_perturbation(ds, theta_bar, i, j, theta):
    """``perturbation`` in its earlier form, (k, 1) weights broadcast against
    (k, d) rows, kept as the reference for the column passes."""
    th = np.asarray(theta, dtype=float)[..., None]
    return tuple(
        (th - theta_bar) * z[i] + (1.0 - th) * z[j] - (1.0 - theta_bar) * z_mean
        for z, z_mean in ((ds.inputs, ds.x_mean), (ds.outputs, ds.y_mean))
    )


def _broadcast_mix(z, I, J, lam):
    """The mixed rows of ``pair_loss_values`` in their earlier broadcast form."""
    lb = lam[:, None]
    mixed = lb * z[I]
    mixed += (1.0 - lb) * z[J]
    return mixed


@pytest.mark.parametrize("d", range(1, 6))
@pytest.mark.parametrize("c", range(1, 6))
def test_column_passes_equal_the_row_broadcast(d, c):
    """Perturbations and mixed rows formed one coordinate at a time equal the
    row-broadcast expressions bit for bit, for scalar and array rows,
    partners and weights; the shape is their broadcast shape plus the width."""
    rng = np.random.default_rng(10 * d + c)
    ds = Dataset(rng.normal(scale=10.0, size=(9, d)), rng.normal(size=(9, c)))
    tb = mix_coefficients(0.4).theta_bar
    k = 1000
    I, J = rng.integers(ds.n, size=k), rng.integers(ds.n, size=k)
    theta = np.maximum(rng.random(k), 0.5)
    cases = [(3, 5, 0.8), (3, J, theta), (I, 5, theta), (I, J, 0.6), (I, J, theta),
             (I[:4], J[:4], theta[:3, None])]
    for i, j, th in cases:
        shape = np.broadcast_shapes(np.shape(i), np.shape(j), np.shape(th))
        got = perturbation(ds, tb, i, j, th)
        for new, old, width in zip(got, _broadcast_perturbation(ds, tb, i, j, th), (d, c)):
            assert new.shape == shape + (width,)
            assert np.array_equal(new, old)
    for z in (ds.inputs, ds.outputs):
        assert np.array_equal(mixup._combine_rows(z, I, J, theta, 1.0 - theta), _broadcast_mix(z, I, J, theta))


def test_perturbation_mean_zero():
    ds = _small_regression(4)
    coeffs = mix_coefficients(1.0)
    rng = np.random.default_rng(13)
    n = 50_000
    i = 3
    theta = sample_theta(coeffs.alpha, rng, size=n)
    J = rng.integers(ds.n, size=n)
    for draws in perturbation(ds, coeffs.theta_bar, i, J, theta):
        se = draws.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(draws.mean(axis=0)) < 4 * se)


def test_perturbation_covariance_matches_closed_form():
    ds = make_two_moons(20, 0.05, seed=0)
    coeffs = mix_coefficients(1.0)
    rng = np.random.default_rng(17)
    n = 1_000_000
    i = 3
    tb = coeffs.theta_bar
    th = sample_theta(1.0, rng, size=n)[:, None]
    J = rng.integers(ds.n, size=n)
    deltas = (th - tb) * ds.inputs[i] + (1 - th) * ds.inputs[J] - (1 - tb) * ds.x_mean
    emp = deltas.T @ deltas / n
    closed = per_example_covariances(ds, coeffs, i).sxx
    assert np.linalg.norm(emp - closed) / np.linalg.norm(closed) < 0.01


def test_two_estimators_agree_on_rff():
    ds = make_two_moons(50, 0.05, seed=1)
    model = init_rff(2, 100, 3.0, 2, seed=2)
    model.w = 0.5 * np.random.default_rng(2).normal(size=model.w.shape)
    a = mixup_risk_mc(ds, model, LossKind.CROSS_ENTROPY, 1.0, 1_000_000, np.random.default_rng(3))
    b = perturbed_erm_risk_mc(ds, model, LossKind.CROSS_ENTROPY, 1.0, 1_000_000, np.random.default_rng(4))
    assert abs(a.mean - b.mean) < 4 * np.hypot(a.stderr, b.stderr)


def _reference_beta(g, alpha, k):
    """k unfolded Beta(alpha, alpha) weights as a block draws them: uniform
    draws at alpha = 1, else ``Generator.beta``."""
    return g.random(k) if alpha == 1.0 else g.beta(alpha, alpha, size=k)


def _serial_blocks(estimator, ds, model, kind, alpha, n_draws, rng):
    """The estimators' reference, one block after another on this thread:
    each block's summands, from the block's own generator (child b of the
    seed sequence keyed by one draw from rng) drawing rows, weights and
    partners, scored by the public summand."""
    step = mixup._block_size(model)
    key = int(rng.integers(2**64, dtype=np.uint64))
    children = np.random.SeedSequence(key).spawn(-(-n_draws // step))
    tb = mix_coefficients(alpha).theta_bar
    for b, child in enumerate(children):
        g, k = np.random.default_rng(child), min(step, n_draws - b * step)
        I = g.integers(ds.n, size=k)
        if estimator is mixup_risk_mc:
            lam = _reference_beta(g, alpha, k)
            yield pair_loss_values(ds, model, kind, I, g.integers(ds.n, size=k), lam)
        else:
            theta = sample_theta(alpha, g, size=k)
            yield perturbed_loss_values(ds, model, kind, I, g.integers(ds.n, size=k), theta, tb)


def _serial_estimate(estimator, ds, model, kind, alpha, n_draws, rng):
    """The reference blocks' moments, merged in block order."""
    moments = mixup._Moments()
    for vals in _serial_blocks(estimator, ds, model, kind, alpha, n_draws, rng):
        moments.merge(mixup._Moments.of(vals))
    return moments.estimate()


@pytest.mark.parametrize("offset", [1e5, 1e6])
@pytest.mark.parametrize("block", [200_000, 700])
def test_stderr_survives_a_large_loss_offset(offset, block, monkeypatch):
    """Losses near offset + 1e-3 N(0, 1): the merged standard error equals
    the two-pass one on the same summands, in one block and across eight."""
    rng = np.random.default_rng(8)
    ds = Dataset(rng.normal(size=(30, 2)), 1e-3 / np.sqrt(2 * offset) * rng.normal(size=(30, 1)))
    model = LinearModel(W=np.zeros((1, 2)), b=[np.sqrt(2 * offset)])
    monkeypatch.setattr(mixup, "_NARROW_BLOCK", block)
    assert mixup._block_size(model) == block
    kind = LossKind.SQUARED_ERROR
    est = mixup_risk_mc(ds, model, kind, 1.0, 5000, np.random.default_rng(9))
    blocks = list(_serial_blocks(mixup_risk_mc, ds, model, kind, 1.0, 5000, np.random.default_rng(9)))
    vals = np.concatenate(blocks)
    assert len(blocks) == (1 if block > 5000 else 8)
    assert vals.size == est.n_draws == 5000 and abs(vals.mean() / offset - 1.0) < 1e-6
    assert abs(est.mean - vals.mean()) <= 1e-12 * offset
    two_pass = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(est.stderr - two_pass) <= 1e-6 * two_pass


def test_monte_carlo_memory_is_bounded_by_one_phase_block(monkeypatch):
    """At 1000 features, 20 000 draws never hold a 20 000-row phase block
    (160 MB), only one phase block per worker, at 1, 2 and 4 workers: 2.3 /
    4.7 / 9.2 MiB, under one phase block and a quarter per worker (3.5 / 6 /
    11 MiB); the phase block's quarter covers the block's draws."""
    ds = make_two_moons(50, 0.05, seed=3)
    model = init_rff(2, 1000, 3.0, 2, seed=4)
    model.w = np.random.default_rng(4).normal(size=model.w.shape)
    n_draws = 20_000
    rng = np.random.default_rng(5)
    I, J = rng.integers(ds.n, size=n_draws), rng.integers(ds.n, size=n_draws)
    lam = rng.beta(1.0, 1.0, size=n_draws)
    kind = LossKind.CROSS_ENTROPY
    for workers in (1, 2, 4):
        monkeypatch.setattr(mixup, "_WORKERS", workers)
        peak = traced_peak(lambda: (
            mixup_risk_mc(ds, model, kind, 1.0, n_draws, np.random.default_rng(6)),
            perturbed_erm_risk_mc(ds, model, kind, 1.0, n_draws, np.random.default_rng(7)),
        ))
        assert peak < mc_memory_bound(workers, mixup._BLOCK, block_arrays=0), workers
        # the summand's output on top: one array of n_draws losses
        peak = traced_peak(lambda: pair_loss_values(ds, model, kind, I, J, lam))
        assert peak < 8 * n_draws + mc_memory_bound(workers, mixup._BLOCK, block_arrays=0), workers


def test_monte_carlo_memory_is_bounded_by_one_draw_block(monkeypatch):
    """At 80 features the draws dominate: at 2 and at 8 blocks of draws each
    estimator holds one block of draws and one phase block per worker, at 1,
    2 and 4 workers: up to 2.3 / 4.6 / 9.1 MiB. Holding 200 000-draw chunks of
    draws took 8.4 / 10.7 / 14.9 MiB, and chunk-sized mixed and perturbed
    rows 21 and 24 MB."""
    ds = make_two_moons(50, 0.05, seed=3)
    model = init_rff(2, 80, 3.0, 2, seed=4)
    model.w = np.random.default_rng(4).normal(size=model.w.shape)
    block = mixup._block_size(model)
    for workers in (1, 2, 4):
        monkeypatch.setattr(mixup, "_WORKERS", workers)
        for estimator in (mixup_risk_mc, perturbed_erm_risk_mc):
            for n in (2 * block, 8 * block):
                peak = traced_peak(lambda: estimator(
                    ds, model, LossKind.CROSS_ENTROPY, 1.0, n, np.random.default_rng(6)))
                assert peak < mc_memory_bound(workers, mixup._BLOCK), (estimator.__name__, workers, n)


def test_estimator_memory_does_not_grow_with_the_draw_count(monkeypatch):
    """One worker's traced peak is the same, to 16 KiB, at 10^6 and at 4 x
    10^6 draws, for both estimators on a linear model (1.6 MiB in 16 384-draw
    blocks, 0.41 MiB in 4096-draw ones): nothing is kept per draw or per
    block."""
    monkeypatch.setattr(mixup, "_WORKERS", 1)
    ds, model, kind = _worker_case("linear")
    for estimator in (mixup_risk_mc, perturbed_erm_risk_mc):
        peaks = [traced_peak(lambda: estimator(ds, model, kind, 1.0, n, np.random.default_rng(6)))
                 for n in (10**6, 4 * 10**6)]
        assert abs(peaks[1] - peaks[0]) < 2**14, (estimator.__name__, peaks)


@pytest.mark.parametrize("n_features, draw_block", [(80, None), (1000, 1000)])
def test_summands_in_draw_blocks_equal_one_shot(n_features, draw_block, monkeypatch):
    """Both summands, evaluated in draw blocks, equal bit for bit the
    expressions over all draws at once, at draw counts around the block, and
    the model never sees more than one block of rows."""
    if draw_block is not None:
        monkeypatch.setattr(mixup, "_BLOCK", draw_block)
    ds = make_two_moons(50, 0.05, seed=3)
    model = init_rff(2, n_features, 3.0, 2, seed=4)
    model.w = np.random.default_rng(4).normal(size=model.w.shape)
    kind = LossKind.CROSS_ENTROPY
    tb = mix_coefficients(1.0).theta_bar
    mod = modify(ds, tb)
    X, Y = ds.inputs, ds.outputs
    block = mixup._block_size(model)
    assert block % model.block_rows == 0 and block <= mixup._BLOCK
    rng = np.random.default_rng(5)
    for n in (block - 1, block, block + 1, 3 * block + 7):
        I, J = rng.integers(ds.n, size=n), rng.integers(ds.n, size=n)
        lam = rng.beta(1.0, 1.0, size=n)
        theta = np.maximum(lam, 1.0 - lam)
        t = theta[:, None]
        pair = loss_values(kind, t * Y[I] + (1.0 - t) * Y[J], model.predict(t * X[I] + (1.0 - t) * X[J]))
        delta = (t - tb) * X[I] + (1.0 - t) * X[J] - (1.0 - tb) * ds.x_mean
        eps = (t - tb) * Y[I] + (1.0 - t) * Y[J] - (1.0 - tb) * ds.y_mean
        pert = loss_values(kind, mod.outputs[I] + eps, model.predict(mod.inputs[I] + delta))
        rows = []
        with monkeypatch.context() as patch:
            patch.setattr(model, "predict", lambda x, f=model.predict: rows.append(len(x)) or f(x))
            assert np.array_equal(pair_loss_values(ds, model, kind, I, J, theta), pair), n
            assert np.array_equal(perturbed_loss_values(ds, model, kind, I, J, theta, tb), pert), n
        assert sum(rows) == 2 * n and max(rows) <= block


def _worker_case(case):
    """(dataset, model, loss) of one worker-count invariance case."""
    if case == "linear":
        ds = _small_regression(12, n=40)
        rng = np.random.default_rng(12)
        return ds, LinearModel(W=rng.normal(size=(2, 2)), b=rng.normal(size=2)), LossKind.SQUARED_ERROR
    ds = make_two_moons(50, 0.05, seed=3)
    model = init_rff(2, int(case), 3.0, 2, seed=4)
    model.w = np.random.default_rng(4).normal(size=model.w.shape)
    return ds, model, LossKind.CROSS_ENTROPY


@pytest.mark.parametrize("case, draw_block", [("80", None), ("1000", 4000), ("linear", None)])
def test_summands_and_estimates_do_not_depend_on_worker_count(case, draw_block, monkeypatch):
    """With 1, 2 or 3 pool workers both summands equal, bit for bit, the
    expressions over all draws at once (for the linear model a single
    ``x @ W.T + b`` over every draw), and both estimators return equal
    estimates, at draw counts around a block and across blocks."""
    if draw_block is not None:
        monkeypatch.setattr(mixup, "_BLOCK", draw_block)
    ds, model, kind = _worker_case(case)
    block = mixup._block_size(model)
    assert case != "linear" or block == mixup._NARROW_BLOCK
    tb = mix_coefficients(1.0).theta_bar
    mod = modify(ds, tb)
    X, Y = ds.inputs, ds.outputs
    rng = np.random.default_rng(5)
    for n in (block - 1, block, block + 1, 3 * block + 7):
        I, J = rng.integers(ds.n, size=n), rng.integers(ds.n, size=n)
        theta = np.maximum(rng.beta(1.0, 1.0, size=n), 0.5)
        t = theta[:, None]
        pair = loss_values(kind, t * Y[I] + (1.0 - t) * Y[J], model.predict(t * X[I] + (1.0 - t) * X[J]))
        delta = (t - tb) * X[I] + (1.0 - t) * X[J] - (1.0 - tb) * ds.x_mean
        eps = (t - tb) * Y[I] + (1.0 - t) * Y[J] - (1.0 - tb) * ds.y_mean
        pert = loss_values(kind, mod.outputs[I] + eps, model.predict(mod.inputs[I] + delta))
        estimates = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(mixup, "_WORKERS", workers)
            assert np.array_equal(pair_loss_values(ds, model, kind, I, J, theta), pair), (n, workers)
            assert np.array_equal(perturbed_loss_values(ds, model, kind, I, J, theta, tb), pert), (n, workers)
            estimates.append(tuple(
                estimator(ds, model, kind, 1.0, n, np.random.default_rng(n))
                for estimator in (mixup_risk_mc, perturbed_erm_risk_mc)
            ))
        assert estimates[0] == estimates[1] == estimates[2], n


@pytest.mark.parametrize("case", ["linear", "80"])
def test_estimates_equal_serial_draw_then_score(case, monkeypatch):
    """With 1, 2 or 3 workers, the estimators give the estimate of drawing
    each block from its own generator, scoring it and merging its moments,
    one block after the other, and leave the caller's generator one draw
    on: in one block, in several whole blocks and with a remainder, on both
    branches of the Beta sampler (alpha 0.7 and 1)."""
    ds, model, kind = _worker_case(case)
    block = mixup._block_size(model)
    for alpha, n in itertools.product((0.7, 1.0), (block - 1, 3 * block, 2 * block + 7)):
        for estimator in (mixup_risk_mc, perturbed_erm_risk_mc):
            serial_rng = np.random.default_rng(n)
            expected = _serial_estimate(estimator, ds, model, kind, alpha, n, serial_rng)
            assert expected.n_draws == n
            for workers in (1, 2, 3):
                monkeypatch.setattr(mixup, "_WORKERS", workers)
                rng = np.random.default_rng(n)
                assert estimator(ds, model, kind, alpha, n, rng) == expected, (alpha, n, workers)
                assert rng.bit_generator.state == serial_rng.bit_generator.state, (alpha, n, workers)


_BLAS_THREADS_SCRIPT = """
import numpy as np
from mixreg.data import Dataset, make_two_moons
from mixreg.losses import LossKind
from mixreg.mixup import _Moments, mixup_risk_mc, perturbed_erm_risk_mc
from mixreg.models import LinearModel, init_rff
acc = _Moments.of(np.random.default_rng(0).normal(size=1_000_000))
rng = np.random.default_rng(1)
ds = Dataset(rng.normal(size=(50, 3)), rng.normal(size=(50, 2)))
lin = LinearModel(W=rng.normal(size=(2, 3)), b=rng.normal(size=2))
est = mixup_risk_mc(ds, lin, LossKind.SQUARED_ERROR, 1.0, 1_000_000, np.random.default_rng(2))
moons = make_two_moons(50, 0.05, seed=3)
rff = init_rff(2, 80, 3.0, 2, seed=4)
rff.w = np.random.default_rng(4).normal(size=rff.w.shape)
rff_ests = [f(moons, rff, LossKind.CROSS_ENTROPY, 1.0, 100_000, np.random.default_rng(5))
            for f in (mixup_risk_mc, perturbed_erm_risk_mc)]
print(repr(acc.m2), repr(est.mean), repr(est.stderr), rff_ests)
"""


def test_standard_errors_do_not_depend_on_the_blas_thread_count():
    """One million values in one block, a linear squared-error estimate over
    a million draws and both 80-feature estimates over 100 000 give the same
    bits with one BLAS thread and with two."""
    import os
    import subprocess
    from pathlib import Path

    src = str(Path(mixup.__file__).resolve().parent.parent)
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        run = subprocess.run([sys.executable, "-c", _BLAS_THREADS_SCRIPT], env=env,
                             capture_output=True, text=True, check=True)
        outs.append(run.stdout)
    assert outs[0] == outs[1] != ""


def test_many_small_blocks_on_more_workers_than_cores(monkeypatch):
    """Hundreds of 16-draw blocks on more workers than cores, with the
    interpreter switching threads every microsecond, for two seconds of
    rounds: the summand fills every slice of its output exactly once and
    equals the one-shot expression, and both estimators and the per-draw
    identity's loop return what they return on one worker."""
    ds, model, kind = _worker_case("linear")
    rng = np.random.default_rng(13)
    n = 5000
    I, J, lam = rng.integers(ds.n, size=n), rng.integers(ds.n, size=n), rng.beta(1.0, 1.0, size=n)
    t = lam[:, None]
    expected = loss_values(kind, t * ds.outputs[I] + (1.0 - t) * ds.outputs[J],
                           model.predict(t * ds.inputs[I] + (1.0 - t) * ds.inputs[J]))
    monkeypatch.setattr(mixup, "_NARROW_BLOCK", 16)
    assert mixup._block_size(model) == 16
    tb = mix_coefficients(1.0).theta_bar

    def results():
        return (
            mixup_risk_mc(ds, model, kind, 1.0, n, np.random.default_rng(14)),
            perturbed_erm_risk_mc(ds, model, kind, 1.0, n, np.random.default_rng(15)),
            verification._perdraw_gap(ds, model, kind, 1.0, tb, np.random.default_rng(16), n),
        )

    monkeypatch.setattr(mixup, "_WORKERS", 1)
    one_worker = results()
    monkeypatch.setattr(mixup, "_WORKERS", 2 * mixup._usable_cpus() + 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline, rounds = time.monotonic() + 2.0, 0
        while rounds < 2 or time.monotonic() < deadline:
            assert np.array_equal(pair_loss_values(ds, model, kind, I, J, lam), expected)
            assert results() == one_worker, rounds
            rounds += 1
    finally:
        sys.setswitchinterval(interval)


def test_a_failing_block_raises_from_the_summand(monkeypatch):
    """An exception in one block is raised by the summand or estimator call
    itself, after which the pool serves the next call."""
    monkeypatch.setattr(mixup, "_WORKERS", 2)
    ds, model, kind = _worker_case("80")
    block = mixup._block_size(model)
    n = 3 * block + 7
    rng = np.random.default_rng(6)
    I, J, lam = rng.integers(ds.n, size=n), rng.integers(ds.n, size=n), rng.beta(1.0, 1.0, size=n)
    theta = np.maximum(lam, 1.0 - lam)
    tb = mix_coefficients(1.0).theta_bar
    error = FloatingPointError("one block failed")

    def predict(x, f=model.predict):
        if len(x) < block:
            raise error
        return f(x)

    calls = [
        lambda: pair_loss_values(ds, model, kind, I, J, lam),
        lambda: perturbed_loss_values(ds, model, kind, I, J, theta, tb),
        lambda: mixup_risk_mc(ds, model, kind, 1.0, n, np.random.default_rng(7)),
        lambda: perturbed_erm_risk_mc(ds, model, kind, 1.0, n, np.random.default_rng(7)),
    ]
    with monkeypatch.context() as patch:
        patch.setattr(model, "predict", predict)
        for call in calls:
            with pytest.raises(FloatingPointError) as info:
                call()
            assert info.value is error
    assert np.all(np.isfinite(pair_loss_values(ds, model, kind, I, J, lam)))
    assert np.isfinite(mixup_risk_mc(ds, model, kind, 1.0, n, np.random.default_rng(7)).mean)


@pytest.mark.parametrize(
    "I, J, weights",
    [([-1], [0], [0.5]), ([10], [0], [0.5]), ([0], [-1], [0.5]), ([0], [10], [0.5]),
     ([0, 1], [0], [0.5]), ([0], [0, 1], [0.5]), ([0, 1], [0, 1], [0.5]), ([0.0], [0], [0.5])],
)
def test_summands_reject_rows_outside_the_dataset_and_ragged_draws(I, J, weights):
    """A row index outside [0, n) (numpy would wrap -1 to n - 1), a float
    index, or index and weight arrays of different lengths raise ValueError
    before the model is called."""
    ds = _small_regression(7, n=10)
    calls = []

    class Recording(_ConstantModel):
        def predict(self, x):
            calls.append(len(x))
            return super().predict(x)

    model = Recording(np.zeros(2))
    kind = LossKind.SQUARED_ERROR
    I, J, weights = np.array(I), np.array(J), np.array(weights)
    with pytest.raises(ValueError):
        pair_loss_values(ds, model, kind, I, J, weights)
    with pytest.raises(ValueError):
        perturbed_loss_values(ds, model, kind, I, J, np.maximum(weights, 0.5), 0.75)
    assert calls == []


def test_perturbed_estimator_alpha_to_zero():
    ds = _small_regression(5)
    rng = np.random.default_rng(0)
    model = LinearModel(W=rng.normal(size=(2, 2)), b=rng.normal(size=2))
    est = perturbed_erm_risk_mc(ds, model, LossKind.SQUARED_ERROR, 0.01, 200_000, np.random.default_rng(6))
    erm = float(loss_values(LossKind.SQUARED_ERROR, ds.outputs, model.predict(ds.inputs)).mean())
    assert abs(est.mean - erm) < 3 * est.stderr + 0.02 * abs(erm)


def test_risk_invariant_under_row_permutation():
    """Same draws, relabelled rows: the sorted summands coincide."""
    ds = _small_regression(6)
    rng = np.random.default_rng(21)
    model = LinearModel(W=rng.normal(size=(2, 2)), b=rng.normal(size=2))
    perm = rng.permutation(ds.n)
    ds_perm = Dataset(ds.inputs[perm], ds.outputs[perm])
    inv = np.argsort(perm)
    I = rng.integers(ds.n, size=5000)
    J = rng.integers(ds.n, size=5000)
    lam = rng.beta(1.0, 1.0, size=5000)
    vals = pair_loss_values(ds, model, LossKind.SQUARED_ERROR, I, J, lam)
    vals_perm = pair_loss_values(ds_perm, model, LossKind.SQUARED_ERROR, inv[I], inv[J], lam)
    assert np.abs(np.sort(vals) - np.sort(vals_perm)).max() < 1e-12


def test_minibatch_rows_are_the_drawn_convex_combinations():
    """Replaying the draws from a copy of the generator, partners first and
    then one Beta(alpha, alpha) weight per row, gives every mixed row as
    lam z_i + (1 - lam) z_partner bit for bit, and leaves both generators at
    the same state."""
    rng = np.random.default_rng(8)
    X = rng.normal(size=(10, 2))
    Y = np.eye(2)[rng.integers(2, size=10)]
    replay = copy.deepcopy(rng)
    mx, my = mixup_minibatch(X, Y, 0.4, rng)
    partner = replay.integers(10, size=10)
    lam = replay.beta(0.4, 0.4, size=10)[:, None]
    for z, mixed in ((X, mx), (Y, my)):
        assert np.array_equal(mixed, lam * z + (1.0 - lam) * z[partner])
    assert not np.array_equal(mx, X)
    assert rng.random() == replay.random()


def test_minibatch_outputs_stay_on_simplex():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(32, 2))
    Y = np.eye(2)[rng.integers(2, size=32)]
    for _ in range(50):
        _, my = mixup_minibatch(X, Y, 0.4, rng)
        assert np.all(my >= -1e-12)
        assert np.allclose(my.sum(axis=1), 1.0, atol=1e-12)


def test_minibatch_mean_preserved_statistically():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(16, 3))
    Y = rng.normal(size=(16, 1))
    total = np.zeros(3)
    reps = 100_000
    for _ in range(reps):
        mx, _ = mixup_minibatch(X, Y, 1.0, rng)
        total += mx.mean(axis=0)
    mean_of_means = total / reps
    # each resampled mean concentrates around the batch mean
    assert np.abs(mean_of_means - X.mean(axis=0)).max() < 0.01


def test_estimator_input_validation():
    ds = _small_regression(7)
    model = _ConstantModel(np.zeros(2))
    with pytest.raises(ValueError):
        mixup_risk_mc(ds, model, LossKind.SQUARED_ERROR, -1.0, 10, np.random.default_rng(0))
    with pytest.raises(ValueError):
        mixup_risk_mc(ds, model, LossKind.SQUARED_ERROR, 1.0, 0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        mixup_minibatch(np.zeros((0, 2)), np.zeros((0, 2)), 1.0, np.random.default_rng(0))


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
@pytest.mark.parametrize("estimator", [mixup_risk_mc, perturbed_erm_risk_mc])
def test_estimators_reject_an_alpha_that_is_not_finite_and_positive(estimator, alpha):
    """Both estimators raise for a nan, infinite or non-positive alpha; the
    pairwise one used to return a nan estimate for nan and inf."""
    ds = _small_regression(7)
    with pytest.raises(ValueError, match="alpha"):
        estimator(ds, _ConstantModel(np.zeros(2)), LossKind.SQUARED_ERROR, alpha, 10, np.random.default_rng(0))


@pytest.mark.parametrize("n_draws", [2.7, 3.0, True, False, 0, -1, "3", None])
@pytest.mark.parametrize("estimator", [mixup_risk_mc, perturbed_erm_risk_mc])
def test_estimators_take_a_whole_number_of_draws(estimator, n_draws):
    """n_draws must be an integer of at least one and not a bool: 2.7 used
    to run 2 draws and True 1."""
    ds = _small_regression(7)
    with pytest.raises(ValueError, match="n_draws"):
        estimator(ds, _ConstantModel(np.zeros(2)), LossKind.SQUARED_ERROR, 1.0, n_draws, np.random.default_rng(0))


def test_block_sizes_follow_the_memory_of_one_phase_block():
    """Loops that form no phases (no model, a linear one) take 16 384-draw
    blocks, sixteen float64 arrays of which fit in one 2 MiB phase block;
    cosine-feature heads take whole row blocks of at most 4096 draws: 3276
    at 80 features, 3930 at 1000."""
    linear = LinearModel(W=np.zeros((2, 3)), b=np.zeros(2))
    assert mixup._block_size(None) == mixup._block_size(linear) == 16_384
    assert 16 * 8 * mixup._block_size(None) <= 8 * _PHASE_ELEMS
    for n_features, block in ((80, 3276), (1000, 3930)):
        model = init_rff(2, n_features, 3.0, 2, seed=0)
        assert mixup._block_size(model) == block <= mixup._BLOCK
        assert block % model.block_rows == 0


@pytest.mark.parametrize("estimator", [mixup_risk_mc, perturbed_erm_risk_mc])
def test_estimators_take_numpy_integer_draw_counts(estimator):
    ds = _small_regression(7)
    model, kind = _ConstantModel(np.zeros(2)), LossKind.SQUARED_ERROR
    est = estimator(ds, model, kind, 1.0, np.int64(10), np.random.default_rng(0))
    assert est == estimator(ds, model, kind, 1.0, 10, np.random.default_rng(0))
    assert type(est.n_draws) is int and est.n_draws == 10
