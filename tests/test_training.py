import tracemalloc

import numpy as np
import pytest
from scipy.special import expit

from conftest import central_grad
from mixreg import models
from mixreg.data import Dataset, make_two_moons, flip_labels, modify, train_test_split
from mixreg.losses import LossKind, grad_u_rows, loss_values, softmax_rows
from mixreg.metrics import Rescale, predict
from mixreg.models import LinearModel, RffModel, init_rff
from mixreg.regularizers import approx_mixup_objective, mols_fit
from mixreg.training import (
    TrainConfig,
    TrainingDiverged,
    _ApproxContext,
    _approx_value_grad,
    _fixed_features,
    _fixed_rows_predictor,
    approx_gradient,
    train,
)
from mixreg.truncbeta import mix_coefficients


def _moons_split(seed, n=80, noise=0.05, flip=0.1):
    full = make_two_moons(n, noise, seed)
    tr, te = train_test_split(full, 0.5, seed + 1)
    if flip:
        tr = flip_labels(tr, flip, seed + 2)
    return tr, te


def test_trace_shape_and_determinism():
    tr, te = _moons_split(0)
    cfg = TrainConfig(method="mixup", alpha=1.0, epochs=15, batch_size=20,
                      step_size=2.0, seed=3, model="rff", rff_features=50, rff_scale=3.0)
    m1, t1 = train(tr, te, cfg)
    m2, t2 = train(tr, te, cfg)
    assert len(t1) == 15
    assert t1.objective == t2.objective
    assert t1.test_acc == t2.test_acc
    assert np.array_equal(m1.w, m2.w)


def test_erm_linear_se_converges_to_ols():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(12, 2))
    W_true = rng.normal(size=(2, 2))
    Y = X @ W_true.T + rng.normal(size=2) + 0.05 * rng.normal(size=(12, 2))
    ds = Dataset(X, Y)
    cfg = TrainConfig(method="erm", epochs=10_000, batch_size=12, step_size=0.1,
                      seed=0, loss=LossKind.SQUARED_ERROR, model="linear")
    model, trace = train(ds, ds, cfg)
    ols = mols_fit(ds)
    dist = np.sqrt(((model.W - ols.W) ** 2).sum() + ((model.b - ols.b) ** 2).sum())
    assert dist < 1e-4


def test_same_optimum_from_two_shuffling_seeds():
    """Interpolating least squares: constant-step SGD reaches the optimum."""
    rng = np.random.default_rng(2)
    X = rng.normal(size=(16, 2))
    W_true = rng.normal(size=(1, 2))
    Y = X @ W_true.T + 0.7
    ds = Dataset(X, Y)
    objs = []
    for seed in (5, 6):
        cfg = TrainConfig(method="erm", epochs=4000, batch_size=8, step_size=0.1,
                          seed=seed, loss=LossKind.SQUARED_ERROR, model="linear")
        _, trace = train(ds, ds, cfg)
        objs.append(trace.objective[-1])
    assert abs(objs[0] - objs[1]) < 1e-6


def test_same_optimum_rff_head_two_shuffling_seeds():
    """Realizable targets in the feature span: same story for the RFF head.

    Shuffling only reorders minibatches; with interpolation the optimum is
    reached from either ordering. The feature model is shared because the
    trainer seeds its frequencies from the shuffling seed.
    """
    rng = np.random.default_rng(3)
    X = rng.normal(size=(20, 2))
    probe = init_rff(2, 30, 2.0, 1, seed=99)
    w_true = rng.normal(size=probe.w.shape)
    Y = probe.features(X) @ w_true.T
    ds = Dataset(X, Y)
    objs = []
    for seed in (7, 8):
        r = np.random.default_rng(seed)
        model = RffModel(probe.S, probe.B, np.zeros_like(probe.w))
        phi = model.features(X)
        for _ in range(6000):
            order = r.permutation(20)
            for k in range(0, 20, 10):
                idx = order[k:k + 10]
                U = phi[idx] @ model.w.T
                model.w = model.w - 0.5 * (U - Y[idx]).T @ phi[idx] / 10
        U = phi @ model.w.T
        objs.append(0.5 * float(((U - Y) ** 2).sum()) / 20)
    assert abs(objs[0] - objs[1]) < 1e-6


def test_mixup_alpha_to_zero_behaves_like_erm():
    accs_erm, accs_mix = [], []
    for seed in range(5):
        tr, te = _moons_split(seed * 10, n=80, noise=0.05, flip=0.0)
        base = dict(epochs=120, batch_size=20, step_size=2.0, seed=seed,
                    model="rff", rff_features=100, rff_scale=3.0)
        _, t_erm = train(tr, te, TrainConfig(method="erm", **base))
        _, t_mix = train(tr, te, TrainConfig(method="mixup", alpha=0.01, **base))
        accs_erm.append(t_erm.train_acc[-1])
        accs_mix.append(t_mix.train_acc[-1])
    assert max(abs(a - b) for a, b in zip(accs_erm, accs_mix)) <= 0.02


def test_approx_gradient_rff_ce_matches_finite_differences():
    tr, _ = _moons_split(3, n=20)
    model = init_rff(2, 25, 2.0, 2, seed=4)
    model.w = 0.4 * np.random.default_rng(4).normal(size=model.w.shape)
    coeffs = mix_coefficients(1.0)
    value, grad = approx_gradient(tr, model, LossKind.CROSS_ENTROPY, coeffs, drop_r2=True)
    assert value == pytest.approx(
        approx_mixup_objective(tr, model, LossKind.CROSS_ENTROPY, coeffs, drop_r2=True),
        abs=1e-10,
    )

    def f(wflat):
        probe = RffModel(model.S, model.B, wflat.reshape(model.w.shape))
        return approx_mixup_objective(tr, probe, LossKind.CROSS_ENTROPY, coeffs, drop_r2=True)

    fd = central_grad(f, model.w.ravel(), h=1e-6).reshape(model.w.shape)
    denom = max(np.abs(fd).max(), 1e-8)
    assert np.abs(grad - fd).max() / denom < 1e-4


def test_approx_gradient_rff_ce_with_r2():
    tr, _ = _moons_split(5, n=16)
    model = init_rff(2, 20, 2.0, 2, seed=6)
    model.w = 0.4 * np.random.default_rng(6).normal(size=model.w.shape)
    coeffs = mix_coefficients(0.8)
    value, grad = approx_gradient(tr, model, LossKind.CROSS_ENTROPY, coeffs, drop_r2=False)
    assert value == pytest.approx(
        approx_mixup_objective(tr, model, LossKind.CROSS_ENTROPY, coeffs, drop_r2=False),
        abs=1e-10,
    )

    def f(wflat):
        probe = RffModel(model.S, model.B, wflat.reshape(model.w.shape))
        return approx_mixup_objective(tr, probe, LossKind.CROSS_ENTROPY, coeffs, drop_r2=False)

    fd = central_grad(f, model.w.ravel(), h=1e-6).reshape(model.w.shape)
    assert np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-8) < 1e-4


@pytest.mark.parametrize("drop_r2", [True, False])
@pytest.mark.parametrize("kind", [LossKind.LOGISTIC, LossKind.SQUARED_ERROR])
def test_approx_gradient_rff_lr_se_match_finite_differences(kind, drop_r2):
    """The logistic (one target column) and squared-error branches, with the
    Hessian term trained or dropped."""
    tr, _ = _moons_split(24, n=16)
    if kind is LossKind.LOGISTIC:
        tr = Dataset(tr.inputs, tr.outputs[:, 1:])
    model = init_rff(2, 20, 2.0, tr.c, seed=25)
    model.w = 0.4 * np.random.default_rng(25).normal(size=model.w.shape)
    coeffs = mix_coefficients(0.8)
    value, grad = approx_gradient(tr, model, kind, coeffs, drop_r2=drop_r2)
    assert value == pytest.approx(
        approx_mixup_objective(tr, model, kind, coeffs, drop_r2=drop_r2), abs=1e-10
    )

    def f(wflat):
        probe = RffModel(model.S, model.B, wflat.reshape(model.w.shape))
        return approx_mixup_objective(tr, probe, kind, coeffs, drop_r2=drop_r2)

    fd = central_grad(f, model.w.ravel(), h=1e-6).reshape(model.w.shape)
    assert np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-8) < 1e-4


def test_approx_gradient_zero_head_finite():
    tr, _ = _moons_split(7, n=16)
    model = init_rff(2, 20, 2.0, 2, seed=8)
    coeffs = mix_coefficients(1.0)
    value, grad = approx_gradient(tr, model, LossKind.CROSS_ENTROPY, coeffs)
    assert np.isfinite(value)
    assert np.all(np.isfinite(grad))


def test_approx_gradient_linear_se_analytic_accuracy():
    rng = np.random.default_rng(9)
    ds = Dataset(rng.normal(size=(10, 2)), rng.normal(size=(10, 2)))
    model = LinearModel(W=rng.normal(size=(2, 2)), b=rng.normal(size=2))
    coeffs = mix_coefficients(1.0)
    value, (gW, gb) = approx_gradient(ds, model, LossKind.SQUARED_ERROR, coeffs, drop_r2=True)

    def f(packed):
        probe = LinearModel(packed[:4].reshape(2, 2), packed[4:])
        return approx_mixup_objective(ds, probe, LossKind.SQUARED_ERROR, coeffs, drop_r2=True)

    packed = np.concatenate([model.W.ravel(), model.b])
    fd = central_grad(f, packed, h=1e-6)
    assert np.abs(np.concatenate([gW.ravel(), gb]) - fd).max() < 1e-8


def test_approx_gradient_alpha_zero_equals_erm_gradient():
    rng = np.random.default_rng(10)
    ds = Dataset(rng.normal(size=(12, 2)), rng.normal(size=(12, 2)))
    model = LinearModel(W=rng.normal(size=(2, 2)), b=rng.normal(size=2))
    tiny = mix_coefficients(1e-10)
    _, (gW, gb) = approx_gradient(ds, model, LossKind.SQUARED_ERROR, tiny)
    resid = model.predict(ds.inputs) - ds.outputs
    gW_erm = resid.T @ ds.inputs / ds.n
    gb_erm = resid.mean(axis=0)
    assert np.abs(gW - gW_erm).max() < 1e-6
    assert np.abs(gb - gb_erm).max() < 1e-6


def test_batch_restriction_averages_to_full_gradient():
    tr, _ = _moons_split(11, n=20)
    model = init_rff(2, 25, 2.0, 2, seed=12)
    model.w = 0.3 * np.random.default_rng(12).normal(size=model.w.shape)
    coeffs = mix_coefficients(1.0)
    _, full = approx_gradient(tr, model, LossKind.CROSS_ENTROPY, coeffs)
    half = tr.n // 2
    _, first = approx_gradient(tr, model, LossKind.CROSS_ENTROPY, coeffs, indices=np.arange(half))
    _, second = approx_gradient(
        tr, model, LossKind.CROSS_ENTROPY, coeffs, indices=np.arange(half, tr.n)
    )
    assert np.abs(0.5 * (first + second) - full).max() < 1e-12


@pytest.mark.parametrize("indices", [[], np.array([], dtype=int)])
def test_approx_gradient_rejects_an_empty_batch(indices):
    tr, _ = _moons_split(11, n=20)
    model = init_rff(2, 25, 2.0, 2, seed=12)
    with pytest.raises(ValueError, match="non-empty"):
        approx_gradient(tr, model, LossKind.CROSS_ENTROPY, mix_coefficients(1.0),
                        indices=indices)


@pytest.mark.parametrize("bad", [-1, 10])
def test_approx_gradient_rejects_rows_outside_the_dataset(bad):
    """-1 must not wrap to the last row; n is one past the end."""
    tr, _ = _moons_split(11, n=20)
    assert tr.n == 10
    model = init_rff(2, 25, 2.0, 2, seed=12)
    with pytest.raises(ValueError, match=r"\[0, 10\)"):
        approx_gradient(tr, model, LossKind.CROSS_ENTROPY, mix_coefficients(1.0),
                        indices=[0, 3, bad])


def _einsum_step(ctx, model, kind, idx, drop_r2):
    """The regularized step in its earlier per-row einsum form, kept as an
    independent reference for the gemm-shaped step of ``training``."""
    Yb = ctx.Yt[idx]
    A = ctx.A_all[idx]
    Syx = ctx.Syx_all[idx]
    nb = len(idx)
    is_rff = isinstance(model, RffModel)
    if is_rff:
        Phib = ctx.phit[idx]
        sinb = ctx.sint[idx]
        U = Phib @ model.w.T
        root_m = np.sqrt(model.n_features)
        G = ((sinb[:, None, :] * model.w) @ model.S) / (-root_m)
    else:
        Xb = ctx.Xt[idx]
        U = Xb @ model.W.T + model.b
        G = np.broadcast_to(model.W, (nb,) + model.W.shape)

    erm_vals = loss_values(kind, Yb, U)
    gu = grad_u_rows(kind, Yb, U)
    Q = np.einsum("bad,bde,bfe->baf", G, A, G)
    term5 = -np.einsum("bad,bad->b", Syx, G)
    dLdu_reg = np.zeros_like(U)
    if kind is LossKind.CROSS_ENTROPY:
        P = softmax_rows(U)
        diag_q = np.einsum("baa->ba", Q)
        qp = np.einsum("baf,bf->ba", Q, P)
        term2 = 0.5 * ((P * diag_q).sum(axis=1) - np.einsum("ba,baf,bf->b", P, Q, P))
        vec = diag_q - 2.0 * qp
        dLdu_reg += 0.5 * (P * vec - P * (P * vec).sum(axis=1, keepdims=True))
        hg = np.einsum("ba,bad->bad", P, G) - np.einsum("ba,bf,bfd->bad", P, P, G)
        term4 = np.zeros(nb)
    elif kind is LossKind.LOGISTIC:
        s = expit(U)
        v = s * (1.0 - s)
        q00 = Q[:, 0, 0]
        term2 = 0.5 * v[:, 0] * q00
        dLdu_reg += 0.5 * (v * (1.0 - 2.0 * s)) * q00[:, None]
        hg = v[:, :, None] * G
        term4 = np.zeros(nb)
    else:
        term2 = 0.5 * np.einsum("baa->b", Q)
        hg = G
        term4 = 0.5 * ctx.syy_trace[idx]
    dLdG = np.einsum("bad,bde->bae", hg, A) - Syx

    values = erm_vals + term2 + term5 + term4
    if not drop_r2 and is_rff:
        q_r2 = -Phib * ctx.sas[idx]
        t2 = np.einsum("am,bm->ba", model.w, q_r2)
        values = values + 0.5 * (gu * t2).sum(axis=1)
        if kind is LossKind.CROSS_ENTROPY:
            P = softmax_rows(U)
            dLdu_reg += 0.5 * (P * t2 - P * (P * t2).sum(axis=1, keepdims=True))
        elif kind is LossKind.LOGISTIC:
            s = expit(U)
            dLdu_reg += 0.5 * (s * (1.0 - s)) * t2
        else:
            dLdu_reg += 0.5 * t2

    dLdu = gu + dLdu_reg
    if is_rff:
        gw = dLdu.T @ Phib
        gw += np.einsum("bam,bm->am", dLdG @ model.S.T, sinb) / (-root_m)
        if not drop_r2:
            gw += 0.5 * np.einsum("ba,bm->am", gu, q_r2)
        return float(values.mean()), gw / nb
    gW = dLdu.T @ ctx.Xt[idx] + dLdG.sum(axis=0)
    gb = dLdu.sum(axis=0)
    return float(values.mean()), (gW / nb, gb / nb)


@pytest.mark.parametrize("drop_r2", [True, False])
@pytest.mark.parametrize("model_kind", ["rff", "linear"])
@pytest.mark.parametrize(
    "kind", [LossKind.CROSS_ENTROPY, LossKind.LOGISTIC, LossKind.SQUARED_ERROR]
)
def test_approx_gradient_equals_the_einsum_reference(kind, model_kind, drop_r2):
    """Value and gradient agree with the per-row einsum form to 1e-13
    relative, on a 12-row batch of a 30-row set."""
    tr, _ = _moons_split(26, n=60)
    if kind is LossKind.LOGISTIC:
        tr = Dataset(tr.inputs, tr.outputs[:, 1:])
    rng = np.random.default_rng(26)
    if model_kind == "rff":
        model = init_rff(2, 40, 3.0, tr.c, seed=26)
        model.w = rng.normal(size=model.w.shape)
    else:
        model = LinearModel(W=rng.normal(size=(tr.c, 2)), b=rng.normal(size=tr.c))
    coeffs = mix_coefficients(0.7)
    idx = rng.permutation(tr.n)[:12]
    value, grad = approx_gradient(tr, model, kind, coeffs, indices=idx, drop_r2=drop_r2)
    fit = modify(tr, coeffs.theta_bar)
    ctx = _ApproxContext(tr, fit, _fixed_features(model, fit.inputs), coeffs, model, drop_r2)
    ref_value, ref_grad = _einsum_step(ctx, model, kind, idx, drop_r2)
    assert abs(value - ref_value) <= 1e-13 * abs(ref_value)
    if model_kind == "rff":
        grad, ref_grad = (grad,), (ref_grad,)
    for got, ref in zip(grad, ref_grad, strict=True):
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("drop_r2", [True, False])
def test_hessian_table_is_built_only_for_the_hessian_term(drop_r2):
    tr, _ = _moons_split(27, n=20)
    model = init_rff(2, 25, 2.0, 2, seed=27)
    coeffs = mix_coefficients(1.0)
    fit = modify(tr, coeffs.theta_bar)
    ctx = _ApproxContext(tr, fit, _fixed_features(model, fit.inputs), coeffs, model, drop_r2)
    assert (ctx.sas is None) == drop_r2


def test_default_shape_step_memory():
    """One step at the protocol's shape (batch 50 of 150 rows, M = 1000,
    c = d = 2, Hessian term dropped) peaks under 1000 KB; the two gathered
    (50, 1000) feature blocks alone are 800 KB."""
    tr = make_two_moons(150, 0.01, 28)
    model = init_rff(2, 1000, 10.0, 2, seed=28)
    model.w = 0.1 * np.random.default_rng(28).normal(size=model.w.shape)
    coeffs = mix_coefficients(1.0)
    fit = modify(tr, coeffs.theta_bar)
    ctx = _ApproxContext(tr, fit, _fixed_features(model, fit.inputs), coeffs, model, True)
    idx = np.random.default_rng(29).permutation(tr.n)[:50]
    tracemalloc.start()
    try:
        _approx_value_grad(ctx, model, LossKind.CROSS_ENTROPY, idx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1000 * 1024


@pytest.mark.filterwarnings("ignore:overflow")
def test_training_diverges_raises():
    rng = np.random.default_rng(13)
    ds = Dataset(rng.normal(size=(10, 2)), rng.normal(size=(10, 2)))
    cfg = TrainConfig(method="erm", epochs=50, batch_size=10, step_size=1e4,
                      seed=0, loss=LossKind.SQUARED_ERROR, model="linear")
    with pytest.raises(TrainingDiverged):
        train(ds, ds, cfg)


def test_natural_predictions_rescaling():
    tr, te = _moons_split(14, n=20)
    base = dict(epochs=2, batch_size=10, step_size=2.0, seed=15, model="rff",
                rff_features=25, rff_scale=3.0)
    _, erm_trace = train(tr, te, TrainConfig(method="erm", **base))
    assert erm_trace.rescale is None
    model, trace = train(tr, te, TrainConfig(method="mixup", alpha=1.0, **base))
    assert np.array_equal(predict(model, te.inputs, None), model.predict(te.inputs))
    tb = mix_coefficients(1.0).theta_bar
    rescale = trace.rescale
    assert np.array_equal(rescale.xbar, tr.x_mean) and np.array_equal(rescale.ybar, tr.y_mean)
    assert rescale.theta_bar == tb
    resc = predict(model, te.inputs, rescale)
    shrunk = tb * te.inputs + (1 - tb) * tr.x_mean
    expected = tr.y_mean * (1 - 1 / tb) + model.predict(shrunk) / tb
    assert np.allclose(resc, expected, atol=1e-12)
    assert trace.test_acc[-1] == np.mean(resc.argmax(axis=1) == te.labels())


def _assert_trace_is_predict(method, model_kind, rff_features):
    tr, te = _moons_split(21, n=40)
    cfg = TrainConfig(method=method, alpha=0.7, epochs=3, batch_size=10, step_size=2.0,
                      seed=4, model=model_kind, rff_features=rff_features, rff_scale=3.0)
    model, trace = train(tr, te, cfg)
    train_out = predict(model, tr.inputs, trace.rescale)
    test_out = predict(model, te.inputs, trace.rescale)
    assert trace.train_acc[-1] == float(np.mean(train_out.argmax(1) == tr.labels()))
    assert trace.test_acc[-1] == float(np.mean(test_out.argmax(1) == te.labels()))
    assert trace.test_loss[-1] == float(loss_values(cfg.loss, te.outputs, test_out).mean())


@pytest.mark.parametrize("model_kind", ["rff", "linear"])
@pytest.mark.parametrize("method", ["erm", "erm_modified", "mixup", "mixup_approx"])
def test_trace_equals_the_predictor_on_the_final_model(method, model_kind):
    """The trace's cached features cannot drift from ``metrics.predict``."""
    _assert_trace_is_predict(method, model_kind, 30)


@pytest.mark.parametrize("method", ["erm", "erm_modified", "mixup", "mixup_approx"])
def test_trace_equals_the_predictor_across_row_blocks(method, monkeypatch):
    """The same with 20-row train and test sets split into blocks of 7 rows."""
    monkeypatch.setattr(models, "_PHASE_ELEMS", 7 * 64)
    _assert_trace_is_predict(method, "rff", 64)


@pytest.mark.parametrize("phase_elems", [None, 7 * 64])
@pytest.mark.parametrize("rescaled", [False, True])
def test_fixed_rows_predictor_is_predict(rescaled, phase_elems, monkeypatch):
    """The trace's head on cached feature blocks gives ``metrics.predict``'s
    array exactly, with 40 rows in one block or in blocks of 7."""
    if phase_elems is not None:
        monkeypatch.setattr(models, "_PHASE_ELEMS", phase_elems)
    tr, te = _moons_split(23, n=80)
    model = init_rff(2, 64, 3.0, 2, seed=6)
    model.w = np.random.default_rng(6).normal(size=model.w.shape)
    rescale = Rescale(tr.x_mean, tr.y_mean, 0.8) if rescaled else None
    cached = _fixed_rows_predictor(model, te.inputs, rescale)
    assert np.array_equal(cached(), predict(model, te.inputs, rescale))
    model.w = 2.0 * model.w
    assert np.array_equal(cached(), predict(model, te.inputs, rescale))


@pytest.mark.parametrize("method", ["erm", "erm_modified", "mixup_approx"])
def test_fixed_rows_are_featurized_once_per_run(method, monkeypatch):
    """Only mixed rows change between epochs; no other featurization may
    grow with the epoch count, and the fitted rows are featurized once for
    the objective and the trace together, as many calls as plain fitting."""
    calls = []
    features = RffModel.features

    def counted(self, x):
        calls.append(np.shape(x))
        return features(self, x)

    monkeypatch.setattr(RffModel, "features", counted)
    tr, te = _moons_split(22, n=40)
    counts = {}
    for name, epochs in ((method, 2), (method, 6), ("erm", 2)):
        calls.clear()
        train(tr, te, TrainConfig(method=name, alpha=1.0, epochs=epochs, batch_size=10,
                                  step_size=2.0, seed=5, model="rff", rff_features=20))
        counts[name, epochs] = len(calls)
    assert counts[method, 2] == counts[method, 6] == counts["erm", 2] > 0


def test_all_methods_run_and_write_csv(tmp_path):
    tr, te = _moons_split(16, n=40)
    for method in ("erm", "erm_modified", "mixup", "mixup_approx"):
        cfg = TrainConfig(method=method, alpha=1.0, epochs=5, batch_size=20,
                          step_size=2.0, seed=1, model="rff", rff_features=40,
                          rff_scale=3.0)
        model, trace = train(tr, te, cfg)
        path = tmp_path / f"{method}.csv"
        trace.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,objective,train_acc,test_acc,test_loss"
        assert len(lines) == 6


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(method="nope")
    with pytest.raises(ValueError):
        TrainConfig(method="mixup", alpha=0.0)
    with pytest.raises(ValueError):
        TrainConfig(method="erm", epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(method="erm", model="mlp")
    for bad in ({"epochs": 1.5}, {"batch_size": 50.0}, {"rff_features": 0},
                {"rff_features": True}, {"seed": -1}, {"seed": 0.0}, {"rff_scale": -1.0},
                {"rff_scale": float("nan")}, {"step_size": float("inf")}, {"alpha": 0.0},
                {"alpha": "1.0"}, {"drop_r2": "false"}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            TrainConfig(method="erm", **bad)
    TrainConfig(method="erm", epochs=np.int64(3), seed=np.int64(0), step_size=1, alpha=np.float64(0.5))
    tr, te = _moons_split(17, n=20)
    with pytest.raises(ValueError):
        train(tr, te, TrainConfig(method="erm", batch_size=999))


def test_logistic_loss_needs_one_target_column():
    tr, te = _moons_split(18, n=20)
    cfg = TrainConfig(method="erm", epochs=1, batch_size=10, loss=LossKind.LOGISTIC,
                      model="rff", rff_features=10)
    with pytest.raises(ValueError, match="one target column"):
        train(tr, te, cfg)
    tr1, te1 = (Dataset(ds.inputs, ds.outputs[:, 1:]) for ds in (tr, te))
    _, trace = train(tr1, te1, cfg)
    assert len(trace) == 1


def test_cross_entropy_needs_simplex_targets():
    rng = np.random.default_rng(19)
    ds = Dataset(rng.normal(size=(10, 2)), rng.normal(size=(10, 2)))
    cfg = TrainConfig(method="erm", epochs=1, batch_size=10, model="linear")
    with pytest.raises(ValueError, match="simplex"):
        train(ds, ds, cfg)


def test_batch_size_must_divide_training_set():
    tr, te = _moons_split(20, n=30)
    assert tr.n == 15
    cfg = TrainConfig(method="erm", epochs=1, batch_size=10, model="rff", rff_features=10)
    with pytest.raises(ValueError, match="does not divide"):
        train(tr, te, cfg)


@pytest.mark.filterwarnings("error")
def test_logistic_approx_gradient_is_overflow_safe():
    """Logits of +-800 give finite values and gradients and no warning."""
    M = 4
    ds = Dataset(np.zeros((2, 2)), np.array([[0.0], [1.0]]))
    for u in (-800.0, 800.0):
        # S = 0 and B = 0 make every feature 1/sqrt(M), so every logit is u
        model = RffModel(S=np.zeros((M, 2)), B=np.zeros(M), w=np.full((1, M), u / np.sqrt(M)))
        value, grad = approx_gradient(ds, model, LossKind.LOGISTIC, mix_coefficients(1.0),
                                      drop_r2=False)
        assert np.isfinite(value) and np.all(np.isfinite(grad))
