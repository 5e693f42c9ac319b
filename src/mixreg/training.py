"""Minibatch SGD under four objectives: plain fitting, pairwise mixing,
fitting on mean-shrunk rows, and the closed-form regularized objective.

The regularized method trains the uncompleted form of the penalties,

    l(y~_i, u_i) + 1/2 <Cov_i, G_i^T h_uu G_i> - <Cov_i^{yx}, G_i>
                 + 1/2 <Cov_i^{yy}, h_yy>   [+ Hessian term unless dropped]

whose value equals the completed R1 + R3 + R4 decomposition while avoiding
matrix square roots inside the loop; all parameter gradients are analytic.
The per-example covariances come stacked from
:func:`regularizers.perturbation_covariances`, once per training run.
``_add_penalty`` holds the penalty expression once; ``_penalty_sum`` applies
it to every row at a trained model, for the sums the two-moons protocol
reports, and stays finite where the completed form's inverted curvature
does not.

For a cosine-feature model every M-wide contraction of a step on nb rows is
a plain 2-D gemm. The rows' input Jacobians are one (nb, M) x (M, c d)
product, ``sin_b @ WS`` with ``WS[m, (a, j)] = w_am S_mj`` rebuilt each step
(w moves), reshaped to (nb, c, d). The sine part of the head gradient is the
(M, nb) x (nb, c d) product ``sin_b^T @ dL/dG`` contracted with S over j.
Everything else works on (nb, c, d) and (nb, c, c) stacks, so no
(nb, c, M) array is formed.

The methods that fit mean-shrunk rows are scored with the rescaled
predictor; :func:`train` builds its statistics once per run and returns them
as ``trace.rescale`` (None for plain fitting, which predicts raw).

A run fits the training rows (plain fitting) or their mean-shrunk form,
:func:`data.modify`, which is the shrink step of ``trace.rescale`` bit for
bit. A cosine-feature model featurizes those rows and the test rows once per
run; the fitted rows' features serve the objective and the per-epoch trace,
whose columns equal those of :func:`metrics.predict` bit for bit. Mixed rows
change every step and are featurized as they come.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from .data import Dataset, modify, write_csv
from .losses import LossKind, grad_u_rows, hess_uu_rows, loss_values, sigmoid, softmax_rows
from .metrics import Rescale, predict
from .models import LinearModel, RffModel, init_rff
from .mixup import mixup_minibatch
from .regularizers import perturbation_covariances
from .truncbeta import MixCoefficients, mix_coefficients

__all__ = [
    "TrainConfig",
    "TrainTrace",
    "TrainingDiverged",
    "train",
    "approx_gradient",
]

METHODS = ("erm", "mixup", "erm_modified", "mixup_approx")
MODELS = ("linear", "rff")


class TrainingDiverged(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    """One training run. The defaults of the fields that
    :class:`experiment.ExperimentSpec` shares are the two-moons protocol's.
    ValueError unless epochs, batch_size and rff_features are integers >= 1,
    seed an integer >= 0, alpha, step_size and rff_scale finite positive
    numbers (bools are not numbers here), and drop_r2 a bool."""

    method: str = "erm"
    alpha: float = 1.0
    epochs: int = 200
    batch_size: int = 50
    step_size: float = 5.0
    seed: int = 0
    drop_r2: bool = True
    loss: LossKind = LossKind.CROSS_ENTROPY
    model: str = "rff"
    rff_features: int = 1000
    rff_scale: float = 10.0

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        for name, low in (("epochs", 1), ("batch_size", 1), ("rff_features", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        for name in ("alpha", "step_size", "rff_scale"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real) or not 0 < value < np.inf:
                raise ValueError(f"{name} must be a finite positive number, got {value!r}")
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")
        if not isinstance(self.drop_r2, bool):
            raise ValueError(f"drop_r2 must be true or false, got {self.drop_r2!r}")


@dataclass
class TrainTrace:
    """Per-epoch rows: training objective, train/test accuracy, test loss.

    ``rescale`` holds the run's rescaling statistics, or None when the method
    predicts raw.
    """

    rescale: Rescale | None = None
    epochs: list = field(default_factory=list)
    objective: list = field(default_factory=list)
    train_acc: list = field(default_factory=list)
    test_acc: list = field(default_factory=list)
    test_loss: list = field(default_factory=list)

    def append(self, epoch, objective, train_acc, test_acc, test_loss) -> None:
        self.epochs.append(int(epoch))
        self.objective.append(float(objective))
        self.train_acc.append(float(train_acc))
        self.test_acc.append(float(test_acc))
        self.test_loss.append(float(test_loss))

    def __len__(self) -> int:
        return len(self.epochs)

    def write_csv(self, path) -> None:
        write_csv(path, ("epoch", "objective", "train_acc", "test_acc", "test_loss"),
                  zip(self.epochs, self.objective, self.train_acc, self.test_acc, self.test_loss))


def _accuracy(outputs: np.ndarray, targets: np.ndarray, threshold: float) -> float:
    if outputs.shape[1] == 1:
        pred = (outputs[:, 0] > threshold).astype(int)
        return float((pred == (targets[:, 0] > 0.5)).mean())
    return float((outputs.argmax(axis=1) == targets.argmax(axis=1)).mean())


def _fixed_features(model, rows: np.ndarray):
    """Features of fixed rows made in the row blocks of ``RffModel.predict``,
    so ``head`` on their row blocks is ``predict``; None for a linear model."""
    if not isinstance(model, RffModel):
        return None
    return np.concatenate([model.features(xb) for xb in model.row_blocks(rows)])


class _ApproxContext:
    """Per-dataset precomputation for the regularized objective on the rows
    ``fit = modify(ds, theta_bar)`` with features ``phit``.

    ``sas`` is built only for a cosine-feature model that trains the Hessian
    term (``drop_r2`` false), the one term that reads it.
    """

    def __init__(
        self, ds: Dataset, fit: Dataset, phit, coeffs: MixCoefficients, model, drop_r2: bool
    ):
        cov = perturbation_covariances(ds, coeffs)
        self.Xt = fit.inputs
        self.Yt = fit.outputs
        self.A_all = cov.sxx
        self.Syx_all = np.ascontiguousarray(cov.sxy.transpose(0, 2, 1))
        self.syy_trace = np.einsum("bcc->b", cov.syy)
        self.phit = phit
        self.sint = self.St = self.sas = None
        if isinstance(model, RffModel):
            self.sint = model.sin_features(self.Xt)
            self.St = np.ascontiguousarray(model.S.T)
            if not drop_r2:
                # S_m Cov_i S_m^T for every (i, m)
                self.sas = np.einsum("mj,bjk,mk->bm", model.S, self.A_all, model.S)


def _fit_jacobians(ctx: _ApproxContext, model, idx):
    """Predictions U (nb, c) at the fitted rows ``idx`` and their input
    Jacobians G (nb, c, d), with the rows' features and sines for a
    cosine-feature model (None for a linear one)."""
    if not isinstance(model, RffModel):
        U = ctx.Xt[idx] @ model.W.T + model.b
        return U, np.broadcast_to(model.W, U.shape + model.W.shape[1:]), None, None
    Phib = ctx.phit[idx]
    sinb = ctx.sint[idx]
    U = Phib @ model.w.T
    (nb, c), d = U.shape, model.in_dim
    # WS[m, (a, j)] = w_am S_mj, so one gemm gives every row's Jacobian;
    # built as its transpose, whose rows are M long
    WS = (model.w[:, None, :] * ctx.St).reshape(c * d, -1).T
    G = (sinb @ WS).reshape(nb, c, d) / (-np.sqrt(model.n_features))
    return U, G, Phib, sinb


def _add_penalty(values, kind: LossKind, A, Syx, syy_trace, G, H):
    """``values`` plus each row's uncompleted penalty without the Hessian
    term, 1/2 <H, G A G^T> - <Cov^{yx}, G> + 1/2 <Cov^{yy}, h_yy> (h_yy is
    the identity for squared error and zero otherwise); also returns G A
    and Q = G A G^T, which the gradient reuses."""
    GA = G @ A
    Q = GA @ G.transpose(0, 2, 1)
    values = values - (Syx * G).sum(axis=(1, 2))
    if kind is LossKind.SQUARED_ERROR:
        values = values + 0.5 * syy_trace
    return values + 0.5 * (H * Q).sum(axis=(1, 2)), GA, Q


def _approx_value_grad(ctx: _ApproxContext, model, kind: LossKind, idx):
    """Objective value and parameter gradient of the batch-restricted terms,
    with the Hessian term when the context holds ``sas``.

    ``H`` is the loss Hessian in u per row (:func:`losses.hess_uu_rows`). The
    penalty's u-Hessian term is 1/2 <H, G A G^T>, and its gradient in G is
    H G A - Cov^{yx}.
    """
    Yb = ctx.Yt[idx]
    Syx = ctx.Syx_all[idx]
    nb, c, d = Syx.shape
    U, G, Phib, sinb = _fit_jacobians(ctx, model, idx)

    gu = grad_u_rows(kind, Yb, U)
    H = hess_uu_rows(kind, U)
    values, GA, Q = _add_penalty(
        loss_values(kind, Yb, U), kind, ctx.A_all[idx], Syx, ctx.syy_trace[idx], G, H
    )
    if kind is LossKind.CROSS_ENTROPY:
        P = softmax_rows(U)
        vec = np.diagonal(Q, axis1=1, axis2=2) - 2.0 * (Q @ P[:, :, None])[:, :, 0]
        dLdu = gu + 0.5 * (H @ vec[:, :, None])[:, :, 0]
    elif kind is LossKind.LOGISTIC:
        dLdu = gu + 0.5 * (H[:, :, 0] * (1.0 - 2.0 * sigmoid(U))) * Q[:, :, 0]
    else:
        dLdu = gu
    dLdG = H @ GA - Syx

    # linear models have zero input Hessian, so the Hessian term vanishes
    with_r2 = ctx.sas is not None
    if with_r2:
        q_r2 = -Phib * ctx.sas[idx]  # (1/sqrt(M)) cos * (S A S^T), negated
        t2 = q_r2 @ model.w.T
        values = values + 0.5 * (gu * t2).sum(axis=1)
        dLdu = dLdu + 0.5 * (H @ t2[:, :, None])[:, :, 0]

    if Phib is not None:
        # T[m, (a, j)] = sum_b sin_bm dL/dG_baj, contracted with S over j
        T = sinb.T @ dLdG.reshape(nb, c * d)
        gw = dLdu.T @ Phib
        gw += np.einsum("maj,mj->am", T.reshape(-1, c, d), model.S) / (-np.sqrt(model.n_features))
        if with_r2:
            gw += 0.5 * (gu.T @ q_r2)
        return float(values.mean()), gw / nb
    gW = dLdu.T @ ctx.Xt[idx] + dLdG.sum(axis=0)
    gb = dLdu.sum(axis=0)
    return float(values.mean()), (gW / nb, gb / nb)


def _approx_context(ds: Dataset, model, coeffs: MixCoefficients, drop_r2: bool) -> _ApproxContext:
    fit = modify(ds, coeffs.theta_bar)
    return _ApproxContext(ds, fit, _fixed_features(model, fit.inputs), coeffs, model, drop_r2)


def _penalty_sum(ds: Dataset, model, kind: LossKind, coeffs: MixCoefficients) -> float:
    """R1 + R3 + R4 over the whole dataset, in the uncompleted form the
    regularized objective trains on (no Hessian term, no fit term).

    It equals ``regularizers.r_terms_general(...).regularizer_sum_no_r2`` up
    to round-off, but stays finite where the completed form cancels
    catastrophically: rows whose loss curvature nearly vanishes.
    """
    ctx = _approx_context(ds, model, coeffs, True)
    U, G, _, _ = _fit_jacobians(ctx, model, slice(None))
    values = _add_penalty(
        np.zeros(ds.n), kind, ctx.A_all, ctx.Syx_all, ctx.syy_trace, G, hess_uu_rows(kind, U)
    )[0]
    return float(values.mean())


def approx_gradient(
    ds: Dataset,
    model,
    kind: LossKind,
    coeffs: MixCoefficients,
    indices=None,
    drop_r2: bool = True,
):
    """Value and parameter gradient of the regularized objective on a batch.

    ``indices`` restricts the per-example terms to a non-empty 1-D array of
    row numbers in [0, n), else ValueError; None uses the whole dataset, in
    which case the value equals :func:`regularizers.approx_mixup_objective`.
    Returns (value, gradient) with the gradient shaped like the model's
    trainable parameters ((gW, gb) for linear, gw for features).
    """
    if indices is None:
        idx = np.arange(ds.n)
    else:
        idx = np.asarray(indices)
        if idx.ndim != 1 or idx.size == 0:
            raise ValueError("indices must be a non-empty 1-D array of row numbers")
        if not np.issubdtype(idx.dtype, np.integer) or idx.min() < 0 or idx.max() >= ds.n:
            raise ValueError(f"indices must be integers in [0, {ds.n})")
    return _approx_value_grad(_approx_context(ds, model, coeffs, drop_r2), model, kind, idx)


def _plain_value_grad(model, kind, Xb, Yb, phi_b=None):
    """Mean loss and its parameter gradient on a prepared batch."""
    nb = Yb.shape[0]
    if isinstance(model, RffModel):
        phi = model.features(Xb) if phi_b is None else phi_b
        U = phi @ model.w.T
        gu = grad_u_rows(kind, Yb, U)
        return float(loss_values(kind, Yb, U).mean()), gu.T @ phi / nb
    U = Xb @ model.W.T + model.b
    gu = grad_u_rows(kind, Yb, U)
    return float(loss_values(kind, Yb, U).mean()), (gu.T @ Xb / nb, gu.sum(axis=0) / nb)


def _fixed_rows_predictor(model, x: np.ndarray, rescale: Rescale | None, phi=None):
    """Zero-argument callable giving ``predict(model, x, rescale)`` under the
    model's current weights.

    A cosine-feature model featurizes the rows once, here (or reuses ``phi``,
    the features of the rows after the shrink step), and applies the current
    head with ``RffModel.head``; a linear model has no features to keep and
    predicts directly.
    """
    if not isinstance(model, RffModel):
        return lambda: predict(model, x, rescale)
    if phi is None:
        phi = _fixed_features(model, x if rescale is None else rescale.shrink(x))
    phi_blocks, n = model.row_blocks(phi), x.shape[0]
    if rescale is None:
        return lambda: model.head(phi_blocks, n)
    return lambda: rescale.unshrink(model.head(phi_blocks, n))


def _step(model, grad, step_size: float) -> None:
    if isinstance(model, RffModel):
        model.w = model.w - step_size * grad
    else:
        gW, gb = grad
        model.W = model.W - step_size * gW
        model.b = model.b - step_size * gb


def check_targets(kind: LossKind, *datasets: Dataset) -> None:
    """Raise ValueError unless the loss can score every dataset's targets:
    the logistic loss sees one target column and cross-entropy sees targets
    on the probability simplex."""
    for ds in datasets:
        if kind is LossKind.LOGISTIC and ds.c != 1:
            raise ValueError(f"the logistic loss needs one target column, got {ds.c}")
        if kind is LossKind.CROSS_ENTROPY and not ds.is_classification():
            raise ValueError("cross-entropy needs targets on the probability simplex")


def check_data(ds_train: Dataset, ds_test: Dataset, cfg: TrainConfig) -> None:
    """Raise ValueError unless the config can train on the datasets: both
    have the same input and output widths, the batch size divides the
    training rows and :func:`check_targets` passes."""
    if (ds_train.d, ds_train.c) != (ds_test.d, ds_test.c):
        raise ValueError(
            f"the training set maps {ds_train.d} inputs to {ds_train.c} outputs, "
            f"the test set {ds_test.d} inputs to {ds_test.c} outputs"
        )
    if ds_train.n % cfg.batch_size:
        raise ValueError(
            f"batch_size {cfg.batch_size} does not divide the training set size {ds_train.n}"
        )
    check_targets(cfg.loss, ds_train, ds_test)


def train(ds_train: Dataset, ds_test: Dataset, cfg: TrainConfig):
    """Run minibatch SGD per the config; returns (model, trace).

    Deterministic given the seed. The trace's accuracy and test-loss columns
    use each method's natural predictor: raw for plain fitting, rescaled
    through ``trace.rescale`` for the methods that fit mean-shrunk rows.
    Raises the ValueError of :func:`check_data`, and
    :class:`TrainingDiverged` when the objective stops being finite.
    """
    check_data(ds_train, ds_test, cfg)
    n, d, c = ds_train.n, ds_train.d, ds_train.c
    rng = np.random.default_rng(cfg.seed)
    if cfg.model == "linear":
        model = LinearModel(W=np.zeros((c, d)), b=np.zeros(c))
    else:
        model = init_rff(d, cfg.rff_features, cfg.rff_scale, c, cfg.seed)

    rescale = coeffs = None
    fit = ds_train
    if cfg.method != "erm":
        coeffs = mix_coefficients(cfg.alpha)
        rescale = Rescale(ds_train.x_mean, ds_train.y_mean, coeffs.theta_bar)
        fit = modify(ds_train, coeffs.theta_bar)
    # fixed rows are featurized once; mixed rows change every step
    phi_fit = _fixed_features(model, fit.inputs)
    if cfg.method == "mixup_approx":
        ctx = _ApproxContext(ds_train, fit, phi_fit, coeffs, model, cfg.drop_r2)
    predict_train = _fixed_rows_predictor(model, ds_train.inputs, rescale, phi_fit)
    predict_test = _fixed_rows_predictor(model, ds_test.inputs, rescale)
    zero_logit = 0.0 if rescale is None else rescale.zero_logit
    trace = TrainTrace(rescale=rescale)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        batch_objs = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            if cfg.method in ("erm", "erm_modified"):
                value, grad = _plain_value_grad(
                    model, cfg.loss, fit.inputs[idx], fit.outputs[idx],
                    phi_b=None if phi_fit is None else phi_fit[idx],
                )
            elif cfg.method == "mixup":
                Xm, Ym = mixup_minibatch(
                    ds_train.inputs[idx], ds_train.outputs[idx], cfg.alpha, rng
                )
                value, grad = _plain_value_grad(model, cfg.loss, Xm, Ym)
            else:
                value, grad = _approx_value_grad(ctx, model, cfg.loss, idx)
            batch_objs.append(value)
            _step(model, grad, cfg.step_size)
        objective = float(np.mean(batch_objs))
        if not np.isfinite(objective):
            raise TrainingDiverged(
                f"objective became non-finite at epoch {epoch}; "
                "the step size is likely too large"
            )
        train_out = predict_train()
        test_out = predict_test()
        trace.append(
            epoch,
            objective,
            _accuracy(train_out, ds_train.outputs, zero_logit),
            _accuracy(test_out, ds_test.outputs, zero_logit),
            float(loss_values(cfg.loss, ds_test.outputs, test_out).mean()),
        )
    return model, trace
