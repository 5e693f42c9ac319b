"""Minibatch SGD under four objectives: plain fitting, pairwise mixing,
fitting on mean-shrunk rows, and the closed-form regularized objective.

The regularized method trains the uncompleted form of the penalties,

    l(y~_i, u_i) + 1/2 <Cov_i, G_i^T h_uu G_i> - <Cov_i^{yx}, G_i>
                 + 1/2 <Cov_i^{yy}, h_yy>   [+ Hessian term unless dropped]

whose value equals the completed R1 + R3 + R4 decomposition while avoiding
matrix square roots inside the loop; all parameter gradients are analytic.
The per-example covariances come stacked from
:func:`regularizers.perturbation_covariances`, once per training run.

The methods that fit mean-shrunk rows are scored with the rescaled
predictor; :func:`train` builds its statistics once per run and returns them
as ``trace.rescale`` (None for plain fitting, which predicts raw).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .data import Dataset, modify
from .losses import LossKind, grad_u_rows, loss_values, softmax_rows
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


class TrainingDiverged(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    method: str = "erm"
    alpha: float = 1.0
    epochs: int = 500
    batch_size: int = 50
    step_size: float = 5.0
    seed: int = 0
    drop_r2: bool = True
    loss: LossKind = LossKind.CROSS_ENTROPY
    model: str = "rff"
    rff_features: int = 1000
    rff_scale: float = 10.0
    shared_lam: bool = False
    momentum: float = 0.0
    weight_decay: float = 0.0

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.method != "erm" and not self.alpha > 0:
            raise ValueError("alpha must be positive for mixing-based methods")
        if self.epochs < 1 or self.batch_size < 1 or self.step_size <= 0:
            raise ValueError("epochs, batch_size must be >= 1 and step_size > 0")
        if self.model not in ("linear", "rff"):
            raise ValueError(f"model must be 'linear' or 'rff', got {self.model!r}")


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
        with open(path, "w") as fh:
            fh.write("epoch,objective,train_acc,test_acc,test_loss\n")
            for row in zip(
                self.epochs, self.objective, self.train_acc, self.test_acc, self.test_loss
            ):
                fh.write("%d,%r,%r,%r,%r\n" % row)


def _accuracy(outputs: np.ndarray, targets: np.ndarray, threshold: float) -> float:
    if outputs.shape[1] == 1:
        pred = (outputs[:, 0] > threshold).astype(int)
        return float((pred == (targets[:, 0] > 0.5)).mean())
    return float((outputs.argmax(axis=1) == targets.argmax(axis=1)).mean())


class _ApproxContext:
    """Per-dataset precomputation for the regularized objective."""

    def __init__(self, ds: Dataset, coeffs: MixCoefficients, model):
        mod = modify(ds, coeffs.theta_bar)
        cov = perturbation_covariances(ds, coeffs)
        self.Xt = mod.inputs
        self.Yt = mod.outputs
        self.A_all = cov.sxx
        self.Syx_all = np.ascontiguousarray(cov.sxy.transpose(0, 2, 1))
        self.syy_trace = np.einsum("bcc->b", cov.syy)
        if isinstance(model, RffModel):
            self.phit = model.features(self.Xt)
            self.sint = model.sin_features(self.Xt)
            # S_m Cov_i S_m^T for every (i, m); only the Hessian term needs it
            self.sas = np.einsum("mj,bjk,mk->bm", model.S, self.A_all, model.S)
        else:
            self.phit = self.sint = self.sas = None


def _approx_value_grad(ctx: _ApproxContext, model, kind: LossKind, idx, drop_r2: bool):
    """Objective value and parameter gradient of the batch-restricted terms."""
    Yb = ctx.Yt[idx]
    A = ctx.A_all[idx]
    Syx = ctx.Syx_all[idx]
    nb = len(idx)
    is_rff = isinstance(model, RffModel)
    if is_rff:
        Phib = ctx.phit[idx]
        U = Phib @ model.w.T
        root_m = np.sqrt(model.n_features)
        G = np.einsum("am,bm,md->bad", model.w, ctx.sint[idx], model.S) / (-root_m)
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
    elif kind is LossKind.SQUARED_ERROR:
        term2 = 0.5 * np.einsum("baa->b", Q)
        hg = G
        term4 = 0.5 * ctx.syy_trace[idx]
    else:
        raise ValueError(f"unknown loss kind {kind!r}")
    dLdG = np.einsum("bad,bde->bae", hg, A) - Syx

    values = erm_vals + term2 + term5 + term4
    if not drop_r2:
        if is_rff:
            q_r2 = -Phib * ctx.sas[idx]  # (1/sqrt(M)) cos * (S A S^T), negated
            t2 = np.einsum("am,bm->ba", model.w, q_r2)
            r2_vals = 0.5 * (gu * t2).sum(axis=1)
            values = values + r2_vals
            if kind is LossKind.CROSS_ENTROPY:
                P = softmax_rows(U)
                dLdu_reg += 0.5 * (P * t2 - P * (P * t2).sum(axis=1, keepdims=True))
            elif kind is LossKind.LOGISTIC:
                s = expit(U)
                dLdu_reg += 0.5 * (s * (1.0 - s)) * t2
            else:
                dLdu_reg += 0.5 * t2
        # linear models have zero input Hessian, so the term vanishes

    dLdu = gu + dLdu_reg
    if is_rff:
        gw = dLdu.T @ Phib
        gw += np.einsum("bad,md,bm->am", dLdG, model.S, ctx.sint[idx]) / (-root_m)
        if not drop_r2:
            gw += 0.5 * np.einsum("ba,bm->am", gu, q_r2)
        return float(values.mean()), gw / nb
    gW = dLdu.T @ ctx.Xt[idx] + dLdG.sum(axis=0)
    gb = dLdu.sum(axis=0)
    return float(values.mean()), (gW / nb, gb / nb)


def approx_gradient(
    ds: Dataset,
    model,
    kind: LossKind,
    coeffs: MixCoefficients,
    indices=None,
    drop_r2: bool = True,
):
    """Value and parameter gradient of the regularized objective on a batch.

    ``indices`` restricts the per-example terms; None uses the whole dataset,
    in which case the value equals :func:`regularizers.approx_mixup_objective`.
    Returns (value, gradient) with the gradient shaped like the model's
    trainable parameters ((gW, gb) for linear, gw for features).
    """
    ctx = _ApproxContext(ds, coeffs, model)
    idx = np.arange(ds.n) if indices is None else np.asarray(indices)
    return _approx_value_grad(ctx, model, kind, idx, drop_r2)


def _plain_value_grad(model, kind, Xb, Yb, phi_b=None):
    """Mean loss and its parameter gradient on a prepared batch."""
    nb = Xb.shape[0] if Xb is not None else phi_b.shape[0]
    if isinstance(model, RffModel):
        phi = model.features(Xb) if phi_b is None else phi_b
        U = phi @ model.w.T
        gu = grad_u_rows(kind, Yb, U)
        return float(loss_values(kind, Yb, U).mean()), gu.T @ phi / nb
    U = Xb @ model.W.T + model.b
    gu = grad_u_rows(kind, Yb, U)
    return float(loss_values(kind, Yb, U).mean()), (gu.T @ Xb / nb, gu.sum(axis=0) / nb)


def _step(model, grad, velocity, cfg: TrainConfig):
    lr, mu, wd = cfg.step_size, cfg.momentum, cfg.weight_decay
    if isinstance(model, RffModel):
        g = grad + wd * model.w if wd else grad
        velocity["w"] = mu * velocity.get("w", 0.0) - lr * g
        model.w = model.w + velocity["w"]
    else:
        gW, gb = grad
        if wd:
            gW = gW + wd * model.W
            gb = gb + wd * model.b
        velocity["W"] = mu * velocity.get("W", 0.0) - lr * gW
        velocity["b"] = mu * velocity.get("b", 0.0) - lr * gb
        model.W = model.W + velocity["W"]
        model.b = model.b + velocity["b"]


def train(ds_train: Dataset, ds_test: Dataset, cfg: TrainConfig):
    """Run minibatch SGD per the config; returns (model, trace).

    Deterministic given the seed. The trace's accuracy and test-loss columns
    use each method's natural predictor: raw for plain fitting, rescaled
    through ``trace.rescale`` for the methods that fit mean-shrunk rows.
    Raises ValueError for a loss that does not match the targets or a batch
    size that does not divide the training set, and
    :class:`TrainingDiverged` when the objective stops being finite.
    """
    n, d, c = ds_train.n, ds_train.d, ds_train.c
    if n % cfg.batch_size:
        raise ValueError(
            f"batch_size {cfg.batch_size} does not divide the training set size {n}"
        )
    for ds in (ds_train, ds_test):
        if cfg.loss is LossKind.LOGISTIC and ds.c != 1:
            raise ValueError(f"the logistic loss needs one target column, got {ds.c}")
        if cfg.loss is LossKind.CROSS_ENTROPY and not ds.is_classification():
            raise ValueError("cross-entropy needs targets on the probability simplex")
    rng = np.random.default_rng(cfg.seed)
    if cfg.model == "linear":
        model = LinearModel(W=np.zeros((c, d)), b=np.zeros(c))
    else:
        model = init_rff(d, cfg.rff_features, cfg.rff_scale, c, cfg.seed)

    coeffs = mix_coefficients(cfg.alpha) if cfg.method != "erm" else None
    rescale = None
    if coeffs is not None:
        rescale = Rescale(ds_train.x_mean, ds_train.y_mean, coeffs.theta_bar)
    mod = modify(ds_train, coeffs.theta_bar) if cfg.method in ("erm_modified",) else None
    ctx = (
        _ApproxContext(ds_train, coeffs, model) if cfg.method == "mixup_approx" else None
    )
    # cache features of fixed training rows; mixed rows change every step
    phi_train = phi_mod = None
    if isinstance(model, RffModel):
        if cfg.method == "erm":
            phi_train = model.features(ds_train.inputs)
        elif cfg.method == "erm_modified":
            phi_mod = model.features(mod.inputs)

    zero_logit = 0.0 if rescale is None else rescale.zero_logit
    trace = TrainTrace(rescale=rescale)
    velocity: dict = {}
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        batch_objs = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            if cfg.method == "erm":
                value, grad = _plain_value_grad(
                    model, cfg.loss, ds_train.inputs[idx], ds_train.outputs[idx],
                    phi_b=None if phi_train is None else phi_train[idx],
                )
            elif cfg.method == "erm_modified":
                value, grad = _plain_value_grad(
                    model, cfg.loss, mod.inputs[idx], mod.outputs[idx],
                    phi_b=None if phi_mod is None else phi_mod[idx],
                )
            elif cfg.method == "mixup":
                Xm, Ym = mixup_minibatch(
                    ds_train.inputs[idx], ds_train.outputs[idx], cfg.alpha, rng,
                    shared_lam=cfg.shared_lam,
                )
                value, grad = _plain_value_grad(model, cfg.loss, Xm, Ym)
            else:
                value, grad = _approx_value_grad(ctx, model, cfg.loss, idx, cfg.drop_r2)
            batch_objs.append(value)
            _step(model, grad, velocity, cfg)
        objective = float(np.mean(batch_objs))
        if not np.isfinite(objective):
            raise TrainingDiverged(
                f"objective became non-finite at epoch {epoch}; "
                "the step size is likely too large"
            )
        train_out = predict(model, ds_train.inputs, rescale)
        test_out = predict(model, ds_test.inputs, rescale)
        trace.append(
            epoch,
            objective,
            _accuracy(train_out, ds_train.outputs, zero_logit),
            _accuracy(test_out, ds_test.outputs, zero_logit),
            float(loss_values(cfg.loss, ds_test.outputs, test_out).mean()),
        )
    return model, trace
