"""Closed-form perturbation covariances and the regularized objective they induce.

For row i the perturbation second moments are, with s2 = sigma_sq,
g2 = gamma_sq and tb = theta_bar,

    Cov_i = s2 (x_i - xbar)(x_i - xbar)^T + g2 Cov(x)

(and analogously for outputs and the input/output cross block), which equals
[ s2 (x~_i - xbar)(x~_i - xbar)^T + g2 Cov(x~) ] / tb^2 on the shrunk rows.
:func:`perturbation_covariances` is the one implementation, stacked over
rows; :func:`exact_second_moments` is an independent oracle for it.

Averaging the quadratic Taylor expansion of the loss over these perturbations
splits the risk into the plain fit on shrunk data plus four penalties:

    R1 = 1/(2n) sum_i || (J f(x~_i) - J*_i)^T (h_uu)^(1/2) ||^2_{Cov_i}
    R2 = 1/(2n) sum_i < Cov_i, grad_u . H f(x~_i) >
    R3 = -1/(2n) sum_i || Cov_i^{xy} h_yu (h_uu)^(-1/2) ||^2_{Cov_i^{-1}}
    R4 = 1/(2n) sum_i < Cov_i^{yy}, h_yy >

with the target Jacobian J*_i = -(h_uu)^{-1} h_uy Cov_i^{yx} (Cov_i)^{-1}.
Singular metrics (the softmax Hessian always has null vector 1, and the input
covariance degenerates on subspace data) are handled by symmetric
eigendecomposition pseudo-inverses with a relative cutoff; the breakdown
reports how many eigenvalues were truncated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, ModifiedDataset, modify
from .losses import LossKind, bundle, loss_value, sigmoid, softmax, softmax_hessian
from .models import LinearModel, hessian_contraction
from .truncbeta import MixCoefficients, trunc_beta_raw_moment

__all__ = [
    "PerExampleCovariances",
    "RegularizerBreakdown",
    "perturbation_covariances",
    "per_example_covariances",
    "exact_second_moments",
    "quadratic_loss",
    "r_terms_general",
    "r_terms_ce",
    "r_terms_lr",
    "r_terms_se",
    "approx_mixup_objective",
    "psd_pinv",
    "psd_sqrt",
    "psd_pinv_sqrt",
    "mols_fit",
    "lambda_second_moment",
    "exact_se_mixup_risk",
    "exact_se_mixup_gradient",
]

_EIG_RCOND = 1e-10


@dataclass(frozen=True)
class PerExampleCovariances:
    """Second moments of the row-i perturbation: sxx (d,d), syy (c,c), sxy (d,c)."""

    sxx: np.ndarray
    syy: np.ndarray
    sxy: np.ndarray


@dataclass(frozen=True)
class RegularizerBreakdown:
    """The shrunk-data fit term, the four penalties, and their sum.

    ``clipped_inverses`` counts eigenvalues truncated by pseudo-inversion, as
    a degenerate-metric diagnostic (the softmax Hessian contributes one per
    example by construction).
    """

    erm_modified: float
    r1: float
    r2: float
    r3: float
    r4: float
    total: float
    clipped_inverses: int = 0

    @property
    def regularizer_sum(self) -> float:
        return self.r1 + self.r2 + self.r3 + self.r4

    @property
    def regularizer_sum_no_r2(self) -> float:
        return self.r1 + self.r3 + self.r4


def _eigh_psd(A: np.ndarray):
    vals, vecs = np.linalg.eigh(np.asarray(A, dtype=float))
    cutoff = _EIG_RCOND * max(vals.max(), 0.0)
    return vals, vecs, cutoff


def psd_pinv(A: np.ndarray) -> np.ndarray:
    """Symmetric pseudo-inverse with relative eigenvalue cutoff."""
    vals, vecs, cutoff = _eigh_psd(A)
    inv = np.where(vals > cutoff, 1.0 / np.where(vals > cutoff, vals, 1.0), 0.0)
    return (vecs * inv) @ vecs.T


def psd_sqrt(A: np.ndarray) -> np.ndarray:
    """Symmetric square root, clamping round-off negatives to zero."""
    vals, vecs, _ = _eigh_psd(A)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def psd_pinv_sqrt(A: np.ndarray):
    """(A^+)^(1/2) together with the number of truncated eigenvalues."""
    vals, vecs, cutoff = _eigh_psd(A)
    keep = vals > cutoff
    inv_root = np.where(keep, 1.0 / np.sqrt(np.where(keep, vals, 1.0)), 0.0)
    return (vecs * inv_root) @ vecs.T, int(np.count_nonzero(~keep))


def perturbation_covariances(
    ds: Dataset, coeffs: MixCoefficients, rows=None
) -> PerExampleCovariances:
    """Closed-form perturbation covariances, stacked over rows.

    Row i gets s2 (x_i - xbar)(x_i - xbar)^T + g2 Cov(x), and likewise for the
    output and cross blocks, on the original rows. Returns arrays shaped
    (k, d, d), (k, c, c) and (k, d, c) for the k selected ``rows`` (every row
    when None).
    """
    X = ds.inputs if rows is None else ds.inputs[rows]
    Y = ds.outputs if rows is None else ds.outputs[rows]
    s2, g2 = coeffs.sigma_sq, coeffs.gamma_sq
    Xc = X - ds.x_mean
    Yc = Y - ds.y_mean
    return PerExampleCovariances(
        sxx=s2 * np.einsum("bi,bj->bij", Xc, Xc) + g2 * ds.sxx,
        syy=s2 * np.einsum("bi,bj->bij", Yc, Yc) + g2 * ds.syy,
        sxy=s2 * np.einsum("bi,bj->bij", Xc, Yc) + g2 * ds.sxy,
    )


def per_example_covariances(ds: Dataset, coeffs: MixCoefficients, i: int) -> PerExampleCovariances:
    """Closed-form perturbation covariances for row i."""
    if not 0 <= i < ds.n:
        raise IndexError(f"row index {i} out of range for n={ds.n}")
    cov = perturbation_covariances(ds, coeffs, [i])
    return PerExampleCovariances(sxx=cov.sxx[0], syy=cov.syy[0], sxy=cov.sxy[0])


def exact_second_moments(
    ds: Dataset, coeffs: MixCoefficients, i: int
) -> PerExampleCovariances:
    """Independent oracle: expand E[delta delta^T] (and companions) directly.

    The expectation over the partner index is a finite sum and the expectation
    over theta uses only its first two raw moments; the closed-form covariance
    expression is never invoked.
    """
    if not 0 <= i < ds.n:
        raise IndexError(f"row index {i} out of range for n={ds.n}")
    tb = coeffs.theta_bar
    m2 = trunc_beta_raw_moment(coeffs.alpha, 2)
    a = m2 - tb * tb            # E[(theta - tb)^2]
    b = 1.0 - 2.0 * tb + m2     # E[(1 - theta)^2]
    c_ab = tb * tb - m2         # E[(theta - tb)(1 - theta)]
    r = 1.0 - tb                # E[1 - theta]
    X, Y = ds.inputs, ds.outputs
    xbar, ybar = ds.x_mean, ds.y_mean
    mxx = X.T @ X / ds.n
    myy = Y.T @ Y / ds.n
    mxy = X.T @ Y / ds.n

    def second_moment(zi, zbar, mzz):
        return (
            a * np.outer(zi, zi)
            + b * mzz
            - r * r * np.outer(zbar, zbar)
            + c_ab * (np.outer(zi, zbar) + np.outer(zbar, zi))
        )

    sxx = second_moment(X[i], xbar, mxx)
    syy = second_moment(Y[i], ybar, myy)
    sxy = (
        a * np.outer(X[i], Y[i])
        + b * mxy
        - r * r * np.outer(xbar, ybar)
        + c_ab * (np.outer(X[i], ybar) + np.outer(xbar, Y[i]))
    )
    return PerExampleCovariances(sxx=sxx, syy=syy, sxy=sxy)


def quadratic_loss(
    ds_mod: ModifiedDataset,
    model,
    kind: LossKind,
    i: int,
    delta: np.ndarray,
    epsilon: np.ndarray,
) -> float:
    """Second-order Taylor expansion of the loss about row i of the shrunk data.

    Exact for the squared error with a linear model; otherwise carries a
    cubic remainder in the perturbation scale.
    """
    yt = ds_mod.outputs[i]
    xt = ds_mod.inputs[i]
    u = model.predict(xt)
    bnd = bundle(kind, yt, u)
    G = model.input_jacobian(xt)
    Hf = model.input_hessian(xt)
    delta = np.asarray(delta, dtype=float).ravel()
    epsilon = np.asarray(epsilon, dtype=float).ravel()
    quad_in = G.T @ bnd.hess_uu @ G + hessian_contraction(Hf, bnd.grad_u)
    return float(
        bnd.value
        + bnd.grad_y @ epsilon
        + bnd.grad_u @ (G @ delta)
        + 0.5 * delta @ quad_in @ delta
        + 0.5 * epsilon @ bnd.hess_yy @ epsilon
        + epsilon @ (bnd.hess_yu @ G) @ delta
    )


def _assemble(erm_mod, r1, r2, r3, r4, clipped) -> RegularizerBreakdown:
    return RegularizerBreakdown(
        erm_modified=float(erm_mod),
        r1=float(r1),
        r2=float(r2),
        r3=float(r3),
        r4=float(r4),
        total=float(erm_mod + r1 + r2 + r3 + r4),
        clipped_inverses=clipped,
    )


def r_terms_general(
    ds: Dataset, model, kind: LossKind, coeffs: MixCoefficients
) -> RegularizerBreakdown:
    """Four-penalty decomposition for any twice-differentiable loss and model.

    R1 and -R3 are computed as squared Frobenius norms through symmetric
    (pseudo-)square roots, so their signs hold to round-off by construction.
    """
    mod = modify(ds, coeffs.theta_bar)
    n = ds.n
    erm_mod = r1 = r2 = r3 = r4 = 0.0
    clipped = 0
    for i in range(n):
        cov = per_example_covariances(ds, coeffs, i)
        xt, yt = mod.inputs[i], mod.outputs[i]
        bnd = bundle(kind, yt, model.predict(xt))
        G = model.input_jacobian(xt)
        Hf = model.input_hessian(xt)
        erm_mod += bnd.value

        A = cov.sxx
        C = bnd.hess_uu
        hess_uy = bnd.hess_yu.T
        syx = cov.sxy.T
        c_pinv_root, k1 = psd_pinv_sqrt(C)
        a_pinv_root, k2 = psd_pinv_sqrt(A)
        clipped += k1 + k2
        c_pinv = c_pinv_root @ c_pinv_root
        a_pinv = a_pinv_root @ a_pinv_root

        J = -c_pinv @ hess_uy @ syx @ a_pinv
        r1 += np.linalg.norm(psd_sqrt(C) @ (G - J) @ psd_sqrt(A)) ** 2 / 2.0
        r2 += 0.5 * float(np.tensordot(A, hessian_contraction(Hf, bnd.grad_u)))
        B = -hess_uy @ syx
        r3 -= np.linalg.norm(c_pinv_root @ B @ a_pinv_root) ** 2 / 2.0
        r4 += 0.5 * float(np.tensordot(cov.syy, bnd.hess_yy))
    return _assemble(erm_mod / n, r1 / n, r2 / n, r3 / n, r4 / n, clipped)


def r_terms_ce(ds: Dataset, model, coeffs: MixCoefficients) -> RegularizerBreakdown:
    """Cross-entropy specialization: metrics weighted by the softmax Hessian.

    The output-Hessian penalty vanishes identically and the target Jacobian
    is H(f)^{-1} Cov^{yx} Cov^{-1}.
    """
    mod = modify(ds, coeffs.theta_bar)
    n = ds.n
    erm_mod = r1 = r2 = r3 = 0.0
    clipped = 0
    for i in range(n):
        cov = per_example_covariances(ds, coeffs, i)
        xt, yt = mod.inputs[i], mod.outputs[i]
        u = model.predict(xt)
        erm_mod += loss_value(LossKind.CROSS_ENTROPY, yt, u)
        H = softmax_hessian(u)
        G = model.input_jacobian(xt)
        A = cov.sxx
        syx = cov.sxy.T
        h_pinv_root, k1 = psd_pinv_sqrt(H)
        a_pinv_root, k2 = psd_pinv_sqrt(A)
        clipped += k1 + k2
        J = (h_pinv_root @ h_pinv_root) @ syx @ (a_pinv_root @ a_pinv_root)
        r1 += np.linalg.norm(psd_sqrt(H) @ (G - J) @ psd_sqrt(A)) ** 2 / 2.0
        resid = softmax(u) - yt
        r2 += 0.5 * float(
            np.tensordot(A, hessian_contraction(model.input_hessian(xt), resid))
        )
        r3 -= np.linalg.norm(h_pinv_root @ syx @ a_pinv_root) ** 2 / 2.0
    return _assemble(erm_mod / n, r1 / n, r2 / n, r3 / n, 0.0, clipped)


def r_terms_lr(ds: Dataset, model, coeffs: MixCoefficients) -> RegularizerBreakdown:
    """Logistic specialization: scalar curvature v(u) = s(u)(1 - s(u))."""
    mod = modify(ds, coeffs.theta_bar)
    n = ds.n
    erm_mod = r1 = r2 = r3 = 0.0
    clipped = 0
    for i in range(n):
        cov = per_example_covariances(ds, coeffs, i)
        xt = mod.inputs[i]
        yt = float(mod.outputs[i][0])
        u = float(np.asarray(model.predict(xt)).ravel()[0])
        erm_mod += loss_value(LossKind.LOGISTIC, np.array([yt]), np.array([u]))
        s = sigmoid(u)
        v = s * (1.0 - s)
        G = model.input_jacobian(xt).ravel()
        A = cov.sxx
        syx = cov.sxy.ravel()
        a_pinv_root, k2 = psd_pinv_sqrt(A)
        clipped += k2
        a_pinv = a_pinv_root @ a_pinv_root
        if v > 0.0:
            J = (syx @ a_pinv) / v
            r3 -= 0.5 * float(syx @ a_pinv @ syx) / v
        else:
            J = np.zeros_like(G)
            clipped += 1
        diff = G - J
        r1 += 0.5 * v * float(diff @ A @ diff)
        r2 += 0.5 * (s - yt) * float(np.tensordot(A, model.input_hessian(xt)[0]))
    return _assemble(erm_mod / n, r1 / n, r2 / n, r3 / n, 0.0, clipped)


def r_terms_se(ds: Dataset, model, coeffs: MixCoefficients) -> RegularizerBreakdown:
    """Squared-error specialization: identity curvature everywhere.

    The Jacobian target is the reweighted least-squares coefficient
    Cov^{yx} Cov^{-1}; R4 reduces to the model-independent trace of the output
    covariances.
    """
    mod = modify(ds, coeffs.theta_bar)
    n = ds.n
    erm_mod = r1 = r2 = r3 = r4 = 0.0
    clipped = 0
    for i in range(n):
        cov = per_example_covariances(ds, coeffs, i)
        xt, yt = mod.inputs[i], mod.outputs[i]
        u = model.predict(xt)
        erm_mod += loss_value(LossKind.SQUARED_ERROR, yt, u)
        G = model.input_jacobian(xt)
        A = cov.sxx
        syx = cov.sxy.T
        a_pinv_root, k2 = psd_pinv_sqrt(A)
        clipped += k2
        a_pinv = a_pinv_root @ a_pinv_root
        J = syx @ a_pinv
        diff = G - J
        r1 += 0.5 * float(np.trace(diff @ A @ diff.T))
        r2 += 0.5 * float(
            np.tensordot(A, hessian_contraction(model.input_hessian(xt), u - yt))
        )
        r3 -= np.linalg.norm(a_pinv_root @ cov.sxy) ** 2 / 2.0
        r4 += 0.5 * float(np.trace(cov.syy))
    return _assemble(erm_mod / n, r1 / n, r2 / n, r3 / n, r4 / n, clipped)


def approx_mixup_objective(
    ds: Dataset,
    model,
    kind: LossKind,
    coeffs: MixCoefficients,
    drop_r2: bool = True,
) -> float:
    """Shrunk-data fit plus penalties; R2 optionally dropped as during training."""
    br = r_terms_general(ds, model, kind, coeffs)
    value = br.erm_modified + br.r1 + br.r3 + br.r4
    if not drop_r2:
        value += br.r2
    return value


def mols_fit(ds: Dataset) -> LinearModel:
    """Multivariate least squares by normal equations on centered rows."""
    W = ds.sxy.T @ psd_pinv(ds.sxx)
    b = ds.y_mean - W @ ds.x_mean
    return LinearModel(W=W, b=b)


def lambda_second_moment(coeffs: MixCoefficients) -> float:
    """E[lam^2] of the untruncated mixing weight, from the truncated moments.

    {lam, 1 - lam} = {theta, 1 - theta}, so 2 E[lam^2] = E[theta^2] +
    E[(1 - theta)^2].
    """
    tb = coeffs.theta_bar
    return coeffs.sigma_sq + 0.5 * (tb * tb + (1.0 - tb) ** 2)


def exact_se_mixup_risk(ds: Dataset, model: LinearModel, coeffs: MixCoefficients) -> float:
    """Exact pairwise-mixing risk of a linear model under squared error.

    The summand is quadratic in lam, so the expectation closes over the first
    two lam moments:

        E = (m2 / n) sum_i ||r_i||^2 + (1/2 - m2) ||rbar||^2,

    with r_i = y_i - W x_i - b and m2 = E[lam^2]. Equivalently, with
    bbar = ybar - W xbar,

        E = 2 m2 * [mean squared-error loss at (W, bbar)] + ||b - bbar||^2 / 2,

    which is minimized by the ordinary least-squares fit.
    """
    m2 = lambda_second_moment(coeffs)
    R = ds.outputs - ds.inputs @ model.W.T - model.b
    rbar = R.mean(axis=0)
    return float((m2 / ds.n) * (R * R).sum() + (0.5 - m2) * (rbar @ rbar))


def exact_se_mixup_gradient(ds: Dataset, model: LinearModel, coeffs: MixCoefficients):
    """Gradient of :func:`exact_se_mixup_risk` in (W, b)."""
    m2 = lambda_second_moment(coeffs)
    R = ds.outputs - ds.inputs @ model.W.T - model.b
    rbar = R.mean(axis=0)
    gW = -(2.0 * m2 / ds.n) * R.T @ ds.inputs - 2.0 * (0.5 - m2) * np.outer(rbar, ds.x_mean)
    gb = -rbar
    return gW, gb
