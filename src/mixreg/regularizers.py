"""Closed-form perturbation covariances and the regularized objective they induce.

For row i the perturbation second moments are, with s2 = sigma_sq,
g2 = gamma_sq and tb = theta_bar,

    Cov_i = s2 (x_i - xbar)(x_i - xbar)^T + g2 Cov(x)

(and analogously for outputs and the input/output cross block), which equals
[ s2 (x~_i - xbar)(x~_i - xbar)^T + g2 Cov(x~) ] / tb^2 on the shrunk rows.
:func:`perturbation_covariances` is the one implementation, stacked over
rows; its independent oracle, :func:`mixreg.verification.exact_second_moments`,
lives apart from it.

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

from .data import Dataset, modify
from .losses import LossKind, bundle, grad_u_rows, hess_uu_rows, loss_values
from .models import LinearModel, hessian_contraction
from .truncbeta import MixCoefficients

__all__ = [
    "PerExampleCovariances",
    "RegularizerBreakdown",
    "perturbation_covariances",
    "per_example_covariances",
    "r_terms_general",
    "r_terms_ce",
    "r_terms_lr",
    "r_terms_se",
    "approx_mixup_objective",
    "psd_roots",
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
    def regularizer_sum_no_r2(self) -> float:
        """R1 + R3 + R4. The completed terms invert the loss curvature, so
        the sum cancels catastrophically on rows where it nearly vanishes:
        at the two-moons seed-0 plain-fit head scaled by 30 (logit gaps up
        to 141) it is -1.7e41 and scaled by 300 it is nan, where the
        uncompleted form the regularized objective trains on gives 119.3
        and 898.0."""
        return self.r1 + self.r3 + self.r4


def psd_roots(A: np.ndarray):
    """A symmetric PSD matrix's square root (round-off negatives clamped to
    zero), the square root of its pseudo-inverse (relative eigenvalue
    cutoff), that pseudo-inverse as the root's square, and the number of
    truncated eigenvalues, from one eigendecomposition."""
    vals, vecs = np.linalg.eigh(np.asarray(A, dtype=float))
    keep = vals > _EIG_RCOND * max(vals.max(), 0.0)
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T
    inv_root = np.where(keep, 1.0 / np.sqrt(np.where(keep, vals, 1.0)), 0.0)
    pinv_root = (vecs * inv_root) @ vecs.T
    return root, pinv_root, pinv_root @ pinv_root, int(np.count_nonzero(~keep))


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
        hess_uy = bnd.hess_yu.T
        syx = cov.sxy.T
        c_root, c_pinv_root, c_pinv, k1 = psd_roots(bnd.hess_uu)
        a_root, a_pinv_root, a_pinv, k2 = psd_roots(A)
        clipped += k1 + k2

        J = -c_pinv @ hess_uy @ syx @ a_pinv
        r1 += np.linalg.norm(c_root @ (G - J) @ a_root) ** 2 / 2.0
        r2 += 0.5 * float(np.tensordot(A, hessian_contraction(Hf, bnd.grad_u)))
        B = -hess_uy @ syx
        r3 -= np.linalg.norm(c_pinv_root @ B @ a_pinv_root) ** 2 / 2.0
        r4 += 0.5 * float(np.tensordot(cov.syy, bnd.hess_yy))
    return _assemble(erm_mod / n, r1 / n, r2 / n, r3 / n, r4 / n, clipped)


def _fit_rows(ds: Dataset, model, kind: LossKind, coeffs: MixCoefficients):
    """The shrunk rows, the mean loss on them, and each row's residual
    (gradient in the prediction) and loss curvature."""
    mod = modify(ds, coeffs.theta_bar)
    U = model.predict(mod.inputs)
    fit = loss_values(kind, mod.outputs, U).mean()
    return mod, fit, grad_u_rows(kind, mod.outputs, U), hess_uu_rows(kind, U)


def r_terms_ce(ds: Dataset, model, coeffs: MixCoefficients) -> RegularizerBreakdown:
    """Cross-entropy specialization: metrics weighted by the softmax Hessian.

    The output-Hessian penalty vanishes identically and the target Jacobian
    is H(f)^{-1} Cov^{yx} Cov^{-1}.
    """
    mod, erm_mod, resid, curv = _fit_rows(ds, model, LossKind.CROSS_ENTROPY, coeffs)
    n = ds.n
    r1 = r2 = r3 = 0.0
    clipped = 0
    for i in range(n):
        cov = per_example_covariances(ds, coeffs, i)
        xt, H = mod.inputs[i], curv[i]
        G = model.input_jacobian(xt)
        A = cov.sxx
        syx = cov.sxy.T
        h_root, h_pinv_root, h_pinv, k1 = psd_roots(H)
        a_root, a_pinv_root, a_pinv, k2 = psd_roots(A)
        clipped += k1 + k2
        J = h_pinv @ syx @ a_pinv
        r1 += np.linalg.norm(h_root @ (G - J) @ a_root) ** 2 / 2.0
        r2 += 0.5 * float(np.tensordot(A, hessian_contraction(model.input_hessian(xt), resid[i])))
        r3 -= np.linalg.norm(h_pinv_root @ syx @ a_pinv_root) ** 2 / 2.0
    return _assemble(erm_mod, r1 / n, r2 / n, r3 / n, 0.0, clipped)


def r_terms_lr(ds: Dataset, model, coeffs: MixCoefficients) -> RegularizerBreakdown:
    """Logistic specialization: scalar curvature v(u) = s(u)(1 - s(u))."""
    mod, erm_mod, resid, curv = _fit_rows(ds, model, LossKind.LOGISTIC, coeffs)
    n = ds.n
    r1 = r2 = r3 = 0.0
    clipped = 0
    for i in range(n):
        cov = per_example_covariances(ds, coeffs, i)
        xt, v = mod.inputs[i], curv[i, 0, 0]
        G = model.input_jacobian(xt).ravel()
        A = cov.sxx
        syx = cov.sxy.ravel()
        _, _, a_pinv, k2 = psd_roots(A)
        clipped += k2
        if v > 0.0:
            J = (syx @ a_pinv) / v
            r3 -= 0.5 * float(syx @ a_pinv @ syx) / v
        else:
            J = np.zeros_like(G)
            clipped += 1
        diff = G - J
        r1 += 0.5 * v * float(diff @ A @ diff)
        r2 += 0.5 * resid[i, 0] * float(np.tensordot(A, model.input_hessian(xt)[0]))
    return _assemble(erm_mod, r1 / n, r2 / n, r3 / n, 0.0, clipped)


def r_terms_se(ds: Dataset, model, coeffs: MixCoefficients) -> RegularizerBreakdown:
    """Squared-error specialization: identity curvature everywhere.

    The Jacobian target is the reweighted least-squares coefficient
    Cov^{yx} Cov^{-1}; R4 reduces to the model-independent trace of the output
    covariances.
    """
    mod, erm_mod, resid, _ = _fit_rows(ds, model, LossKind.SQUARED_ERROR, coeffs)
    n = ds.n
    r1 = r2 = r3 = r4 = 0.0
    clipped = 0
    for i in range(n):
        cov = per_example_covariances(ds, coeffs, i)
        xt = mod.inputs[i]
        G = model.input_jacobian(xt)
        A = cov.sxx
        syx = cov.sxy.T
        _, a_pinv_root, a_pinv, k2 = psd_roots(A)
        clipped += k2
        J = syx @ a_pinv
        diff = G - J
        r1 += 0.5 * float(np.trace(diff @ A @ diff.T))
        r2 += 0.5 * float(np.tensordot(A, hessian_contraction(model.input_hessian(xt), resid[i])))
        r3 -= np.linalg.norm(a_pinv_root @ cov.sxy) ** 2 / 2.0
        r4 += 0.5 * float(np.trace(cov.syy))
    return _assemble(erm_mod, r1 / n, r2 / n, r3 / n, r4 / n, clipped)


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
    W = ds.sxy.T @ psd_roots(ds.sxx)[2]
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
