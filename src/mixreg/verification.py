"""Numerical certification of the library's structural identities.

Each check pairs a closed-form path with an independent oracle:

* pairwise-vs-perturbed risk: exact per-draw summand identity plus paired
  Monte-Carlo estimators;
* perturbation covariances: direct moment expansion and Monte Carlo against
  the closed form;
* the four-penalty decomposition: Gauss-Legendre quadrature over the folded
  mixing weight times a finite sum over partner rows, never touching the
  completed-square algebra;
* least-squares neutrality: quadrature oracle for the affine risk relation
  and the normal-equations fit;
* the label-smoothing entropy bound: high-precision Newton solves of both
  convex problems;
* the Taylor remainder: cubic decay under perturbation halving.

Reports carry the measured discrepancy and its tolerance, so they are
self-describing.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, asdict

import numpy as np
from numpy.polynomial.legendre import leggauss

from .data import Dataset, make_two_moons, modify
from .losses import LossKind, bundle, entropy, loss_values, softmax_rows
from .models import LinearModel, RffModel, hessian_contraction, init_rff
from .mixup import mixup_risk_mc, pair_loss_values, perturbed_erm_risk_mc, sample_theta
from .regularizers import (
    RegularizerBreakdown,
    exact_second_moments,
    exact_se_mixup_gradient,
    exact_se_mixup_risk,
    lambda_second_moment,
    mols_fit,
    per_example_covariances,
    quadratic_loss,
    r_terms_ce,
    r_terms_general,
    r_terms_lr,
    r_terms_se,
)
from .truncbeta import MixCoefficients, mix_coefficients

__all__ = [
    "CheckReport",
    "expected_quadratic_loss",
    "check_risk_rewrite",
    "check_covariance_formula",
    "check_penalty_decomposition",
    "check_loss_specializations",
    "check_mols",
    "check_label_smoothing",
    "check_taylor",
    "run_all",
    "reports_to_json",
    "format_report_table",
]


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    discrepancy: float
    tolerance: float
    runtime_s: float
    details: str = ""


def _report(name, discrepancy, tolerance, t0, details="", extra_ok=True) -> CheckReport:
    return CheckReport(
        name=name,
        passed=bool(discrepancy <= tolerance and extra_ok),
        discrepancy=float(discrepancy),
        tolerance=float(tolerance),
        runtime_s=time.perf_counter() - t0,
        details=details,
    )


# ---------------------------------------------------------------------------
# quadrature oracle


def _theta_rule(alpha: float, nodes: int):
    """Gauss-Legendre nodes/weights for the folded mixing density on [1/2, 1]."""
    t, w = leggauss(nodes)
    theta = 0.75 + 0.25 * t
    weights = w * theta ** (alpha - 1.0) * (1.0 - theta) ** (alpha - 1.0)
    return theta, weights / weights.sum()


def _expected_quadratic_loss_at(ds, model, kind, coeffs, nodes: int) -> float:
    theta, wts = _theta_rule(coeffs.alpha, nodes)
    tb = coeffs.theta_bar
    mod = modify(ds, tb)
    X, Y = ds.inputs, ds.outputs
    total = 0.0
    # delta[j, t] = (theta_t - tb) x_i + (1 - theta_t) x_j - (1 - tb) xbar
    base_x = (1.0 - theta)[None, :, None] * X[:, None, :]
    base_y = (1.0 - theta)[None, :, None] * Y[:, None, :]
    for i in range(ds.n):
        bnd = bundle(kind, mod.outputs[i], model.predict(mod.inputs[i]))
        G = model.input_jacobian(mod.inputs[i])
        Hf = model.input_hessian(mod.inputs[i])
        quad_in = G.T @ bnd.hess_uu @ G + hessian_contraction(Hf, bnd.grad_u)
        cross = bnd.hess_yu @ G
        delta = (
            (theta - tb)[None, :, None] * X[i]
            + base_x
            - (1.0 - tb) * ds.x_mean
        ).reshape(-1, ds.d)
        eps = (
            (theta - tb)[None, :, None] * Y[i]
            + base_y
            - (1.0 - tb) * ds.y_mean
        ).reshape(-1, ds.c)
        w_flat = np.tile(wts, ds.n) / ds.n
        vals = (
            bnd.value
            + eps @ bnd.grad_y
            + delta @ (bnd.grad_u @ G)
            + 0.5 * np.einsum("bj,jk,bk->b", delta, quad_in, delta)
            + 0.5 * np.einsum("bj,jk,bk->b", eps, bnd.hess_yy, eps)
            + np.einsum("bj,jk,bk->b", eps, cross, delta)
        )
        total += float(w_flat @ vals)
    return total / ds.n


def expected_quadratic_loss(
    ds: Dataset,
    model,
    kind: LossKind,
    coeffs: MixCoefficients,
    start_nodes: int = 200,
    max_nodes: int = 6400,
    rtol: float = 1e-10,
) -> float:
    """E over (theta, partner) of the quadratic Taylor loss, by quadrature.

    Node count doubles until successive values agree to ``rtol``. The
    integrand is polynomial in theta times the mixing density, so moderate
    node counts are exact whenever alpha keeps the density smooth on [1/2, 1].
    """
    prev = None
    nodes = start_nodes
    while True:
        val = _expected_quadratic_loss_at(ds, model, kind, coeffs, nodes)
        if prev is not None and abs(val - prev) <= rtol * max(1.0, abs(val)):
            return val
        if nodes >= max_nodes:
            return val
        prev = val
        nodes *= 2


# ---------------------------------------------------------------------------
# individual checks


def check_risk_rewrite(
    ds: Dataset,
    model,
    kind: LossKind,
    alpha: float,
    seed: int = 0,
    n_perdraw: int = 100_000,
    n_mc: int = 1_000_000,
    perdraw_tol: float = 1e-12,
) -> CheckReport:
    """Per-draw identity between the pairwise and perturbed risk forms, the
    zero-mean property of the perturbations, and paired MC estimators."""
    t0 = time.perf_counter()
    coeffs = mix_coefficients(alpha)
    tb = coeffs.theta_bar
    mod = modify(ds, tb)
    rng = np.random.default_rng(seed)

    I = rng.integers(ds.n, size=n_perdraw)
    theta = sample_theta(alpha, rng, size=n_perdraw)
    J = rng.integers(ds.n, size=n_perdraw)
    vals_pair = pair_loss_values(ds, model, kind, I, J, theta)
    th = theta[:, None]
    delta = (th - tb) * ds.inputs[I] + (1.0 - th) * ds.inputs[J] - (1.0 - tb) * ds.x_mean
    eps = (th - tb) * ds.outputs[I] + (1.0 - th) * ds.outputs[J] - (1.0 - tb) * ds.y_mean
    vals_pert = loss_values(kind, mod.outputs[I] + eps, model.predict(mod.inputs[I] + delta))
    perdraw_err = float(np.max(np.abs(vals_pair - vals_pert)))

    # zero-mean perturbations, per coordinate, 4 standard errors
    mean_ok = True
    n_zero = 200_000
    for i in rng.choice(ds.n, size=min(5, ds.n), replace=False):
        th_i = sample_theta(alpha, rng, size=n_zero)[:, None]
        J_i = rng.integers(ds.n, size=n_zero)
        d_i = (th_i - tb) * ds.inputs[i] + (1.0 - th_i) * ds.inputs[J_i] - (1.0 - tb) * ds.x_mean
        e_i = (th_i - tb) * ds.outputs[i] + (1.0 - th_i) * ds.outputs[J_i] - (1.0 - tb) * ds.y_mean
        for arr in (d_i, e_i):
            se = arr.std(axis=0, ddof=1) / np.sqrt(n_zero)
            mean_ok &= bool(np.all(np.abs(arr.mean(axis=0)) <= 4.0 * np.maximum(se, 1e-300)))

    est_pair = mixup_risk_mc(ds, model, kind, alpha, n_mc, np.random.default_rng(seed + 1))
    est_pert = perturbed_erm_risk_mc(
        ds, model, kind, alpha, n_mc, np.random.default_rng(seed + 2), coeffs=coeffs
    )
    gap = abs(est_pair.mean - est_pert.mean)
    sigma = float(np.hypot(est_pair.stderr, est_pert.stderr))
    mc_ok = gap <= 4.0 * sigma

    details = (
        f"per-draw max |diff| = {perdraw_err:.3e}; zero-mean 4se: {mean_ok}; "
        f"paired MC gap {gap:.3e} vs 4 sigma {4 * sigma:.3e}: {mc_ok}"
    )
    return _report(
        "risk_rewrite_identity", perdraw_err, perdraw_tol, t0, details, extra_ok=mean_ok and mc_ok
    )


def check_covariance_formula(
    ds: Dataset,
    alpha: float,
    seed: int = 0,
    n_mc: int = 1_000_000,
    closed_tol: float = 1e-10,
    mc_rel_tol: float = 0.01,
    coeffs: MixCoefficients | None = None,
) -> CheckReport:
    """Closed-form covariances vs the direct moment expansion and Monte Carlo."""
    t0 = time.perf_counter()
    coeffs = mix_coefficients(alpha) if coeffs is None else coeffs
    worst = 0.0
    for i in range(ds.n):
        closed = per_example_covariances(ds, coeffs, i)
        oracle = exact_second_moments(ds, coeffs, i)
        for a, b in (
            (closed.sxx, oracle.sxx),
            (closed.syy, oracle.syy),
            (closed.sxy, oracle.sxy),
        ):
            scale = max(np.abs(b).max(), 1e-30)
            worst = max(worst, float(np.abs(a - b).max() / scale))

    rng = np.random.default_rng(seed)
    i = int(rng.integers(ds.n))
    tb = coeffs.theta_bar
    th = sample_theta(alpha, rng, size=n_mc)[:, None]
    J = rng.integers(ds.n, size=n_mc)
    delta = (th - tb) * ds.inputs[i] + (1.0 - th) * ds.inputs[J] - (1.0 - tb) * ds.x_mean
    eps = (th - tb) * ds.outputs[i] + (1.0 - th) * ds.outputs[J] - (1.0 - tb) * ds.y_mean
    closed = per_example_covariances(ds, coeffs, i)
    mc_rel = 0.0
    for emp, ana in (
        (delta.T @ delta / n_mc, closed.sxx),
        (eps.T @ eps / n_mc, closed.syy),
        (delta.T @ eps / n_mc, closed.sxy),
    ):
        mc_rel = max(
            mc_rel, float(np.linalg.norm(emp - ana) / max(np.linalg.norm(ana), 1e-30))
        )
    mc_ok = mc_rel <= mc_rel_tol
    details = f"closed vs oracle rel {worst:.3e}; MC rel {mc_rel:.3e} (tol {mc_rel_tol}): {mc_ok}"
    return _report("perturbation_covariances", worst, closed_tol, t0, details, extra_ok=mc_ok)


def check_penalty_decomposition(
    ds: Dataset,
    model,
    kind: LossKind,
    alpha: float,
    tol: float = 1e-7,
) -> CheckReport:
    """Quadrature-exact expectation of the Taylor loss vs the decomposition."""
    t0 = time.perf_counter()
    coeffs = mix_coefficients(alpha)
    oracle = expected_quadratic_loss(ds, model, kind, coeffs)
    br = r_terms_general(ds, model, kind, coeffs)
    err = abs(oracle - br.total)
    sign_ok = br.r1 >= -1e-12 and br.r4 >= -1e-12 and br.r3 <= 1e-12
    details = (
        f"oracle {oracle:.12f} vs total {br.total:.12f}; "
        f"r1={br.r1:.3e} r2={br.r2:.3e} r3={br.r3:.3e} r4={br.r4:.3e}; signs ok: {sign_ok}"
    )
    return _report("penalty_decomposition", err, tol, t0, details, extra_ok=sign_ok)


def _breakdown_gap(a: RegularizerBreakdown, b: RegularizerBreakdown) -> float:
    return max(
        abs(a.erm_modified - b.erm_modified),
        abs(a.r1 - b.r1),
        abs(a.r2 - b.r2),
        abs(a.r3 - b.r3),
        abs(a.r4 - b.r4),
    )


def check_loss_specializations(
    ds_class: Dataset,
    ds_scalar: Dataset,
    ds_reg: Dataset,
    models: dict,
    alpha: float,
    tol: float = 1e-10,
) -> CheckReport:
    """Specialized loss formulas must match the general path term by term."""
    t0 = time.perf_counter()
    coeffs = mix_coefficients(alpha)
    gaps = {}
    ce = r_terms_ce(ds_class, models["ce"], coeffs)
    gaps["ce"] = _breakdown_gap(ce, r_terms_general(ds_class, models["ce"], LossKind.CROSS_ENTROPY, coeffs))
    lr = r_terms_lr(ds_scalar, models["lr"], coeffs)
    gaps["lr"] = _breakdown_gap(lr, r_terms_general(ds_scalar, models["lr"], LossKind.LOGISTIC, coeffs))
    se = r_terms_se(ds_reg, models["se"], coeffs)
    gaps["se"] = _breakdown_gap(se, r_terms_general(ds_reg, models["se"], LossKind.SQUARED_ERROR, coeffs))
    structural_ok = ce.r4 == 0.0 and lr.r4 == 0.0
    worst = max(gaps.values())
    details = "; ".join(f"{k}: {v:.3e}" for k, v in gaps.items()) + f"; ce/lr r4==0: {structural_ok}"
    return _report("loss_specializations", worst, tol, t0, details, extra_ok=structural_ok)


def _exact_se_risk_quadrature(ds: Dataset, model: LinearModel, coeffs, nodes: int = 400) -> float:
    """Pairwise-mixing risk of a linear model by quadrature; independent of
    the moment-based closed form."""
    theta, wts = _theta_rule(coeffs.alpha, nodes)
    X, Y = ds.inputs, ds.outputs
    total = 0.0
    for i in range(ds.n):
        xm = theta[:, None] * X[i] + (1.0 - theta[:, None]) * X[:, None, :].reshape(ds.n, 1, ds.d)
        ym = theta[:, None] * Y[i] + (1.0 - theta[:, None]) * Y[:, None, :].reshape(ds.n, 1, ds.c)
        U = xm.reshape(-1, ds.d) @ model.W.T + model.b
        vals = 0.5 * ((ym.reshape(-1, ds.c) - U) ** 2).sum(axis=1)
        total += float((np.tile(wts, ds.n) / ds.n) @ vals)
    return total / ds.n


def check_mols(
    ds: Dataset,
    alpha: float,
    seed: int = 0,
    grad_tol: float = 1e-6,
    affine_tol: float = 1e-7,
) -> CheckReport:
    """Least-squares neutrality: mixing leaves the linear optimum unchanged.

    Verifies (a) the exact-risk gradient vanishes at the normal-equations fit
    and (b) the affine risk relation against a quadrature oracle at three
    probe parameter settings. The relation is

        risk(W, b) = 2 E[lam^2] * mean SE loss at (W, bbar) + ||b - bbar||^2 / 2

    with no additive constant; the quadrature oracle pins the coefficients
    down to machine precision.
    """
    t0 = time.perf_counter()
    coeffs = mix_coefficients(alpha)
    ols = mols_fit(ds)
    gW, gb = exact_se_mixup_gradient(ds, ols, coeffs)
    grad_norm = float(np.sqrt((gW * gW).sum() + (gb * gb).sum()))

    rng = np.random.default_rng(seed)
    m2 = lambda_second_moment(coeffs)
    affine_resid = 0.0
    for _ in range(3):
        W = rng.normal(size=ols.W.shape)
        b = rng.normal(size=ols.b.shape)
        probe = LinearModel(W=W, b=b)
        bbar = ds.y_mean - W @ ds.x_mean
        se_sum = float(
            loss_values(
                LossKind.SQUARED_ERROR, ds.outputs, ds.inputs @ W.T + bbar
            ).sum()
        )
        predicted = (2.0 * m2 / ds.n) * se_sum + 0.5 * float(((b - bbar) ** 2).sum())
        oracle = _exact_se_risk_quadrature(ds, probe, coeffs)
        affine_resid = max(affine_resid, abs(oracle - predicted))
        # the closed-form evaluator must agree with the quadrature oracle too
        affine_resid = max(affine_resid, abs(oracle - exact_se_mixup_risk(ds, probe, coeffs)))
    ok = grad_norm <= grad_tol
    details = f"gradient norm at OLS {grad_norm:.3e} (tol {grad_tol}); affine residual {affine_resid:.3e}"
    return _report("least_squares_neutrality", affine_resid, affine_tol, t0, details, extra_ok=ok)


def _newton_ce_fit(
    X: np.ndarray,
    Y: np.ndarray,
    grad_tol: float = 1e-9,
    max_iter: int = 200,
    ridge: float = 0.0,
):
    """Full-batch damped Newton for the linear cross-entropy fit f(x) = W x.

    The objective is convex; the Newton system is solved by least squares to
    tolerate the constant-logit gauge direction. Returns (W, gradient norm).
    """
    n, d = X.shape
    c = Y.shape[1]
    W = np.zeros((c, d))

    def value(Wm):
        U = X @ Wm.T
        base = float(loss_values(LossKind.CROSS_ENTROPY, Y, U).mean())
        return base + 0.5 * ridge * float((Wm * Wm).sum())

    for _ in range(max_iter):
        U = X @ W.T
        P = softmax_rows(U)
        grad = (P - Y).T @ X / n + ridge * W
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= grad_tol:
            break
        hess = np.zeros((c * d, c * d))
        for i in range(n):
            Hi = np.diag(P[i]) - np.outer(P[i], P[i])
            hess += np.kron(Hi, np.outer(X[i], X[i]))
        hess = hess / n + ridge * np.eye(c * d)
        step = np.linalg.lstsq(hess, -grad.ravel(), rcond=None)[0].reshape(c, d)
        f0 = value(W)
        descent = float((grad.ravel() @ step.ravel()))
        t = 1.0
        while t > 1e-12 and value(W + t * step) > f0 + 1e-4 * t * descent:
            t *= 0.5
        W = W + t * step
    return W, float(np.linalg.norm((softmax_rows(X @ W.T) - Y).T @ X / n + ridge * W))


def check_label_smoothing(
    ds: Dataset,
    alpha: float,
    grad_tol: float = 1e-8,
    slack: float = 1e-9,
    ridge: float = 0.0,
) -> CheckReport:
    """Entropy bound for label smoothing under the linear cross-entropy fit.

    Solves both convex problems (hard targets, and targets pulled toward the
    mean label) to gradient norm below ``grad_tol`` and verifies

        theta_bar * avg Z(p) + (1 - theta_bar) Z(ybar) <= avg Z(p_smoothed) + slack.

    On near-separable data a symmetric ridge keeps both optima finite; the
    report says when it was used. Fails as inconclusive when the optimizer
    tolerance is not reached.
    """
    t0 = time.perf_counter()
    if not ds.is_classification():
        raise ValueError("label smoothing check needs simplex outputs")
    coeffs = mix_coefficients(alpha)
    tb = coeffs.theta_bar
    X, Y = ds.inputs, ds.outputs
    Yt = ds.y_mean + tb * (Y - ds.y_mean)

    W0, g0 = _newton_ce_fit(X, Y, grad_tol=grad_tol / 10, ridge=ridge)
    W1, g1 = _newton_ce_fit(X, Yt, grad_tol=grad_tol / 10, ridge=ridge)
    if max(g0, g1) > grad_tol and ridge == 0.0:
        # retry with the symmetric ridge; the data are likely separable
        return check_label_smoothing(ds, alpha, grad_tol, slack, ridge=1e-8)
    converged = max(g0, g1) <= grad_tol

    p = softmax_rows(X @ W0.T)
    pt = softmax_rows(X @ W1.T)
    avg_z = float(np.mean([entropy(row) for row in p]))
    avg_zt = float(np.mean([entropy(row) for row in pt]))
    z_bar = entropy(ds.y_mean)
    lhs = tb * avg_z + (1.0 - tb) * z_bar
    violation = max(lhs - avg_zt, 0.0)
    secondary = avg_z <= z_bar
    plain_holds = avg_z <= avg_zt + slack
    details = (
        f"lhs {lhs:.9f} vs avg smoothed entropy {avg_zt:.9f}; grad norms "
        f"({g0:.1e}, {g1:.1e}); ridge={ridge:g}; secondary avgZ<=Z(ybar): {secondary}"
        + (f"; plain inequality: {plain_holds}" if secondary else "")
        + ("" if converged else "; INCONCLUSIVE: optimizer tolerance not reached")
    )
    extra_ok = converged and (plain_holds or not secondary)
    return _report("label_smoothing_entropy", violation, slack, t0, details, extra_ok=extra_ok)


def check_taylor(
    ds: Dataset,
    model,
    kind: LossKind,
    alpha: float,
    seed: int = 0,
    min_ratio: float = 6.0,
) -> CheckReport:
    """Remainder of the quadratic Taylor loss: zero at zero, cubic in scale.

    For the squared error with a linear model the expansion is exact, which
    is asserted directly at order-one perturbations.
    """
    t0 = time.perf_counter()
    coeffs = mix_coefficients(alpha)
    mod = modify(ds, coeffs.theta_bar)
    rng = np.random.default_rng(seed)

    def residual(i, delta, eps):
        exact = float(
            loss_values(
                kind,
                (mod.outputs[i] + eps)[None, :],
                model.predict((mod.inputs[i] + delta)[None, :]),
            )[0]
        )
        return abs(exact - quadratic_loss(mod, model, kind, i, delta, eps))

    zero_res = max(
        residual(i, np.zeros(ds.d), np.zeros(ds.c)) for i in range(min(ds.n, 5))
    )

    exact_case = kind is LossKind.SQUARED_ERROR and isinstance(model, LinearModel)
    if exact_case:
        worst = 0.0
        for _ in range(20):
            i = int(rng.integers(ds.n))
            worst = max(
                worst, residual(i, rng.normal(size=ds.d), rng.normal(size=ds.c))
            )
        details = f"zero-perturbation residual {zero_res:.3e}; exact-case residual {worst:.3e}"
        return _report(
            "taylor_exact_se_linear", worst, 1e-10, t0, details, extra_ok=zero_res <= 1e-12
        )

    res_big = res_small = 0.0
    for _ in range(30):
        i = int(rng.integers(ds.n))
        d_dir = rng.normal(size=ds.d)
        e_dir = rng.normal(size=ds.c)
        res_big += residual(i, 1e-2 * d_dir, 1e-2 * e_dir)
        res_small += residual(i, 5e-3 * d_dir, 5e-3 * e_dir)
    ratio = res_big / max(res_small, 1e-300)
    details = (
        f"zero-perturbation residual {zero_res:.3e}; mean residual "
        f"{res_big / 30:.3e} -> {res_small / 30:.3e}, decay ratio {ratio:.2f}"
    )
    # report the shortfall below the required decay factor as the discrepancy
    return _report(
        "taylor_cubic_remainder",
        max(min_ratio - ratio, 0.0),
        0.0,
        t0,
        details,
        extra_ok=zero_res <= 1e-12,
    )


# ---------------------------------------------------------------------------
# canned suite


def _random_regression(n, d, c, seed) -> Dataset:
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    W = rng.normal(size=(c, d))
    Y = X @ W.T + 0.3 * rng.normal(size=(n, c))
    return Dataset(X, Y)


def _overlapping_classes(n, d, c, seed) -> Dataset:
    """Linearly non-separable classification data: heavily overlapping blobs."""
    rng = np.random.default_rng(seed)
    centers = 0.5 * rng.normal(size=(c, d))
    labels = rng.integers(c, size=n)
    X = centers[labels] + rng.normal(size=(n, d))
    Y = np.eye(c)[labels]
    return Dataset(X, Y)


def _scalar_labels(ds: Dataset) -> Dataset:
    """View a one-hot binary dataset as scalar {0,1} targets for the logistic loss."""
    return Dataset(ds.inputs.copy(), ds.outputs[:, 1:2].copy())


def run_all(seed: int = 0) -> list[CheckReport]:
    """Execute every check on small canned instances."""
    rng = np.random.default_rng(seed)
    alpha = 1.0
    reports: list[CheckReport] = []

    moons50 = make_two_moons(50, 0.05, seed)
    rff50 = init_rff(2, 80, 3.0, 2, seed + 1)
    rff50.w = 0.5 * rng.normal(size=rff50.w.shape)
    reg10 = _random_regression(10, 3, 2, seed + 2)
    lin_reg = LinearModel(W=rng.normal(size=(2, 3)), b=rng.normal(size=2))
    reports.append(check_risk_rewrite(reg10, lin_reg, LossKind.SQUARED_ERROR, alpha, seed=seed, n_perdraw=20_000, n_mc=200_000))
    reports.append(check_risk_rewrite(moons50, rff50, LossKind.CROSS_ENTROPY, alpha, seed=seed, n_perdraw=100_000, n_mc=1_000_000))

    moons20 = make_two_moons(20, 0.05, seed + 3)
    reports.append(check_covariance_formula(moons20, alpha, seed=seed))
    reports.append(check_covariance_formula(_random_regression(12, 3, 2, seed + 4), 0.7, seed=seed))

    moons10 = make_two_moons(10, 0.05, seed + 5)
    rff10 = init_rff(2, 40, 3.0, 2, seed + 6)
    rff10.w = 0.5 * rng.normal(size=rff10.w.shape)
    rff10_scalar = RffModel(rff10.S, rff10.B, rff10.w[:1].copy())
    reports.append(check_penalty_decomposition(moons10, rff10, LossKind.CROSS_ENTROPY, alpha))
    reports.append(check_penalty_decomposition(_scalar_labels(moons10), rff10_scalar, LossKind.LOGISTIC, alpha))
    reports.append(check_penalty_decomposition(reg10, lin_reg, LossKind.SQUARED_ERROR, alpha))

    reports.append(
        check_loss_specializations(
            moons10,
            _scalar_labels(moons10),
            reg10,
            {"ce": rff10, "lr": rff10_scalar, "se": lin_reg},
            alpha,
        )
    )

    reports.append(check_mols(_random_regression(20, 3, 2, seed + 7), alpha, seed=seed))
    reports.append(check_label_smoothing(_overlapping_classes(40, 3, 2, seed + 8), alpha))
    reports.append(check_taylor(moons10, rff10, LossKind.CROSS_ENTROPY, alpha, seed=seed))
    reports.append(check_taylor(reg10, lin_reg, LossKind.SQUARED_ERROR, alpha, seed=seed))
    return reports


def reports_to_json(reports: list[CheckReport]) -> str:
    return json.dumps([asdict(r) for r in reports], indent=2)


def format_report_table(reports: list[CheckReport]) -> str:
    lines = [f"{'check':34s} {'status':6s} {'discrepancy':>12s} {'tolerance':>10s} {'secs':>7s}"]
    for r in reports:
        lines.append(
            f"{r.name:34s} {'PASS' if r.passed else 'FAIL':6s} "
            f"{r.discrepancy:12.3e} {r.tolerance:10.1e} {r.runtime_s:7.2f}"
        )
    return "\n".join(lines)
