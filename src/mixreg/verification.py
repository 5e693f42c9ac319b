"""Numerical certification of the library's structural identities.

Each check pairs a closed-form path with an independent oracle:

* pairwise-vs-perturbed risk: exact per-draw summand identity plus paired
  Monte-Carlo estimators;
* perturbation covariances: direct moment expansion and Monte Carlo against
  the closed form;
* the four-penalty decomposition: the quadratic Taylor loss summed over
  every mix of a row with a partner, never the completed-square algebra;
* least-squares neutrality: the exact mixing risk for the affine risk
  relation, and the normal-equations fit;
* the label-smoothing entropy bound: high-precision Newton solves of both
  convex problems;
* the Taylor remainder: cubic decay under perturbation halving.

The oracles live here, apart from the code they certify:
:func:`exact_second_moments`, the perturbation second moments expanded
directly; :func:`quadratic_loss`, the loss's second-order Taylor expansion;
and ``_mixes``, every row's mixes with every partner at the nodes of one
Gauss–Jacobi rule for the folded weight, over which
:func:`expected_quadratic_loss` sums the Taylor loss and
``_exact_mixup_risk`` the loss, the exact pairwise-mixing risk. Tolerances,
node counts and iteration caps are fixed in each check. Reports carry the
measured discrepancy and its tolerance, so they are self-describing, and the
check's wall and CPU seconds.

The Monte Carlo parts (the per-draw identity and zero-mean moments of
:func:`check_risk_rewrite`, the Monte Carlo row of
:func:`check_covariance_formula`) run on ``mixup``'s blocks, like the risk
estimators: one block, one generator. Each block draws its rows (unless the
check fixes one), folded weights and partners from its own generator,
reduces them on the worker that took it to a largest gap, or to a row's
per-coordinate moments and covariance sums in one loop, and the check
merges the block results in block order. So a check holds one block of
draws per worker whatever its draw count, and its numbers do not depend on
the worker count.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, asdict

import numpy as np

from .data import Dataset, make_two_moons, modify, shrink
from .losses import LossKind, bundle, entropy, hess_uu_rows, loss_values, softmax_rows
from .models import LinearModel, RffModel, hessian_contraction, init_rff
from .mixup import (
    _block_draws,
    _checked_count,
    _monte_carlo,
    _Moments,
    _pair_losses,
    _perturbed_losses,
    mixup_risk_mc,
    perturbation,
    perturbed_erm_risk_mc,
)
from .regularizers import (
    PerExampleCovariances,
    RegularizerBreakdown,
    exact_se_mixup_gradient,
    exact_se_mixup_risk,
    lambda_second_moment,
    mols_fit,
    perturbation_covariances,
    r_terms_ce,
    r_terms_general,
    r_terms_lr,
    r_terms_se,
)
from .truncbeta import MixCoefficients, mix_coefficients, trunc_beta_raw_moment

__all__ = [
    "CheckReport",
    "exact_second_moments",
    "quadratic_loss",
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
    cpu_s: float = 0.0
    # the mixing alpha the check ran at; it fixes the Beta sampler's branch
    # (``truncbeta._symmetric_beta``: uniform draws at 1, ``Generator.beta``
    # elsewhere)
    alpha: float | None = None


def _clocks() -> tuple[float, float]:
    """Wall seconds and this process's CPU seconds (all threads)."""
    return time.perf_counter(), time.process_time()


def _worst(parts) -> float:
    """The largest of the parts, NaN when any part is NaN (Python's ``max``
    keeps a NaN only when it comes first)."""
    return float(np.max(list(parts)))


def _report(name, alpha, discrepancy, tolerance, t0, details="", extra_ok=True) -> CheckReport:
    """The check's report at mixing alpha; t0 holds its ``_clocks()`` at the start."""
    wall, cpu = _clocks()
    return CheckReport(
        name=name,
        passed=bool(discrepancy <= tolerance and extra_ok),
        discrepancy=float(discrepancy),
        tolerance=float(tolerance),
        runtime_s=wall - t0[0],
        cpu_s=cpu - t0[1],
        details=details,
        alpha=float(alpha),
    )


# ---------------------------------------------------------------------------
# oracles


def exact_second_moments(ds: Dataset, coeffs: MixCoefficients) -> PerExampleCovariances:
    """E[delta delta^T], E[eps eps^T] and E[delta eps^T] of every row's
    perturbation, expanded directly and stacked over rows like
    ``perturbation_covariances(ds, coeffs)``.

    The expectation over the partner index is a finite sum and the expectation
    over theta uses only its first two raw moments; the closed-form covariance
    expression is never invoked.
    """
    tb = coeffs.theta_bar
    m2 = trunc_beta_raw_moment(coeffs.alpha, 2)
    a = m2 - tb * tb            # E[(theta - tb)^2]
    b = 1.0 - 2.0 * tb + m2     # E[(1 - theta)^2]
    c_ab = tb * tb - m2         # E[(theta - tb)(1 - theta)]
    r = 1.0 - tb                # E[1 - theta]

    def outer(u, v):
        return u[..., :, None] * v[..., None, :]

    def second_moment(Z, zbar, W, wbar):
        return (
            a * outer(Z, W)
            + b * (Z.T @ W / ds.n)
            - r * r * outer(zbar, wbar)
            + c_ab * (outer(Z, wbar) + outer(zbar, W))
        )

    X, Y, xbar, ybar = ds.inputs, ds.outputs, ds.x_mean, ds.y_mean
    return PerExampleCovariances(
        sxx=second_moment(X, xbar, X, xbar),
        syy=second_moment(Y, ybar, Y, ybar),
        sxy=second_moment(X, xbar, Y, ybar),
    )


def quadratic_loss(ds_mod: Dataset, model, kind: LossKind, i: int, delta, epsilon):
    """Second-order Taylor expansion of the loss about row i of the shrunk data.

    A (d,) delta and a (c,) epsilon give a float; (k, d) and (k, c) stacks
    give the k values. Exact for the squared error with a linear model;
    otherwise carries a cubic remainder in the perturbation scale.
    """
    xt = ds_mod.inputs[i]
    bnd = bundle(kind, ds_mod.outputs[i], model.predict(xt))
    G = model.input_jacobian(xt)
    quad_in = G.T @ bnd.hess_uu @ G + hessian_contraction(model.input_hessian(xt), bnd.grad_u)
    single = np.ndim(delta) == 1
    delta, eps = (np.atleast_2d(np.asarray(z, dtype=float)) for z in (delta, epsilon))
    vals = (
        bnd.value
        + eps @ bnd.grad_y
        + delta @ (bnd.grad_u @ G)
        + 0.5 * np.einsum("bj,jk,bk->b", delta, quad_in, delta)
        + 0.5 * np.einsum("bj,jk,bk->b", eps, bnd.hess_yy, eps)
        + np.einsum("bj,jk,bk->b", eps, bnd.hess_yu @ G, delta)
    )
    return float(vals[0]) if single else vals


# The oracles integrate degree-2 polynomials in theta times theta^(alpha-1),
# analytic inside the Bernstein ellipse of [1/2, 1] through theta = 0 (rho =
# 3 + 2 sqrt 2), so the rule's error falls like rho^(-2K): round-off from 16.
_THETA_NODES = 32


def _theta_rule(alpha: float):
    """Gauss–Jacobi nodes and weights for the folded mixing density on [1/2, 1],
    infinite at 1 for alpha < 1: Golub–Welsch for the weight (1-x)^(alpha-1)
    on [-1, 1], mapped to theta = 0.75 + 0.25 x and times theta^(alpha-1).
    The weights are formed in log space, since theta^(alpha-1) underflows
    from alpha near 1100; the rule's first two moments are exact to
    round-off up to alpha = 20, within 2e-11 at 200 and 1e-5 at 1000."""
    a = alpha - 1.0
    n = np.arange(1.0, _THETA_NODES)
    s = 2.0 * n + a
    # monic Jacobi recurrence; its general n = 0 diagonal entry is 0/0 at alpha = 1
    diag = np.concatenate(([-a / (a + 2.0)], -a * a / (s * (s + 2.0))))
    off = 2.0 * n * (n + a) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    x, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    theta = 0.75 + 0.25 * x
    log_w = 2.0 * np.log(np.abs(vecs[0])) + a * np.log(theta)
    weights = np.exp(log_w - log_w.max())
    return theta, weights / weights.sum()


def _mixes(ds: Dataset, alpha: float):
    """The (partner j, node t) weights of the mixing expectation over one
    row, and row by row the mixes theta_t z_i + (1 - theta_t) z_j for z the
    inputs and the outputs, (n K, d) and (n K, c), at ``_theta_rule``'s nodes."""
    theta, wts = _theta_rule(alpha)
    own, partner = theta[None, :, None], (1.0 - theta)[None, :, None]

    def row(i: int):
        return tuple((own * z[i] + partner * z[:, None, :]).reshape(-1, z.shape[1])
                     for z in (ds.inputs, ds.outputs))

    return np.tile(wts, ds.n) / ds.n, map(row, range(ds.n))


def expected_quadratic_loss(ds: Dataset, model, kind: LossKind, coeffs: MixCoefficients) -> float:
    """E over (theta, partner) of the quadratic Taylor loss, summed over
    ``_mixes`` with the mix minus the shrunk row as the perturbation. Per
    partner it is a degree-2 polynomial in theta, so the sum is exact to
    round-off for alpha up to 20 and within 2e-11 up to 200, alpha < 1
    included."""
    weights, rows = _mixes(ds, coeffs.alpha)
    mod = modify(ds, coeffs.theta_bar)
    return sum(float(weights @ quadratic_loss(mod, model, kind, i, x - mod.inputs[i], y - mod.outputs[i]))
               for i, (x, y) in enumerate(rows)) / ds.n


def _exact_mixup_risk(ds: Dataset, model, kind: LossKind, coeffs: MixCoefficients) -> float:
    """The pairwise-mixing risk of any model and loss, summed over the mixes
    of ``_mixes``, apart from the closed forms and the Monte Carlo paths.
    For a loss smooth along each pair's segment it is exact to round-off up
    to alpha = 20, within 2e-11 at 200, and not accurate from about alpha =
    1000, like ``_theta_rule``'s moments."""
    weights, rows = _mixes(ds, coeffs.alpha)
    return sum(float(weights @ loss_values(kind, y, model.predict(x))) for x, y in rows) / ds.n


# ---------------------------------------------------------------------------
# Monte Carlo loops of the checks


def _perdraw_gap(ds, model, kind, alpha, theta_bar, rng, n: int) -> float:
    """Largest |pairwise - perturbed| summand over n draws (i, theta, j)."""
    mod = modify(ds, theta_bar)
    worst = np.zeros(())

    def block(g, k: int) -> float:
        i, j, th = _block_draws(ds, g, k, alpha, fold=True)
        gap = _pair_losses(ds, model, kind, i, j, th)
        gap -= _perturbed_losses(ds, mod, model, kind, i, j, th, theta_bar)
        return np.max(np.abs(gap, out=gap))

    _monte_carlo(rng, n, model, block, lambda gap: np.maximum(worst, gap, out=worst))
    return float(worst)


def _perturbation_moments(ds, alpha, theta_bar, i, rng, n: int):
    """Over n draws of row i's perturbations: the moments of each coordinate,
    the d input coordinates then the c output ones, and the sums of
    delta delta^T, eps eps^T and delta eps^T."""
    moments = [_Moments() for _ in range(ds.d + ds.c)]
    sums = (np.zeros((ds.d, ds.d)), np.zeros((ds.c, ds.c)), np.zeros((ds.d, ds.c)))

    def block(g, k: int):
        _, j, th = _block_draws(ds, g, k, alpha, fold=True, row=i)
        delta, eps = perturbation(ds, theta_bar, i, j, th)
        return ([_Moments.of(coord) for coord in (*delta.T, *eps.T)],
                (delta.T @ delta, eps.T @ eps, delta.T @ eps))

    def merge(parts) -> None:
        for acc, part in zip(moments, parts[0]):
            acc.merge(part)
        for acc, part in zip(sums, parts[1]):
            acc += part

    _monte_carlo(rng, n, None, block, merge)
    return moments, sums


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
) -> CheckReport:
    """Per-draw identity between the pairwise and perturbed risk forms, the
    zero-mean property of the perturbations, and paired MC estimators.

    Every part runs one ``mixup`` block per worker at a time: its draws and
    their loss vectors or perturbations, whatever the draw counts."""
    t0 = _clocks()
    n_perdraw, n_mc = _checked_count(n_perdraw, "n_perdraw"), _checked_count(n_mc, "n_mc")
    tb = mix_coefficients(alpha).theta_bar
    rng = np.random.default_rng(seed)
    perdraw_err = _perdraw_gap(ds, model, kind, alpha, tb, rng, n_perdraw)

    # zero-mean perturbations, per coordinate, 4 standard errors
    zero_mean = [acc.estimate() for i in rng.choice(ds.n, size=min(5, ds.n), replace=False)
                 for acc in _perturbation_moments(ds, alpha, tb, i, rng, 200_000)[0]]
    mean_ok = all(abs(est.mean) <= 4.0 * max(est.stderr, 1e-300) for est in zero_mean)

    est_pair = mixup_risk_mc(ds, model, kind, alpha, n_mc, np.random.default_rng(seed + 1))
    est_pert = perturbed_erm_risk_mc(ds, model, kind, alpha, n_mc, np.random.default_rng(seed + 2))
    gap = abs(est_pair.mean - est_pert.mean)
    sigma = float(np.hypot(est_pair.stderr, est_pert.stderr))
    mc_ok = gap <= 4.0 * sigma

    details = (
        f"per-draw max |diff| = {perdraw_err:.3e}; zero-mean 4se: {mean_ok}; "
        f"paired MC gap {gap:.3e} vs 4 sigma {4 * sigma:.3e}: {mc_ok}"
    )
    return _report(
        "risk_rewrite_identity", alpha, perdraw_err, 1e-12, t0, details, extra_ok=mean_ok and mc_ok
    )


def check_covariance_formula(
    ds: Dataset,
    alpha: float,
    seed: int = 0,
    n_mc: int = 1_000_000,
    coeffs: MixCoefficients | None = None,
) -> CheckReport:
    """Closed-form covariances vs the direct moment expansion and Monte Carlo.

    Both stacks are compared whole, each row relative to its largest oracle
    entry. The Monte Carlo part holds one ``mixup`` block of draws and
    perturbations per worker, whatever n_mc."""
    t0 = _clocks()
    n_mc = _checked_count(n_mc, "n_mc")
    coeffs = mix_coefficients(alpha) if coeffs is None else coeffs
    closed = perturbation_covariances(ds, coeffs)
    oracle = exact_second_moments(ds, coeffs)
    blocks = [(getattr(closed, k), getattr(oracle, k)) for k in ("sxx", "syy", "sxy")]

    def row_max(a):
        return np.abs(a).max(axis=(1, 2))

    worst = _worst(float(np.max(row_max(a - b) / np.maximum(row_max(b), 1e-30))) for a, b in blocks)

    rng = np.random.default_rng(seed)
    i = int(rng.integers(ds.n))
    sums = _perturbation_moments(ds, alpha, coeffs.theta_bar, i, rng, n_mc)[1]
    mc_rel = _worst(
        float(np.linalg.norm(s / n_mc - a[i]) / max(np.linalg.norm(a[i]), 1e-30))
        for s, (a, _) in zip(sums, blocks)
    )
    mc_rel_tol = 0.01
    mc_ok = mc_rel <= mc_rel_tol
    details = f"closed vs oracle rel {worst:.3e}; MC rel {mc_rel:.3e} (tol {mc_rel_tol}): {mc_ok}"
    return _report("perturbation_covariances", alpha, worst, 1e-10, t0, details, extra_ok=mc_ok)


def check_penalty_decomposition(
    ds: Dataset,
    model,
    kind: LossKind,
    alpha: float,
) -> CheckReport:
    """Quadrature-exact expectation of the Taylor loss vs the decomposition."""
    t0 = _clocks()
    coeffs = mix_coefficients(alpha)
    oracle = expected_quadratic_loss(ds, model, kind, coeffs)
    br = r_terms_general(ds, model, kind, coeffs)
    err = abs(oracle - br.total)
    sign_ok = br.r1 >= -1e-12 and br.r4 >= -1e-12 and br.r3 <= 1e-12
    details = (
        f"oracle {oracle:.12f} vs total {br.total:.12f}; "
        f"r1={br.r1:.3e} r2={br.r2:.3e} r3={br.r3:.3e} r4={br.r4:.3e}; signs ok: {sign_ok}"
    )
    return _report("penalty_decomposition", alpha, err, 1e-7, t0, details, extra_ok=sign_ok)


def _breakdown_gap(a: RegularizerBreakdown, b: RegularizerBreakdown) -> float:
    return _worst(abs(getattr(a, k) - getattr(b, k)) for k in ("erm_modified", "r1", "r2", "r3", "r4"))


def check_loss_specializations(
    ds_class: Dataset,
    ds_scalar: Dataset,
    ds_reg: Dataset,
    models: dict,
    alpha: float,
) -> CheckReport:
    """Specialized loss formulas must match the general path term by term."""
    t0 = _clocks()
    coeffs = mix_coefficients(alpha)
    gaps = {}
    ce = r_terms_ce(ds_class, models["ce"], coeffs)
    gaps["ce"] = _breakdown_gap(ce, r_terms_general(ds_class, models["ce"], LossKind.CROSS_ENTROPY, coeffs))
    lr = r_terms_lr(ds_scalar, models["lr"], coeffs)
    gaps["lr"] = _breakdown_gap(lr, r_terms_general(ds_scalar, models["lr"], LossKind.LOGISTIC, coeffs))
    se = r_terms_se(ds_reg, models["se"], coeffs)
    gaps["se"] = _breakdown_gap(se, r_terms_general(ds_reg, models["se"], LossKind.SQUARED_ERROR, coeffs))
    structural_ok = ce.r4 == 0.0 and lr.r4 == 0.0
    worst = _worst(gaps.values())
    details = "; ".join(f"{k}: {v:.3e}" for k, v in gaps.items()) + f"; ce/lr r4==0: {structural_ok}"
    return _report("loss_specializations", alpha, worst, 1e-10, t0, details, extra_ok=structural_ok)


def check_mols(ds: Dataset, alpha: float, seed: int = 0) -> CheckReport:
    """Least-squares neutrality: mixing leaves the linear optimum unchanged.

    Verifies (a) the exact-risk gradient vanishes at the normal-equations fit
    and (b) the affine risk relation against the exact mixing risk
    (``_exact_mixup_risk``) at three probe parameter settings. The relation is

        risk(W, b) = 2 E[lam^2] * mean SE loss at (W, bbar) + ||b - bbar||^2 / 2

    with no additive constant; the exact risk pins the coefficients down to
    machine precision.
    """
    t0 = _clocks()
    coeffs = mix_coefficients(alpha)
    ols = mols_fit(ds)
    gW, gb = exact_se_mixup_gradient(ds, ols, coeffs)
    grad_norm = float(np.sqrt((gW * gW).sum() + (gb * gb).sum()))

    rng = np.random.default_rng(seed)
    m2 = lambda_second_moment(coeffs)
    resids = []
    for _ in range(3):
        probe = LinearModel(W=rng.normal(size=ols.W.shape), b=rng.normal(size=ols.b.shape))
        bbar = ds.y_mean - probe.W @ ds.x_mean
        se_sum = float(loss_values(LossKind.SQUARED_ERROR, ds.outputs, ds.inputs @ probe.W.T + bbar).sum())
        predicted = (2.0 * m2 / ds.n) * se_sum + 0.5 * float(((probe.b - bbar) ** 2).sum())
        oracle = _exact_mixup_risk(ds, probe, LossKind.SQUARED_ERROR, coeffs)
        # the closed-form evaluator must agree with the exact risk too
        resids += [abs(oracle - predicted), abs(oracle - exact_se_mixup_risk(ds, probe, coeffs))]
    affine_resid = _worst(resids)
    grad_tol = 1e-6
    ok = grad_norm <= grad_tol
    details = f"gradient norm at OLS {grad_norm:.3e} (tol {grad_tol}); affine residual {affine_resid:.3e}"
    return _report("least_squares_neutrality", alpha, affine_resid, 1e-7, t0, details, extra_ok=ok)


def _newton_ce_fit(X: np.ndarray, Y: np.ndarray, grad_tol: float = 1e-9, ridge: float = 0.0):
    """Full-batch damped Newton for the linear cross-entropy fit f(x) = W x,
    at most 200 steps.

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

    for _ in range(200):
        U = X @ W.T
        P = softmax_rows(U)
        grad = (P - Y).T @ X / n + ridge * W
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= grad_tol:
            break
        # sum_i kron(H_i, x_i x_i^T) / n, H_i the loss curvature of row i
        hess = np.einsum("iab,ij,ik->ajbk", hess_uu_rows(LossKind.CROSS_ENTROPY, U), X, X)
        hess = hess.reshape(c * d, c * d) / n + ridge * np.eye(c * d)
        step = np.linalg.lstsq(hess, -grad.ravel(), rcond=None)[0].reshape(c, d)
        f0 = value(W)
        descent = float((grad.ravel() @ step.ravel()))
        t = 1.0
        while t > 1e-12 and value(W + t * step) > f0 + 1e-4 * t * descent:
            t *= 0.5
        W = W + t * step
    return W, float(np.linalg.norm((softmax_rows(X @ W.T) - Y).T @ X / n + ridge * W))


def check_label_smoothing(ds: Dataset, alpha: float) -> CheckReport:
    """Entropy bound for label smoothing under the linear cross-entropy fit.

    Solves both convex problems (hard targets, and targets pulled toward the
    mean label) to gradient norm below 1e-8 and verifies

        theta_bar * avg Z(p) + (1 - theta_bar) Z(ybar) <= avg Z(p_smoothed) + 1e-9.

    On near-separable data, where the plain solves miss the gradient norm, a
    symmetric ridge of 1e-8 keeps both optima finite; the report says when it
    was used. Fails as inconclusive when the optimizer tolerance is not
    reached.
    """
    t0 = _clocks()
    if not ds.is_classification():
        raise ValueError("label smoothing check needs simplex outputs")
    grad_tol, slack = 1e-8, 1e-9
    coeffs = mix_coefficients(alpha)
    tb = coeffs.theta_bar
    X, Y = ds.inputs, ds.outputs
    Yt = shrink(Y, ds.y_mean, tb)

    for ridge in (0.0, 1e-8):
        W0, g0 = _newton_ce_fit(X, Y, grad_tol=grad_tol / 10, ridge=ridge)
        W1, g1 = _newton_ce_fit(X, Yt, grad_tol=grad_tol / 10, ridge=ridge)
        converged = _worst((g0, g1)) <= grad_tol
        if converged:
            break

    p = softmax_rows(X @ W0.T)
    pt = softmax_rows(X @ W1.T)
    avg_z = float(entropy(p).mean())
    avg_zt = float(entropy(pt).mean())
    z_bar = entropy(ds.y_mean)
    lhs = float(shrink(avg_z, z_bar, tb))
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
    return _report("label_smoothing_entropy", alpha, violation, slack, t0, details, extra_ok=extra_ok)


def check_taylor(
    ds: Dataset,
    model,
    kind: LossKind,
    alpha: float,
    seed: int = 0,
) -> CheckReport:
    """Remainder of the quadratic Taylor loss: zero at zero, cubic in scale
    (a decay factor of at least 6 when the perturbation scale halves).

    For the squared error with a linear model the expansion is exact, which
    is asserted directly at order-one perturbations.
    """
    t0 = _clocks()
    coeffs = mix_coefficients(alpha)
    mod = modify(ds, coeffs.theta_bar)
    rng = np.random.default_rng(seed)

    def residual(i, delta, eps):
        exact = loss_values(kind, (mod.outputs[i] + eps)[None],
                            model.predict((mod.inputs[i] + delta)[None]))[0]
        return abs(exact - quadratic_loss(mod, model, kind, i, delta, eps))

    zero_res = _worst(residual(i, np.zeros(ds.d), np.zeros(ds.c)) for i in range(min(ds.n, 5)))

    exact_case = kind is LossKind.SQUARED_ERROR and isinstance(model, LinearModel)
    if exact_case:
        worst = _worst(
            residual(int(rng.integers(ds.n)), rng.normal(size=ds.d), rng.normal(size=ds.c))
            for _ in range(20)
        )
        details = f"zero-perturbation residual {zero_res:.3e}; exact-case residual {worst:.3e}"
        return _report(
            "taylor_exact_se_linear", alpha, worst, 1e-10, t0, details, extra_ok=zero_res <= 1e-12
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
        alpha,
        max(6.0 - ratio, 0.0),
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
    decompositions = [
        (moons10, rff10, LossKind.CROSS_ENTROPY),
        (_scalar_labels(moons10), rff10_scalar, LossKind.LOGISTIC),
        (reg10, lin_reg, LossKind.SQUARED_ERROR),
    ]
    reports += [check_penalty_decomposition(*case, alpha) for case in decompositions]

    reports.append(
        check_loss_specializations(
            moons10,
            _scalar_labels(moons10),
            reg10,
            {"ce": rff10, "lr": rff10_scalar, "se": lin_reg},
            alpha,
        )
    )

    reg20 = _random_regression(20, 3, 2, seed + 7)
    reports.append(check_mols(reg20, alpha, seed=seed))
    reports.append(check_label_smoothing(_overlapping_classes(40, 3, 2, seed + 8), alpha))
    reports.append(check_taylor(moons10, rff10, LossKind.CROSS_ENTROPY, alpha, seed=seed))
    reports.append(check_taylor(reg10, lin_reg, LossKind.SQUARED_ERROR, alpha, seed=seed))

    # the quadrature oracles where the folded density is infinite at theta = 1
    reports += [check_penalty_decomposition(*case, 0.2) for case in decompositions]
    reports.append(check_mols(reg20, 0.2, seed=seed))
    return reports


def reports_to_json(reports: list[CheckReport]) -> str:
    return json.dumps([asdict(r) for r in reports], indent=2)


def format_report_table(reports: list[CheckReport]) -> str:
    lines = [f"{'check':34s} {'alpha':>5s} {'status':6s} {'discrepancy':>12s} {'tolerance':>10s} {'secs':>7s}"]
    for r in reports:
        lines.append(
            f"{r.name:34s} {r.alpha!s:>5} {'PASS' if r.passed else 'FAIL':6s} "
            f"{r.discrepancy:12.3e} {r.tolerance:10.1e} {r.runtime_s:7.2f}"
        )
    return "\n".join(lines)
