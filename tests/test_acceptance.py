"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. The two-moons experiment (criterion 9) dominates the runtime at
roughly two minutes on one core.
"""

import time

import numpy as np

from conftest import central_cross_hessian, central_grad, central_hessian, central_jacobian
from mixreg.data import Dataset, make_two_moons
from mixreg.experiment import ExperimentSpec, run_seed
from mixreg.losses import LossKind, bundle, loss_values
from mixreg.metrics import Rescale, predict
from mixreg.mixup import mixup_risk_mc, pair_loss_values, perturbed_erm_risk_mc
from mixreg.models import LinearModel, RffModel, init_rff
from mixreg.regularizers import (
    exact_se_mixup_gradient,
    lambda_second_moment,
    mols_fit,
    modify,
    per_example_covariances,
    r_terms_ce,
    r_terms_general,
    r_terms_lr,
    r_terms_se,
)
from mixreg.truncbeta import mix_coefficients, sample_theta
from mixreg.verification import (
    _exact_mixup_risk,
    _newton_ce_fit,
    exact_second_moments,
    expected_quadratic_loss,
    quadratic_loss,
)


def _declare(num: int, passed: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num:02d}: {'PASS' if passed else 'FAIL'} | {detail}"
    print(line)
    assert passed, line


def _moons_instance(seed=0):
    spec = ExperimentSpec()
    from mixreg.experiment import make_instance

    return make_instance(spec, seed)


def test_criterion_01_risk_rewrite_identity():
    """Per-draw identity < 1e-12 over 1e5 draws (under 10 s); estimators 4 sigma."""
    ds_train, _ = _moons_instance(0)
    model = init_rff(2, 1000, 10.0, 2, seed=1)
    model.w = 0.3 * np.random.default_rng(1).normal(size=model.w.shape)
    alpha = 1.0
    coeffs = mix_coefficients(alpha)
    mod = modify(ds_train, coeffs.theta_bar)
    rng = np.random.default_rng(2)
    n_draws = 100_000

    t0 = time.perf_counter()
    I = rng.integers(ds_train.n, size=n_draws)
    theta = sample_theta(alpha, rng, size=n_draws)
    J = rng.integers(ds_train.n, size=n_draws)
    pair_vals = pair_loss_values(ds_train, model, LossKind.CROSS_ENTROPY, I, J, theta)
    th = theta[:, None]
    tb = coeffs.theta_bar
    delta = (th - tb) * ds_train.inputs[I] + (1 - th) * ds_train.inputs[J] - (1 - tb) * ds_train.x_mean
    eps = (th - tb) * ds_train.outputs[I] + (1 - th) * ds_train.outputs[J] - (1 - tb) * ds_train.y_mean
    pert_vals = loss_values(
        LossKind.CROSS_ENTROPY, mod.outputs[I] + eps, model.predict(mod.inputs[I] + delta)
    )
    perdraw = float(np.abs(pair_vals - pert_vals).max())
    elapsed = time.perf_counter() - t0

    est_a = mixup_risk_mc(ds_train, model, LossKind.CROSS_ENTROPY, alpha, 1_000_000,
                          np.random.default_rng(3))
    est_b = perturbed_erm_risk_mc(ds_train, model, LossKind.CROSS_ENTROPY, alpha, 1_000_000,
                                  np.random.default_rng(4))
    gap = abs(est_a.mean - est_b.mean)
    four_sigma = 4 * float(np.hypot(est_a.stderr, est_b.stderr))
    ok = perdraw < 1e-12 and elapsed < 10.0 and gap <= four_sigma
    _declare(1, ok, f"per-draw {perdraw:.2e} (<1e-12) in {elapsed:.1f}s; "
                    f"MC gap {gap:.2e} <= 4sigma {four_sigma:.2e}")


def test_criterion_02_perturbation_covariances():
    """Closed form vs oracle < 1e-10 on 20 random datasets; MC < 1%; 5/48 case."""
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n, d, c = int(rng.integers(3, 12)), int(rng.integers(1, 4)), int(rng.integers(1, 3))
        ds = Dataset(rng.normal(size=(n, d)), rng.normal(size=(n, c)))
        coeffs = mix_coefficients(float(rng.uniform(0.2, 4.0)))
        oracle = exact_second_moments(ds, coeffs)
        for i in range(n):
            closed = per_example_covariances(ds, coeffs, i)
            for a, b in ((closed.sxx, oracle.sxx[i]), (closed.syy, oracle.syy[i]),
                         (closed.sxy, oracle.sxy[i])):
                worst = max(worst, float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-30)))

    ds = make_two_moons(20, 0.05, seed=0)
    coeffs = mix_coefficients(1.0)
    rng = np.random.default_rng(5)
    n_mc, i = 1_000_000, 3
    th = sample_theta(1.0, rng, size=n_mc)[:, None]
    J = rng.integers(ds.n, size=n_mc)
    tb = coeffs.theta_bar
    delta = (th - tb) * ds.inputs[i] + (1 - th) * ds.inputs[J] - (1 - tb) * ds.x_mean
    closed = per_example_covariances(ds, coeffs, i)
    mc_rel = float(np.linalg.norm(delta.T @ delta / n_mc - closed.sxx) / np.linalg.norm(closed.sxx))

    two_point = Dataset(np.array([[-1.0], [1.0]]), np.array([[0.0], [0.0]]))
    hand = per_example_covariances(two_point, mix_coefficients(1.0), 1).sxx[0, 0]
    hand_ok = abs(hand - 5.0 / 48.0) < 1e-12
    ok = worst < 1e-10 and mc_rel < 0.01 and hand_ok
    _declare(2, ok, f"oracle rel {worst:.2e} (<1e-10); MC rel {mc_rel:.2e} (<1%); "
                    f"5/48 case {hand:.9f}")


def test_criterion_03_penalty_decomposition():
    """Quadrature expectation equals the decomposition to 1e-7 for all losses."""
    t0 = time.perf_counter()
    moons = make_two_moons(10, 0.05, seed=1)
    alpha = 1.0
    coeffs = mix_coefficients(alpha)
    gaps = {}

    rff_ce = init_rff(2, 1000, 10.0, 2, seed=2)
    rff_ce.w = 0.3 * np.random.default_rng(2).normal(size=rff_ce.w.shape)
    gaps["rff+ce"] = abs(
        expected_quadratic_loss(moons, rff_ce, LossKind.CROSS_ENTROPY, coeffs)
        - r_terms_general(moons, rff_ce, LossKind.CROSS_ENTROPY, coeffs).total
    )

    scalar = Dataset(moons.inputs.copy(), moons.outputs[:, 1:2].copy())
    rff_lr = init_rff(2, 1000, 10.0, 1, seed=3)
    rff_lr.w = 0.3 * np.random.default_rng(3).normal(size=rff_lr.w.shape)
    gaps["rff+lr"] = abs(
        expected_quadratic_loss(scalar, rff_lr, LossKind.LOGISTIC, coeffs)
        - r_terms_general(scalar, rff_lr, LossKind.LOGISTIC, coeffs).total
    )

    rng = np.random.default_rng(4)
    lin = LinearModel(W=rng.normal(size=(2, 2)), b=rng.normal(size=2))
    gaps["linear+se"] = abs(
        expected_quadratic_loss(moons, lin, LossKind.SQUARED_ERROR, coeffs)
        - r_terms_general(moons, lin, LossKind.SQUARED_ERROR, coeffs).total
    )
    elapsed = time.perf_counter() - t0
    worst = max(gaps.values())
    ok = worst < 1e-7 and elapsed < 60.0
    _declare(3, ok, "; ".join(f"{k} {v:.2e}" for k, v in gaps.items())
                    + f" (<1e-7) in {elapsed:.1f}s")


def test_criterion_04_loss_specializations():
    """Specialized paths equal the general path term by term on 20 configs each."""
    worst = 0.0
    ce_r4 = se_lin_r2 = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed + 300)
        alpha = float(rng.uniform(0.3, 3.0))
        coeffs = mix_coefficients(alpha)

        moons = make_two_moons(8, 0.1, seed=seed)
        rff = init_rff(2, 30, 2.0, 2, seed=seed)
        rff.w = 0.6 * rng.normal(size=rff.w.shape)
        spec_ce = r_terms_ce(moons, rff, coeffs)
        gen_ce = r_terms_general(moons, rff, LossKind.CROSS_ENTROPY, coeffs)
        ce_r4 = max(ce_r4, abs(spec_ce.r4))

        scalar = Dataset(moons.inputs.copy(), moons.outputs[:, 1:2].copy())
        rff1 = RffModel(rff.S, rff.B, rff.w[:1].copy())
        spec_lr = r_terms_lr(scalar, rff1, coeffs)
        gen_lr = r_terms_general(scalar, rff1, LossKind.LOGISTIC, coeffs)

        reg = Dataset(rng.normal(size=(8, 3)), rng.normal(size=(8, 2)))
        lin = LinearModel(W=rng.normal(size=(2, 3)), b=rng.normal(size=2))
        spec_se = r_terms_se(reg, lin, coeffs)
        gen_se = r_terms_general(reg, lin, LossKind.SQUARED_ERROR, coeffs)
        se_lin_r2 = max(se_lin_r2, abs(spec_se.r2))

        for spec_br, gen_br in ((spec_ce, gen_ce), (spec_lr, gen_lr), (spec_se, gen_se)):
            for field in ("erm_modified", "r1", "r2", "r3", "r4"):
                worst = max(worst, abs(getattr(spec_br, field) - getattr(gen_br, field)))
    ok = worst < 1e-10 and ce_r4 == 0.0 and se_lin_r2 == 0.0
    _declare(4, ok, f"term-by-term max gap {worst:.2e} (<1e-10); "
                    f"CE r4 identically {ce_r4}; SE+linear r2 identically {se_lin_r2}")


def test_criterion_05_least_squares_affine_relation():
    """Exact-risk gradient vanishes at the OLS fit; affine relation to 1e-7."""
    rng = np.random.default_rng(7)
    ds = Dataset(rng.normal(size=(20, 3)), rng.normal(size=(20, 2)))
    coeffs = mix_coefficients(1.0)
    ols = mols_fit(ds)
    gW, gb = exact_se_mixup_gradient(ds, ols, coeffs)
    grad_norm = float(np.sqrt((gW * gW).sum() + (gb * gb).sum()))

    m2 = lambda_second_moment(coeffs)
    resid = 0.0
    for _ in range(3):
        probe = LinearModel(W=rng.normal(size=(2, 3)), b=rng.normal(size=2))
        bbar = ds.y_mean - probe.W @ ds.x_mean
        se_sum = float(loss_values(LossKind.SQUARED_ERROR, ds.outputs,
                                   ds.inputs @ probe.W.T + bbar).sum())
        predicted = (2.0 * m2 / ds.n) * se_sum + 0.5 * float(((probe.b - bbar) ** 2).sum())
        oracle = _exact_mixup_risk(ds, probe, LossKind.SQUARED_ERROR, coeffs)
        resid = max(resid, abs(oracle - predicted))
    ok = grad_norm < 1e-6 and resid < 1e-7
    _declare(5, ok, f"gradient norm at OLS {grad_norm:.2e} (<1e-6); "
                    f"affine residual {resid:.2e} (<1e-7)")


def test_criterion_06_label_smoothing_entropy():
    """Entropy bound on 10 random linear-CE problems solved to grad < 1e-8."""
    from mixreg.losses import entropy, softmax_rows

    coeffs = mix_coefficients(1.0)
    tb = coeffs.theta_bar
    worst_violation = -np.inf
    worst_grad = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed + 600)
        n, d, c = 40, 3, 2
        centers = 0.5 * rng.normal(size=(c, d))
        labels = rng.integers(c, size=n)
        X = centers[labels] + rng.normal(size=(n, d))
        Y = np.eye(c)[labels]
        ds = Dataset(X, Y)
        Yt = ds.y_mean + tb * (Y - ds.y_mean)
        W0, g0 = _newton_ce_fit(X, Y, grad_tol=1e-10)
        W1, g1 = _newton_ce_fit(X, Yt, grad_tol=1e-10)
        worst_grad = max(worst_grad, g0, g1)
        p = softmax_rows(X @ W0.T)
        pt = softmax_rows(X @ W1.T)
        lhs = tb * entropy(p).mean() + (1 - tb) * entropy(ds.y_mean)
        rhs = entropy(pt).mean()
        worst_violation = max(worst_violation, lhs - rhs)
    ok = worst_grad < 1e-8 and worst_violation <= 1e-9
    _declare(6, ok, f"max violation {worst_violation:.2e} (<=1e-9); "
                    f"max gradient norm {worst_grad:.2e} (<1e-8)")


def test_criterion_07_derivative_correctness():
    """Loss blocks and model input derivatives match finite differences."""
    rng = np.random.default_rng(8)
    worst = 0.0

    def rel_gap(analytic, fd, scale_floor=1e-3):
        return float(np.abs(np.asarray(analytic) - fd).max()
                     / max(np.abs(fd).max(), scale_floor))

    for kind in LossKind:
        for _ in range(100):
            if kind is LossKind.CROSS_ENTROPY:
                y, u = rng.dirichlet(np.ones(3)), rng.normal(size=3)
            elif kind is LossKind.SQUARED_ERROR:
                y, u = rng.normal(size=3), rng.normal(size=3)
            else:
                y, u = np.array([rng.uniform()]), rng.normal(size=1)
            b = bundle(kind, y, u)
            val = lambda yy, uu: loss_values(kind, yy[None], uu[None])[0]
            # h ~ (eps/|f''''|)^(1/4) balances truncation against cancellation
            h2 = 4e-4
            worst = max(worst, rel_gap(b.grad_u, central_grad(lambda uu: val(y, uu), u)))
            worst = max(worst, rel_gap(b.grad_y, central_grad(lambda yy: val(yy, u), y)))
            worst = max(worst, rel_gap(b.hess_uu, central_hessian(lambda uu: val(y, uu), u, h=h2)))
            worst = max(worst, rel_gap(b.hess_yy, central_hessian(lambda yy: val(yy, u), y, h=h2)))
            worst = max(worst, rel_gap(b.hess_yu, central_cross_hessian(val, y, u, h=h2)))

    rff = init_rff(2, 40, 2.0, 2, seed=9)
    rff.w = rng.normal(size=rff.w.shape)
    lin = LinearModel(W=rng.normal(size=(2, 2)), b=rng.normal(size=2))
    for model in (rff, lin):
        for _ in range(100):
            x = rng.normal(size=2)
            worst = max(worst, rel_gap(model.input_jacobian(x),
                                       central_jacobian(model.predict, x)))
            hess = model.input_hessian(x)
            for a in range(2):
                fd = central_jacobian(lambda xx, a=a: model.input_jacobian(xx)[a], x)
                worst = max(worst, rel_gap(hess[a], fd))
    ok = worst < 1e-5
    _declare(7, ok, f"max relative finite-difference gap {worst:.2e} (<1e-5)")


def test_criterion_08_taylor_residual_decay():
    """Remainder shrinks by >= 6x when the perturbation scale halves from 1e-2."""
    ds = make_two_moons(10, 0.05, seed=11)
    coeffs = mix_coefficients(1.0)
    mod = modify(ds, coeffs.theta_bar)
    model = init_rff(2, 1000, 10.0, 2, seed=12)
    model.w = 0.3 * np.random.default_rng(12).normal(size=model.w.shape)
    rng = np.random.default_rng(13)
    big = small = 0.0
    for _ in range(30):
        i = int(rng.integers(ds.n))
        d_dir, e_dir = rng.normal(size=2), rng.normal(size=2)

        def resid(s):
            exact = loss_values(LossKind.CROSS_ENTROPY, (mod.outputs[i] + s * e_dir)[None],
                                model.predict(mod.inputs[i] + s * d_dir)[None])[0]
            return abs(exact - quadratic_loss(mod, model, LossKind.CROSS_ENTROPY, i,
                                              s * d_dir, s * e_dir))

        big += resid(1e-2)
        small += resid(5e-3)
    ratio = big / small
    ok = ratio >= 6.0
    _declare(8, ok, f"residual decay ratio {ratio:.2f} (>=6) on RFF+CE")


def test_criterion_09_two_moons_experiment():
    """Desk-scale experiment: accuracy agreement, confidence ordering,
    regularizer ordering, within the runtime budget."""
    t0 = time.perf_counter()
    spec = ExperimentSpec()  # n=300, noise=0.01, 20% flips, M=1000, scale 10,
    #                          batch 50, step 5, alpha 1, 200-epoch plateau
    seeds = list(range(10))
    rows = [run_seed(spec, seed) for seed in seeds]
    acc_mix = np.array([r["results"]["mixup"].test_acc for r in rows])
    acc_app = np.array([r["results"]["mixup_approx"].test_acc for r in rows])
    gap = abs(acc_mix.mean() - acc_app.mean())
    order_hits = sum(
        r["results"]["erm"].mean_conf_raw
        > r["results"]["erm_modified"].mean_conf_natural
        > r["results"]["mixup"].mean_conf_natural
        for r in rows
    )
    reg_hits = sum(r["reg_sum_mixup"] < r["reg_sum_erm"] for r in rows)
    elapsed = time.perf_counter() - t0
    ok = gap <= 0.03 and order_hits >= 8 and reg_hits >= 8 and elapsed < 600.0
    _declare(9, ok, f"acc gap {gap * 100:.2f} pts (<=3); confidence ordering "
                    f"{order_hits}/10 (>=8); regularizer ordering {reg_hits}/10 (>=8); "
                    f"{elapsed:.0f}s (<600)")


def test_criterion_10_rescaled_prediction():
    """Identity at theta=1; no-op for centered homogeneous; balanced argmax."""
    rng = np.random.default_rng(14)
    rff = init_rff(2, 200, 5.0, 2, seed=15)
    rff.w = rng.normal(size=rff.w.shape)
    X = rng.normal(size=(100, 2))
    xbar, ybar = rng.normal(size=2), rng.normal(size=2)
    noop = float(np.abs(predict(rff, X, Rescale(xbar, ybar, 1.0)) - rff.predict(X)).max())

    lin = LinearModel(W=rng.normal(size=(2, 2)), b=np.zeros(2))
    centered = float(
        np.abs(predict(lin, X, Rescale(np.zeros(2), np.zeros(2), 0.75)) - lin.predict(X)).max()
    )

    tb = mix_coefficients(1.0).theta_bar
    balanced = np.array([0.5, 0.5])
    resc = predict(rff, X, Rescale(xbar, balanced, tb))
    shrunk = rff.predict(tb * X + (1 - tb) * xbar)
    argmax_equal = bool(np.all(resc.argmax(axis=1) == shrunk.argmax(axis=1)))
    ok = noop == 0.0 and centered < 1e-12 and argmax_equal
    _declare(10, ok, f"theta=1 no-op diff {noop}; centered-homogeneous diff "
                     f"{centered:.2e}; balanced argmax equal on all points: {argmax_equal}")
