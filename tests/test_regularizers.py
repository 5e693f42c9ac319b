import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixreg.data import Dataset, make_two_moons, modify
from mixreg.losses import LossKind, loss_value
from mixreg.models import LinearModel, init_rff
from mixreg.regularizers import (
    approx_mixup_objective,
    exact_se_mixup_gradient,
    exact_se_mixup_risk,
    exact_second_moments,
    lambda_second_moment,
    mols_fit,
    per_example_covariances,
    perturbation_covariances,
    psd_pinv,
    psd_sqrt,
    quadratic_loss,
    r_terms_ce,
    r_terms_general,
    r_terms_lr,
    r_terms_se,
)
from mixreg.truncbeta import mix_coefficients
from mixreg.verification import expected_quadratic_loss


def _random_dataset(seed, n=8, d=3, c=2, classification=False):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    if classification:
        Y = np.eye(c)[rng.integers(c, size=n)]
    else:
        Y = rng.normal(size=(n, c))
    return Dataset(X, Y)


def _random_rff(seed, d=2, M=30, c=2, scale=2.0, w_scale=0.6):
    model = init_rff(d, M, scale, c, seed)
    model.w = w_scale * np.random.default_rng(seed + 100).normal(size=model.w.shape)
    return model


def test_two_point_hand_value():
    ds = Dataset(np.array([[-1.0], [1.0]]), np.array([[0.0], [0.0]]))
    cov = per_example_covariances(ds, mix_coefficients(1.0), 1)
    assert cov.sxx[0, 0] == pytest.approx(5.0 / 48.0, abs=1e-12)
    oracle = exact_second_moments(ds, mix_coefficients(1.0), 1)
    assert oracle.sxx[0, 0] == pytest.approx(5.0 / 48.0, abs=1e-12)


def test_covariances_vanish_as_alpha_to_zero():
    ds = _random_dataset(0)
    cov = per_example_covariances(ds, mix_coefficients(1e-9), 2)
    assert np.abs(cov.sxx).max() < 1e-6
    assert np.abs(cov.syy).max() < 1e-6
    assert np.abs(cov.sxy).max() < 1e-6


def test_closed_form_equals_unmodified_expression():
    """Both stated forms of the covariance agree: the shrunk-row expression
    divided by theta_bar^2 equals the original-row expression computed here."""
    ds = _random_dataset(1)
    coeffs = mix_coefficients(0.6)
    mod = modify(ds, coeffs.theta_bar)
    for i in range(ds.n):
        cov = per_example_covariances(ds, coeffs, i)
        dx = mod.inputs[i] - mod.x_mean
        shrunk = coeffs.sigma_sq * np.outer(dx, dx) + coeffs.gamma_sq * mod.sxx
        assert np.abs(cov.sxx - shrunk / coeffs.theta_bar**2).max() < 1e-12


@pytest.mark.parametrize("seed", range(20))
def test_covariance_formula_matches_exact_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 12))
    d = int(rng.integers(1, 4))
    c = int(rng.integers(1, 3))
    alpha = float(rng.uniform(0.2, 4.0))
    ds = _random_dataset(seed + 1000, n=n, d=d, c=c)
    coeffs = mix_coefficients(alpha)
    i = int(rng.integers(n))
    closed = per_example_covariances(ds, coeffs, i)
    oracle = exact_second_moments(ds, coeffs, i)
    for a, b in ((closed.sxx, oracle.sxx), (closed.syy, oracle.syy), (closed.sxy, oracle.sxy)):
        assert np.abs(a - b).max() / max(np.abs(b).max(), 1e-12) < 1e-10


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 12),
    d=st.integers(1, 4),
    c=st.integers(1, 4),
    log_alpha=st.floats(np.log(1e-3), np.log(1e6)),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_covariances_match_exact_oracle_property(n, d, c, log_alpha, seed):
    ds = _random_dataset(seed, n=n, d=d, c=c)
    coeffs = mix_coefficients(float(np.exp(log_alpha)))
    stacked = perturbation_covariances(ds, coeffs)
    for i in range(n):
        oracle = exact_second_moments(ds, coeffs, i)
        for a, b in ((stacked.sxx[i], oracle.sxx), (stacked.syy[i], oracle.syy),
                     (stacked.sxy[i], oracle.sxy)):
            assert np.abs(a - b).max() <= 1e-10 * np.abs(b).max()


def test_exact_moments_single_point_dataset():
    ds = Dataset(np.array([[2.0, -1.0]]), np.array([[3.0]]))
    cov = exact_second_moments(ds, mix_coefficients(1.0), 0)
    assert np.abs(cov.sxx).max() < 1e-12
    assert np.abs(cov.syy).max() < 1e-12
    assert np.abs(cov.sxy).max() < 1e-12


def test_covariances_symmetric_psd():
    ds = make_two_moons(16, 0.05, seed=0)
    coeffs = mix_coefficients(0.9)
    for i in range(ds.n):
        cov = per_example_covariances(ds, coeffs, i)
        assert np.allclose(cov.sxx, cov.sxx.T)
        assert np.allclose(cov.syy, cov.syy.T)
        assert np.linalg.eigvalsh(cov.sxx).min() > -1e-12
        assert np.linalg.eigvalsh(cov.syy).min() > -1e-12


def test_quadratic_loss_zeroth_order():
    ds = make_two_moons(10, 0.05, seed=1)
    coeffs = mix_coefficients(1.0)
    mod = modify(ds, coeffs.theta_bar)
    model = _random_rff(1)
    for i in range(5):
        exact = loss_value(LossKind.CROSS_ENTROPY, mod.outputs[i], model.predict(mod.inputs[i]))
        approx = quadratic_loss(mod, model, LossKind.CROSS_ENTROPY, i, np.zeros(2), np.zeros(2))
        assert abs(exact - approx) < 1e-13


def test_quadratic_loss_exact_for_se_linear():
    rng = np.random.default_rng(2)
    ds = _random_dataset(2, n=6, d=3, c=2)
    mod = modify(ds, 0.75)
    model = LinearModel(W=rng.normal(size=(2, 3)), b=rng.normal(size=2))
    for _ in range(20):
        delta = rng.normal(size=3) * 2
        eps = rng.normal(size=2) * 2
        i = int(rng.integers(ds.n))
        exact = loss_value(
            LossKind.SQUARED_ERROR, mod.outputs[i] + eps, model.predict(mod.inputs[i] + delta)
        )
        approx = quadratic_loss(mod, model, LossKind.SQUARED_ERROR, i, delta, eps)
        assert abs(exact - approx) < 1e-10


def test_quadratic_loss_cubic_remainder_decay():
    ds = make_two_moons(10, 0.05, seed=3)
    coeffs = mix_coefficients(1.0)
    mod = modify(ds, coeffs.theta_bar)
    model = _random_rff(3, scale=3.0)
    rng = np.random.default_rng(4)
    big = small = 0.0
    for _ in range(30):
        i = int(rng.integers(ds.n))
        d_dir, e_dir = rng.normal(size=2), rng.normal(size=2)

        def resid(s):
            exact = loss_value(
                LossKind.CROSS_ENTROPY,
                mod.outputs[i] + s * e_dir,
                model.predict(mod.inputs[i] + s * d_dir),
            )
            return abs(exact - quadratic_loss(mod, model, LossKind.CROSS_ENTROPY, i, s * d_dir, s * e_dir))

        big += resid(1e-2)
        small += resid(5e-3)
    assert big / small >= 6.0


@pytest.mark.parametrize(
    "kind,classification",
    [
        (LossKind.CROSS_ENTROPY, True),
        (LossKind.LOGISTIC, True),
        (LossKind.SQUARED_ERROR, False),
    ],
)
def test_decomposition_identity_against_quadrature(kind, classification):
    """Decomposition equals the quadrature expectation of the Taylor loss."""
    moons = make_two_moons(10, 0.05, seed=5)
    if kind is LossKind.LOGISTIC:
        ds = Dataset(moons.inputs.copy(), moons.outputs[:, 1:2].copy())
        model = _random_rff(5, c=1, scale=3.0)
    elif kind is LossKind.CROSS_ENTROPY:
        ds = moons
        model = _random_rff(5, c=2, scale=3.0)
    else:
        ds = _random_dataset(5, n=10, d=2, c=2)
        rng = np.random.default_rng(5)
        model = LinearModel(W=rng.normal(size=(2, 2)), b=rng.normal(size=2))
    coeffs = mix_coefficients(1.0)
    oracle = expected_quadratic_loss(ds, model, kind, coeffs)
    br = r_terms_general(ds, model, kind, coeffs)
    assert abs(oracle - br.total) < 1e-7
    assert br.total == pytest.approx(br.erm_modified + br.r1 + br.r2 + br.r3 + br.r4, abs=1e-12)


def test_sign_constraints_hold():
    for seed in range(10):
        ds = make_two_moons(8, 0.05, seed=seed)
        model = _random_rff(seed, scale=3.0, w_scale=1.5)
        br = r_terms_general(ds, model, LossKind.CROSS_ENTROPY, mix_coefficients(0.7))
        assert br.r1 >= 0.0
        assert br.r4 >= 0.0
        assert br.r3 <= 0.0


@pytest.mark.parametrize("seed", range(20))
def test_ce_specialization_matches_general(seed):
    ds = make_two_moons(8, 0.1, seed=seed)
    model = _random_rff(seed)
    alpha = float(np.random.default_rng(seed).uniform(0.3, 3.0))
    coeffs = mix_coefficients(alpha)
    spec = r_terms_ce(ds, model, coeffs)
    gen = r_terms_general(ds, model, LossKind.CROSS_ENTROPY, coeffs)
    for field in ("erm_modified", "r1", "r2", "r3", "r4", "total"):
        assert abs(getattr(spec, field) - getattr(gen, field)) < 1e-10
    assert spec.r4 == 0.0


@pytest.mark.parametrize("seed", range(20))
def test_lr_specialization_matches_general(seed):
    moons = make_two_moons(8, 0.1, seed=seed)
    ds = Dataset(moons.inputs.copy(), moons.outputs[:, 1:2].copy())
    model = _random_rff(seed, c=1)
    alpha = float(np.random.default_rng(seed + 50).uniform(0.3, 3.0))
    coeffs = mix_coefficients(alpha)
    spec = r_terms_lr(ds, model, coeffs)
    gen = r_terms_general(ds, model, LossKind.LOGISTIC, coeffs)
    for field in ("erm_modified", "r1", "r2", "r3", "r4", "total"):
        assert abs(getattr(spec, field) - getattr(gen, field)) < 1e-10
    assert spec.r4 == 0.0


@pytest.mark.parametrize("seed", range(20))
def test_se_specialization_matches_general(seed):
    ds = _random_dataset(seed, n=8, d=3, c=2)
    rng = np.random.default_rng(seed + 200)
    if seed % 2:
        model = LinearModel(W=rng.normal(size=(2, 3)), b=rng.normal(size=2))
    else:
        model = _random_rff(seed, d=3, c=2)
    alpha = float(rng.uniform(0.3, 3.0))
    coeffs = mix_coefficients(alpha)
    spec = r_terms_se(ds, model, coeffs)
    gen = r_terms_general(ds, model, LossKind.SQUARED_ERROR, coeffs)
    for field in ("erm_modified", "r1", "r2", "r3", "r4", "total"):
        assert abs(getattr(spec, field) - getattr(gen, field)) < 1e-10


def test_se_linear_r2_zero_and_r4_constant():
    ds = _random_dataset(30, n=9, d=2, c=2)
    rng = np.random.default_rng(30)
    model = LinearModel(W=rng.normal(size=(2, 2)), b=rng.normal(size=2))
    coeffs = mix_coefficients(1.0)
    br = r_terms_se(ds, model, coeffs)
    assert br.r2 == 0.0
    expected_r4 = np.mean(
        [0.5 * np.trace(per_example_covariances(ds, coeffs, i).syy) for i in range(ds.n)]
    )
    assert br.r4 == pytest.approx(expected_r4, abs=1e-12)
    # r4 does not depend on the model
    other = LinearModel(W=rng.normal(size=(2, 2)), b=rng.normal(size=2))
    assert r_terms_se(ds, other, coeffs).r4 == pytest.approx(br.r4, abs=1e-12)


def test_approx_objective_flag_and_limit():
    ds = make_two_moons(10, 0.05, seed=6)
    model = _random_rff(6)
    coeffs = mix_coefficients(1.0)
    br = r_terms_general(ds, model, LossKind.CROSS_ENTROPY, coeffs)
    assert approx_mixup_objective(ds, model, LossKind.CROSS_ENTROPY, coeffs, drop_r2=False) == (
        pytest.approx(br.total, abs=1e-12)
    )
    assert approx_mixup_objective(ds, model, LossKind.CROSS_ENTROPY, coeffs, drop_r2=True) == (
        pytest.approx(br.total - br.r2, abs=1e-12)
    )
    tiny = mix_coefficients(1e-9)
    erm = np.mean(
        [
            loss_value(LossKind.CROSS_ENTROPY, ds.outputs[i], model.predict(ds.inputs[i]))
            for i in range(ds.n)
        ]
    )
    assert approx_mixup_objective(ds, model, LossKind.CROSS_ENTROPY, tiny, drop_r2=False) == (
        pytest.approx(float(erm), rel=1e-6)
    )


def test_decomposition_identity_on_subspace_data():
    """Rank-deficient input covariance: the pseudo-inverse policy keeps the
    completed decomposition equal to the quadrature expectation."""
    rng = np.random.default_rng(31)
    t = rng.normal(size=(12, 1))
    ds = Dataset(t @ np.array([[1.0, 2.0, -1.0]]), rng.normal(size=(12, 2)))
    model = LinearModel(W=rng.normal(size=(2, 3)), b=rng.normal(size=2))
    coeffs = mix_coefficients(1.0)
    br = r_terms_general(ds, model, LossKind.SQUARED_ERROR, coeffs)
    oracle = expected_quadratic_loss(ds, model, LossKind.SQUARED_ERROR, coeffs)
    assert abs(br.total - oracle) < 1e-7
    assert br.clipped_inverses > 0  # the degenerate-metric diagnostic fires


def test_objective_lower_at_mixing_trained_model():
    """A model trained under mixing scores a lower regularized objective than
    a plainly fitted one on the same data."""
    from mixreg.experiment import ExperimentSpec, make_instance, run_method

    spec = ExperimentSpec(n=80, rff_features=200, rff_scale=5.0, epochs=100,
                          batch_size=20, step_size=2.0)
    ds_train, ds_test = make_instance(spec, 0)
    coeffs = mix_coefficients(spec.alpha)
    objs = {}
    for method in ("erm", "mixup"):
        res = run_method(spec, ds_train, ds_test, method, 0)
        objs[method] = approx_mixup_objective(
            ds_train, res.model, LossKind.CROSS_ENTROPY, coeffs, drop_r2=True
        )
    assert objs["mixup"] < objs["erm"]


def test_psd_helpers():
    rng = np.random.default_rng(7)
    Q = rng.normal(size=(4, 4))
    A = Q @ Q.T
    root = psd_sqrt(A)
    assert np.abs(root @ root - A).max() < 1e-10
    pinv = psd_pinv(A)
    assert np.abs(A @ pinv @ A - A).max() < 1e-9
    # rank-deficient case
    low = Q[:, :2] @ Q[:, :2].T
    pinv_low = psd_pinv(low)
    assert np.abs(low @ pinv_low @ low - low).max() < 1e-9


def test_lambda_second_moment_closed_form():
    for alpha in (0.3, 1.0, 2.0, 7.0):
        coeffs = mix_coefficients(alpha)
        expected = (alpha + 1.0) / (2.0 * (2.0 * alpha + 1.0))
        assert lambda_second_moment(coeffs) == pytest.approx(expected, abs=1e-12)


def test_exact_se_risk_alpha_zero_is_erm():
    ds = _random_dataset(8, n=7, d=2, c=2)
    rng = np.random.default_rng(8)
    model = LinearModel(W=rng.normal(size=(2, 2)), b=rng.normal(size=2))
    risk = exact_se_mixup_risk(ds, model, mix_coefficients(1e-9))
    R = ds.outputs - model.predict(ds.inputs)
    assert risk == pytest.approx(0.5 * float((R * R).sum()) / ds.n, rel=1e-6)


def test_exact_se_gradient_matches_finite_differences():
    ds = _random_dataset(9, n=7, d=2, c=2)
    rng = np.random.default_rng(9)
    model = LinearModel(W=rng.normal(size=(2, 2)), b=rng.normal(size=2))
    coeffs = mix_coefficients(1.3)
    gW, gb = exact_se_mixup_gradient(ds, model, coeffs)
    h = 1e-6
    for a in range(2):
        for j in range(2):
            Wp, Wm = model.W.copy(), model.W.copy()
            Wp[a, j] += h
            Wm[a, j] -= h
            fd = (
                exact_se_mixup_risk(ds, LinearModel(Wp, model.b), coeffs)
                - exact_se_mixup_risk(ds, LinearModel(Wm, model.b), coeffs)
            ) / (2 * h)
            assert abs(fd - gW[a, j]) < 1e-7
        bp, bm = model.b.copy(), model.b.copy()
        bp[a] += h
        bm[a] -= h
        fd = (
            exact_se_mixup_risk(ds, LinearModel(model.W, bp), coeffs)
            - exact_se_mixup_risk(ds, LinearModel(model.W, bm), coeffs)
        ) / (2 * h)
        assert abs(fd - gb[a]) < 1e-7


def test_mols_minimizes_exact_mixup_risk():
    ds = _random_dataset(10, n=20, d=3, c=2)
    coeffs = mix_coefficients(1.0)
    ols = mols_fit(ds)
    gW, gb = exact_se_mixup_gradient(ds, ols, coeffs)
    assert np.sqrt((gW * gW).sum() + (gb * gb).sum()) < 1e-6
    rng = np.random.default_rng(10)
    base = exact_se_mixup_risk(ds, ols, coeffs)
    for _ in range(10):
        other = LinearModel(
            ols.W + 0.1 * rng.normal(size=ols.W.shape), ols.b + 0.1 * rng.normal(size=2)
        )
        assert exact_se_mixup_risk(ds, other, coeffs) > base
