import json

import numpy as np
import pytest

import mixreg.verification as verification
from mixreg.data import Dataset, make_two_moons
from mixreg.losses import LossKind
from mixreg.models import LinearModel, init_rff
from mixreg.regularizers import per_example_covariances, r_terms_general
from mixreg.truncbeta import MixCoefficients, mix_coefficients
from mixreg.verification import (
    check_label_smoothing,
    check_covariance_formula,
    check_mols,
    check_taylor,
    check_risk_rewrite,
    check_penalty_decomposition,
    expected_quadratic_loss,
    format_report_table,
    reports_to_json,
    run_all,
)


def _random_regression(seed, n=10, d=3, c=2):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    W = rng.normal(size=(c, d))
    return Dataset(X, X @ W.T + 0.3 * rng.normal(size=(n, c)))


def _overlapping(seed, n=40, d=3, c=2):
    rng = np.random.default_rng(seed)
    centers = 0.5 * rng.normal(size=(c, d))
    labels = rng.integers(c, size=n)
    return Dataset(centers[labels] + rng.normal(size=(n, d)), np.eye(c)[labels])


def test_risk_rewrite_check_linear_se():
    ds = _random_regression(0)
    rng = np.random.default_rng(0)
    model = LinearModel(W=rng.normal(size=(2, 3)), b=rng.normal(size=2))
    rep = check_risk_rewrite(ds, model, LossKind.SQUARED_ERROR, 1.0, n_perdraw=20_000, n_mc=100_000)
    assert rep.passed and rep.discrepancy < 1e-12


def test_covariance_check_passes():
    rep = check_covariance_formula(make_two_moons(20, 0.05, seed=1), 1.0)
    assert rep.passed


def test_decomposition_check_each_loss():
    ds = make_two_moons(10, 0.05, seed=2)
    model = init_rff(2, 40, 3.0, 2, seed=3)
    model.w = 0.5 * np.random.default_rng(3).normal(size=model.w.shape)
    assert check_penalty_decomposition(ds, model, LossKind.CROSS_ENTROPY, 1.0).passed
    scalar = Dataset(ds.inputs.copy(), ds.outputs[:, 1:2].copy())
    model1 = init_rff(2, 40, 3.0, 1, seed=4)
    model1.w = 0.5 * np.random.default_rng(4).normal(size=model1.w.shape)
    assert check_penalty_decomposition(scalar, model1, LossKind.LOGISTIC, 1.0).passed


def test_mols_check_exact_line():
    X = np.linspace(-1, 1, 9)[:, None]
    ds = Dataset(X, 2.0 * X)
    rep = check_mols(ds, 1.0)
    assert rep.passed
    from mixreg.regularizers import mols_fit

    fit = mols_fit(ds)
    assert fit.W[0, 0] == pytest.approx(2.0, abs=1e-12)
    assert fit.b[0] == pytest.approx(0.0, abs=1e-12)


def test_mols_check_random_regression():
    rep = check_mols(_random_regression(5, n=20, d=3, c=2), 1.0)
    assert rep.passed and rep.discrepancy < 1e-7


def test_alpha_one_moment_arithmetic():
    """Moment combinations at alpha = 1: frozen hand-computed values."""
    c = mix_coefficients(1.0)
    combo = (2 * c.sigma_sq + 2 * c.theta_bar**2 + (1 - c.theta_bar) ** 2) / 2
    assert combo == pytest.approx(0.6145833333333333, abs=1e-12)  # 59/96
    # the risk-relation coefficient 2 E[lam^2] is a different combination
    from mixreg.regularizers import lambda_second_moment

    assert 2 * lambda_second_moment(c) == pytest.approx(2.0 / 3.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_label_smoothing_inequality_on_random_problems(seed):
    rep = check_label_smoothing(_overlapping(seed), 1.0)
    assert rep.passed, rep.details


def test_label_smoothing_theta_one_degenerate():
    """As alpha -> 0 the smoothing disappears and both sides coincide."""
    ds = _overlapping(3)
    rep = check_label_smoothing(ds, 1e-9)
    assert rep.passed
    # with theta_bar ~ 1 the bound is tight: lhs ~ rhs
    assert rep.discrepancy <= 1e-9


def test_balanced_mean_label_entropy():
    """Balanced binary labels give mean-label entropy log 2 in the bound."""
    from mixreg.losses import entropy

    rng = np.random.default_rng(4)
    labels = np.repeat([0, 1], 25)
    ds = Dataset(rng.normal(size=(50, 2)), np.eye(2)[labels])
    assert entropy(ds.y_mean) == pytest.approx(np.log(2.0), abs=1e-15)


def test_label_smoothing_separable_data_still_conclusive():
    """Well-separated classes: the fit is reported with its reached gradient
    norm (ridge fallback engages only if the tolerance is missed)."""
    rng = np.random.default_rng(12)
    labels = np.repeat([0, 1], 20)
    X = rng.normal(size=(40, 2)) + np.where(labels[:, None] == 0, -4.0, 4.0)
    ds = Dataset(X, np.eye(2)[labels])
    rep = check_label_smoothing(ds, 1.0)
    assert rep.passed, rep.details
    assert "INCONCLUSIVE" not in rep.details


def test_taylor_checks():
    ds = make_two_moons(10, 0.05, seed=6)
    model = init_rff(2, 40, 3.0, 2, seed=6)
    model.w = 0.5 * np.random.default_rng(6).normal(size=model.w.shape)
    rep = check_taylor(ds, model, LossKind.CROSS_ENTROPY, 1.0)
    assert rep.passed and rep.name == "taylor_cubic_remainder"
    reg = _random_regression(7)
    lin = LinearModel(W=np.random.default_rng(7).normal(size=(2, 3)), b=np.zeros(2))
    rep2 = check_taylor(reg, lin, LossKind.SQUARED_ERROR, 1.0)
    assert rep2.passed and rep2.name == "taylor_exact_se_linear"


def test_run_all_green_and_serializable():
    reports = run_all(seed=0)
    assert len(reports) == 12
    assert all(r.passed for r in reports)
    payload = json.loads(reports_to_json(reports))
    assert {row["name"] for row in payload} >= {
        "risk_rewrite_identity",
        "perturbation_covariances",
        "penalty_decomposition",
        "loss_specializations",
        "least_squares_neutrality",
        "label_smoothing_entropy",
    }
    for row in payload:
        assert set(row) == {"name", "passed", "discrepancy", "tolerance", "runtime_s", "details"}
    table = format_report_table(reports)
    assert "PASS" in table and "FAIL" not in table
    assert sum(r.runtime_s for r in reports) < 300.0


# ---------------------------------------------------------------------------
# mutation sentinels: perturbing a single formula constant must trip a check


def test_sentinel_shifted_mean_breaks_covariance_check():
    ds = make_two_moons(20, 0.05, seed=8)
    true = mix_coefficients(1.0)
    tb = true.theta_bar + 0.01
    mutated = MixCoefficients(
        alpha=true.alpha,
        theta_bar=tb,
        sigma_sq=true.sigma_sq,
        gamma_sq=true.sigma_sq + (1 - tb) ** 2,
    )
    rep = check_covariance_formula(ds, 1.0, coeffs=mutated)
    assert not rep.passed


@pytest.mark.parametrize("dropped", ["sigma_sq", "gamma_sq"])
def test_sentinel_dropped_terms_break_covariance_check(monkeypatch, dropped):
    """Dropping either variance term of the covariance formula must fail."""
    from mixreg.regularizers import PerExampleCovariances

    def mutated(ds, coeffs, i):
        dx = ds.inputs[i] - ds.x_mean
        dy = ds.outputs[i] - ds.y_mean
        s2 = 0.0 if dropped == "sigma_sq" else coeffs.sigma_sq
        g2 = 0.0 if dropped == "gamma_sq" else coeffs.gamma_sq
        return PerExampleCovariances(
            sxx=s2 * np.outer(dx, dx) + g2 * ds.sxx,
            syy=s2 * np.outer(dy, dy) + g2 * ds.syy,
            sxy=s2 * np.outer(dx, dy) + g2 * ds.sxy,
        )

    monkeypatch.setattr(verification, "per_example_covariances", mutated)
    rep = check_covariance_formula(make_two_moons(20, 0.05, seed=9), 1.0)
    assert not rep.passed


def test_sentinel_sign_flipped_r3_breaks_decomposition_identity():
    ds = make_two_moons(10, 0.05, seed=10)
    model = init_rff(2, 40, 3.0, 2, seed=10)
    model.w = 0.5 * np.random.default_rng(10).normal(size=model.w.shape)
    coeffs = mix_coefficients(1.0)
    oracle = expected_quadratic_loss(ds, model, LossKind.CROSS_ENTROPY, coeffs)
    br = r_terms_general(ds, model, LossKind.CROSS_ENTROPY, coeffs)
    assert br.r3 < -1e-6  # the instance actually exercises the term
    flipped_total = br.total - 2.0 * br.r3
    assert abs(oracle - flipped_total) > 1e-7
    assert abs(oracle - br.total) < 1e-7
