import numpy as np
import pytest
from conftest import traced_peak
from scipy import integrate
from scipy.optimize import brentq
from scipy.special import betainc
from scipy.stats import kstest, ks_2samp

from mixreg.truncbeta import (
    _FOLD_BLOCK,
    MixCoefficients,
    _symmetric_beta,
    mix_coefficients,
    sample_theta,
    trunc_beta_mean,
    trunc_beta_raw_moment,
)

ALPHA_GRID = np.geomspace(0.05, 20.0, 17)


def quad_raw_moment(alpha, k):
    """Adaptive-quadrature oracle for E[theta^k] on [1/2, 1].

    The (1 - t)^(alpha - 1) endpoint singularity is handed to the algebraic
    weight integrator, leaving a smooth integrand.
    """

    def piece(power):
        val, err = integrate.quad(
            lambda t: t ** (power + alpha - 1.0),
            0.5,
            1.0,
            weight="alg",
            wvar=(0.0, alpha - 1.0),
            limit=200,
        )
        assert err < 1e-12
        return val

    return piece(k) / piece(0)


def test_mean_is_three_quarters_at_alpha_one():
    assert trunc_beta_mean(1.0) == pytest.approx(0.75, abs=1e-14)


def test_uniform_second_moment():
    assert trunc_beta_raw_moment(1.0, 2) == pytest.approx(7.0 / 12.0, abs=1e-14)
    assert trunc_beta_raw_moment(1.0, 1) == pytest.approx(trunc_beta_mean(1.0), abs=1e-15)


def test_limits_in_alpha():
    assert trunc_beta_mean(1e-6) == pytest.approx(1.0, abs=1e-4)
    # the large-alpha limit closes like 1/sqrt(alpha)
    assert trunc_beta_mean(1e6) == pytest.approx(0.5, abs=5e-4)
    assert trunc_beta_mean(1e6) > trunc_beta_mean(1e8) > 0.5


def test_mean_matches_quadrature_at_half():
    assert trunc_beta_mean(0.5) == pytest.approx(quad_raw_moment(0.5, 1), abs=1e-10)


def test_second_moment_matches_quadrature_at_two():
    assert trunc_beta_raw_moment(2.0, 2) == pytest.approx(quad_raw_moment(2.0, 2), abs=1e-10)


@pytest.mark.parametrize("alpha", ALPHA_GRID)
def test_moments_match_quadrature_on_grid(alpha):
    for k in (1, 2):
        closed = trunc_beta_raw_moment(alpha, k)
        oracle = quad_raw_moment(alpha, k)
        assert abs(closed - oracle) / abs(oracle) < 1e-8


def incomplete_beta_moments(alpha):
    """Independent oracle for (E[theta], E[theta^2], Var(theta)) through the
    regularized incomplete beta function I(x; a, b):

        E[theta]   = 1 - I(1/2; alpha + 1, alpha)
        E[theta^2] = (alpha + 1) / (2 alpha + 1) * (1 - I(1/2; alpha + 2, alpha))
    """
    mean = 1.0 - float(betainc(alpha + 1.0, alpha, 0.5))
    second = (alpha + 1.0) / (2.0 * alpha + 1.0) * (1.0 - float(betainc(alpha + 2.0, alpha, 0.5)))
    return mean, second, second - mean * mean


@pytest.mark.parametrize("alpha", ALPHA_GRID)
def test_gamma_ratio_moments_match_incomplete_beta(alpha):
    mean, second, var = incomplete_beta_moments(alpha)
    c = mix_coefficients(alpha)
    assert abs(c.theta_bar - mean) <= 1e-14 * mean
    assert abs(trunc_beta_raw_moment(alpha, 2) - second) <= 1e-14 * second
    assert abs(c.sigma_sq - var) <= 1e-12 * var


def test_mean_strictly_decreasing_on_grid():
    means = [trunc_beta_mean(a) for a in ALPHA_GRID]
    assert all(m1 > m2 for m1, m2 in zip(means, means[1:]))
    assert all(0.5 < m < 1.0 for m in means)


def test_coefficients_at_alpha_one():
    c = mix_coefficients(1.0)
    assert c.theta_bar == pytest.approx(0.75, abs=1e-14)
    assert c.sigma_sq == pytest.approx(1.0 / 48.0, abs=1e-12)
    assert c.gamma_sq == pytest.approx(1.0 / 12.0, abs=1e-12)


def test_coefficients_degenerate_small_alpha():
    c = mix_coefficients(1e-7)
    assert c.sigma_sq < 1e-4
    assert c.gamma_sq < 1e-4


def test_coefficients_match_quadrature_at_quarter():
    c = mix_coefficients(0.25)
    m1 = quad_raw_moment(0.25, 1)
    m2 = quad_raw_moment(0.25, 2)
    assert c.sigma_sq == pytest.approx(m2 - m1 * m1, abs=1e-9)
    assert c.gamma_sq == pytest.approx(m2 - m1 * m1 + (1 - m1) ** 2, abs=1e-9)


def test_domain_errors():
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            trunc_beta_mean(bad)
    with pytest.raises(ValueError):
        trunc_beta_raw_moment(1.0, 3)
    with pytest.raises(ValueError):
        sample_theta(-0.5, np.random.default_rng(0))


def test_invariant_validation():
    with pytest.raises(ValueError):
        MixCoefficients(alpha=1.0, theta_bar=0.4, sigma_sq=0.01, gamma_sq=0.37)
    with pytest.raises(ValueError):
        MixCoefficients(alpha=1.0, theta_bar=0.75, sigma_sq=0.02, gamma_sq=0.5)


def test_samples_in_support_and_deterministic():
    draws = sample_theta(0.7, np.random.default_rng(42), size=10_000)
    assert np.all(draws >= 0.5) and np.all(draws <= 1.0)
    again = sample_theta(0.7, np.random.default_rng(42), size=10_000)
    assert np.array_equal(draws, again)
    scalar = sample_theta(0.7, np.random.default_rng(7))
    assert isinstance(scalar, float) and 0.5 <= scalar <= 1.0


@pytest.mark.parametrize("alpha", [0.3, 1.0, 4.0])
def test_sample_moments_within_four_stderr(alpha):
    n = 1_000_000
    draws = sample_theta(alpha, np.random.default_rng(123), size=n)
    c = mix_coefficients(alpha)
    se_mean = draws.std(ddof=1) / np.sqrt(n)
    assert abs(draws.mean() - c.theta_bar) < 4 * se_mean
    centered_sq = (draws - c.theta_bar) ** 2
    se_var = centered_sq.std(ddof=1) / np.sqrt(n)
    assert abs(centered_sq.mean() - c.sigma_sq) < 4 * se_var


def test_folded_sampler_matches_inverse_cdf():
    """Two-sample KS against inverse-CDF draws through the quantile map."""
    alpha = 2.0
    norm = betainc(alpha, alpha, 1.0) - betainc(alpha, alpha, 0.5)

    def cdf(t):
        return (betainc(alpha, alpha, t) - betainc(alpha, alpha, 0.5)) / norm

    rng = np.random.default_rng(99)
    n = 20_000
    u = rng.uniform(size=n)
    inv = np.array([brentq(lambda t, ui=ui: cdf(t) - ui, 0.5, 1.0, xtol=1e-12) for ui in u])
    folded = sample_theta(alpha, rng, size=n)
    assert ks_2samp(folded, inv).pvalue > 0.01


_B = _FOLD_BLOCK


@pytest.mark.parametrize("size", [0, 1, _B - 1, _B, _B + 1, 3 * _B + 7, (3, _B // 2 + 5)])
def test_blocked_fold_equals_one_shot_fold(size):
    """The in-place fold, one block at a time, equals max(lam, 1 - lam) over
    all the draws at once bit for bit, and leaves the same generator state."""
    rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    got = sample_theta(0.7, rng, size=size)
    lam = ref_rng.beta(0.7, 0.7, size=size)
    assert got.shape == lam.shape and np.array_equal(got, np.maximum(lam, 1.0 - lam))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("alpha", [0.1, 0.2, 0.5, 0.7, 0.9999999, 1.0000001, 1.5, 2.0, 5.0])
def test_sampler_is_generator_beta_away_from_one(alpha):
    """Away from alpha = 1 the sampler is ``Generator.beta``: Monte Carlo
    draws there keep its stream and end state."""
    for size in (10_000, (3, 7), None):
        rng, ref = np.random.default_rng(12), np.random.default_rng(12)
        got = _symmetric_beta(alpha, rng, size)
        expected = ref.beta(alpha, alpha, size=size)
        assert type(got) is type(expected) and np.array_equal(got, expected), size
        assert rng.bit_generator.state == ref.bit_generator.state, size


@pytest.mark.parametrize("size", [0, 1, 3276, (3, 7), None])
def test_sampler_at_one_is_generator_random(size):
    """At alpha = 1, where numpy's beta takes Johnk's rejection sampler, the
    sampler is ``Generator.random``: one uniform draw per weight, the same
    bits and end state, a float for a scalar."""
    rng, ref = np.random.default_rng(13), np.random.default_rng(13)
    got = _symmetric_beta(1.0, rng, size)
    expected = ref.random(size)
    assert type(got) is type(expected) and np.array_equal(got, expected)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_sampler_at_one_is_uniform():
    """Beta(1, 1) is uniform: one-sample KS on 200 000 draws, and the folded
    draws are uniform on [1/2, 1]."""
    assert kstest(_symmetric_beta(1.0, np.random.default_rng(14), 200_000), "uniform").pvalue > 0.01
    folded = sample_theta(1.0, np.random.default_rng(15), size=200_000)
    assert kstest(folded, "uniform", args=(0.5, 0.5)).pvalue > 0.01
    scalar = _symmetric_beta(1.0, np.random.default_rng(16))
    assert isinstance(scalar, float) and 0.0 <= scalar <= 1.0


def test_sample_theta_holds_no_full_size_temporary():
    """A million draws trace under their own 8 MB plus 1 MiB, through
    ``Generator.random`` at alpha 1 and through ``Generator.beta`` at 0.5;
    with a full-size 1 - lam the peak was twice the draws."""
    rng = np.random.default_rng(0)
    n = 10**6
    for alpha in (1.0, 0.5):
        assert traced_peak(lambda: sample_theta(alpha, rng, size=n)) < 8 * n + 2**20, alpha
