import numpy as np
import pytest

from mixreg.data import modify
from mixreg.experiment import ExperimentSpec, make_instance, run_seed
from mixreg.losses import hess_uu_rows
from mixreg.models import RffModel
from mixreg.regularizers import per_example_covariances, r_terms_general
from mixreg.training import _penalty_sum
from mixreg.truncbeta import mix_coefficients

SPEC = ExperimentSpec()
COEFFS = mix_coefficients(SPEC.alpha)


@pytest.fixture(scope="module")
def seed_runs():
    return {seed: run_seed(SPEC, seed) for seed in (0, 1)}


@pytest.mark.parametrize("seed", [0, 1])
def test_reg_sums_equal_the_completed_breakdown(seed_runs, seed):
    """At the default spec the stacked penalty is R1 + R3 + R4 of the
    row-looped breakdown at the returned models."""
    out = seed_runs[seed]
    ds_train, _ = make_instance(SPEC, seed)
    for m in ("erm", "mixup"):
        model = out["results"][m].model
        expected = r_terms_general(ds_train, model, SPEC.loss, COEFFS).regularizer_sum_no_r2
        assert out[f"reg_sum_{m}"] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("scale", [30.0, 300.0])
def test_reg_sum_is_finite_on_saturated_heads(seed_runs, scale):
    """Scaling the plain-fit head saturates the softmax (logit gaps up to
    141 and 1409); the completed breakdown then cancels catastrophically
    (-1.7e41 and nan), while the uncompleted sum equals a per-row sum of
    1/2 <H, G A G^T> - <Cov^{yx}, G>."""
    ds_train, _ = make_instance(SPEC, 0)
    plain = seed_runs[0]["results"]["erm"].model
    assert _penalty_sum(ds_train, plain, SPEC.loss, COEFFS) == seed_runs[0]["reg_sum_erm"]
    model = RffModel(plain.S, plain.B, scale * plain.w)
    mod = modify(ds_train, COEFFS.theta_bar)
    H = hess_uu_rows(SPEC.loss, model.predict(mod.inputs))
    expected = 0.0
    for i in range(ds_train.n):
        cov = per_example_covariances(ds_train, COEFFS, i)
        G = model.input_jacobian(mod.inputs[i])
        expected += 0.5 * np.sum(H[i] * (G @ cov.sxx @ G.T)) - np.sum(cov.sxy.T * G)
    expected /= ds_train.n
    value = _penalty_sum(ds_train, model, SPEC.loss, COEFFS)
    assert np.isfinite(value)
    assert value == pytest.approx(expected, rel=1e-12)
