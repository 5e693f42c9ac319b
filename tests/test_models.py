import numpy as np
import pytest

from conftest import central_jacobian, rel_err
from mixreg.models import LinearModel, RffModel, init_rff, load_model_json, save_model_json


def test_linear_identity_predict():
    model = LinearModel(W=np.eye(2), b=np.zeros(2))
    assert np.allclose(model.predict(np.array([1.0, 2.0])), [1.0, 2.0])
    batch = np.array([[1.0, 2.0], [0.5, -1.0]])
    assert np.allclose(model.predict(batch), batch)


def test_linear_jacobian_hessian():
    rng = np.random.default_rng(0)
    model = LinearModel(W=rng.normal(size=(2, 3)), b=rng.normal(size=2))
    x = rng.normal(size=3)
    assert np.array_equal(model.input_jacobian(x), model.W)
    assert np.all(model.input_hessian(x) == 0.0)


def test_linear_homogeneity_without_intercept():
    rng = np.random.default_rng(1)
    model = LinearModel(W=rng.normal(size=(2, 2)), b=np.zeros(2))
    x = rng.normal(size=2)
    for t in (0.3, 2.5, -1.7):
        assert np.allclose(model.predict(t * x), t * model.predict(x), atol=1e-14)


def test_rff_zero_head_and_straight_line_oracle():
    model = init_rff(d=2, M=64, sigma_rff=3.0, c=2, seed=0)
    x = np.array([0.4, -0.2])
    assert np.allclose(model.predict(x), 0.0)
    rng = np.random.default_rng(2)
    model.w = rng.normal(size=model.w.shape)
    # independent reimplementation, plain loops
    expected = np.zeros(2)
    for a in range(2):
        acc = 0.0
        for m in range(model.n_features):
            acc += model.w[a, m] * np.cos(model.S[m] @ x + model.B[m])
        expected[a] = acc / np.sqrt(model.n_features)
    assert np.abs(model.predict(x) - expected).max() < 1e-12


def test_rff_jacobian_zero_at_cosine_peak():
    M, d = 16, 2
    model = RffModel(S=np.random.default_rng(3).normal(size=(M, d)), B=np.zeros(M),
                     w=np.ones((1, M)))
    assert np.abs(model.input_jacobian(np.zeros(d))).max() < 1e-14


@pytest.mark.parametrize("seed", range(5))
def test_rff_derivatives_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    model = init_rff(d=2, M=40, sigma_rff=2.0, c=2, seed=seed)
    model.w = rng.normal(size=model.w.shape)
    for _ in range(10):
        x = rng.normal(size=2)
        jac_fd = central_jacobian(model.predict, x, h=1e-6)
        assert rel_err(model.input_jacobian(x), jac_fd, floor=1e-3) < 1e-5
        hess = model.input_hessian(x)
        for a in range(2):
            hess_fd = central_jacobian(
                lambda xx, a=a: model.input_jacobian(xx)[a], x, h=1e-6
            )
            assert rel_err(hess[a], hess_fd, floor=1e-3) < 1e-5


def test_init_rff_distributions():
    model = init_rff(d=2, M=1000, sigma_rff=10.0, c=2, seed=0)
    assert model.n_features == 1000 and model.in_dim == 2
    se = 10.0 / np.sqrt(model.S.size)
    assert abs(model.S.mean()) < 4 * se
    assert np.all((model.B >= 0.0) & (model.B < 2 * np.pi))
    assert np.all(model.w == 0.0)
    assert np.abs(model.features(np.zeros(2))).max() <= 1.0 / np.sqrt(1000) + 1e-15
    with pytest.raises(ValueError):
        init_rff(d=2, M=0, sigma_rff=1.0, c=2, seed=0)
    with pytest.raises(ValueError):
        init_rff(d=2, M=10, sigma_rff=0.0, c=2, seed=0)


def test_json_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    lin = LinearModel(W=rng.normal(size=(2, 3)), b=rng.normal(size=2))
    save_model_json(lin, tmp_path / "lin.json", extra={"note": "x"})
    back, extra = load_model_json(tmp_path / "lin.json")
    assert isinstance(back, LinearModel)
    assert np.array_equal(back.W, lin.W) and np.array_equal(back.b, lin.b)
    assert extra == {"note": "x"}

    rff = init_rff(d=2, M=8, sigma_rff=1.0, c=1, seed=1)
    rff.w = rng.normal(size=rff.w.shape)
    save_model_json(rff, tmp_path / "rff.json")
    back, extra = load_model_json(tmp_path / "rff.json")
    assert isinstance(back, RffModel)
    x = rng.normal(size=2)
    assert np.allclose(back.predict(x), rff.predict(x), atol=1e-15)
    assert extra == {}
