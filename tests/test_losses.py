import numpy as np
import pytest

from conftest import central_cross_hessian, central_grad, central_hessian
from mixreg.losses import (
    LossKind,
    bundle,
    entropy,
    grad_u_rows,
    loss_value,
    loss_values,
    sigmoid,
    softmax,
    softmax_hessian,
    softmax_rows,
)


def test_softmax_symmetry_and_shift_invariance():
    assert np.allclose(softmax(np.zeros(2)), [0.5, 0.5], atol=1e-15)
    u = np.array([0.3, -1.2, 2.0])
    assert np.abs(softmax(u + 3.7) - softmax(u)).max() < 1e-12


def test_entropy_uniform_maximal():
    assert entropy(np.full(10, 0.1)) == pytest.approx(np.log(10.0), abs=1e-12)
    assert entropy(np.array([1.0, 0.0])) == 0.0
    with pytest.raises(ValueError):
        entropy(np.array([0.7, 0.6]))


def test_sigmoid_range_and_symmetry():
    assert sigmoid(0.0) == pytest.approx(0.5)
    assert sigmoid(30.0) < 1.0 and sigmoid(-30.0) > 0.0
    assert sigmoid(1.7) == pytest.approx(1.0 - sigmoid(-1.7), abs=1e-12)


def test_ce_bundle_symmetric_point():
    b = bundle(LossKind.CROSS_ENTROPY, np.array([1.0, 0.0]), np.zeros(2))
    assert np.allclose(b.hess_uu, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-15)
    assert np.allclose(b.hess_yu, -np.eye(2))
    assert np.allclose(b.hess_yy, 0.0)


def test_se_bundle_at_minimum():
    y = np.array([0.4, -1.0])
    b = bundle(LossKind.SQUARED_ERROR, y, y)
    assert b.value == 0.0
    assert np.allclose(b.grad_u, 0.0)
    assert np.allclose(b.hess_uu, np.eye(2))


def test_logistic_bundle_values():
    b = bundle(LossKind.LOGISTIC, np.array([1.0]), np.array([0.0]))
    assert b.value == pytest.approx(np.log(2.0), abs=1e-12)
    assert b.grad_u[0] == pytest.approx(-0.5, abs=1e-12)
    assert b.hess_uu[0, 0] == pytest.approx(0.25, abs=1e-12)


def _random_pair(kind, rng):
    if kind is LossKind.CROSS_ENTROPY:
        c = 3
        y = rng.dirichlet(np.ones(c))
        u = rng.normal(size=c)
    elif kind is LossKind.SQUARED_ERROR:
        c = 3
        y = rng.normal(size=c)
        u = rng.normal(size=c)
    else:
        y = np.array([rng.uniform()])
        u = rng.normal(size=1)
    return y, u


@pytest.mark.parametrize("kind", list(LossKind))
def test_bundle_matches_finite_differences(kind):
    rng = np.random.default_rng(0)
    for _ in range(100):
        y, u = _random_pair(kind, rng)
        b = bundle(kind, y, u)

        def val(yy, uu):
            return loss_value(kind, yy, uu)

        # second differences carry ~1e-8 cancellation noise, hence the atol
        assert np.allclose(b.grad_u, central_grad(lambda uu: val(y, uu), u), rtol=1e-5, atol=1e-8)
        assert np.allclose(b.grad_y, central_grad(lambda yy: val(yy, u), y), rtol=1e-5, atol=1e-8)
        assert np.allclose(
            b.hess_uu, central_hessian(lambda uu: val(y, uu), u), rtol=1e-5, atol=1e-6
        )
        assert np.allclose(
            b.hess_yy, central_hessian(lambda yy: val(yy, u), y), rtol=1e-5, atol=1e-6
        )
        assert np.allclose(
            b.hess_yu, central_cross_hessian(val, y, u), rtol=1e-5, atol=1e-6
        )


def test_schwarz_symmetry_of_cross_block():
    rng = np.random.default_rng(5)
    for kind in LossKind:
        y, u = _random_pair(kind, rng)
        b = bundle(kind, y, u)
        # d2l/dy du must be the transpose of d2l/du dy; both equal -I here
        assert np.allclose(b.hess_yu, b.hess_yu.T)


def test_softmax_hessian_nullspace_and_psd():
    rng = np.random.default_rng(1)
    for _ in range(20):
        u = rng.normal(size=4) * 3
        H = softmax_hessian(u)
        assert np.abs(H @ np.ones(4)).max() < 1e-12
        assert np.linalg.eigvalsh(H).min() > -1e-12


def test_ce_binary_equals_logistic_reparametrization():
    """One-hot binary CE equals the scalar logistic loss at u = u1 - u0."""
    rng = np.random.default_rng(2)
    for _ in range(50):
        u = rng.normal(size=2) * 2
        for label in (0, 1):
            y2 = np.eye(2)[label]
            ce = loss_value(LossKind.CROSS_ENTROPY, y2, u)
            # class encoded by the second logit; the scalar label is y2[1]
            lr = loss_value(LossKind.LOGISTIC, np.array([y2[1]]), np.array([u[1] - u[0]]))
            assert abs(ce - lr) < 1e-12


def test_batch_helpers_match_scalar_paths():
    rng = np.random.default_rng(3)
    Y = rng.dirichlet(np.ones(3), size=6)
    U = rng.normal(size=(6, 3))
    vals = loss_values(LossKind.CROSS_ENTROPY, Y, U)
    for i in range(6):
        assert vals[i] == pytest.approx(loss_value(LossKind.CROSS_ENTROPY, Y[i], U[i]), abs=1e-12)
    P = softmax_rows(U)
    for i in range(6):
        assert np.allclose(P[i], softmax(U[i]), atol=1e-15)


def test_shape_mismatch_raises():
    with pytest.raises(ValueError):
        loss_value(LossKind.SQUARED_ERROR, np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError):
        bundle(LossKind.LOGISTIC, np.zeros(2), np.zeros(2))


@pytest.mark.filterwarnings("error")
def test_logistic_row_gradient_is_overflow_safe():
    U = np.array([[-800.0], [800.0]])
    Y = np.array([[1.0], [0.0]])
    assert np.array_equal(grad_u_rows(LossKind.LOGISTIC, Y, U), [[-1.0], [1.0]])
