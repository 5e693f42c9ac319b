import numpy as np
import pytest

from conftest import central_cross_hessian, central_grad, central_hessian, central_jacobian
from mixreg.losses import (
    LossKind,
    bundle,
    entropy,
    grad_u_rows,
    hess_uu_rows,
    loss_values,
    sigmoid,
    softmax_rows,
)


def _value(kind, y, u):
    """The loss at one (y, u) pair, read off ``loss_values`` on one row."""
    return loss_values(kind, np.asarray(y, dtype=float)[None], np.asarray(u, dtype=float)[None])[0]


def test_softmax_symmetry_and_shift_invariance():
    assert np.allclose(softmax_rows(np.zeros((1, 2))), [[0.5, 0.5]], atol=1e-15)
    U = np.array([[0.3, -1.2, 2.0], [5.0, 0.0, -3.0]])
    assert np.abs(softmax_rows(U + 3.7) - softmax_rows(U)).max() < 1e-12
    assert np.abs(softmax_rows(U + np.array([[3.7], [-40.0]])) - softmax_rows(U)).max() < 1e-12


def test_entropy_uniform_maximal():
    assert entropy(np.full(10, 0.1)) == pytest.approx(np.log(10.0), abs=1e-12)
    assert entropy(np.array([1.0, 0.0])) == 0.0
    with pytest.raises(ValueError):
        entropy(np.array([0.7, 0.6]))


def test_entropy_of_rows_is_each_row_entropy():
    P = np.array([[0.5, 0.5], [1.0, 0.0], [0.25, 0.75]])
    h = entropy(P)
    assert isinstance(h, np.ndarray) and h.shape == (3,)
    assert np.array_equal(h, [entropy(p) for p in P])
    assert h[0] == pytest.approx(np.log(2.0), abs=1e-15) and h[1] == 0.0
    assert isinstance(entropy(P[2]), float)
    with pytest.raises(ValueError):
        entropy(np.array([[0.5, 0.5], [0.7, 0.6]]))


def test_sigmoid_range_and_symmetry():
    assert sigmoid(0.0) == pytest.approx(0.5)
    assert sigmoid(30.0) < 1.0 and sigmoid(-30.0) > 0.0
    assert sigmoid(1.7) == pytest.approx(1.0 - sigmoid(-1.7), abs=1e-12)


def test_array_sigmoid_is_the_scalar_one_and_matches_expit():
    from scipy.special import expit

    u = np.linspace(-700.0, 700.0, 20_001)
    s = sigmoid(u)
    assert s.shape == u.shape
    assert np.array_equal(s, [sigmoid(float(v)) for v in u])
    assert np.all(np.abs(s - expit(u)) <= 1e-15 * expit(u))
    with np.errstate(all="raise"):
        assert sigmoid(-800.0) == 0.0 and sigmoid(800.0) == 1.0
        assert np.array_equal(sigmoid(np.array([-800.0, 800.0])), [0.0, 1.0])
    assert np.isnan(sigmoid(float("nan")))
    assert np.isnan(sigmoid(np.array([np.nan, 0.0]))).tolist() == [True, False]


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
        assert b.value == _value(kind, y, u)

        def val(yy, uu):
            return _value(kind, yy, uu)

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


def test_ce_curvature_nullspace_and_psd():
    rng = np.random.default_rng(1)
    H = hess_uu_rows(LossKind.CROSS_ENTROPY, rng.normal(size=(20, 4)) * 3)
    assert np.abs(H @ np.ones(4)).max() < 1e-12
    assert np.abs(H - H.transpose(0, 2, 1)).max() == 0.0
    assert np.linalg.eigvalsh(H).min() > -1e-12


@pytest.mark.parametrize("kind", list(LossKind))
def test_curvature_rows_are_central_differences_of_gradient_rows(kind):
    """Each row of hess_uu_rows is the Jacobian in u of that row of
    grad_u_rows, by central differences, at points where the curvature is
    far from zero."""
    rng = np.random.default_rng(4)
    pairs = [_random_pair(kind, rng) for _ in range(30)]
    Y, U = np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])
    H = hess_uu_rows(kind, U)
    assert H.shape == (len(U), U.shape[1], U.shape[1])
    for y, u, h in zip(Y, U, H):
        fd = central_jacobian(lambda uu: grad_u_rows(kind, y[None], uu[None])[0], u)
        assert np.allclose(h, fd, rtol=1e-7, atol=1e-9)
    assert np.abs(H).max() > 0.05


def test_ce_binary_equals_logistic_reparametrization():
    """One-hot binary CE equals the scalar logistic loss at u = u1 - u0."""
    rng = np.random.default_rng(2)
    for _ in range(50):
        u = rng.normal(size=2) * 2
        for label in (0, 1):
            y2 = np.eye(2)[label]
            ce = _value(LossKind.CROSS_ENTROPY, y2, u)
            # class encoded by the second logit; the scalar label is y2[1]
            lr = _value(LossKind.LOGISTIC, [y2[1]], [u[1] - u[0]])
            assert abs(ce - lr) < 1e-12


def test_loss_values_match_independent_oracles():
    """Cross-entropy against scipy's logsumexp and the logistic loss against
    numpy's logaddexp, row by row, including logits far in both tails."""
    from scipy.special import logsumexp

    rng = np.random.default_rng(3)
    Y = rng.dirichlet(np.ones(3), size=8)
    U = rng.normal(size=(8, 3)) * np.array([[1.0], [1.0], [1.0], [1.0], [30.0], [300.0], [1.0], [1.0]])
    U[6] += 800.0
    vals = loss_values(LossKind.CROSS_ENTROPY, Y, U)
    oracle = [logsumexp(u) - y @ u for y, u in zip(Y, U)]
    assert np.allclose(vals, oracle, rtol=1e-14, atol=1e-12)

    y = rng.uniform(size=(8, 1))
    u = rng.normal(size=(8, 1)) * np.array([[1.0], [1.0], [1.0], [1.0], [30.0], [300.0], [-300.0], [1.0]])
    vals = loss_values(LossKind.LOGISTIC, y, u)
    oracle = [np.logaddexp(0.0, uu[0]) - yy[0] * uu[0] for yy, uu in zip(y, u)]
    assert np.allclose(vals, oracle, rtol=1e-14, atol=1e-12)


def test_shape_mismatch_raises():
    with pytest.raises(ValueError):
        loss_values(LossKind.SQUARED_ERROR, np.zeros((1, 2)), np.zeros((1, 3)))
    with pytest.raises(ValueError):
        bundle(LossKind.LOGISTIC, np.zeros(2), np.zeros(2))


@pytest.mark.filterwarnings("error")
def test_logistic_row_gradient_is_overflow_safe():
    U = np.array([[-800.0], [800.0]])
    Y = np.array([[1.0], [0.0]])
    assert np.array_equal(grad_u_rows(LossKind.LOGISTIC, Y, U), [[-1.0], [1.0]])


def _row_major_values(kind, Y, U):
    """``loss_values``' expressions reduced along C-ordered rows: numpy's
    row sum, sequential below 8 terms and pairwise from 8."""
    Y, U = np.ascontiguousarray(Y), np.ascontiguousarray(U)
    if kind is LossKind.SQUARED_ERROR:
        return 0.5 * ((Y - U) ** 2).sum(axis=1)
    if kind is LossKind.CROSS_ENTROPY:
        m = U.max(axis=1)
        return np.log(np.exp(U - m[:, None]).sum(axis=1)) + m - (Y * U).sum(axis=1)
    return np.logaddexp(0.0, U[:, 0]) - Y[:, 0] * U[:, 0]


def _loss_inputs(kind, n, c, seed):
    rng = np.random.default_rng(seed)
    U = rng.normal(size=(n, c)) * rng.uniform(0.1, 30.0, size=(n, 1))
    if kind is LossKind.CROSS_ENTROPY:
        Y = rng.dirichlet(np.ones(c), size=n)
    elif kind is LossKind.LOGISTIC:
        Y = rng.uniform(size=(n, c))
    else:
        Y = rng.normal(size=(n, c)) * rng.uniform(0.1, 30.0, size=(n, 1))
    return Y, U


def _layouts(Y, U):
    """The same values C-ordered, F-ordered, as strided views of larger
    arrays, and one of each."""
    def strided(a):
        big = np.full((3 * a.shape[0], 2 * a.shape[1] + 1), np.nan)
        big[::3, 1::2] = a
        return big[::3, 1::2]

    return {
        "C": (Y, U),
        "F": (np.asfortranarray(Y), np.asfortranarray(U)),
        "strided": (strided(Y), strided(U)),
        "C and F": (Y, np.asfortranarray(U)),
        "strided and C": (strided(Y), U),
    }


_CASES = [(LossKind.CROSS_ENTROPY, c) for c in range(1, 8)] + [(LossKind.SQUARED_ERROR, c) for c in range(1, 8)]


@pytest.mark.parametrize("kind, c", _CASES + [(LossKind.LOGISTIC, 1)])
def test_loss_values_equal_the_row_major_expression_up_to_seven_classes(kind, c):
    """Reducing by column adds each row's terms left to right, as numpy's
    row sum does below 8 terms: the same bits for every layout."""
    Y, U = _loss_inputs(kind, 1001, c, seed=c)
    expected = _row_major_values(kind, Y, U)
    for name, (y, u) in _layouts(Y, U).items():
        assert np.array_equal(loss_values(kind, y, u), expected), name


@pytest.mark.parametrize("kind", [LossKind.CROSS_ENTROPY, LossKind.SQUARED_ERROR])
@pytest.mark.parametrize("c", [8, 9, 16, 33])
def test_loss_values_from_eight_classes_within_rounding_of_the_row_major_expression(kind, c):
    """From 8 terms numpy's row sum is pairwise, so the two orders differ by
    rounding: each sum by at most 2 (c - 1) 2^-53 times its sum of absolute
    terms. Per row that bounds the SE value's change by c 2^-52 times the
    value, and the CE value's by c 2^-52 (1 + |max u| + sum |y u| + |l|)."""
    Y, U = _loss_inputs(kind, 1001, c, seed=c)
    expected = _row_major_values(kind, Y, U)
    if kind is LossKind.SQUARED_ERROR:
        scale = expected
    else:
        scale = 1.0 + np.abs(U).max(axis=1) + np.abs(Y * U).sum(axis=1) + np.abs(expected)
    for name, (y, u) in _layouts(Y, U).items():
        got = loss_values(kind, y, u)
        assert np.all(np.abs(got - expected) <= c * 2.0**-52 * scale), name
