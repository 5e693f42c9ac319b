import copy
import pickle
import tracemalloc

import numpy as np
import pytest

from conftest import central_jacobian, rel_err
from mixreg.models import (
    _PHASE_ELEMS,
    LinearModel,
    RffModel,
    _cos,
    init_rff,
    load_model_json,
    save_model_json,
)


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


def _cos_inputs():
    rng = np.random.default_rng(7)
    odd_pi = np.arange(-2001, 2002, 2) * np.pi
    return {
        "dense on [-200, 200]": np.linspace(-200.0, 200.0, 2_000_001),
        **{f"normal at scale {scale:g}": rng.normal(scale=scale, size=100_000)
           for scale in (1.0, 1e3, 1e6, 1e10, 1e15)},
        "odd multiples of pi": odd_pi,
        "odd multiples of pi + 1e-9": odd_pi + 1e-9,
        "odd multiples of pi - 1e-9": odd_pi - 1e-9,
        "multiples of pi/2": np.arange(-1000, 1001) * (np.pi / 2),
        "zeros and a subnormal": np.array([0.0, -0.0, 5e-324, -5e-324]),
    }


@pytest.mark.parametrize("name", list(_cos_inputs()))
def test_cos_kernel_within_2_pow_minus_51_of_libm(name):
    """The kernel takes half-angle phases; halving p is exact (a subnormal
    halves to zero, whose cosine is the same 1)."""
    p = _cos_inputs()[name]
    got = _cos(p / 2, 1.0)
    assert np.abs(got - np.cos(p)).max() <= 2.0**-51
    assert np.abs(got).max() <= 1.0


@pytest.mark.parametrize("M", [1, 2, 80, 1000, 4096])
def test_scaled_cos_kernel_within_2_pow_minus_50_of_scaled_libm(M):
    """With 1/sqrt(M) folded into its constants the kernel is within
    2^-50 / sqrt(M) of np.cos(p) / sqrt(M) (1.06 * 2^-51 / sqrt(M) at most
    where measured) and stays within [-1/sqrt(M), 1/sqrt(M)]."""
    scale = 1.0 / np.sqrt(M)
    for name, p in _cos_inputs().items():
        got = _cos(p / 2, scale)
        assert np.abs(got - np.cos(p) * scale).max() <= 2.0**-50 * scale, name
        assert np.abs(got).max() <= scale, name


def test_cos_kernel_gives_nan_for_inf_and_nan():
    with np.errstate(invalid="ignore"):
        for scale in (1.0, 1.0 / np.sqrt(80)):
            assert np.isnan(_cos(np.array([np.inf, -np.inf, np.nan]), scale)).all()


def test_cos_kernel_does_not_depend_on_position():
    """An element's cosine has the same bits in any slice, at any offset
    and alignment, as in the whole array, scaled or not."""
    h = np.random.default_rng(8).uniform(-25.0, 25.0, size=1003)
    for scale in (1.0, 1.0 / np.sqrt(80)):
        whole = _cos(h.copy(), scale)
        for start, stop in ((0, 1), (1, 2), (3, 17), (5, 1003), (0, 1000), (517, 600)):
            assert np.array_equal(_cos(h[start:stop].copy(), scale), whole[start:stop])
            in_place = h.copy()
            _cos(in_place[start:stop], scale)
            assert np.array_equal(in_place[start:stop], whole[start:stop])
        raw = np.empty(8 * h.size + 8, dtype=np.uint8)
        unaligned = np.frombuffer(raw[1 : 1 + 8 * h.size].data, dtype=float)
        assert unaligned.ctypes.data % 8 != 0
        unaligned[:] = h
        assert np.array_equal(_cos(unaligned, scale), whole)


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("M", [7, 80, 1000])
def test_rff_row_features_do_not_depend_on_the_batch(d, M):
    """A row's features have the same bits in every slice of two or more
    rows, at any offset; a single point or a one-row batch goes through a
    matrix-vector product and agrees to rounding. Every batch is within
    2^-50 / sqrt(M) of np.cos of its phases doubled, over sqrt(M)."""
    model = init_rff(d=d, M=M, sigma_rff=3.0, c=2, seed=10 * d + M)
    x = np.random.default_rng(d + M).normal(size=(37, d))
    whole = model.features(x)
    for start, stop in ((0, 2), (1, 3), (5, 37), (0, 36), (17, 30), (35, 37)):
        assert np.array_equal(model.features(x[start:stop]), whole[start:stop]), (start, stop)
        assert np.array_equal(model.features(np.asfortranarray(x[start:stop])), whole[start:stop])
    scale = 1.0 / np.sqrt(M)
    for k in (0, 20, 36):
        for one in (model.features(x[k]), model.features(x[k : k + 1])[0]):
            assert np.abs(one - whole[k]).max() <= 1e-14 * scale
    h = model._half_phases(x)
    assert np.abs(whole - np.cos(2 * h) * scale).max() <= 2.0**-50 * scale
    assert np.abs(2 * h - (x @ model.S.T + model.B)).max() <= 1e-13 * (1 + np.abs(x @ model.S.T).max())


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


def test_rff_frequencies_are_fixed_at_construction():
    """S and B are read-only copies: editing the arrays passed in left
    ``predict`` on the old frequencies while the derivatives read the new
    ones, and so did assigning S or B. Both assignments now raise; w stays
    assignable."""
    rng = np.random.default_rng(4)
    M = 12
    S, B = rng.normal(size=(M, 2)), rng.uniform(0.0, 2.0 * np.pi, size=M)
    model = RffModel(S, B, rng.normal(size=(2, M)))
    x = rng.normal(size=(5, 2))
    S += 1.0
    B += 1.0

    def reference():
        return np.cos(x @ model.S.T + model.B) @ model.w.T / np.sqrt(M)

    assert np.abs(model.predict(x) - reference()).max() < 1e-12
    assert np.abs(model.input_jacobian(x[0]) - central_jacobian(model.predict, x[0])).max() < 1e-6
    for name in ("S", "B"):
        with pytest.raises(AttributeError):
            setattr(model, name, getattr(model, name) + 1.0)
        with pytest.raises(ValueError):
            getattr(model, name)[0] = 0.0
    model.w = np.zeros((2, M))
    assert not model.predict(x).any()


@pytest.mark.parametrize("clone", [lambda m: pickle.loads(pickle.dumps(m)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_rff_copies_keep_the_frequencies_fixed(clone):
    """numpy does not pickle the writeable flag, so a copy restored field by
    field had writeable S and B, and editing them in place left the cached
    phase matrix on the old frequencies."""
    model = init_rff(2, 12, 3.0, 2, 5)
    model.w = np.random.default_rng(5).normal(size=(2, 12))
    x = np.random.default_rng(6).normal(size=(7, 2))
    twin = clone(model)
    for name in ("S", "B"):
        assert not getattr(twin, name).flags.writeable
        with pytest.raises(ValueError):
            getattr(twin, name)[0] = 0.0
        with pytest.raises(AttributeError):
            setattr(twin, name, getattr(twin, name) + 1.0)
    assert np.array_equal(twin.predict(x), model.predict(x))
    assert np.array_equal(twin.predict(x[0]), model.predict(x[0]))
    twin.w[0, 0] += 1.0
    assert not np.array_equal(twin.predict(x), model.predict(x))


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


@pytest.mark.parametrize("M", [40, 1000])
@pytest.mark.parametrize("c", [1, 2])
def test_rff_predict_in_row_blocks(M, c, monkeypatch):
    """Batches past one block of _PHASE_ELEMS phases equal the one-shot
    expression to round-off; a batch of one block is that expression."""
    rows = max(1, _PHASE_ELEMS // M)
    model = init_rff(d=2, M=M, sigma_rff=3.0, c=c, seed=M + c)
    model.w = np.random.default_rng(c).normal(size=model.w.shape)
    xs = {n: np.random.default_rng(n).normal(size=(n, 2)) for n in (1, rows, rows + 1, 3 * rows + 7)}
    expected = {n: model.features(x) @ model.w.T for n, x in xs.items()}

    seen = []
    features = RffModel.features

    def recording(self, x):
        seen.append(np.shape(x))
        return features(self, x)

    monkeypatch.setattr(RffModel, "features", recording)
    for n, x in xs.items():
        got = model.predict(x)
        assert got.shape == (n, c)
        if n <= rows:
            assert np.array_equal(got, expected[n])
        else:
            assert np.abs(got - expected[n]).max() <= 2e-15 * np.abs(expected[n]).max()
    assert max(shape[0] for shape in seen) <= rows
    assert sum(shape[0] for shape in seen) == sum(xs)


def test_rff_predict_holds_one_phase_block_at_a_time():
    """A batch of four row blocks traces under 1.5 phase blocks: each block's
    phases are freed before the next block is featurized (keeping the last
    one alive peaked at 4.2 MiB, two blocks, at 80 features)."""
    model = init_rff(d=2, M=80, sigma_rff=3.0, c=2, seed=1)
    x = np.random.default_rng(0).normal(size=(4 * model.block_rows, 2))
    tracemalloc.start()
    try:
        model.predict(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * model.block_rows * model.n_features * 8


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
