import ast
import dataclasses
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from conftest import mc_memory_bound, traced_peak
from test_truncbeta import ALPHA_GRID, quad_raw_moment

import mixreg.verification as verification
from mixreg import mixup
from mixreg.data import Dataset, make_two_moons, modify
from mixreg.losses import LossKind
from mixreg.models import LinearModel, RffModel, init_rff
from mixreg.regularizers import RegularizerBreakdown, per_example_covariances, r_terms_general
from mixreg.truncbeta import MixCoefficients, mix_coefficients, trunc_beta_raw_moment
from mixreg.verification import (
    check_label_smoothing,
    check_covariance_formula,
    check_loss_specializations,
    check_mols,
    check_taylor,
    check_risk_rewrite,
    check_penalty_decomposition,
    expected_quadratic_loss,
    format_report_table,
    quadratic_loss,
    reports_to_json,
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


def _assert_risk_rewrite_memory(monkeypatch, ds, model, kind, n_perdraw, n_mc, block, phase_blocks):
    """One ``check_risk_rewrite`` passes at 1, 2 and 4 workers, each time
    tracing under the bound of one block per worker."""
    for workers in (1, 2, 4):
        monkeypatch.setattr(mixup, "_WORKERS", workers)
        reports = []
        peak = traced_peak(lambda: reports.append(
            check_risk_rewrite(ds, model, kind, 1.0, n_perdraw=n_perdraw, n_mc=n_mc)))
        assert reports[0].passed, reports[0].details
        assert peak < mc_memory_bound(workers, block, phase_blocks=phase_blocks), (workers, peak)


def test_risk_rewrite_check_memory_at_suite_sizes(monkeypatch):
    """The suite's cosine-feature instance of the check (100 000 per-draw and
    2 x 1 000 000 Monte Carlo draws at 80 features) holds one block of draws
    and a phase block per worker: 2.3 / 4.7 / 9.3 MiB at 1 / 2 / 4 workers,
    under the cosine-feature bound (4 / 7 / 13 MiB), which also covers its
    zero-mean section's 16 384-draw blocks.
    While the estimators held 200 000-draw chunks it took 8.4 / 10.7 / 14.9
    MiB; with the zero-mean partners drawn at once, each block stacked and a
    full-size 1 - lam in ``sample_theta`` 15.4 / 17.7 / 22.0 MiB, and 43.5
    MB with draw-sized temporaries in the summands."""
    ds = make_two_moons(50, 0.05, seed=0)
    model = init_rff(2, 80, 3.0, 2, seed=1)
    model.w = 0.5 * np.random.default_rng(0).normal(size=model.w.shape)
    _assert_risk_rewrite_memory(
        monkeypatch, ds, model, LossKind.CROSS_ENTROPY, 100_000, 1_000_000, mixup._BLOCK, 1.25)


def test_linear_risk_rewrite_check_memory_at_suite_sizes(monkeypatch):
    """The suite's linear instance (20 000 per-draw and 2 x 200 000 Monte
    Carlo draws) forms no phases and runs in 16 384-draw blocks: 1.9 / 3.5 /
    6.3 MiB at 1, 2 and 4 workers, under 16 block arrays per worker and no
    phase block (3 / 5 / 9 MiB). In 4096-draw blocks it took 0.5 / 0.9 /
    1.7 MiB; 6.5 / 6.8 / 7.4 MiB while the estimators held 200 000-draw
    chunks, 13.3 MiB with the zero-mean partners drawn at once, each block
    stacked and a full-size 1 - lam in ``sample_theta``."""
    ds = _random_regression(2)
    rng = np.random.default_rng(0)
    model = LinearModel(W=rng.normal(size=(2, 3)), b=rng.normal(size=2))
    _assert_risk_rewrite_memory(
        monkeypatch, ds, model, LossKind.SQUARED_ERROR, 20_000, 200_000, mixup._block_size(model), 0)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_perdraw_identity_memory_is_its_indices_weights_and_one_block(monkeypatch, workers):
    """The per-draw identity holds one block of row indices, weights,
    partners and loss vectors per worker, whatever the draw count: with a
    linear model, which forms no phases, 1.9 / 3.8 / 7.1 MiB at 1 / 2 / 4
    workers at 1 000 000 draws and the same at 4 000 000, under 16 arrays
    of one 16 384-draw block per worker (3 / 5 / 9 MiB). In 4096-draw blocks
    it took 0.5 / 0.9 / 1.8 MiB, over 2^16-draw blocks drawn on the calling
    thread 3.5 / 3.6 / 3.9 MiB, and with every row index and weight drawn up
    front 17.1 / 17.6 / 18.3 MiB at 1 000 000 draws."""
    monkeypatch.setattr(mixup, "_WORKERS", workers)
    ds = _random_regression(2)
    rng = np.random.default_rng(0)
    model = LinearModel(W=rng.normal(size=(2, 3)), b=rng.normal(size=2))
    peaks = []
    for n in (1_000_000, 4_000_000):
        gaps = []
        peaks.append(traced_peak(lambda: gaps.append(verification._perdraw_gap(
            ds, model, LossKind.SQUARED_ERROR, 1.0, 0.75, rng, n))))
        assert gaps[0] < 1e-12
    block = mixup._block_size(model)
    assert max(peaks) < mc_memory_bound(workers, block, phase_blocks=0), peaks
    # the threads' timing decides which block temporaries overlap: up to one
    # block array per worker
    assert abs(peaks[1] - peaks[0]) < workers * 8 * block, peaks


def test_block_draws_are_rows_weights_then_partners_per_block(monkeypatch):
    """Block b of a Monte Carlo loop gets child b of the seed sequence keyed
    by one draw from the caller's generator, and the block size or the
    remainder of the draw count; from it a block draws its rows (none when
    one row is fixed), its weights, folded or not, and its partners, in
    that order and nothing more. The weights are ``Generator.beta``'s at
    alpha 0.7 and ``Generator.random``'s at alpha 1."""
    block = mixup._block_size(None)
    ds, n = _random_regression(4, n=12), 2 * block + 7
    for workers in (1, 3):
        monkeypatch.setattr(mixup, "_WORKERS", workers)
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        key = int(ref.integers(2**64, dtype=np.uint64))
        blocks = []

        mixup._monte_carlo(rng, n, None, lambda g, k: (k, g.bit_generator.state), blocks.append)
        assert rng.bit_generator.state == ref.bit_generator.state
        children = np.random.SeedSequence(key).spawn(3)
        assert [k for k, _ in blocks] == [block, block, 7]
        assert [s for _, s in blocks] == [np.random.default_rng(c).bit_generator.state for c in children]
    for alpha, row, fold in itertools.product((0.7, 1.0), (None, 5), (True, False)):
        g, ref = np.random.default_rng(4), np.random.default_rng(4)
        i, j, w = mixup._block_draws(ds, g, 1000, alpha, fold, row=row)
        assert np.array_equal(i, ref.integers(ds.n, size=1000) if row is None else row)
        lam = ref.beta(alpha, alpha, size=1000) if alpha < 1.0 else ref.random(1000)
        assert np.array_equal(w, np.maximum(lam, 1.0 - lam) if fold else lam), (alpha, row, fold)
        assert np.array_equal(j, ref.integers(ds.n, size=1000))
        assert g.bit_generator.state == ref.bit_generator.state


def test_check_draws_repeat_per_seed_and_do_not_depend_on_worker_count(monkeypatch):
    """The per-draw gap and a row's perturbation moments and covariance sums
    are the same for the same seed, at one, two and three workers, over a
    draw count that is not a whole number of blocks."""
    ds, kind = make_two_moons(20, 0.05, seed=1), LossKind.CROSS_ENTROPY
    model = init_rff(2, 80, 3.0, 2, seed=1)
    model.w = 0.5 * np.random.default_rng(0).normal(size=model.w.shape)
    tb = mix_coefficients(1.0).theta_bar
    n = 2 * mixup._block_size(model) + 12_345

    def draws():
        gap = verification._perdraw_gap(ds, model, kind, 1.0, tb, np.random.default_rng(3), n)
        moments, sums = verification._perturbation_moments(ds, 1.0, tb, 4, np.random.default_rng(3), n)
        return gap, [(m.n, m.total, m.m2) for m in moments], [s.tolist() for s in sums]

    results = []
    for workers in (1, 2, 3, 1):
        monkeypatch.setattr(mixup, "_WORKERS", workers)
        results.append(draws())
    assert results[0] == results[1] == results[2] == results[3]
    assert results[0][0] < 1e-12 and all(m[0] == n for m in results[0][1])


def test_perturbation_moments_are_the_coordinates_and_their_products():
    """One loop gives each coordinate's moments and the three second-moment
    sums of the same draws: the moments' totals are the perturbation sums
    and their squared deviations the diagonals of the sums, centered."""
    ds = _random_regression(2)
    tb = mix_coefficients(0.7).theta_bar
    n = mixup._block_size(None) + 999
    moments, (sxx, syy, sxy) = verification._perturbation_moments(
        ds, 0.7, tb, 3, np.random.default_rng(5), n
    )
    assert len(moments) == ds.d + ds.c and all(m.n == n for m in moments)
    diag = np.concatenate((np.diag(sxx), np.diag(syy)))
    totals = np.array([m.total for m in moments])
    m2 = np.array([m.m2 for m in moments])
    assert np.allclose(m2, diag - totals**2 / n, rtol=1e-9)
    assert sxy.shape == (ds.d, ds.c)


def _imports(path: Path):
    """Every module name a source file imports, dotted with what it imports."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield from (f"{node.module or ''}.{a.name}" for a in node.names)


def _top_level_functions(path: Path) -> list:
    return [n.name for n in ast.parse(path.read_text()).body if isinstance(n, ast.FunctionDef)]


def test_oracles_live_apart_from_the_code_they_certify():
    """Only the command line and the package root import ``verification``;
    ``regularizers`` defines no oracle and ``verification`` each once."""
    src = Path(verification.__file__).parent
    importers = {
        path.stem for path in src.glob("*.py")
        if any("verification" in name.split(".") for name in _imports(path))
    }
    assert importers <= {"cli", "__init__"}
    oracles = ("exact_second_moments", "quadratic_loss", "_mixes", "expected_quadratic_loss", "_exact_mixup_risk")
    assert not set(oracles) & set(_top_level_functions(src / "regularizers.py"))
    defined = _top_level_functions(src / "verification.py")
    assert all(defined.count(name) == 1 for name in oracles)


def test_quadrature_oracles_build_their_own_rule():
    """The rule is plain numpy (no scipy, no ``numpy.polynomial``), and the
    quadrature oracles, each defined, never read the closed-form moments they
    cross-check."""
    path = Path(verification.__file__)
    assert not [name for name in _imports(path) if name.startswith(("scipy", "numpy.polynomial"))]
    oracles = {"_theta_rule", "_mixes", "expected_quadratic_loss", "_exact_mixup_risk"}
    assert oracles <= set(_top_level_functions(path))
    for fn in ast.parse(path.read_text()).body:
        if isinstance(fn, ast.FunctionDef) and fn.name in oracles:
            assert "trunc_beta_raw_moment" not in {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)}


@pytest.mark.parametrize("kind", list(LossKind))
def test_quadratic_loss_on_a_stack_equals_its_row_calls(kind):
    """(k, d) and (k, c) stacks give the k values of the one-row calls."""
    rng = np.random.default_rng(11)
    if kind is LossKind.SQUARED_ERROR:
        ds = _random_regression(11)
        model = LinearModel(W=rng.normal(size=(2, 3)), b=rng.normal(size=2))
    else:
        ds = make_two_moons(10, 0.05, seed=11)
        if kind is LossKind.LOGISTIC:
            ds = Dataset(ds.inputs.copy(), ds.outputs[:, 1:2].copy())
        model = init_rff(2, 40, 3.0, ds.c, seed=11)
        model.w = 0.5 * rng.normal(size=model.w.shape)
    mod = modify(ds, mix_coefficients(1.0).theta_bar)
    delta, eps = 0.3 * rng.normal(size=(7, ds.d)), 0.3 * rng.normal(size=(7, ds.c))
    for i in (0, ds.n - 1):
        stacked = quadratic_loss(mod, model, kind, i, delta, eps)
        rows = np.array([quadratic_loss(mod, model, kind, i, dl, ep) for dl, ep in zip(delta, eps)])
        assert stacked.shape == (7,)
        assert np.all(np.abs(stacked - rows) <= 1e-15 * np.abs(rows))


def test_covariance_check_passes():
    rep = check_covariance_formula(make_two_moons(20, 0.05, seed=1), 1.0)
    assert rep.passed


@pytest.mark.parametrize("n_mc", [1_000_000, 4_000_000])
def test_covariance_check_memory_is_its_weights_and_one_block(n_mc, monkeypatch):
    """The check holds one 16 384-draw block of folded weights, partners
    and perturbations per worker, whatever n_mc: 1.4 / 2.8 / 5.2 MiB at 1 /
    2 / 4 workers, at 1 M and at 4 M draws, under 16 block arrays per worker
    and no phase block, since no model is called (3 / 5 / 9 MiB). In
    4096-draw blocks it took 0.4 / 0.7 / 1.4 MiB, over 2^16-draw blocks on
    the calling thread 7.0 MiB; with all n_mc weights drawn before the first
    partner 12.1 / 35.0 MiB, and 21.3 / 67.1 MiB with every partner drawn
    at once too."""
    ds = make_two_moons(20, 0.05, seed=1)
    for workers in (1, 2, 4):
        monkeypatch.setattr(mixup, "_WORKERS", workers)
        reports = []
        peak = traced_peak(lambda: reports.append(check_covariance_formula(ds, 1.0, n_mc=n_mc)))
        assert reports[0].passed, reports[0].details
        assert peak < mc_memory_bound(workers, mixup._block_size(None), phase_blocks=0), (workers, peak)


def _no_draws(*args):
    raise AssertionError("a check drew before it validated its draw counts")


@pytest.mark.parametrize("count", [0, -5, 2.5, True])
@pytest.mark.parametrize("param", ["n_perdraw", "n_mc"])
def test_risk_rewrite_check_takes_a_whole_number_of_draws(param, count, monkeypatch):
    """n_perdraw 0 and -5 used to pass with discrepancy 0 on no draws; both
    counts are checked by name before the first draw."""
    ds = _random_regression(0)
    model = LinearModel(W=np.ones((2, 3)), b=np.zeros(2))
    monkeypatch.setattr(verification, "_monte_carlo", _no_draws)
    counts = {"n_perdraw": 1000, "n_mc": 1000, param: count}
    with pytest.raises(ValueError, match=f"^{param} must be an integer >= 1"):
        check_risk_rewrite(ds, model, LossKind.SQUARED_ERROR, 1.0, **counts)


@pytest.mark.parametrize("count", [0, -5, 2.5, True])
def test_covariance_check_takes_a_whole_number_of_draws(count, monkeypatch):
    """n_mc 0 used to give "MC rel nan", 2.5 a TypeError and True one draw;
    the count is checked by name before the first draw."""
    monkeypatch.setattr(verification, "_monte_carlo", _no_draws)
    with pytest.raises(ValueError, match="^n_mc must be an integer >= 1"):
        check_covariance_formula(_random_regression(0), 1.0, n_mc=count)


# alphas of the quadrature tests; below 1 the folded density is infinite at 1
QUADRATURE_ALPHAS = [0.1, 0.2, 0.5, 1.0, 2.0]


@pytest.mark.parametrize("alpha", QUADRATURE_ALPHAS)
def test_decomposition_check_each_loss(alpha):
    ds = make_two_moons(10, 0.05, seed=2)
    model = init_rff(2, 40, 3.0, 2, seed=3)
    model.w = 0.5 * np.random.default_rng(3).normal(size=model.w.shape)
    assert check_penalty_decomposition(ds, model, LossKind.CROSS_ENTROPY, alpha).passed
    scalar = Dataset(ds.inputs.copy(), ds.outputs[:, 1:2].copy())
    model1 = init_rff(2, 40, 3.0, 1, seed=4)
    model1.w = 0.5 * np.random.default_rng(4).normal(size=model1.w.shape)
    assert check_penalty_decomposition(scalar, model1, LossKind.LOGISTIC, alpha).passed


def test_mols_check_exact_line():
    X = np.linspace(-1, 1, 9)[:, None]
    ds = Dataset(X, 2.0 * X)
    rep = check_mols(ds, 1.0)
    assert rep.passed
    from mixreg.regularizers import mols_fit

    fit = mols_fit(ds)
    assert fit.W[0, 0] == pytest.approx(2.0, abs=1e-12)
    assert fit.b[0] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("alpha", QUADRATURE_ALPHAS)
def test_mols_check_random_regression(alpha):
    rep = check_mols(_random_regression(5, n=20, d=3, c=2), alpha)
    assert rep.passed and rep.discrepancy < 1e-7


def test_alpha_one_moment_arithmetic():
    """Moment combinations at alpha = 1: frozen hand-computed values."""
    c = mix_coefficients(1.0)
    combo = (2 * c.sigma_sq + 2 * c.theta_bar**2 + (1 - c.theta_bar) ** 2) / 2
    assert combo == pytest.approx(0.6145833333333333, abs=1e-12)  # 59/96
    # the risk-relation coefficient 2 E[lam^2] is a different combination
    from mixreg.regularizers import lambda_second_moment

    assert 2 * lambda_second_moment(c) == pytest.approx(2.0 / 3.0, abs=1e-12)


@pytest.mark.parametrize("alpha", ALPHA_GRID)
def test_theta_rule_reproduces_the_folded_moments(alpha):
    """The Gauss–Jacobi rule's first two moments are the lgamma closed form's
    to 1e-14 and its third and fourth an adaptive quadrature's to 1e-12, from
    alpha = 0.05, where the density is infinite at theta = 1, to 20."""
    theta, weights = verification._theta_rule(alpha)
    assert theta.shape == weights.shape == (verification._THETA_NODES,)
    assert np.all((0.5 < theta) & (theta < 1.0)) and np.all(weights > 0.0)
    for k in (1, 2):
        assert abs(weights @ theta**k - trunc_beta_raw_moment(alpha, k)) <= 1e-14
    for k in (3, 4):
        assert abs(weights @ theta**k - quad_raw_moment(alpha, k)) <= 1e-12


def test_theta_rule_at_alpha_one_is_gauss_legendre():
    """At alpha = 1 the folded density is flat and the rule is Gauss–Legendre
    on [1/2, 1]."""
    from numpy.polynomial.legendre import leggauss

    t, w = leggauss(verification._THETA_NODES)
    theta, weights = verification._theta_rule(1.0)
    assert np.max(np.abs(theta - (0.75 + 0.25 * t))) <= 1e-14
    assert np.max(np.abs(weights - w / w.sum())) <= 1e-14


@pytest.mark.parametrize("alpha", [200.0, 1000.0, 1100.0, 5000.0, 1e4])
def test_theta_rule_weights_are_a_distribution_at_large_alpha(alpha):
    """theta^(alpha-1) underflows from alpha near 1100, and the weights were
    0/0; formed in log space they are finite, positive and sum to 1."""
    theta, weights = verification._theta_rule(alpha)
    assert np.all(np.isfinite(weights)) and np.all(weights > 0.0)
    assert abs(weights.sum() - 1.0) <= 1e-15
    assert np.all((0.5 < theta) & (theta < 1.0))


def test_mols_check_fails_where_the_rule_loses_accuracy():
    """At alpha = 5000 the quadrature oracle was NaN and the check passed
    with discrepancy 0.0; the rule's moments are off there, so it fails on a
    finite affine residual."""
    rep = check_mols(verification._random_regression(20, 3, 2, 7), 5000.0)
    assert not rep.passed and 1e-7 < rep.discrepancy < 1e-2, rep.details


def _run_all_instances(seed: int = 0):
    """``run_all``'s 80-feature cross-entropy instance and its 10-row linear
    least-squares one, as (data, model, loss) triples."""
    rng = np.random.default_rng(seed)
    rff = init_rff(2, 80, 3.0, 2, seed + 1)
    rff.w = 0.5 * rng.normal(size=rff.w.shape)
    lin = LinearModel(W=rng.normal(size=(2, 3)), b=rng.normal(size=2))
    return [
        (make_two_moons(50, 0.05, seed), rff, LossKind.CROSS_ENTROPY),
        (verification._random_regression(10, 3, 2, seed + 2), lin, LossKind.SQUARED_ERROR),
    ]


@pytest.mark.parametrize("alpha", [0.05, 0.2, 1.0, 2.5, 20.0])
def test_quadrature_oracles_do_not_move_when_the_nodes_double(alpha, monkeypatch):
    """Twice the nodes give the same moments and oracle values to 1e-14."""
    ds = make_two_moons(10, 0.05, seed=2)
    model = init_rff(2, 40, 3.0, 2, seed=3)
    model.w = 0.5 * np.random.default_rng(3).normal(size=model.w.shape)
    reg = _random_regression(5, n=20, d=3, c=2)
    lin = LinearModel(W=np.random.default_rng(5).normal(size=(2, 3)), b=np.ones(2))
    coeffs = mix_coefficients(alpha)

    def values():
        theta, weights = verification._theta_rule(alpha)
        return [weights @ theta**k for k in range(1, 5)] + [
            expected_quadratic_loss(ds, model, LossKind.CROSS_ENTROPY, coeffs),
            verification._exact_mixup_risk(reg, lin, LossKind.SQUARED_ERROR, coeffs),
        ] + [verification._exact_mixup_risk(*case, coeffs) for case in _run_all_instances()]

    base = values()
    monkeypatch.setattr(verification, "_THETA_NODES", 2 * verification._THETA_NODES)
    assert verification._theta_rule(alpha)[0].size == 64
    for a, b in zip(base, values()):
        assert abs(a - b) <= 1e-14 * max(1.0, abs(a))


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


def test_breakdown_gap_keeps_a_nan_part():
    """A NaN in any field of either breakdown is the gap, not dropped."""
    zero = RegularizerBreakdown(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    for field in ("erm_modified", "r1", "r2", "r3", "r4"):
        bad = dataclasses.replace(zero, **{field: float("nan")})
        assert np.isnan(verification._breakdown_gap(zero, bad)), field
        assert np.isnan(verification._breakdown_gap(bad, zero)), field


def test_a_nan_logistic_head_fails_the_specialization_check():
    """It passed with discrepancy 5.6e-17 and details "lr: nan"."""
    ds = make_two_moons(10, 0.05, seed=5)
    model = init_rff(2, 40, 3.0, 2, seed=6)
    model.w = 0.5 * np.random.default_rng(6).normal(size=model.w.shape)
    head = RffModel(model.S, model.B, np.full((1, model.w.shape[1]), np.nan))
    scalar = Dataset(ds.inputs.copy(), ds.outputs[:, 1:2].copy())
    reg = _random_regression(7)
    lin = LinearModel(W=np.random.default_rng(7).normal(size=(2, 3)), b=np.zeros(2))
    with np.errstate(invalid="ignore"):
        rep = check_loss_specializations(ds, scalar, reg, {"ce": model, "lr": head, "se": lin}, 1.0)
    assert not rep.passed and np.isnan(rep.discrepancy), rep.details


def test_a_nan_output_fails_the_covariance_check():
    """A NaN output makes the output and cross blocks NaN and leaves the
    input block finite; the closed-form comparison and the Monte Carlo row
    used to report the input block alone and pass."""
    ds = make_two_moons(20, 0.05, seed=1)
    Y = ds.outputs.copy()
    Y[3, 1] = np.nan
    rep = check_covariance_formula(Dataset(ds.inputs.copy(), Y), 1.0)
    assert not rep.passed and np.isnan(rep.discrepancy), rep.details
    assert "MC rel nan" in rep.details


@pytest.mark.parametrize("alpha", [0.2, 1.0, 2.0])
def test_exact_mixup_risk_is_the_rule_weighted_mean_of_either_summand(alpha):
    """Over every (i, j, node) with the rule's weights, the mean of the
    pairwise summands is the exact risk to 1e-13 relative, and the mean of
    the perturbed-form summands, the rewrite identity at risk level, to
    1e-12."""
    theta, weights = verification._theta_rule(alpha)
    coeffs = mix_coefficients(alpha)
    for ds, model, kind in _run_all_instances():
        I, J, T = (a.ravel() for a in np.meshgrid(np.arange(ds.n), np.arange(ds.n), theta, indexing="ij"))
        w = np.tile(weights, ds.n * ds.n) / ds.n**2
        risk = verification._exact_mixup_risk(ds, model, kind, coeffs)
        pair = w @ mixup.pair_loss_values(ds, model, kind, I, J, T)
        perturbed = w @ mixup.perturbed_loss_values(ds, model, kind, I, J, T, coeffs.theta_bar)
        assert abs(pair - risk) <= 1e-13 * abs(risk), (kind, pair, risk)
        assert abs(perturbed - risk) <= 1e-12 * abs(risk), (kind, perturbed, risk)


@pytest.mark.parametrize("alpha", [0.2, 1.0, 2.0])
def test_both_risk_estimators_land_on_the_exact_mixup_risk(alpha):
    """On the 80-feature cross-entropy instance, each Monte Carlo estimator
    at 200 000 draws is within 4 standard errors of the exact risk."""
    ds, model, kind = _run_all_instances()[0]
    risk = verification._exact_mixup_risk(ds, model, kind, mix_coefficients(alpha))
    for seed, estimator in enumerate((mixup.mixup_risk_mc, mixup.perturbed_erm_risk_mc)):
        est = estimator(ds, model, kind, alpha, 200_000, np.random.default_rng(seed))
        assert abs(est.mean - risk) <= 4.0 * est.stderr, (estimator.__name__, est, risk)


def test_a_nan_monte_carlo_sum_fails_the_covariance_check(monkeypatch):
    """A NaN in the Monte Carlo output block alone fails the Monte Carlo row."""
    moments = verification._perturbation_moments

    def nan_syy(*args):
        found, (sxx, syy, sxy) = moments(*args)
        return found, (sxx, np.full_like(syy, np.nan), sxy)

    monkeypatch.setattr(verification, "_perturbation_moments", nan_syy)
    rep = check_covariance_formula(make_two_moons(20, 0.05, seed=1), 1.0)
    assert not rep.passed and rep.discrepancy <= rep.tolerance, rep.details
    assert "MC rel nan" in rep.details


def test_a_nan_quadrature_oracle_fails_the_mols_check(monkeypatch):
    """The affine residual started at 0.0 and ``max`` kept it over a NaN."""
    monkeypatch.setattr(verification, "_exact_mixup_risk", lambda *args: float("nan"))
    rep = check_mols(_random_regression(5, n=20, d=3, c=2), 1.0)
    assert not rep.passed and np.isnan(rep.discrepancy), rep.details


def test_a_nan_linear_model_fails_the_taylor_check():
    """The exact-case residual started at 0.0 and reported a NaN model as
    discrepancy 0.0."""
    W = np.random.default_rng(7).normal(size=(2, 3))
    W[1, 2] = np.nan
    rep = check_taylor(_random_regression(7), LinearModel(W=W, b=np.zeros(2)), LossKind.SQUARED_ERROR, 1.0)
    assert rep.name == "taylor_exact_se_linear"
    assert not rep.passed and np.isnan(rep.discrepancy), rep.details


def test_a_nan_gradient_norm_leaves_label_smoothing_inconclusive(monkeypatch):
    """A NaN gradient norm of the smoothed fit is not convergence;
    ``max(g0, g1)`` took g0 and passed."""
    fit = verification._newton_ce_fit
    calls = []

    def nan_smoothed(X, Y, **kwargs):
        calls.append(Y)
        W, g = fit(X, Y, **kwargs)
        return W, (float("nan") if len(calls) % 2 == 0 else g)

    monkeypatch.setattr(verification, "_newton_ce_fit", nan_smoothed)
    rep = check_label_smoothing(_overlapping(0), 1.0)
    assert not rep.passed and "INCONCLUSIVE" in rep.details, rep.details
    assert len(calls) == 4


def test_run_all_green_and_serializable(run_all_reports):
    reports = run_all_reports
    assert len(reports) == 16
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
        assert set(row) == {"name", "passed", "discrepancy", "tolerance", "runtime_s", "cpu_s", "details", "alpha"}
    # every check runs at alpha 1 but the second covariance check, at 0.7,
    # and the quadrature checks repeated at 0.2
    assert [row["alpha"] for row in payload] == [1.0] * 3 + [0.7] + [1.0] * 8 + [0.2] * 4
    assert [row["name"] for row in payload[12:]] == ["penalty_decomposition"] * 3 + ["least_squares_neutrality"]
    table = format_report_table(reports)
    assert "PASS" in table and "FAIL" not in table
    assert [line.split()[1] for line in table.splitlines()[1:]] == [str(row["alpha"]) for row in payload]
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

    def mutated(ds, coeffs):
        Xc = ds.inputs - ds.x_mean
        Yc = ds.outputs - ds.y_mean
        s2 = 0.0 if dropped == "sigma_sq" else coeffs.sigma_sq
        g2 = 0.0 if dropped == "gamma_sq" else coeffs.gamma_sq
        return PerExampleCovariances(
            sxx=s2 * np.einsum("bi,bj->bij", Xc, Xc) + g2 * ds.sxx,
            syy=s2 * np.einsum("bi,bj->bij", Yc, Yc) + g2 * ds.syy,
            sxy=s2 * np.einsum("bi,bj->bij", Xc, Yc) + g2 * ds.sxy,
        )

    monkeypatch.setattr(verification, "perturbation_covariances", mutated)
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
