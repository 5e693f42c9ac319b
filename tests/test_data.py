import numpy as np
import pytest

from mixreg.data import (
    Dataset,
    flip_labels,
    load_csv,
    make_two_moons,
    modify,
    save_csv,
    shrink,
    train_test_split,
    write_csv,
)
from mixreg.metrics import Rescale


def test_two_moons_zero_noise_on_circles():
    ds = make_two_moons(40, 0.0, seed=3)
    X, labels = ds.inputs, ds.labels()
    outer = X[labels == 0]
    inner = X[labels == 1]
    assert np.allclose(np.hypot(outer[:, 0], outer[:, 1]), 1.0, atol=1e-12)
    assert np.allclose(np.hypot(inner[:, 0] - 1.0, inner[:, 1] - 0.5), 1.0, atol=1e-12)


def test_two_moons_class_counts():
    ds = make_two_moons(300, 0.01, seed=11)
    counts = np.bincount(ds.labels())
    assert counts.tolist() == [150, 150]


def test_two_moons_determinism_and_errors():
    a = make_two_moons(30, 0.05, seed=5)
    b = make_two_moons(30, 0.05, seed=5)
    assert np.array_equal(a.inputs, b.inputs) and np.array_equal(a.outputs, b.outputs)
    with pytest.raises(ValueError):
        make_two_moons(2, 0.0, seed=0)
    with pytest.raises(ValueError):
        make_two_moons(31, 0.0, seed=0)
    with pytest.raises(ValueError):
        make_two_moons(30, -0.1, seed=0)


def test_two_moons_not_linearly_separable():
    """Brute force over random hyperplanes never reaches perfect accuracy."""
    ds = make_two_moons(100, 0.0, seed=0)
    rng = np.random.default_rng(0)
    labels = ds.labels()
    best = 0.0
    for _ in range(10_000):
        w = rng.normal(size=2)
        b = rng.normal()
        pred = (ds.inputs @ w + b > 0).astype(int)
        acc = max((pred == labels).mean(), (pred != labels).mean())
        best = max(best, acc)
    assert best < 1.0


def test_flip_labels_counts_and_involution():
    ds = make_two_moons(150, 0.01, seed=1)
    same = flip_labels(ds, 0.0, seed=2)
    assert np.array_equal(same.outputs, ds.outputs)
    flipped = flip_labels(ds, 0.2, seed=2)
    assert int((flipped.outputs != ds.outputs).any(axis=1).sum()) == 30
    all_once = flip_labels(ds, 1.0, seed=3)
    all_twice = flip_labels(all_once, 1.0, seed=4)
    assert np.array_equal(all_twice.outputs, ds.outputs)


def test_flip_labels_requires_one_hot():
    X = np.random.default_rng(0).normal(size=(6, 2))
    with pytest.raises(ValueError):
        flip_labels(Dataset(X, np.full((6, 2), 0.5)), 0.5, seed=0)


def test_stats_two_point_and_duplication():
    ds = Dataset(np.array([[-1.0], [1.0]]), np.array([[0.0], [0.0]]))
    assert ds.x_mean[0] == 0.0 and ds.sxx[0, 0] == 1.0
    doubled = Dataset(
        np.vstack([ds.inputs, ds.inputs]), np.vstack([ds.outputs, ds.outputs])
    )
    for name in ("x_mean", "y_mean", "sxx", "sxy", "syy"):
        assert np.allclose(getattr(ds, name), getattr(doubled, name), atol=1e-15)


def test_stats_match_double_loop_oracle():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(5, 3))
    Y = rng.normal(size=(5, 2))
    ds = Dataset(X, Y)
    xbar = X.mean(axis=0)
    ybar = Y.mean(axis=0)
    sxx = np.zeros((3, 3))
    sxy = np.zeros((3, 2))
    syy = np.zeros((2, 2))
    for i in range(5):
        sxx += np.outer(X[i] - xbar, X[i] - xbar) / 5
        sxy += np.outer(X[i] - xbar, Y[i] - ybar) / 5
        syy += np.outer(Y[i] - ybar, Y[i] - ybar) / 5
    assert np.abs(ds.sxx - sxx).max() < 1e-12
    assert np.abs(ds.sxy - sxy).max() < 1e-12
    assert np.abs(ds.syy - syy).max() < 1e-12
    # symmetry and PSD of the cached blocks
    assert np.allclose(ds.sxx, ds.sxx.T) and np.allclose(ds.syy, ds.syy.T)
    assert np.linalg.eigvalsh(ds.sxx).min() > -1e-12


def test_modify_identity_and_fixed_point():
    ds = make_two_moons(20, 0.05, seed=2)
    same = modify(ds, 1.0)
    assert np.array_equal(same.inputs, ds.inputs)
    assert np.array_equal(same.outputs, ds.outputs)
    X = np.vstack([ds.inputs, ds.x_mean])
    Y = np.vstack([ds.outputs, ds.y_mean])
    with_mean = Dataset(X, Y)
    shrunk = modify(with_mean, 0.6)
    assert np.allclose(shrunk.inputs[-1], with_mean.x_mean, atol=1e-12)


def test_modify_hand_case_and_round_trip():
    ds = Dataset(np.array([[0.0], [2.0]]), np.array([[0.0], [1.0]]))
    mod = modify(ds, 0.75)
    assert np.allclose(mod.inputs.ravel(), [0.25, 1.75], atol=1e-15)
    recovered = ds.x_mean + (mod.inputs - ds.x_mean) / 0.75
    assert np.abs(recovered - ds.inputs).max() < 1e-12
    with pytest.raises(ValueError):
        modify(ds, 0.3)
    with pytest.raises(ValueError):
        modify(ds, 1.2)


@pytest.mark.parametrize("tb", [0.6, 0.75, 0.9])
def test_modify_shrinks_with_the_rescaled_predictor_bits(tb):
    """The rows a method fits are the rows its rescaled predictor sees."""
    ds = make_two_moons(300, 0.01, seed=0)
    mod = modify(ds, tb)
    assert np.array_equal(mod.inputs, Rescale(ds.x_mean, ds.y_mean, tb).shrink(ds.inputs))
    assert np.array_equal(mod.outputs, shrink(ds.outputs, ds.y_mean, tb))


def test_modified_covariances_scale_quadratically():
    ds = make_two_moons(30, 0.1, seed=4)
    tb = 0.8
    mod = modify(ds, tb)
    assert np.allclose(mod.x_mean, ds.x_mean, atol=1e-12)
    assert np.abs(mod.sxx - tb * tb * ds.sxx).max() < 1e-10
    assert np.abs(mod.sxy - tb * tb * ds.sxy).max() < 1e-10
    assert np.abs(mod.syy - tb * tb * ds.syy).max() < 1e-10


def test_split_determinism_and_sizes():
    ds = make_two_moons(300, 0.01, seed=0)
    tr1, te1 = train_test_split(ds, 0.5, seed=9)
    tr2, te2 = train_test_split(ds, 0.5, seed=9)
    assert tr1.n == te1.n == 150
    assert np.array_equal(tr1.inputs, tr2.inputs)
    assert np.array_equal(te1.outputs, te2.outputs)


def test_csv_round_trip(tmp_path):
    ds = make_two_moons(12, 0.37, seed=8)
    path = tmp_path / "moons.csv"
    save_csv(ds, path)
    back = load_csv(path)
    assert np.array_equal(back.inputs, ds.inputs)
    assert np.array_equal(back.outputs, ds.outputs)
    header = path.read_text().splitlines()[0]
    assert header == "x0,x1,y0,y1"


def test_csv_lines_end_in_lf_and_load_csv_reads_crlf_too(tmp_path):
    ds = make_two_moons(12, 0.37, seed=8)
    lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    save_csv(ds, lf)
    assert b"\r" not in lf.read_bytes()
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    back = load_csv(crlf)
    assert np.array_equal(back.inputs, ds.inputs) and np.array_equal(back.outputs, ds.outputs)


def test_write_csv_cells_are_plain_numbers_and_names(tmp_path):
    """Python floats as ``%r`` writes them, numpy scalars as plain shortest
    round-trip numbers, ints and names as they are."""
    floats = np.random.default_rng(3).normal(size=50) * 10.0 ** np.arange(-25, 25)
    path = tmp_path / "t.csv"
    write_csv(path, ("name", "x", "np_x", "k", "np_k"),
              [("a", float(v), v, 7, np.int64(7)) for v in floats])
    lines = path.read_text().splitlines()
    assert lines[0] == "name,x,np_x,k,np_k"
    assert lines[1:] == ["a,%r,%r,7,7" % (float(v), float(v)) for v in floats]
    write_csv(path, ("left", "ci"), [(np.float64(0.05), "n/a")])
    assert path.read_bytes() == b"left,ci\n0.05,n/a\n"


@pytest.mark.parametrize(
    "text", ["", "a,b\n1,2\n", "x0,y0\n", "x0,y0\n1,2\n3\n", "x0,y0\n1,2,3\n4,5,6\n"]
)
def test_load_csv_rejects_a_malformed_file(tmp_path, text):
    """No header, a foreign header, no rows, a short row, or rows longer
    than the header (which used to load as extra output columns)."""
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError):
        load_csv(path)


@pytest.mark.parametrize(
    "cells, row, column", [(("nan", "1.0"), 2, "x0"), (("1.0", "-inf"), 2, "y0"),
                           (("1.0", "2.0"), 3, "y0"), (("abc", "1.0"), 2, "x0"),
                           (("1.0", ""), 2, "y0")]
)
def test_load_csv_names_the_first_non_finite_cell(tmp_path, cells, row, column):
    path = tmp_path / "nonfinite.csv"
    path.write_text("x0,y0\n0.5,1.0\n" + ",".join(cells) + "\n2.0,nan\n")
    with pytest.raises(ValueError, match=f"nonfinite.csv: row {row}, column {column} is "):
        load_csv(path)


def test_dataset_arrays_read_only():
    ds = make_two_moons(10, 0.0, seed=0)
    with pytest.raises(ValueError):
        ds.inputs[0, 0] = 7.0
