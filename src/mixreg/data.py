"""Dataset container, the two-moons generator, the mean-shrinkage map, and
csv tables.

:func:`shrink` is the one copy of the map: :func:`modify` applies it to the
rows a method fits and :class:`metrics.Rescale` to test inputs, bit for bit.
:func:`write_csv` writes every csv the program writes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Dataset",
    "make_two_moons",
    "flip_labels",
    "shrink",
    "modify",
    "train_test_split",
    "write_csv",
    "save_csv",
    "load_csv",
]

_SIMPLEX_TOL = 1e-9


@dataclass(frozen=True)
class Dataset:
    """Immutable paired inputs (n, d) and outputs (n, c) with cached moments.

    Covariances are maximum-likelihood (divide by n). Arrays are marked
    read-only so instances can be shared freely.
    """

    inputs: np.ndarray
    outputs: np.ndarray
    x_mean: np.ndarray = field(init=False)
    y_mean: np.ndarray = field(init=False)
    sxx: np.ndarray = field(init=False)
    sxy: np.ndarray = field(init=False)
    syy: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        X = np.ascontiguousarray(np.asarray(self.inputs, dtype=float))
        Y = np.ascontiguousarray(np.asarray(self.outputs, dtype=float))
        if X.ndim != 2 or Y.ndim != 2:
            raise ValueError("inputs and outputs must be 2-D arrays")
        if X.shape[0] != Y.shape[0]:
            raise ValueError("inputs and outputs must have the same row count")
        if X.shape[0] < 1:
            raise ValueError("dataset needs at least one row")
        xbar = X.mean(axis=0)
        ybar = Y.mean(axis=0)
        Xc, Yc = X - xbar, Y - ybar
        n = X.shape[0]
        for name, arr in (
            ("inputs", X),
            ("outputs", Y),
            ("x_mean", xbar),
            ("y_mean", ybar),
            ("sxx", Xc.T @ Xc / n),
            ("sxy", Xc.T @ Yc / n),
            ("syy", Yc.T @ Yc / n),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def d(self) -> int:
        return self.inputs.shape[1]

    @property
    def c(self) -> int:
        return self.outputs.shape[1]

    def is_classification(self) -> bool:
        """True when every output row lies on the probability simplex."""
        Y = self.outputs
        return bool(
            np.all(Y >= -_SIMPLEX_TOL)
            and np.allclose(Y.sum(axis=1), 1.0, atol=_SIMPLEX_TOL)
        )

    def labels(self) -> np.ndarray:
        """Class indices via argmax; meaningful for classification outputs."""
        return self.outputs.argmax(axis=1)


def make_two_moons(n: int, noise: float, seed: int) -> Dataset:
    """Two interleaved half-circles with one-hot labels in R^2.

    Outer moon: (cos t, sin t); inner moon: (1 - cos t, 1/2 - sin t) for
    t in [0, pi], n/2 points each, plus isotropic Gaussian noise of the given
    standard deviation. Deterministic per seed.
    """
    if n < 4:
        raise ValueError("two-moons needs at least 4 points")
    if n % 2 != 0:
        raise ValueError("two-moons needs an even point count")
    if noise < 0:
        raise ValueError("noise standard deviation must be nonnegative")
    rng = np.random.default_rng(seed)
    m = n // 2
    t = np.linspace(0.0, np.pi, m)
    outer = np.column_stack([np.cos(t), np.sin(t)])
    inner = np.column_stack([1.0 - np.cos(t), 0.5 - np.sin(t)])
    X = np.vstack([outer, inner])
    if noise > 0:
        X = X + rng.normal(scale=noise, size=X.shape)
    Y = np.zeros((n, 2))
    Y[:m, 0] = 1.0
    Y[m:, 1] = 1.0
    return Dataset(X, Y)


def flip_labels(ds: Dataset, fraction: float, seed: int) -> Dataset:
    """Swap the one-hot labels of exactly round(fraction * n) rows.

    Requires binary one-hot outputs. Deterministic per seed; flipping with
    fraction = 1 twice returns the original labels.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    Y = ds.outputs
    if ds.c != 2 or not np.all(np.isin(Y, (0.0, 1.0))) or not ds.is_classification():
        raise ValueError("label flipping requires binary one-hot outputs")
    k = round(fraction * ds.n)
    rng = np.random.default_rng(seed)
    rows = rng.choice(ds.n, size=k, replace=False)
    flipped = Y.copy()
    flipped[rows] = flipped[rows][:, ::-1]
    return Dataset(ds.inputs.copy(), flipped)


def shrink(z, zbar, theta_bar: float) -> np.ndarray:
    """Pull z toward zbar: theta_bar z + (1 - theta_bar) zbar, for theta_bar in [1/2, 1]."""
    if not 0.5 <= theta_bar <= 1.0:
        raise ValueError(f"theta_bar must lie in [1/2, 1], got {theta_bar}")
    z, zbar = np.asarray(z, dtype=float), np.asarray(zbar, dtype=float)
    return theta_bar * z + (1.0 - theta_bar) * zbar


def modify(ds: Dataset, theta_bar: float) -> Dataset:
    """Shrink every row toward the dataset mean by the factor theta_bar.

    Means are kept and covariances scale by theta_bar^2. Invertible for
    theta_bar > 0: x = xbar + (x~ - xbar) / theta_bar.
    """
    return Dataset(
        shrink(ds.inputs, ds.x_mean, theta_bar), shrink(ds.outputs, ds.y_mean, theta_bar)
    )


def train_test_split(ds: Dataset, train_fraction: float, seed: int):
    """Shuffle rows and split; returns (train, test). Deterministic per seed."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly inside (0, 1)")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(ds.n)
    k = int(round(train_fraction * ds.n))
    tr, te = perm[:k], perm[k:]
    return (
        Dataset(ds.inputs[tr].copy(), ds.outputs[tr].copy()),
        Dataset(ds.inputs[te].copy(), ds.outputs[te].copy()),
    )


def write_csv(path, header, rows) -> None:
    """The one csv writer: a header, then one line per row, each line
    ending in LF. Cells are written as given, so a float, numpy scalars
    included, is its shortest round-trip decimal, as ``repr`` writes a
    Python float."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def save_csv(ds: Dataset, path) -> None:
    """Write rows with header x0..x{d-1},y0..y{c-1}; floats round-trip exactly."""
    header = [f"x{j}" for j in range(ds.d)] + [f"y{j}" for j in range(ds.c)]
    write_csv(path, header, np.hstack([ds.inputs, ds.outputs]))


def _finite_cell(path, row: int, column: str, text: str) -> float:
    """One csv cell as a finite float; ValueError naming the file, the data
    row and the column otherwise."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{path}: row {row}, column {column} is {text!r}, not a finite number")
    return value


def load_csv(path) -> Dataset:
    """Read a dataset written by :func:`save_csv`, lines ending in LF or
    CRLF; ValueError for a file without that header, with a row of another
    length, with no rows, or with a cell that is not a finite number (the
    first one is named)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        d = sum(1 for name in header if name.startswith("x"))
        c = len(header) - d
        if d < 1 or c < 1 or header != [f"x{j}" for j in range(d)] + [f"y{j}" for j in range(c)]:
            raise ValueError(f"unrecognized dataset header: {header}")
        rows = []
        for r, row in enumerate(reader, 1):
            if len(row) != len(header):
                raise ValueError(f"{path}: row {r} has {len(row)} cells, the header {len(header)}")
            rows.append([_finite_cell(path, r, name, text) for name, text in zip(header, row)])
    arr = np.asarray(rows, dtype=float).reshape(len(rows), len(header))
    return Dataset(arr[:, :d], arr[:, d:])
