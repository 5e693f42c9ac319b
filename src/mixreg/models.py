"""Differentiable predictors: linear-with-intercept and random Fourier features.

Both models expose the value f(x), the input Jacobian (c, d) and the input
Hessian contracted over outputs, sum_a g_a d2f_a/dx2 (d, d) for weights g (c,),
the one form the penalties take. All derivatives are analytic.

The feature model uses phi(x) = cos(S x + B) / sqrt(M) with frozen S and B;
only the head weights w (c, M) train. Derivatives follow from the chain rule:

    df_i/dx_j      = -(1/sqrt(M)) sum_m w_im sin(S_m.x + B_m) S_mj
    d2f_i/dx_j dx_k = -(1/sqrt(M)) sum_m w_im cos(S_m.x + B_m) S_mj S_mk

so sum_i g_i d2f_i/dx_j dx_k = -sum_m (g w)_m phi_m(x) S_mj S_mk.

Features are formed in five numpy passes over one phase block after one
matrix product. ``_half_phases`` appends a 1 to each row and multiplies by
[S^T / 2; B / 2], made once per model, which gives the half-angle phases
h = (S x + B) / 2 with B added inside the product. ``_cos`` then takes
cos(2 h) / sqrt(M) in place through the half-angle identity
cos p = 2 / (1 + tan^2(p/2)) - 1 with 1/sqrt(M) folded into its two
constants: tan, square, +1, divide and subtract. On every phase the tests
try (dense on [-200, 200], normal draws at scales up to 1e15, odd
multiples of pi and their neighbours, +-0, subnormals) the unscaled kernel
is within 2^-51 of libm's ``np.cos`` and never leaves [-1, 1]; scaled, it
is within 2^-50 / sqrt(M) of ``np.cos(p) / sqrt(M)``; inf and nan give nan.
It is faster only because numpy runs float64 ``tan`` in a SIMD loop and
float64 ``cos`` as scalar code: 4.6-6.2 ns per element against 25-33 ns
for ``np.cos`` at the program's block shapes, with numpy 2.4.6 on an
x86-64 host with AVX-512. Where a numpy build or CPU has no SIMD ``tan``
loop the kernel is not faster than ``np.cos``; that case has not been
measured. ``np.tan`` gives each element the same bits whatever its offset,
alignment or array length, and the product computes each phase from its
own row, so a row's features have the same bits in every batch of two or
more rows. A single point, and a batch of one row, goes through a
matrix-vector product instead and may differ from the batched bits by
rounding. Since B is added inside the product and 1/sqrt(M) inside the
kernel, features differ by rounding from a product followed by + B and a
division by sqrt(M).

Batch predictions of the feature model are evaluated in row blocks of at
most ``_PHASE_ELEMS`` phase elements (rows x M), so the memory a prediction
needs beyond its (n, c) output does not grow with n. ``row_blocks`` fixes
the blocks and ``head`` applies w to their features; a caller that keeps
the features of fixed rows (the training trace) uses the same two steps and
gets the same numbers as ``predict``. A batch that fits in one block, such
as every training, trace and metrics call at the default spec, is a single
``features(x) @ w.T``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LinearModel",
    "RffModel",
    "init_rff",
    "save_model_json",
    "load_model_json",
]


def _cos(h: np.ndarray, scale: float) -> np.ndarray:
    """scale * cos(2 h) in place in the half-angle phases h, through
    cos p = 2 / (1 + tan^2(p/2)) - 1; returns h.

    Five numpy passes over h and no second array: the scale is folded into
    the two constants, (2 scale) / (1 + tan^2 h) - scale. Near odd multiples
    of pi/2, where tan h is huge, the quotient is tiny and the result is
    -scale to within rounding.
    """
    np.tan(h, out=h)
    np.square(h, out=h)
    h += 1.0
    np.divide(2.0 * scale, h, out=h)
    h -= scale
    return h


# 2 MiB of float64 phases per block, the per-core L2 of the machine the
# Monte Carlo paths were measured on
_PHASE_ELEMS = 1 << 18


@dataclass
class LinearModel:
    """f(x) = W x + b with W (c, d) and b (c,)."""

    W: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        self.W = np.atleast_2d(np.asarray(self.W, dtype=float))
        self.b = np.asarray(self.b, dtype=float).ravel()
        if self.W.shape[0] != self.b.shape[0]:
            raise ValueError("W row count must match intercept length")

    @property
    def out_dim(self) -> int:
        return self.W.shape[0]

    @property
    def in_dim(self) -> int:
        return self.W.shape[1]

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return self.W @ x + self.b
        return x @ self.W.T + self.b

    def input_jacobian(self, x: np.ndarray) -> np.ndarray:
        return self.W.copy()

    def input_hessian(self, x: np.ndarray, weights: np.ndarray) -> np.ndarray:
        return np.zeros((self.in_dim, self.in_dim))


@dataclass
class RffModel:
    """f(x) = w phi(x) with phi(x) = cos(S x + B) / sqrt(M)."""

    S: np.ndarray
    B: np.ndarray
    w: np.ndarray

    def __post_init__(self) -> None:
        self.S = np.array(self.S, dtype=float, ndmin=2)
        self.B = np.ravel(self.B).astype(float)
        self.S.flags.writeable = self.B.flags.writeable = False
        self.w = np.atleast_2d(np.asarray(self.w, dtype=float))
        if self.S.shape[0] != self.B.shape[0] or self.w.shape[1] != self.S.shape[0]:
            raise ValueError("inconsistent feature shapes: S (M,d), B (M,), w (c,M)")
        # [S^T / 2; B / 2], (d + 1, M): a row with a 1 appended times this
        # is its half-angle phases
        self._half = np.vstack([0.5 * self.S.T, 0.5 * self.B])

    def __setattr__(self, name: str, value) -> None:
        if name in ("S", "B") and "_half" in self.__dict__:
            raise AttributeError(f"RffModel.{name} is fixed: the cached phase matrix is made from it")
        super().__setattr__(name, value)

    def __reduce__(self):
        # numpy does not pickle the writeable flag, so pickle and deepcopy
        # rebuild through the constructor, which freezes S and B again
        return RffModel, (self.S, self.B, self.w)

    @property
    def n_features(self) -> int:
        return self.S.shape[0]

    @property
    def out_dim(self) -> int:
        return self.w.shape[0]

    @property
    def in_dim(self) -> int:
        return self.S.shape[1]

    def _half_phases(self, x: np.ndarray) -> np.ndarray:
        """(S x + B) / 2 for a point (d,) -> (M,) or a batch (n, d) -> (n, M):
        x with a 1 appended to each row, times [S^T / 2; B / 2]."""
        x = np.asarray(x, dtype=float)
        rows = np.empty(x.shape[:-1] + (x.shape[-1] + 1,))
        rows[..., :-1] = x
        rows[..., -1] = 1.0
        return rows @ self._half

    def features(self, x: np.ndarray) -> np.ndarray:
        """phi for a single point (d,) -> (M,) or a batch (n, d) -> (n, M).

        The scaled cosines are taken in place in the half-angle phase block
        by ``_cos``, within 2^-50 / sqrt(M) of ``np.cos(2 h) / sqrt(M)`` at the
        computed half-angle phases h.
        """
        return _cos(self._half_phases(x), 1.0 / np.sqrt(self.n_features))

    def sin_features(self, x: np.ndarray) -> np.ndarray:
        """sin(S x + B), the factor shared by all input derivatives; the
        phases are the half-angle ones doubled, which is exact."""
        sin = self._half_phases(x)
        sin *= 2.0
        np.sin(sin, out=sin)
        return sin

    @property
    def block_rows(self) -> int:
        """Rows per prediction block: ``_PHASE_ELEMS // M``, at least one."""
        return max(1, _PHASE_ELEMS // self.n_features)

    def row_blocks(self, x: np.ndarray) -> list[np.ndarray]:
        """Consecutive row views of a batch (n, d), each of at most
        ``block_rows`` rows."""
        rows = self.block_rows
        return [x[start : start + rows] for start in range(0, x.shape[0], rows)]

    def head(self, phi_blocks, n: int) -> np.ndarray:
        """w phi stacked into (n, c) from the feature blocks of consecutive rows."""
        out = np.empty((n, self.out_dim))
        start = 0
        for phi in phi_blocks:
            stop = start + phi.shape[0]
            np.matmul(phi, self.w.T, out=out[start:stop])
            start = stop
            del phi  # else it stays alive while the next block is featurized
        return out

    def predict(self, x: np.ndarray) -> np.ndarray:
        """w phi(x) for a point (d,) -> (c,) or a batch (n, d) -> (n, c).

        A batch is featurized one row block at a time, so at most one block
        of phases is alive.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return self.w @ self.features(x)
        return self.head(map(self.features, self.row_blocks(x)), x.shape[0])

    def input_jacobian(self, x: np.ndarray) -> np.ndarray:
        sin = self.sin_features(np.asarray(x, dtype=float))
        return -(self.w * sin) @ self.S / np.sqrt(self.n_features)

    def input_hessian(self, x: np.ndarray, weights: np.ndarray) -> np.ndarray:
        cos_scaled = self.features(np.asarray(x, dtype=float))
        return -(self.S.T * ((np.asarray(weights, dtype=float) @ self.w) * cos_scaled)) @ self.S


def init_rff(d: int, M: int, sigma_rff: float, c: int, seed: int) -> RffModel:
    """Frequencies S_ij ~ N(0, sigma_rff^2), phases B_i ~ Unif[0, 2 pi), zero head.

    The head is initialized to zeros: the training problems in scope are
    convex in w, so the optimum does not depend on the starting point.
    """
    if M < 1:
        raise ValueError("feature count must be at least 1")
    if sigma_rff <= 0:
        raise ValueError("frequency scale must be positive")
    rng = np.random.default_rng(seed)
    S = rng.normal(scale=sigma_rff, size=(M, d))
    B = rng.uniform(0.0, 2.0 * np.pi, size=M)
    return RffModel(S=S, B=B, w=np.zeros((c, M)))


def save_model_json(model, path, extra: dict | None = None) -> None:
    """Serialize a model (plus optional metadata, e.g. rescaling stats) to JSON."""
    if isinstance(model, LinearModel):
        payload = {"kind": "linear", "W": model.W.tolist(), "b": model.b.tolist()}
    elif isinstance(model, RffModel):
        payload = {
            "kind": "rff",
            "S": model.S.tolist(),
            "B": model.B.tolist(),
            "w": model.w.tolist(),
        }
    else:
        raise TypeError(f"unsupported model type {type(model).__name__}")
    if extra:
        payload["extra"] = extra
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_model_json(path):
    """Inverse of :func:`save_model_json`; returns (model, extra_dict).
    ValueError, naming the array, when a weight array has a non-finite entry."""
    with open(path) as fh:
        payload = json.load(fh)
    kinds = {"linear": (LinearModel, ("W", "b")), "rff": (RffModel, ("S", "B", "w"))}
    if payload["kind"] not in kinds:
        raise ValueError(f"unknown model kind {payload['kind']!r}")
    cls, names = kinds[payload["kind"]]
    arrays = [np.asarray(payload[name], dtype=float) for name in names]
    for name, array in zip(names, arrays):
        if not np.isfinite(array).all():
            raise ValueError(f"{name} has a non-finite entry")
    return cls(*arrays), payload.get("extra", {})
