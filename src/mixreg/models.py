"""Differentiable predictors: linear-with-intercept and random Fourier features.

Both models expose the value f(x), the input Jacobian (c, d) and the input
Hessian as a dense (c, d, d) tensor. All derivatives are analytic.

The feature model uses phi(x) = cos(S x + B) / sqrt(M) with frozen S and B;
only the head weights w (c, M) train. Derivatives follow from the chain rule:

    df_i/dx_j      = -(1/sqrt(M)) sum_m w_im sin(S_m.x + B_m) S_mj
    d2f_i/dx_j dx_k = -(1/sqrt(M)) sum_m w_im cos(S_m.x + B_m) S_mj S_mk
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LinearModel",
    "RffModel",
    "init_rff",
    "hessian_contraction",
    "save_model_json",
    "load_model_json",
]


def hessian_contraction(hess: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Collapse a (c, d, d) input-Hessian tensor along outputs: sum_a w_a H_a.

    The result pairs with a (d, d) metric via the Frobenius inner product,
    which is how the penalties consume second derivatives.
    """
    return np.einsum("a,ajk->jk", np.asarray(weights, dtype=float), hess)


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

    def input_hessian(self, x: np.ndarray) -> np.ndarray:
        c, d = self.W.shape
        return np.zeros((c, d, d))

    def copy(self) -> "LinearModel":
        return LinearModel(self.W.copy(), self.b.copy())


@dataclass
class RffModel:
    """f(x) = w phi(x) with phi(x) = cos(S x + B) / sqrt(M)."""

    S: np.ndarray
    B: np.ndarray
    w: np.ndarray

    def __post_init__(self) -> None:
        self.S = np.atleast_2d(np.asarray(self.S, dtype=float))
        self.B = np.asarray(self.B, dtype=float).ravel()
        self.w = np.atleast_2d(np.asarray(self.w, dtype=float))
        if self.S.shape[0] != self.B.shape[0] or self.w.shape[1] != self.S.shape[0]:
            raise ValueError("inconsistent feature shapes: S (M,d), B (M,), w (c,M)")

    @property
    def n_features(self) -> int:
        return self.S.shape[0]

    @property
    def out_dim(self) -> int:
        return self.w.shape[0]

    @property
    def in_dim(self) -> int:
        return self.S.shape[1]

    def _phases(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        phase = x @ self.S.T if x.ndim > 1 else self.S @ x
        phase += self.B
        return phase

    def features(self, x: np.ndarray) -> np.ndarray:
        """phi for a single point (d,) -> (M,) or a batch (n, d) -> (n, M)."""
        phi = self._phases(x)
        np.cos(phi, out=phi)
        phi /= np.sqrt(self.n_features)
        return phi

    def sin_features(self, x: np.ndarray) -> np.ndarray:
        """sin(S x + B), the factor shared by all input derivatives."""
        sin = self._phases(x)
        np.sin(sin, out=sin)
        return sin

    def predict(self, x: np.ndarray) -> np.ndarray:
        phi = self.features(x)
        if phi.ndim == 1:
            return self.w @ phi
        return phi @ self.w.T

    def input_jacobian(self, x: np.ndarray) -> np.ndarray:
        sin = self.sin_features(np.asarray(x, dtype=float))
        return -(self.w * sin) @ self.S / np.sqrt(self.n_features)

    def input_hessian(self, x: np.ndarray) -> np.ndarray:
        cos_scaled = self.features(np.asarray(x, dtype=float))
        return -np.einsum("cm,m,mj,mk->cjk", self.w, cos_scaled, self.S, self.S)

    def copy(self) -> "RffModel":
        return RffModel(self.S, self.B, self.w.copy())


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
    """Inverse of :func:`save_model_json`; returns (model, extra_dict)."""
    with open(path) as fh:
        payload = json.load(fh)
    extra = payload.get("extra", {})
    if payload["kind"] == "linear":
        return LinearModel(np.asarray(payload["W"]), np.asarray(payload["b"])), extra
    if payload["kind"] == "rff":
        return (
            RffModel(
                np.asarray(payload["S"]),
                np.asarray(payload["B"]),
                np.asarray(payload["w"]),
            ),
            extra,
        )
    raise ValueError(f"unknown model kind {payload['kind']!r}")
