"""Squared-error, cross-entropy and logistic losses with full derivative blocks.

Conventions: targets y and predictions u are 1-D vectors of length c (c = 1
for the logistic loss). Gradients are returned as length-c vectors and second
derivatives as (c, c) matrices, with hess_yu[j, k] = d^2 l / dy_j du_k.

    SE:  l(y, u) = ||y - u||^2 / 2
    CE:  l(y, u) = log(sum_i exp(u_i)) - y . u          (y on the simplex)
    LR:  l(y, u) = log(1 + exp(u)) - y u                (scalar y in [0, 1])
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LossKind",
    "LossBundle",
    "softmax",
    "sigmoid",
    "entropy",
    "softmax_hessian",
    "bundle",
    "loss_value",
    "loss_values",
    "softmax_rows",
    "grad_u_rows",
]

_SIMPLEX_TOL = 1e-9


class LossKind(enum.Enum):
    SQUARED_ERROR = "se"
    CROSS_ENTROPY = "ce"
    LOGISTIC = "lr"


@dataclass(frozen=True)
class LossBundle:
    """Loss value with first derivatives and all three second-derivative blocks."""

    value: float
    grad_y: np.ndarray
    grad_u: np.ndarray
    hess_yy: np.ndarray
    hess_yu: np.ndarray
    hess_uu: np.ndarray


def softmax(u: np.ndarray) -> np.ndarray:
    """Softmax of a logit vector, overflow-safe via max subtraction."""
    u = np.asarray(u, dtype=float)
    e = np.exp(u - u.max())
    return e / e.sum()


def softmax_rows(U: np.ndarray) -> np.ndarray:
    """Row-wise softmax for a (n, c) logit matrix."""
    U = np.asarray(U, dtype=float)
    e = np.exp(U - U.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def sigmoid(u):
    """Logistic function 1 / (1 + exp(-u)): a float for a scalar, elementwise
    for an array. exp sees only -|u|, so nothing overflows, and far tails
    underflow to the exact limits 0 and 1; NaN passes through."""
    u = np.asarray(u, dtype=float)
    with np.errstate(under="ignore"):
        e = np.exp(-np.abs(u))
    s = np.where(u >= 0.0, 1.0, e) / (1.0 + e)
    return float(s) if s.ndim == 0 else s


def entropy(p: np.ndarray) -> float:
    """Entropy (natural log) of a categorical distribution, with 0 log 0 = 0."""
    p = np.asarray(p, dtype=float)
    if np.any(p < -_SIMPLEX_TOL) or abs(p.sum() - 1.0) > _SIMPLEX_TOL:
        raise ValueError("entropy argument must lie on the probability simplex")
    q = np.clip(p, 0.0, None)
    mask = q > 0
    return float(-(q[mask] * np.log(q[mask])).sum())


def softmax_hessian(u: np.ndarray) -> np.ndarray:
    """H(u) = diag(S(u)) - S(u) S(u)^T; symmetric PSD with null vector 1."""
    p = softmax(u)
    return np.diag(p) - np.outer(p, p)


def _logsumexp(u: np.ndarray) -> float:
    m = u.max()
    return float(m + np.log(np.exp(u - m).sum()))


def loss_value(kind: LossKind, y: np.ndarray, u: np.ndarray) -> float:
    y = np.asarray(y, dtype=float).ravel()
    u = np.asarray(u, dtype=float).ravel()
    if y.shape != u.shape:
        raise ValueError(f"target shape {y.shape} != prediction shape {u.shape}")
    if kind is LossKind.SQUARED_ERROR:
        return 0.5 * float(((y - u) ** 2).sum())
    if kind is LossKind.CROSS_ENTROPY:
        return _logsumexp(u) - float(y @ u)
    if kind is LossKind.LOGISTIC:
        if u.size != 1:
            raise ValueError("logistic loss expects scalar predictions")
        return float(np.logaddexp(0.0, u[0]) - y[0] * u[0])
    raise ValueError(f"unknown loss kind {kind!r}")


def loss_values(kind: LossKind, Y: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Per-row loss values for (n, c) targets and predictions."""
    Y = np.asarray(Y, dtype=float)
    U = np.asarray(U, dtype=float)
    if Y.shape != U.shape:
        raise ValueError(f"target shape {Y.shape} != prediction shape {U.shape}")
    if kind is LossKind.SQUARED_ERROR:
        return 0.5 * ((Y - U) ** 2).sum(axis=1)
    if kind is LossKind.CROSS_ENTROPY:
        m = U.max(axis=1)
        return np.log(np.exp(U - m[:, None]).sum(axis=1)) + m - (Y * U).sum(axis=1)
    if kind is LossKind.LOGISTIC:
        return np.logaddexp(0.0, U[:, 0]) - Y[:, 0] * U[:, 0]
    raise ValueError(f"unknown loss kind {kind!r}")


def grad_u_rows(kind: LossKind, Y: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Per-row gradient of the loss in its prediction argument, shape (n, c)."""
    if kind is LossKind.SQUARED_ERROR:
        return U - Y
    if kind is LossKind.CROSS_ENTROPY:
        return softmax_rows(U) - Y
    if kind is LossKind.LOGISTIC:
        return sigmoid(U) - Y
    raise ValueError(f"unknown loss kind {kind!r}")


def bundle(kind: LossKind, y: np.ndarray, u: np.ndarray) -> LossBundle:
    """All derivative blocks of the loss at (y, u).

    SE:  grad_u = u - y, hess_uu = hess_yy = I, hess_yu = -I.
    CE:  grad_y = -u, grad_u = S(u) - y, hess_uu = H(u), hess_yu = -I,
         hess_yy = 0.
    LR:  scalar analogues with hess_uu = s(u)(1 - s(u)).
    """
    y = np.asarray(y, dtype=float).ravel()
    u = np.asarray(u, dtype=float).ravel()
    if y.shape != u.shape:
        raise ValueError(f"target shape {y.shape} != prediction shape {u.shape}")
    c = u.size
    eye = np.eye(c)
    if kind is LossKind.SQUARED_ERROR:
        return LossBundle(
            value=0.5 * float(((y - u) ** 2).sum()),
            grad_y=y - u,
            grad_u=u - y,
            hess_yy=eye,
            hess_yu=-eye,
            hess_uu=eye,
        )
    if kind is LossKind.CROSS_ENTROPY:
        p = softmax(u)
        return LossBundle(
            value=_logsumexp(u) - float(y @ u),
            grad_y=-u,
            grad_u=p - y,
            hess_yy=np.zeros((c, c)),
            hess_yu=-eye,
            hess_uu=np.diag(p) - np.outer(p, p),
        )
    if kind is LossKind.LOGISTIC:
        if c != 1:
            raise ValueError("logistic loss expects scalar predictions")
        s = sigmoid(u[0])
        return LossBundle(
            value=float(np.logaddexp(0.0, u[0]) - y[0] * u[0]),
            grad_y=-u,
            grad_u=np.array([s - y[0]]),
            hess_yy=np.zeros((1, 1)),
            hess_yu=-eye,
            hess_uu=np.array([[s * (1.0 - s)]]),
        )
    raise ValueError(f"unknown loss kind {kind!r}")
