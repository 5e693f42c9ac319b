"""Pairwise-mixing risk, its rewrite as perturbed fitting on shrunk data, and
the minibatch mixing used during training.

The pairwise risk averages l(lam y_i + (1-lam) y_j, f(lam x_i + (1-lam) x_j))
over uniform pairs (i, j) and lam ~ Beta(alpha, alpha). Folding lam about 1/2
(theta = max(lam, 1 - lam), partner index j uniform) turns each summand into
l(y~_i + eps_i, f(x~_i + delta_i)) where (x~, y~) are the mean-shrunk rows and

    delta_i = (theta - theta_bar) x_i + (1 - theta) x_j - (1 - theta_bar) xbar
    eps_i   = (theta - theta_bar) y_i + (1 - theta) y_j - (1 - theta_bar) ybar

are zero-mean. The identity x~_i + delta_i = theta x_i + (1 - theta) x_j holds
per draw, so the two risk forms agree summand by summand.

The Monte Carlo estimators draw in chunks of ``_CHUNK`` draws. The chunk
counts draws, so it fixes the order in which the random stream is consumed
and therefore every draw. Memory per chunk is draws x (d + c) for the mixed
rows plus one row block of the model's prediction (``models._PHASE_ELEMS``
phase elements for a cosine-feature head), whatever the feature count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, modify
from .losses import LossKind, loss_values
from .truncbeta import MixCoefficients, sample_theta

__all__ = [
    "PerturbationDraw",
    "McEstimate",
    "sample_perturbation",
    "pair_loss_values",
    "mixup_risk_mc",
    "perturbed_erm_risk_mc",
    "mixup_minibatch",
]

_CHUNK = 200_000


@dataclass(frozen=True)
class McEstimate:
    """Monte-Carlo mean with its standard error."""

    mean: float
    stderr: float
    n_draws: int


@dataclass(frozen=True)
class PerturbationDraw:
    """One draw of the correlated input/output perturbation for row i."""

    i: int
    j: int
    theta: float
    delta: np.ndarray
    epsilon: np.ndarray


def sample_perturbation(
    ds: Dataset, coeffs: MixCoefficients, i: int, rng: np.random.Generator
) -> PerturbationDraw:
    """Draw (theta, j) and build the perturbation pair for row i."""
    if not 0 <= i < ds.n:
        raise IndexError(f"row index {i} out of range for n={ds.n}")
    theta = sample_theta(coeffs.alpha, rng)
    j = int(rng.integers(ds.n))
    tb = coeffs.theta_bar
    delta = (theta - tb) * ds.inputs[i] + (1.0 - theta) * ds.inputs[j] - (1.0 - tb) * ds.x_mean
    epsilon = (theta - tb) * ds.outputs[i] + (1.0 - theta) * ds.outputs[j] - (1.0 - tb) * ds.y_mean
    return PerturbationDraw(i=i, j=j, theta=theta, delta=delta, epsilon=epsilon)


def pair_loss_values(
    ds: Dataset, model, kind: LossKind, I: np.ndarray, J: np.ndarray, lam: np.ndarray
) -> np.ndarray:
    """Loss of the mixed pair for each (i, j, lam) triple; the pure summand."""
    lam = np.asarray(lam, dtype=float)[:, None]
    Xm = lam * ds.inputs[I] + (1.0 - lam) * ds.inputs[J]
    Ym = lam * ds.outputs[I] + (1.0 - lam) * ds.outputs[J]
    return loss_values(kind, Ym, model.predict(Xm))


def _streamed_estimate(draw_chunk, n_draws: int) -> McEstimate:
    """Mean and standard error over chunks of draws.

    Squared deviations are summed about each chunk's own mean and merged
    across chunks with Chan et al.'s pairwise update, so a large common
    offset in the losses does not cancel the variance.
    """
    total = 0.0
    m2 = 0.0
    done = 0
    while done < n_draws:
        k = min(_CHUNK, n_draws - done)
        vals = draw_chunk(k)
        chunk_total = vals.sum()
        dev = vals - chunk_total / k
        m2 += float(dev @ dev)
        if done:
            shift = chunk_total / k - total / done
            m2 += shift * shift * done * k / (done + k)
        total += chunk_total
        done += k
    mean = total / n_draws
    if n_draws > 1:
        stderr = float(np.sqrt(m2 / (n_draws - 1) / n_draws))
    else:
        stderr = float("nan")
    return McEstimate(mean=float(mean), stderr=stderr, n_draws=n_draws)


def mixup_risk_mc(
    ds: Dataset,
    model,
    kind: LossKind,
    alpha: float,
    n_draws: int,
    rng: np.random.Generator,
) -> McEstimate:
    """Unbiased estimate of the pairwise mixing risk.

    Pairs (i, j) are uniform over all n^2 ordered pairs and lam ~
    Beta(alpha, alpha), one draw per summand.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if n_draws < 1:
        raise ValueError("need at least one draw")

    def chunk(k: int) -> np.ndarray:
        I = rng.integers(ds.n, size=k)
        J = rng.integers(ds.n, size=k)
        lam = rng.beta(alpha, alpha, size=k)
        return pair_loss_values(ds, model, kind, I, J, lam)

    return _streamed_estimate(chunk, int(n_draws))


def perturbed_erm_risk_mc(
    ds: Dataset,
    model,
    kind: LossKind,
    alpha: float,
    n_draws: int,
    rng: np.random.Generator,
    coeffs: MixCoefficients | None = None,
) -> McEstimate:
    """Estimate of the same risk through the shrunk-data-plus-noise form.

    Row i is uniform, then (theta, j) drive the perturbation; each summand is
    l(y~_i + eps_i, f(x~_i + delta_i)).
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if n_draws < 1:
        raise ValueError("need at least one draw")
    if coeffs is None:
        from .truncbeta import mix_coefficients

        coeffs = mix_coefficients(alpha)
    tb = coeffs.theta_bar
    mod = modify(ds, tb)

    def chunk(k: int) -> np.ndarray:
        I = rng.integers(ds.n, size=k)
        theta = sample_theta(alpha, rng, size=k)[:, None]
        J = rng.integers(ds.n, size=k)
        delta = (
            (theta - tb) * ds.inputs[I]
            + (1.0 - theta) * ds.inputs[J]
            - (1.0 - tb) * ds.x_mean
        )
        eps = (
            (theta - tb) * ds.outputs[I]
            + (1.0 - theta) * ds.outputs[J]
            - (1.0 - tb) * ds.y_mean
        )
        U = model.predict(mod.inputs[I] + delta)
        return loss_values(kind, mod.outputs[I] + eps, U)

    return _streamed_estimate(chunk, int(n_draws))


def mixup_minibatch(
    batch_x: np.ndarray,
    batch_y: np.ndarray,
    alpha: float,
    rng: np.random.Generator,
    lam: np.ndarray | None = None,
):
    """Convex-combine each batch row with a uniformly drawn partner row.

    One lam ~ Beta(alpha, alpha) per pair; ``lam`` overrides the draw
    (testing hook). Returns (mixed_x, mixed_y).
    """
    batch_x = np.asarray(batch_x, dtype=float)
    batch_y = np.asarray(batch_y, dtype=float)
    m = batch_x.shape[0]
    if m == 0:
        raise ValueError("batch must be nonempty")
    partner = rng.integers(m, size=m)
    if lam is None:
        lam = rng.beta(alpha, alpha, size=m)
    else:
        lam = np.broadcast_to(np.asarray(lam, dtype=float), (m,))
    lam_col = lam[:, None]
    mixed_x = lam_col * batch_x + (1.0 - lam_col) * batch_x[partner]
    mixed_y = lam_col * batch_y + (1.0 - lam_col) * batch_y[partner]
    return mixed_x, mixed_y
