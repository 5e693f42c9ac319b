"""Pairwise-mixing risk, its rewrite as perturbed fitting on shrunk data, and
the minibatch mixing used during training.

The pairwise risk averages l(lam y_i + (1-lam) y_j, f(lam x_i + (1-lam) x_j))
over uniform pairs (i, j) and lam ~ Beta(alpha, alpha). Folding lam about 1/2
(theta = max(lam, 1 - lam), partner index j uniform) turns each summand into
l(y~_i + eps_i, f(x~_i + delta_i)) where (x~, y~) are the mean-shrunk rows and

    delta_i = (theta - theta_bar) x_i + (1 - theta) x_j - (1 - theta_bar) xbar
    eps_i   = (theta - theta_bar) y_i + (1 - theta) y_j - (1 - theta_bar) ybar

are zero-mean (``perturbation`` is the one place this is computed). The
identity x~_i + delta_i = theta x_i + (1 - theta) x_j holds per draw, so the
two risk forms agree summand by summand (``pair_loss_values`` and
``perturbed_loss_values``).

The Monte Carlo estimators draw in chunks of ``_CHUNK`` draws. The chunk
counts draws, so it fixes the order in which the random stream is consumed
and therefore every draw; chunks are drawn, and their moments merged, one
after another on the calling thread. The summands split a chunk into task
blocks of at most ``_DRAW_BLOCK // _TASKS_PER_BLOCK`` draws, each a whole
number of the model's prediction row blocks, and ``_WORKERS`` threads (the
calling thread and one helper thread per further usable CPU) evaluate them
concurrently, each task writing its losses into its own slice of one output.
So a chunk holds its index and weight draws (three arrays of ``_CHUNK``
values) and, per worker, the gathered, mixed or perturbed rows and losses of
one task block plus one row block of the model's prediction
(``models._PHASE_ELEMS`` phase elements for a cosine-feature head), whatever
the feature count. A task's losses depend only on its own draws, and its row
blocks coincide with those of one ``predict`` over the whole chunk, so every
summand and every estimate is the same bit for bit whatever the number of
cores.

Mixed and perturbed rows are formed one coordinate at a time, each column in
full-length 1-D passes over the draws (``_combine_rows``): the same IEEE
operations in the same order as broadcasting (k, 1) weights against (k, d)
rows, so the same bits, without numpy's slow pass over narrow rows.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import wait
from dataclasses import dataclass
from functools import cache

import numpy as np

from .data import Dataset, modify
from .losses import LossKind, loss_values
from .truncbeta import mix_coefficients, sample_theta

__all__ = [
    "McEstimate",
    "perturbation",
    "pair_loss_values",
    "perturbed_loss_values",
    "mixup_risk_mc",
    "perturbed_erm_risk_mc",
    "mixup_minibatch",
]

_CHUNK = 200_000
# draws per block over which ``verification`` accumulates its Monte Carlo
# perturbation moments
_DRAW_BLOCK = 1 << 16
# summand task blocks per ``_DRAW_BLOCK``: up to this many workers hold no
# more draw temporaries together than one draw block. At 80 features a task
# is one prediction row block; each helper thread keeps a malloc arena about
# the size of its task's temporaries, which a larger task makes visible in
# the peak RSS
_TASKS_PER_BLOCK = 16


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


# threads that evaluate the summands' task blocks, the calling one included
_WORKERS = _usable_cpus()


@cache
def _pool(threads: int):
    """The helper threads, made (and their module loaded) on first use:
    importing mixreg starts none."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(threads, thread_name_prefix="mixreg-mc")


def _run_tasks(task, blocks: list[slice]) -> None:
    """task(b) for every block, on the calling thread and up to
    ``_WORKERS - 1`` helper threads, each taking the next block not yet
    taken; once all have ended, a block's exception is raised here. The
    caller works rather than waits, which saves one thread's malloc arena."""
    todo = deque(blocks)  # popleft is thread-safe

    def drain() -> None:
        while True:
            try:
                b = todo.popleft()
            except IndexError:
                return
            task(b)

    helpers = [_pool(_WORKERS - 1).submit(drain) for _ in range(min(_WORKERS, len(blocks)) - 1)]
    try:
        drain()
    finally:
        wait(helpers)
    for helper in helpers:
        helper.result()


@dataclass(frozen=True)
class McEstimate:
    """Monte-Carlo mean with its standard error."""

    mean: float
    stderr: float
    n_draws: int


class _Moments:
    """Running count, sum and sum of squared deviations of streamed draws.

    Squared deviations are summed about each block's own mean and merged
    across blocks with Chan et al.'s pairwise update, so a large common
    offset in the draws does not cancel the variance. The squares are summed
    by numpy, not by a BLAS dot product, so the bits do not depend on the
    BLAS thread count.
    """

    def __init__(self) -> None:
        self.n = 0
        self.total = 0.0
        self.m2 = 0.0

    def add(self, vals: np.ndarray) -> None:
        k = vals.shape[0]
        block_total = vals.sum()
        dev = vals - block_total / k
        self.m2 += float(np.square(dev, out=dev).sum())
        if self.n:
            shift = block_total / k - self.total / self.n
            self.m2 += shift * shift * self.n * k / (self.n + k)
        self.total += block_total
        self.n += k

    def estimate(self) -> McEstimate:
        stderr = float(np.sqrt(self.m2 / (self.n - 1) / self.n)) if self.n > 1 else float("nan")
        return McEstimate(mean=float(self.total / self.n), stderr=stderr, n_draws=self.n)


def _draw_blocks(n: int, model=None, size: int | None = None) -> list[slice]:
    """Consecutive slices of n draws, at most ``size`` (``_DRAW_BLOCK``) each.

    A model with prediction row blocks (``RffModel.block_rows``) gets a
    whole number of them per slice, at least one, so it contracts the same
    row blocks as one ``predict`` over all n draws and returns the same bits.
    """
    rows = getattr(model, "block_rows", 1)
    step = max(rows, (_DRAW_BLOCK if size is None else size) // rows * rows)
    return [slice(start, start + step) for start in range(0, n, step)]


def _task_blocks(n: int, model) -> list[slice]:
    return _draw_blocks(n, model, _DRAW_BLOCK // _TASKS_PER_BLOCK)


def _checked_draws(ds: Dataset, I, J, weights):
    """(I, J, weights) as arrays, after checking they are one length and the
    indices are rows of ds; numpy would wrap a negative index silently."""
    I, J, weights = np.asarray(I), np.asarray(J), np.asarray(weights, dtype=float)
    if not I.ndim == J.ndim == weights.ndim == 1 or not len(I) == len(J) == len(weights):
        raise ValueError("I, J and the mixing weights must be 1-D arrays of one length")
    for idx in (I, J):
        if idx.size and (not np.issubdtype(idx.dtype, np.integer) or idx.min() < 0 or idx.max() >= ds.n):
            raise ValueError(f"row indices must be integers in [0, {ds.n})")
    return I, J, weights


def _combine_rows(z: np.ndarray, i, j, w_i, w_j, shift=None) -> np.ndarray:
    """w_i z[i] + w_j z[j] (minus ``shift``) with the weights broadcast
    against the indices; the output shape is their broadcast shape plus
    z's width. Each column is formed in full-length 1-D passes."""
    out = np.empty(np.broadcast_shapes(np.shape(w_i), np.shape(i), np.shape(j)) + z.shape[1:])
    for a, col in enumerate(z.T):
        v = w_i * col[i]
        v += w_j * col[j]
        if shift is not None:
            v -= shift[a]
        out[..., a] = v
    return out


def perturbation(ds: Dataset, theta_bar: float, i, j, theta):
    """(delta, eps) of row(s) i with partner(s) j and folded weight(s) theta:

        (theta - theta_bar) z_i + (1 - theta) z_j - (1 - theta_bar) zbar

    for z the inputs and for z the outputs. A scalar theta gives one (d,)
    and one (c,) vector; k weights give (k, d) and (k, c) rows, with i and j
    scalars or k indices each.
    """
    th = np.asarray(theta, dtype=float)
    w_i, w_j = th - theta_bar, 1.0 - th
    return tuple(
        _combine_rows(z, i, j, w_i, w_j, (1.0 - theta_bar) * z_mean)
        for z, z_mean in ((ds.inputs, ds.x_mean), (ds.outputs, ds.y_mean))
    )


def pair_loss_values(
    ds: Dataset, model, kind: LossKind, I: np.ndarray, J: np.ndarray, lam: np.ndarray
) -> np.ndarray:
    """Loss of the mixed pair for each (i, j, lam) triple; the pure summand."""
    I, J, lam = _checked_draws(ds, I, J, lam)
    out = np.empty(len(lam))

    def task(b: slice) -> None:
        lb, i, j = lam[b], I[b], J[b]
        Xm = _combine_rows(ds.inputs, i, j, lb, 1.0 - lb)
        Ym = _combine_rows(ds.outputs, i, j, lb, 1.0 - lb)
        out[b] = loss_values(kind, Ym, model.predict(Xm))

    _run_tasks(task, _task_blocks(len(out), model))
    return out


def perturbed_loss_values(
    ds: Dataset,
    model,
    kind: LossKind,
    I: np.ndarray,
    J: np.ndarray,
    theta: np.ndarray,
    theta_bar: float,
) -> np.ndarray:
    """l(y~_i + eps_i, f(x~_i + delta_i)) for each (i, j, theta) triple, with
    (x~, y~) the rows shrunk by theta_bar; the perturbed-form summand.

    theta_bar cancels in x~_i + delta_i, so any value in [1/2, 1] gives
    ``pair_loss_values`` at lam = theta up to rounding; the rounding is that
    of the given theta_bar.
    """
    I, J, theta = _checked_draws(ds, I, J, theta)
    mod = modify(ds, theta_bar)
    out = np.empty(len(theta))

    def task(b: slice) -> None:
        delta, eps = perturbation(ds, theta_bar, I[b], J[b], theta[b])
        delta += mod.inputs[I[b]]
        eps += mod.outputs[I[b]]
        out[b] = loss_values(kind, eps, model.predict(delta))

    _run_tasks(task, _task_blocks(len(out), model))
    return out


def _streamed_estimate(draw_chunk, n_draws: int) -> McEstimate:
    """Mean and standard error over chunks of draws."""
    moments = _Moments()
    while moments.n < n_draws:
        moments.add(draw_chunk(min(_CHUNK, n_draws - moments.n)))
    return moments.estimate()


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
) -> McEstimate:
    """Estimate of the same risk through the shrunk-data-plus-noise form.

    Row i is uniform, then (theta, j) drive the perturbation; each summand is
    l(y~_i + eps_i, f(x~_i + delta_i)) with theta_bar the mean of theta.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if n_draws < 1:
        raise ValueError("need at least one draw")
    tb = mix_coefficients(alpha).theta_bar

    def chunk(k: int) -> np.ndarray:
        I = rng.integers(ds.n, size=k)
        theta = sample_theta(alpha, rng, size=k)
        J = rng.integers(ds.n, size=k)
        return perturbed_loss_values(ds, model, kind, I, J, theta, tb)

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
    rows = np.arange(m)
    return tuple(_combine_rows(z, rows, partner, lam, 1.0 - lam) for z in (batch_x, batch_y))
