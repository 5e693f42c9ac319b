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

Monte Carlo work runs one block at a time, sized by the memory it holds
(``_block_size``). For a cosine-feature head a block is at most ``_BLOCK``
draws, rounded down to a whole number of the model's prediction row blocks
(at least one), so it contracts the same row blocks as one ``predict`` over
all draws. A loop that forms no phase block (no model, or a linear one)
takes ``_NARROW_BLOCK`` draws at a time: sixteen float64 arrays of one such
block fill the memory of one phase block, and the larger blocks make fewer,
longer numpy calls, so less of the loop runs in the interpreter, where the
worker threads wait on one another for its lock.
Each block has its own generator (``_block_rng``), derived from
the block's index and one key that the caller's generator yields (the only
number taken from it). The block draws its rows, weights and partners from
that generator, in that order, scores them and returns a small result: its
``_Moments`` for the risk estimators, its sums or largest gap for
``verification``. ``_WORKERS`` threads (the calling thread and one helper
thread per further usable CPU) take the blocks in index order and the
results are merged in block order, so every estimate is the same bit for
bit whatever the number of cores. No array sized by the draw count is made:
each worker holds one block of draws, of gathered, mixed or perturbed rows
and of losses, plus one row block of the model's prediction
(``models._PHASE_ELEMS`` phase elements for a cosine-feature head), whatever
the feature count. Every loop validates its draw count (``_checked_count``)
before it draws anything.

A block's mixing weights, folded or not, come from
``truncbeta._symmetric_beta``: ``Generator.random`` at alpha = 1 exactly,
where Beta(1, 1) is uniform and numpy's ``beta`` runs a slow rejection
sampler, and ``Generator.beta`` at every other alpha. So at alpha = 1 every
Monte Carlo number differs from one drawn through ``Generator.beta``, with
the same law. The training path, ``mixup_minibatch``, draws its weights
with ``Generator.beta``.

``pair_loss_values`` and ``perturbed_loss_values`` score given draws
through the same per-block functions, each block writing its losses into
its own slice of one output. A block scores on the thread that took it and
never starts tasks of its own, which on a one-thread pool would wait
forever.

Mixed and perturbed rows are formed one coordinate at a time, each column in
full-length 1-D passes over the draws (``_combine_rows``): the same IEEE
operations in the same order as broadcasting (k, 1) weights against (k, d)
rows, so the same bits, without numpy's slow pass over narrow rows.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import wait
from dataclasses import dataclass
from functools import cache

import numpy as np

from .data import Dataset, modify
from .losses import LossKind, loss_values
from .models import _PHASE_ELEMS
from .truncbeta import _symmetric_beta, _validate_alpha, mix_coefficients, sample_theta

__all__ = [
    "McEstimate",
    "perturbation",
    "pair_loss_values",
    "perturbed_loss_values",
    "mixup_risk_mc",
    "perturbed_erm_risk_mc",
    "mixup_minibatch",
]

# draws per Monte Carlo block of a cosine-feature head, before rounding to
# whole prediction row blocks. Each helper thread keeps a malloc arena about
# the size of its block's temporaries, which a larger block makes visible in
# the peak RSS
_BLOCK = 1 << 12

# draws per block of a loop that forms no phase block: sixteen float64
# arrays of it take the 2 MiB of one block of phases
_NARROW_BLOCK = _PHASE_ELEMS // 16


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


# threads that draw and score the blocks, the calling one included
_WORKERS = _usable_cpus()


@cache
def _pool(threads: int):
    """The helper threads, made (and their module loaded) on first use:
    importing mixreg starts none."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(threads, thread_name_prefix="mixreg-mc")


def _run_tasks(task, n_tasks: int, merge=None) -> None:
    """task(b) for b = 0, ..., n_tasks - 1 on the calling thread and up to
    ``_WORKERS - 1`` helper threads, each taking the lowest index not yet
    taken. With ``merge``, merge(task(b)) runs for b = 0, 1, ... in that
    order, under a lock, on whichever thread finishes the next task due, so
    only results finished ahead of their turn wait. Once a task fails no
    further task starts, and after all threads end its exception is raised
    here. The caller works rather than waits, which saves one thread's
    malloc arena. A task must not call ``_run_tasks``: a helper thread would
    wait for tasks queued behind itself."""
    lock = threading.Lock()
    taken, merged, failed = 0, 0, False
    finished = {}

    def drain() -> None:
        nonlocal taken, merged, failed
        while True:
            with lock:
                b, taken = taken, taken + 1
                if b >= n_tasks or failed:
                    return
            try:
                result = task(b)
            except BaseException:
                failed = True
                raise
            if merge is not None:
                with lock:
                    finished[b] = result
                    while merged in finished:
                        merge(finished.pop(merged))
                        merged += 1

    helpers = [_pool(_WORKERS - 1).submit(drain) for _ in range(min(_WORKERS, n_tasks) - 1)]
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
    """Count, sum and sum of squared deviations of a stream of draws.

    ``of`` sums one block's squared deviations about the block's own mean,
    and ``merge`` combines blocks with Chan et al.'s pairwise update, so a
    large common offset in the draws does not cancel the variance. The
    squares are summed by numpy, not by a BLAS dot product, so the bits do
    not depend on the BLAS thread count.
    """

    def __init__(self, n: int = 0, total: float = 0.0, m2: float = 0.0) -> None:
        self.n = n
        self.total = total
        self.m2 = m2

    @classmethod
    def of(cls, vals: np.ndarray) -> _Moments:
        k = vals.shape[0]
        total = vals.sum()
        dev = vals - total / k
        return cls(k, total, float(np.square(dev, out=dev).sum()))

    def merge(self, other: _Moments) -> None:
        self.m2 += other.m2
        if self.n:
            shift = other.total / other.n - self.total / self.n
            self.m2 += shift * shift * self.n * other.n / (self.n + other.n)
        self.total += other.total
        self.n += other.n

    def estimate(self) -> McEstimate:
        stderr = float(np.sqrt(self.m2 / (self.n - 1) / self.n)) if self.n > 1 else float("nan")
        return McEstimate(mean=float(self.total / self.n), stderr=stderr, n_draws=self.n)


def _block_size(model=None) -> int:
    """Draws per block. For a model with prediction row blocks
    (``RffModel.block_rows``) at most ``_BLOCK`` and a whole number of
    them, at least one, so a block contracts the same row blocks as one
    ``predict`` over all draws and returns the same bits. For no model or a
    linear one, which form no phases, ``_NARROW_BLOCK``."""
    rows = getattr(model, "block_rows", None)
    if rows is None:
        return _NARROW_BLOCK
    return max(rows, _BLOCK // rows * rows)


def _block_rng(key: int, b: int) -> np.random.Generator:
    """Block b's generator: child b of ``SeedSequence(key)``, the stream
    ``SeedSequence(key).spawn`` gives its b-th child, made without the
    b - 1 before it."""
    return np.random.default_rng(np.random.SeedSequence(key, spawn_key=(b,)))


def _monte_carlo(rng: np.random.Generator, n: int, model, block, merge) -> None:
    """merge(block(g, k)) for the blocks of n draws, merged in block order;
    k is the block's draw count and g its own generator. The blocks'
    generators share one key, the one number drawn from rng. n must be an
    integer of at least one, checked before rng is used."""
    n = _checked_count(n)
    key = int(rng.integers(2**64, dtype=np.uint64))
    step = _block_size(model)
    _run_tasks(lambda b: block(_block_rng(key, b), min(step, n - b * step)), -(-n // step), merge)


def _block_draws(ds: Dataset, g: np.random.Generator, k: int, alpha: float, fold: bool, row=None):
    """(i, j, w) of one block, drawn from its generator g in this order: k
    rows i (none when ``row`` is every draw's row), k weights w ~ Beta(alpha,
    alpha) from ``truncbeta._symmetric_beta``, folded to max(w, 1 - w) when
    ``fold``, and k partners j."""
    i = g.integers(ds.n, size=k) if row is None else row
    w = sample_theta(alpha, g, size=k) if fold else _symmetric_beta(alpha, g, size=k)
    return i, g.integers(ds.n, size=k), w


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


def _checked_count(n_draws, name: str = "n_draws") -> int:
    if isinstance(n_draws, (bool, np.bool_)) or not isinstance(n_draws, (int, np.integer)) or n_draws < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {n_draws!r}")
    return int(n_draws)


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
    # a tuple display, not tuple() of a generator: that one is resized past
    # the tuple free list, which then grows by one entry per call
    return (
        _combine_rows(ds.inputs, i, j, w_i, w_j, (1.0 - theta_bar) * ds.x_mean),
        _combine_rows(ds.outputs, i, j, w_i, w_j, (1.0 - theta_bar) * ds.y_mean),
    )


def _pair_losses(ds: Dataset, model, kind: LossKind, i, j, lam) -> np.ndarray:
    """The pairwise summands of one block of draws."""
    Xm = _combine_rows(ds.inputs, i, j, lam, 1.0 - lam)
    Ym = _combine_rows(ds.outputs, i, j, lam, 1.0 - lam)
    return loss_values(kind, Ym, model.predict(Xm))


def _perturbed_losses(ds: Dataset, mod: Dataset, model, kind: LossKind, i, j, theta, theta_bar) -> np.ndarray:
    """The perturbed-form summands of one block of draws; mod is ds shrunk
    by theta_bar."""
    delta, eps = perturbation(ds, theta_bar, i, j, theta)
    delta += mod.inputs[i]
    eps += mod.outputs[i]
    return loss_values(kind, eps, model.predict(delta))


def _blockwise(n: int, model, losses) -> np.ndarray:
    """losses(b) for the block slices b of n given draws, in one output."""
    out = np.empty(n)
    step = _block_size(model)

    def task(t: int) -> None:
        b = slice(t * step, (t + 1) * step)
        out[b] = losses(b)

    _run_tasks(task, -(-n // step))
    return out


def pair_loss_values(
    ds: Dataset, model, kind: LossKind, I: np.ndarray, J: np.ndarray, lam: np.ndarray
) -> np.ndarray:
    """Loss of the mixed pair for each (i, j, lam) triple; the pure summand."""
    I, J, lam = _checked_draws(ds, I, J, lam)
    return _blockwise(len(lam), model, lambda b: _pair_losses(ds, model, kind, I[b], J[b], lam[b]))


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
    return _blockwise(
        len(theta), model, lambda b: _perturbed_losses(ds, mod, model, kind, I[b], J[b], theta[b], theta_bar)
    )


def _estimate(rng: np.random.Generator, n_draws: int, model, summands) -> McEstimate:
    """Mean and standard error of summands(g, k) over the blocks of n_draws."""
    moments = _Moments()
    _monte_carlo(rng, n_draws, model, lambda g, k: _Moments.of(summands(g, k)), moments.merge)
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
    Beta(alpha, alpha), one draw per summand. alpha must be finite and
    positive and n_draws an integer of at least one.
    """
    alpha = _validate_alpha(alpha)

    def summands(g, k: int) -> np.ndarray:
        i, j, lam = _block_draws(ds, g, k, alpha, fold=False)
        return _pair_losses(ds, model, kind, i, j, lam)

    return _estimate(rng, n_draws, model, summands)


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
    alpha must be finite and positive and n_draws an integer of at least one.
    """
    alpha = _validate_alpha(alpha)
    tb = mix_coefficients(alpha).theta_bar
    mod = modify(ds, tb)

    def summands(g, k: int) -> np.ndarray:
        i, j, theta = _block_draws(ds, g, k, alpha, fold=True)
        return _perturbed_losses(ds, mod, model, kind, i, j, theta, tb)

    return _estimate(rng, n_draws, model, summands)


def mixup_minibatch(
    batch_x: np.ndarray,
    batch_y: np.ndarray,
    alpha: float,
    rng: np.random.Generator,
):
    """Convex-combine each batch row with a uniformly drawn partner row.

    Draws the m partners, then one lam ~ Beta(alpha, alpha) per pair with
    ``Generator.beta`` (not the Monte Carlo sampler); row i
    becomes lam_i z_i + (1 - lam_i) z_partner(i). Returns (mixed_x, mixed_y).
    """
    batch_x = np.asarray(batch_x, dtype=float)
    batch_y = np.asarray(batch_y, dtype=float)
    m = batch_x.shape[0]
    if m == 0:
        raise ValueError("batch must be nonempty")
    partner = rng.integers(m, size=m)
    lam = rng.beta(alpha, alpha, size=m)
    rows = np.arange(m)
    return tuple(_combine_rows(z, rows, partner, lam, 1.0 - lam) for z in (batch_x, batch_y))
