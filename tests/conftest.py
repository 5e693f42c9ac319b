import tracemalloc

import numpy as np
import pytest

from mixreg import mixup
from mixreg.models import _PHASE_ELEMS
from mixreg.verification import run_all


@pytest.fixture(scope="session")
def run_all_reports():
    """The certification suite at seed 0, run once per test session."""
    return run_all(seed=0)


def central_grad(f, x, h=1e-6):
    """Central-difference gradient of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for k in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        g[k] = (f(xp) - f(xm)) / (2 * h)
    return g


def central_jacobian(f, x, h=1e-6):
    """Central-difference Jacobian of a vector function, shape (out, in)."""
    x = np.asarray(x, dtype=float)
    cols = []
    for k in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        cols.append((np.asarray(f(xp)) - np.asarray(f(xm))) / (2 * h))
    return np.stack(cols, axis=-1)


def central_hessian(f, x, h=1e-4):
    """Central second differences of a scalar function, shape (in, in)."""
    x = np.asarray(x, dtype=float)
    n = x.size
    H = np.zeros((n, n))
    E = np.eye(n) * h
    f0 = f(x)
    for j in range(n):
        H[j, j] = (f(x + 2 * E[j]) - 2 * f0 + f(x - 2 * E[j])) / (4 * h * h)
        for k in range(j + 1, n):
            val = (
                f(x + E[j] + E[k])
                - f(x + E[j] - E[k])
                - f(x - E[j] + E[k])
                + f(x - E[j] - E[k])
            ) / (4 * h * h)
            H[j, k] = H[k, j] = val
    return H


def central_cross_hessian(f, y, u, h=1e-4):
    """Mixed second differences d^2 f / dy_j du_k, shape (len(y), len(u))."""
    y = np.asarray(y, dtype=float)
    u = np.asarray(u, dtype=float)
    H = np.zeros((y.size, u.size))
    for j in range(y.size):
        for k in range(u.size):
            yp, ym = y.copy(), y.copy()
            yp[j] += h
            ym[j] -= h
            up, um = u.copy(), u.copy()
            up[k] += h
            um[k] -= h
            H[j, k] = (f(yp, up) - f(yp, um) - f(ym, up) + f(ym, um)) / (4 * h * h)
    return H


def rel_err(a, b, floor=1e-8):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.abs(a - b).max() / max(np.abs(b).max(), floor)


def traced_peak(run) -> int:
    """Peak bytes that tracemalloc traces while run() runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def mc_memory_bound(workers: int, block: int, *, phase_blocks: float = 1.25, block_arrays: int = 16) -> float:
    """Bytes allowed for Monte Carlo in blocks of ``block`` draws on
    ``workers`` workers, whatever the draw count: per worker
    ``phase_blocks`` phase blocks (one and a quarter by default; none where
    no phases are formed) and ``block_arrays`` float64 arrays of one block
    (its draws, gathered rows and losses); 1 MiB for the rest. A
    cosine-feature loop passes ``mixup._BLOCK`` (16 arrays: 0.5 MiB per
    worker), a loop with no model or a linear one ``mixup._block_size(None)``
    (16 arrays: 2 MiB per worker, the size of one phase block)."""
    return workers * (phase_blocks * 8 * _PHASE_ELEMS + block_arrays * 8 * block) + 2**20
