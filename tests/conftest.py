import math
import os
import threading

import numpy as np
import pytest

from klwalk import (
    DimensionMismatchError,
    KlPolicy,
    PolicyPool,
    StochasticMatrix,
    build_passive,
    grid_graph,
    rows_kl,
)
from klwalk import _accel
from klwalk.chains import _SupportLayout


def renormalized(rows) -> StochasticMatrix:
    """Rescale each row to sum to one; a row with nonpositive mass raises."""
    raw = np.asarray(rows, dtype=np.float64)
    sums = raw.sum(axis=1, keepdims=True)
    if np.any(sums <= 0):
        raise ValueError("cannot renormalize a row with nonpositive total mass")
    return StochasticMatrix(raw / sums)


def random_ergodic_kernel(rng: np.random.Generator, n: int) -> StochasticMatrix:
    """Strictly positive rows (flat Dirichlet), hence primitive."""
    return StochasticMatrix(rng.dirichlet(np.ones(n), size=n))


def random_cost(rng: np.random.Generator, n: int, cap: float = 1.0) -> np.ndarray:
    return rng.random(n) * cap


def passive_policy(passive: StochasticMatrix) -> KlPolicy:
    """The passive dynamics viewed as a (zero control cost) policy."""
    return KlPolicy(kernel=passive, control_cost=np.zeros(passive.n))


def policy_from_rows(passive: StochasticMatrix, rows) -> KlPolicy:
    """Explicit transition rows as a policy, priced against the passive
    kernel by ``rows_kl``."""
    kernel = StochasticMatrix(rows)
    return KlPolicy(kernel=kernel, control_cost=rows_kl(kernel.rows, passive.rows))


def stacked_pool(policies) -> PolicyPool:
    """Explicit policies stacked into a ``PolicyPool`` over the union of
    their supports, so pooled policy i walks and prices as ``policies[i]``."""
    rows = np.stack([pol.kernel.rows for pol in policies])
    layout = _SupportLayout((rows > 0).any(axis=0))
    return PolicyPool(layout, rows[:, layout.row, layout.col],
                      np.stack([pol.control_cost for pol in policies]))


def pooled_policy(pool: PolicyPool, i: int) -> KlPolicy:
    """Pooled policy i as a dense ``KlPolicy``."""
    kernel = StochasticMatrix.on_layout(pool.layout, pool.weights[i])
    return KlPolicy(kernel=kernel, control_cost=pool.control_cost[i])


def kernel_sup_distance(a: StochasticMatrix, b: StochasticMatrix) -> float:
    """Largest L1 distance between matching rows; in [0, 2]."""
    return float(np.abs(a.rows - b.rows).sum(axis=1).max())


def pick_from_cdf(cdf: np.ndarray, u: float) -> int:
    """Scalar inverse-CDF draw on a dense row CDF, the oracle of the
    library's walker: the smallest j with cdf[j] > u, and for a u in the
    rounding gap above cdf[-1] the last entry that adds mass."""
    n = cdf.shape[0]
    j = int(np.searchsorted(cdf, u, side="right"))
    if j >= n:
        j = n - 1
        while j > 0 and cdf[j] <= cdf[j - 1]:
            j -= 1
    return j


def dense_markov_path(rows: np.ndarray, start: int, uniforms: np.ndarray) -> np.ndarray:
    """Walk a chain one ``pick_from_cdf`` at a time over the dense CDFs of
    ``rows``; the visited states, ``len(uniforms) + 1`` of them."""
    cdf = np.cumsum(rows, axis=1)
    states = [int(start)]
    for u in uniforms:
        states.append(pick_from_cdf(cdf[states[-1]], u))
    return np.array(states, dtype=np.int64)


def dense_log_rows(rows: np.ndarray) -> np.ndarray:
    """Entrywise log of a nonnegative matrix, -inf where the entry is 0."""
    out = np.full(rows.shape, -np.inf)
    np.log(rows, out=out, where=rows > 0)
    return out


def dense_log_matvec(log_rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Row-wise log-sum-exp of ``log_rows + w`` over dense n x n rows: the
    oracle of the library's log-sum-exp over a kernel's entries."""
    b = log_rows + w[np.newaxis, :]
    mx = b.max(axis=1)
    return mx + np.log(np.exp(b - mx[:, np.newaxis]).sum(axis=1))


def dense_twist(passive_rows: np.ndarray, phi: np.ndarray):
    """The twisted kernel of a non-constant ``phi`` over dense rows:
    ``(rows, control_cost)``, the oracle of ``twisted_kernel``."""
    log_p = dense_log_rows(passive_rows)
    log_z = dense_log_matvec(log_p, -phi)
    rows = np.exp(log_p - phi[np.newaxis, :] - log_z[:, np.newaxis])
    return rows, np.maximum(-(rows @ phi) - log_z, 0.0)


def dense_log_power_iteration(rows, f_shifted, pin, tol, max_iter):
    """``_accel.log_power_iteration`` with its log-sum-exp over dense rows."""
    log_p = dense_log_rows(rows)
    return _accel._collatz_loop(
        lambda w: dense_log_matvec(log_p, w) - f_shifted, np.subtract, math.exp,
        -_accel._HUGE, _accel._HUGE, _accel._power_update, np.zeros(rows.shape[0]),
        pin, tol, max_iter,
    )


def linear_power_iteration(rows, f_shifted, pin, tol, max_iter):
    """Certified power iteration on V, with A V = e^{-f} * (P @ V), from
    V = 1: the library's linear-domain loop with the plain power step, the
    reference the log domain and the inverse iteration are held against.
    Raises FloatingPointError when e^{-f} or an iterate has an entry
    outside the normal float64 range. Returns (log V, lo, hi, iterations,
    converged)."""
    return _accel._linear_loop(rows, _accel._linear_scale(f_shifted), _accel._power_update,
                               pin, tol, max_iter, None)


ORACLE_MAX_STATES = 12


def eigen_oracle(passive: StochasticMatrix, f: np.ndarray) -> tuple[float, np.ndarray]:
    """Brute-force dominant eigenpair of e^{-f} P for desk-scale checks.

    Squares the matrix 60 times (renormalizing by the max entry) so the
    column space collapses onto the dominant eigenvector, then takes one
    Collatz bracket for the eigenvalue. Deliberately shares no code with
    the iteration in ``solve_mpe``; guarded to n <= 12.
    """
    if passive.n > ORACLE_MAX_STATES:
        raise ValueError(f"eigen_oracle is desk-scale only (n <= {ORACLE_MAX_STATES})")
    if f.shape != (passive.n,):
        raise DimensionMismatchError(f"cost has shape {f.shape}, kernel has n={passive.n}")
    a = np.exp(-f)[:, None] * passive.rows
    b = a / a.max()
    for _ in range(60):
        b = b @ b
        b = b / b.max()
    v = b @ np.ones(passive.n)
    v = v / v[0]
    ratios = (a @ v) / v
    lam = -math.log(0.5 * (float(ratios.min()) + float(ratios.max())))
    return lam, v


def dense_shifted_pattern(rows: np.ndarray, order: np.ndarray):
    """The CSC pattern of (sigma I - A)[:, order] found by scanning the
    dense kernel: ``(row, col, indptr, diag, order)`` over P's nonzeros and
    the whole diagonal, ``col`` the unpermuted column of each entry and
    ``row`` and ``indptr`` C ints, as SuperLU takes them; the oracle of
    ``_SupportLayout.shifted_pattern`` for a given order."""
    n = rows.shape[0]
    stored = rows.T != 0
    stored[np.diag_indices(n)] = True
    stored = stored[order]
    slot, row = np.nonzero(stored)
    col = order[slot]
    indptr = np.concatenate(([0], np.cumsum(stored.sum(axis=1))))
    diag = np.flatnonzero(row == col)
    return row.astype(np.intc), col, indptr.astype(np.intc), diag, order


def half_zero_kernel(rng: np.random.Generator, n: int) -> StochasticMatrix:
    """About half the entries zero, kept primitive by a cycle and one self-loop."""
    rows = rng.dirichlet(np.ones(n), size=n) * (rng.random((n, n)) < 0.4)
    rows[np.arange(n), (np.arange(n) + 1) % n] += 0.3
    rows[0, 0] += 0.3
    return renormalized(rows)


# the kernels the sparse log-domain paths are held to their dense oracles on
ORACLE_KERNELS = {
    "dense-12": lambda: random_ergodic_kernel(np.random.default_rng(31), 12),
    "half-zero-12": lambda: half_zero_kernel(np.random.default_rng(32), 12),
    "grid-10x10": lambda: build_passive(grid_graph(10, 10), 0.01, 0.01, home=0),
}


def run_within(seconds: float, fn, *args):
    """Run ``fn(*args)`` in a daemon thread and return its result, or
    re-raise what it raised; fail the test if it has not finished within
    ``seconds`` (a hang then fails the test instead of stalling the suite).
    """
    outcome = {}

    def target():
        try:
            outcome["value"] = fn(*args)
        except BaseException as exc:  # handed back to the test's thread
            outcome["error"] = exc

    worker = threading.Thread(target=target, daemon=True)
    worker.start()
    worker.join(timeout=seconds)
    if worker.is_alive():
        pytest.fail(f"{getattr(fn, '__name__', fn)} did not finish within {seconds} s")
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


@pytest.fixture
def rng():
    return np.random.default_rng(987654321)


@pytest.fixture(autouse=True)
def no_inherited_klwalk_env(monkeypatch):
    """Drop every ``KLWALK_*`` variable of the calling shell, so the config
    layer a test sees is the one it sets itself."""
    for key in [k for k in os.environ if k.startswith("KLWALK_")]:
        monkeypatch.delenv(key)
