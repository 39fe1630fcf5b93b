"""Hot numeric kernels: the certified eigenvalue iteration and chain simulation.

``mpe_power_iteration`` finds the Perron eigenpair of A = e^{-f} P with
one certified loop, ``_collatz_loop``. Every step multiplies the iterate
by A and takes the Collatz bounds from the product, so the running
bracket certifies the eigenvalue whatever rule makes the next iterate;
the rule is a parameter of the loop. ``inverse_iteration`` holds V itself,
takes A V as a BLAS matrix-vector product and makes the next iterate by
Noda's inverse step, a sparse LU solve of (sigma I - A) z = V with sigma
the step's upper Collatz bound; a step whose solve fails or whose z is not
positive and normal in float64 takes the power step A V instead. The
sparsity of sigma I - A is P's alone: it comes from P's support layout,
built once per kernel (``_SupportLayout.shifted_pattern``), and a solve
only fills in the values. Nothing here scans a dense kernel for its
nonzeros; the matrix-vector product stays dense, since its BLAS sums fix
the bits of every result. When e^{-f} or an iterate has an entry that is
zero, subnormal or not finite in float64 (costs spanning more than about
700), the run starts again from V = 1 with power steps on log V, A V
taken as a row-wise log-sum-exp over P's nonzeros (``logsumexp_rows``,
the library's one log-partition). ``linear_power_iteration`` is the plain
power iteration on V, kept as the reference the tests hold the log
domain against.

``markov_paths``, the one chain walker, walks a block of chains in lock
step over the inverse-CDF bounds of each row's support (``draw_bounds``).
It races the policy pool; its one-chain view ``markov_path`` walks each
phase of an episode and the target stream. Callers reach these through
this module's attributes, so a wrapper set on an attribute sees every call.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

_TINY = float(np.finfo(np.float64).tiny)
_HUGE = float(np.finfo(np.float64).max)


def logsumexp_rows(layout, log_entries: np.ndarray, w: np.ndarray) -> np.ndarray:
    """log(P e^w) row by row, for ``log_entries`` the logs of P's entries at
    the nonzeros of ``layout`` (a ``chains._SupportLayout``). Each row is
    shifted by its largest term and summed over a dense row with zeros
    elsewhere, so the result is bit for bit the dense log-sum-exp."""
    terms = log_entries + w[layout.col]
    top = np.maximum.reduceat(terms, layout.indptr()[:-1])
    shifted = layout.dense(np.exp(terms - top[layout.row]), np.empty((layout.n, layout.n)))
    return top + np.log(shifted.sum(axis=1))


def _collatz_loop(matvec, ratio, to_linear, floor, ceil, update, x, pin, tol, max_iter):
    """Certified eigenvalue iteration with a running Collatz bracket.

    ``matvec`` applies A to an iterate and ``ratio`` compares two
    representatives entrywise (``np.divide`` for V, ``np.subtract`` for
    log V); ``to_linear`` maps a ratio back to the linear domain. Every
    raw Collatz bound min/max (AV)(x)/V(x) is valid for any positive
    iterate, so the running max/min [lo, hi] certifies the dominant
    eigenvalue of A at every iteration, whatever rule makes the iterates.

    The loop stops as soon as the bracket is narrower than ``tol`` and
    then returns the normalized A x. Otherwise ``update(x, x_power,
    sigma)`` makes the next iterate, normalized to V(pin) = 1: ``x_power``
    is the power step A x / (A x)(pin) and ``sigma`` this step's upper
    bound max (AV)(x)/V(x) in the linear domain, which is at least the
    eigenvalue and, since convergence is tested first, above it.

    Raises FloatingPointError as soon as A x or the power step has an
    entry outside [floor, ceil] (or NaN). Returns
    (x, lo, hi, iterations, converged).
    """
    lo_cert = 0.0
    hi_cert = math.inf
    it = 0
    while it < max_iter:
        y = matvec(x)
        top = y[pin]
        y_lo = y.min()
        y_hi = y.max()
        # ratio is monotone, so the power step spans [ratio(y_lo, top), ratio(y_hi, top)]
        if not (
            floor <= y_lo and y_hi <= ceil
            and floor <= ratio(y_lo, top) and ratio(y_hi, top) <= ceil
        ):
            raise FloatingPointError(
                f"power iterate left [{floor:.3e}, {ceil:.3e}] at iteration {it + 1}"
            )
        d = ratio(y, x)
        sigma = to_linear(d.max())
        lo_cert = max(lo_cert, to_linear(d.min()))
        hi_cert = min(hi_cert, sigma)
        x_power = ratio(y, top)
        it += 1
        if hi_cert - lo_cert <= tol:
            return x_power, lo_cert, hi_cert, it, True
        x = update(x, x_power, sigma)
    return x, lo_cert, hi_cert, it, False


def _power_update(x, x_power, sigma):
    return x_power


def _normal(arr) -> bool:
    """True when every entry is positive, finite and normal in float64."""
    return bool(_TINY <= arr.min() and arr.max() <= _HUGE)


def _linear_scale(f_shifted):
    """e^{-f}, raising FloatingPointError unless every entry is normal."""
    with np.errstate(under="ignore", over="ignore"):
        scale = np.exp(-f_shifted)
    if not _normal(scale):
        raise FloatingPointError("e^{-f} is not normal in float64")
    return scale


def _linear_loop(rows, scale, update, pin, tol, max_iter):
    with np.errstate(all="ignore"):
        v, lo, hi, it, ok = _collatz_loop(
            lambda v: scale * (rows @ v), np.divide, float, _TINY, _HUGE, update,
            np.ones(rows.shape[0]), pin, tol, max_iter,
        )
    return np.log(v), lo, hi, it, ok


def linear_power_iteration(rows, f_shifted, pin, tol, max_iter):
    """Certified power iteration on V, with A V = e^{-f} * (P @ V).

    Starts from V = 1. Raises FloatingPointError when e^{-f} or an
    iterate has an entry outside the normal float64 range.
    Returns (log V, lo, hi, iterations, converged).
    """
    return _linear_loop(rows, _linear_scale(f_shifted), _power_update, pin, tol, max_iter)


def inverse_iteration(rows, layout, f_shifted, pin, tol, max_iter):
    """Certified Noda inverse iteration on V, with A = e^{-f} P.

    Each step takes A V = e^{-f} * (P @ V) and its Collatz bounds, exactly
    as the power iteration does, then solves (sigma I - A) z = V with
    sigma = max (AV)(x)/V(x) > rho(A) (T. Noda, Numer. Math. 17, 1971).
    sigma I - A is then a nonsingular M-matrix with a positive inverse, so
    z is positive and the iteration converges superlinearly. The solve is
    a sparse LU (SuperLU) over the nonzeros of P and the diagonal, whose
    CSC pattern is ``layout.shifted_pattern()``, built once per layout: it
    runs on one thread, where a dense LAPACK LU of n >= 100 starts BLAS
    threads that stall when processes share the cores. A step whose
    factorization fails, or whose z has an entry that is not positive,
    finite and normal, takes the power step instead.

    Starts from V = 1 and raises FloatingPointError like
    ``linear_power_iteration``. Returns (log V, lo, hi, iterations, converged).
    """
    scale = _linear_scale(f_shifted)
    # -A on the pattern; a step only rewrites the diagonal to sigma - A(x, x)
    row, col, indptr, diag = layout.shifted_pattern()
    shifted = sparse.csc_matrix((-scale[row] * rows[row, col], row, indptr), shape=rows.shape)
    minus_a_diag = shifted.data[diag].copy()

    def noda_update(x, x_power, sigma):
        shifted.data[diag] = minus_a_diag + sigma
        try:
            z = splu(shifted).solve(x)
        except RuntimeError:  # SuperLU: the factor is exactly singular
            return x_power
        z_pinned = z / z[pin]
        return z_pinned if _normal(z) and _normal(z_pinned) else x_power

    return _linear_loop(rows, scale, noda_update, pin, tol, max_iter)


def log_power_iteration(rows, layout, f_shifted, pin, tol, max_iter):
    """Certified power iteration on w = log V, with log(A V) a row-wise
    log-sum-exp over the nonzeros of ``rows``, which ``layout`` locates.
    Starts from w = 0. Returns (w, lo, hi, iterations, converged).
    """
    log_p = np.log(rows[layout.row, layout.col])
    return _collatz_loop(
        lambda w: logsumexp_rows(layout, log_p, w) - f_shifted, np.subtract, math.exp,
        -_HUGE, _HUGE, _power_update, np.zeros(rows.shape[0]), pin, tol, max_iter,
    )


def mpe_power_iteration(rows, layout, f_shifted, pin, tol, max_iter):
    """Certified solve of the Perron eigenpair of A = e^{-f} P for a
    nonnegative shifted cost.

    ``rows`` is the passive kernel, ``layout`` where its nonzeros sit
    (``chains.support_layout``) and ``f_shifted`` the cost minus its
    minimum (so e^{-f} lies in (0, 1]). Runs the inverse iteration in the
    linear domain, and reruns with power steps in log space when the
    linear domain cannot hold e^{-f} or an iterate. Both start from V = 1
    and normalize to V(pin) = 1 at every step.

    Returns (w, lo, hi, iterations, converged) with w = log V and [lo, hi]
    the certified bracket on the dominant eigenvalue of A.
    """
    try:
        return inverse_iteration(rows, layout, f_shifted, pin, tol, max_iter)
    except FloatingPointError:
        return log_power_iteration(rows, layout, f_shifted, pin, tol, max_iter)


def draw_bounds(slots: np.ndarray) -> np.ndarray:
    """Inverse-CDF bounds of rows stored as zero-padded slot weights
    (..., W), each row's support in column order.

    The bounds are the running sums, which equal the dense row's CDF at
    the support's columns bit for bit, with every entry from the row's
    last positive-mass slot on (the first to reach the row total) set to
    +inf. The count of bounds <= u in [0, 1) is then the slot of the first
    column whose CDF exceeds u or, for a u in the rounding gap above the row
    total, of the last slot that adds mass: always a slot with mass.
    """
    bounds = np.cumsum(slots, axis=-1)
    bounds[bounds >= bounds[..., -1:]] = np.inf
    return bounds


def markov_paths(bounds, columns, start, uniforms):
    """Walk a block of chains in lock step, chain b driven by ``uniforms[b]``.

    ``bounds[b, x]`` are chain b's ``draw_bounds`` for row x, and
    ``columns[x, s]`` is the state of slot s of row x. Returns the visited
    states as int64, shape (chains, steps + 1), each row beginning with
    ``start``. Raises IndexError when ``start`` is not a state.
    """
    chains, t_steps = uniforms.shape
    n, width = columns.shape
    if not 0 <= start < n:
        raise IndexError(f"state index {start} out of range for n={n}")
    # flat row and slot indices: ``take`` on them is the cheapest gather
    row_bounds = np.ascontiguousarray(bounds).reshape(chains * n, width)
    slot_columns = columns.ravel()
    first_row = np.arange(chains) * n
    step_uniforms = np.ascontiguousarray(uniforms.T)[:, :, np.newaxis]
    path = np.empty((t_steps + 1, chains), dtype=np.int64)
    path[0] = start
    for t in range(t_steps):
        x = path[t]
        below = row_bounds.take(first_row + x, axis=0) <= step_uniforms[t]
        path[t + 1] = slot_columns.take(x * width + np.add.reduce(below, axis=1, dtype=np.intp))
    return np.ascontiguousarray(path.T)


def markov_path(table, start, uniforms):
    """``markov_paths`` for one chain with ``(bounds, columns)`` ``table``
    (``chains.draw_table``) and 1-D ``uniforms``; returns its one path."""
    bounds, columns = table
    return markov_paths(bounds[np.newaxis], columns, start, uniforms[np.newaxis])[0]
