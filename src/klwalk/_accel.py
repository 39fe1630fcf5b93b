"""Hot numeric kernels: the certified power iteration and chain simulation.

``mpe_power_iteration`` finds the Perron eigenpair of A = e^{-f} P with
one certified loop, ``_collatz_loop``, that can hold its iterate in two
representations. By default the iterate is V itself and A V is a BLAS
matrix-vector product. When e^{-f}, the start or an iterate has an entry
that is zero, subnormal or not finite in float64 (costs spanning more
than about 700), the run starts again from the same start with the
iterate held as log V and A V taken as a row-wise log-sum-exp. Both
representations produce the same iterates up to rounding.

``markov_path`` walks a chain from per-row CDFs and pre-drawn uniforms.
Callers reach both functions through this module's attributes
(``_accel.markov_path``), so a wrapper set on an attribute sees every call.
"""

from __future__ import annotations

import math

import numpy as np

_TINY = float(np.finfo(np.float64).tiny)
_HUGE = float(np.finfo(np.float64).max)


def log_rows(rows: np.ndarray) -> np.ndarray:
    """Entrywise log of a nonnegative matrix, -inf where the entry is 0."""
    out = np.full(rows.shape, -np.inf)
    np.log(rows, out=out, where=rows > 0)
    return out


def log_matvec(log_rows_: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Row-wise log-sum-exp of ``log_rows_ + w``, i.e. log(exp(L) @ exp(w)).

    Every row is assumed to contain at least one finite entry (true for
    the log of any stochastic matrix), so the max-shift is always finite.
    """
    b = log_rows_ + w[np.newaxis, :]
    mx = b.max(axis=1)
    return mx + np.log(np.exp(b - mx[:, np.newaxis]).sum(axis=1))


def _collatz_loop(matvec, ratio, to_linear, floor, ceil, x, pin, tol, max_iter):
    """Power iteration with a running Collatz bracket, in one representation.

    ``matvec`` applies A to an iterate and ``ratio`` compares two
    representatives entrywise (``np.divide`` for V, ``np.subtract`` for
    log V); ``to_linear`` maps a ratio back to the linear domain. Each
    iterate is normalized by its pin entry, so V(pin) = 1 in either
    representation. Every raw Collatz bound min/max (AV)(x)/V(x) is valid
    for any positive iterate, so the running max/min [lo, hi] certifies
    the dominant eigenvalue of A at every iteration.

    Raises FloatingPointError as soon as A x or the normalized iterate has
    an entry outside [floor, ceil] (or NaN). Returns
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
        # ratio is monotone, so the new iterate spans [ratio(y_lo, top), ratio(y_hi, top)]
        if not (
            floor <= y_lo and y_hi <= ceil
            and floor <= ratio(y_lo, top) and ratio(y_hi, top) <= ceil
        ):
            raise FloatingPointError(
                f"power iterate left [{floor:.3e}, {ceil:.3e}] at iteration {it + 1}"
            )
        d = ratio(y, x)
        lo_cert = max(lo_cert, to_linear(d.min()))
        hi_cert = min(hi_cert, to_linear(d.max()))
        x = ratio(y, top)
        it += 1
        if hi_cert - lo_cert <= tol:
            return x, lo_cert, hi_cert, it, True
    return x, lo_cert, hi_cert, it, False


def linear_power_iteration(rows, f_shifted, pin, tol, max_iter, w0):
    """Certified power iteration on V, with A V = e^{-f} * (P @ V).

    Starts from V = e^{w0}. Raises FloatingPointError when e^{-f}, the
    start or an iterate has an entry outside the normal float64 range.
    Returns (log V, lo, hi, iterations, converged).
    """
    with np.errstate(all="ignore"):
        scale = np.exp(-f_shifted)
        v0 = np.exp(w0)
        for name, arr in (("e^{-f}", scale), ("e^{w0}", v0)):
            if not (_TINY <= arr.min() and arr.max() <= _HUGE):
                raise FloatingPointError(f"{name} is not normal in float64")
        v, lo, hi, it, ok = _collatz_loop(
            lambda v: scale * (rows @ v), np.divide, float, _TINY, _HUGE,
            v0, pin, tol, max_iter,
        )
    return np.log(v), lo, hi, it, ok


def log_power_iteration(rows, f_shifted, pin, tol, max_iter, w0):
    """Certified power iteration on w = log V, with log(A V) a row-wise
    log-sum-exp. Starts from w = w0. Returns (w, lo, hi, iterations, converged).
    """
    log_p = log_rows(rows)
    return _collatz_loop(
        lambda w: log_matvec(log_p, w) - f_shifted, np.subtract, math.exp, -_HUGE, _HUGE,
        np.asarray(w0, dtype=np.float64), pin, tol, max_iter,
    )


def mpe_power_iteration(rows, f_shifted, pin, tol, max_iter, w0=None):
    """Certified power iteration on A = e^{-f} P for a nonnegative shifted cost.

    ``rows`` is the passive kernel, ``f_shifted`` the cost minus its
    minimum (so e^{-f} lies in (0, 1]) and ``w0`` the log of a positive
    start vector (all ones by default). Runs in the linear domain and
    reruns from ``w0`` in log space when the linear domain cannot hold an
    iterate. The iterate is normalized to V(pin) = 1 at every step.

    Returns (w, lo, hi, iterations, converged) with w = log V and [lo, hi]
    the certified bracket on the dominant eigenvalue of A.
    """
    w0 = np.zeros(rows.shape[0]) if w0 is None else w0
    try:
        return linear_power_iteration(rows, f_shifted, pin, tol, max_iter, w0)
    except FloatingPointError:
        return log_power_iteration(rows, f_shifted, pin, tol, max_iter, w0)


def pick_from_cdf(cdf: np.ndarray, u: float) -> int:
    """Inverse-CDF draw; always lands on an index with positive mass."""
    n = cdf.shape[0]
    j = int(np.searchsorted(cdf, u, side="right"))  # smallest j with cdf[j] > u
    if j >= n:  # u fell in the rounding gap above cdf[-1]
        j = n - 1
        while j > 0 and cdf[j] <= cdf[j - 1]:
            j -= 1
    return j


def markov_path(cdf_rows, start, uniforms):
    """Walk a chain given per-row CDFs and pre-drawn uniforms.

    Returns the visited states as int64, length ``len(uniforms) + 1``,
    beginning with ``start``.
    """
    t_steps = uniforms.shape[0]
    states = np.empty(t_steps + 1, dtype=np.int64)
    x = int(start)
    states[0] = x
    for t in range(t_steps):
        x = pick_from_cdf(cdf_rows[x], uniforms[t])
        states[t + 1] = x
    return states
