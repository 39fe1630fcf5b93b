"""Twisted-kernel policies and their cost structure.

A policy here is a full transition kernel; its per-state control cost is
the KL divergence of each row against the passive row. The optimal policy
for a state cost f is the passive kernel reweighted by e^{-h_f} and
renormalized (the "twisted" kernel), which this module builds in log
space on the passive's nonzeros, so that it shares the passive's support
(and, unless an entry underflows to zero, its ``support_layout``).
``optimal_policy`` returns that kernel with the certified ``MpeSolution``
it came from attached as ``KlPolicy.solution``. A state cost is a float64
array over the states; ``steady_state_cost`` prices a policy under one
cost, or under each row of a stack of them, by one formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import _accel
from .chains import (
    FrozenArrays,
    StochasticMatrix,
    ergodicity_report,
    frozen_copy,
    invariant_distribution,
    span_seminorm,
    support_layout,
)
from .errors import DimensionMismatchError, NotErgodicError
from .spectral import MpeSolution, solve_mpe


@dataclass(frozen=True)
class KlPolicy(FrozenArrays):
    """A stationary policy with its per-state deviation price.

    ``control_cost[x]`` is D(kernel(x,.) || passive(x,.)); ``solution`` is
    the certified solve the policy came out of (``optimal_policy``), and
    None for a kernel twisted by a given function.
    """

    kernel: StochasticMatrix
    control_cost: np.ndarray
    solution: Optional[MpeSolution] = None

    def __post_init__(self):
        cc = frozen_copy(self.control_cost)
        object.__setattr__(self, "control_cost", cc)
        if cc.shape != (self.kernel.n,):
            raise DimensionMismatchError(
                f"control_cost has shape {cc.shape}, kernel has n={self.kernel.n}"
            )
        if np.any(cc < 0):
            raise ValueError("control costs must be nonnegative")

    @property
    def n(self) -> int:
        return self.kernel.n


@dataclass(frozen=True)
class BoundConstants:
    """Explicit constants entering the cost and value bounds.

    ``k0 = cost_cap + log(1/p_star)`` caps every realized state-action
    cost of a policy supported inside the passive support; ``k1`` bounds
    the span of any relative value function for costs below the cap.
    """

    k0: float
    k1: float
    alpha_passive: float
    p_star: float
    theta: float
    nbar: int


def rows_kl(a_rows: np.ndarray, b_rows: np.ndarray) -> np.ndarray:
    """Row-wise KL divergence between two kernels; +inf where the support
    of an a-row escapes the matching b-row."""
    a = np.asarray(a_rows, dtype=np.float64)
    b = np.asarray(b_rows, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"dimension mismatch: {a.shape} vs {b.shape}")
    row, col = np.nonzero(a > 0)
    return rows_kl_at(a[row, col], b[row, col], row, col, np.zeros(a.shape))


def rows_kl_at(a: np.ndarray, b: np.ndarray, row, col, out: np.ndarray) -> np.ndarray:
    """Row-wise KL divergence of kernels given by their entries at
    (``row``, ``col``): ``a`` and ``b`` hold those entries, one kernel
    per leading index, shape (..., m).

    The terms a log(a/b) are taken on those entries only (0 where a is
    not positive, +inf where a > 0 = b) and scattered into ``out``, a
    dense (..., n, n) buffer that is overwritten, so each row sums over
    its n columns in the order of a dense kernel's row sum.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(a > 0, a * np.log(a / np.where(b > 0, b, 1.0)), 0.0)
    terms[(a > 0) & (b == 0)] = math.inf
    out.fill(0.0)
    out[..., row, col] = terms
    # Gibbs: negative only by rounding, as for a one-entry row 1 - 2^-53
    return np.maximum(out.sum(axis=-1), 0.0)


def twisted_kernel(passive: StochasticMatrix, phi) -> KlPolicy:
    """Reweight each passive row by e^{-phi} and renormalize.

    Computed in log space on the passive's nonzeros; a constant phi is
    short-circuited to the passive kernel itself (the normalization
    provably cancels constants, and the shortcut keeps that identity
    exact). The support of every output row lies inside the support of the
    matching passive row, so the control cost is always finite; it is
    evaluated through the closed form -E_row[phi] - log(P e^{-phi}) rather
    than generic summation. The policy carries no ``solution``.
    """
    phi = np.asarray(phi, dtype=np.float64)
    if phi.shape != (passive.n,):
        raise DimensionMismatchError(f"phi has shape {phi.shape}, expected ({passive.n},)")
    if not np.all(np.isfinite(phi)):
        raise ValueError("twisting function must be finite")
    if span_seminorm(phi) == 0.0:
        return KlPolicy(kernel=passive, control_cost=np.zeros(passive.n))
    layout = support_layout(passive)
    log_p = np.log(passive.rows[layout.row, layout.col])
    log_z = _accel.logsumexp_rows(layout, log_p, -phi)
    kernel = StochasticMatrix.on_layout(layout, np.exp(log_p - phi[layout.col] - log_z[layout.row]))
    control = np.maximum(-(kernel.rows @ phi) - log_z, 0.0)
    return KlPolicy(kernel=kernel, control_cost=control)


def twisted_pair_kl(passive: StochasticMatrix, phi_a, phi_b) -> np.ndarray:
    """Per-state KL divergence between the two twisted kernels of passive.

    Uses the closed form E_a[phi_b - phi_a] + log(Z_b/Z_a), which stays
    well conditioned for large twisting functions; generic row-by-row
    summation over the kernels agrees and serves as a cross-check in
    tests.
    """
    phi_a = np.asarray(phi_a, dtype=np.float64)
    pa = twisted_kernel(passive, phi_a)
    phi_b = np.asarray(phi_b, dtype=np.float64)
    if phi_b.shape != (passive.n,):
        raise DimensionMismatchError(f"phi_b has shape {phi_b.shape}, expected ({passive.n},)")
    layout = support_layout(passive)
    log_p = np.log(passive.rows[layout.row, layout.col])
    log_za = _accel.logsumexp_rows(layout, log_p, -phi_a)
    log_zb = _accel.logsumexp_rows(layout, log_p, -phi_b)
    diff = pa.kernel.rows @ (phi_b - phi_a)
    return np.maximum(diff + log_zb - log_za, 0.0)


def steady_state_cost(f: np.ndarray, policy: KlPolicy) -> np.ndarray | float:
    """J_P(f): the expected state-action cost under the policy's invariant
    distribution pi, for a cost f of shape (n,), or one J per row of f for
    a (T, n) stack of costs. The state part is f @ pi and the control part
    pi @ control_cost, both over the support of pi."""
    f = np.asarray(f, dtype=np.float64)
    if f.shape[-1:] != (policy.n,):
        raise DimensionMismatchError(f"cost has shape {f.shape}, policy has n={policy.n}")
    pi = invariant_distribution(policy.kernel)
    support = pi > 0
    return f[..., support] @ pi[support] + pi[support] @ policy.control_cost[support]


def optimal_policy(
    passive: StochasticMatrix,
    f: np.ndarray,
    start: Optional[np.ndarray] = None,
) -> KlPolicy:
    """Solve the eigenproblem for f, from the relative value function
    ``start`` when given (see ``solve_mpe``), and twist the passive kernel
    by its relative value function h, attaching the solution. The solve
    runs for a constant cost too, so its certificate is exercised
    uniformly; its h is then exactly 0 and the policy is the passive."""
    sol = solve_mpe(passive, f, start=start)
    return replace(twisted_kernel(passive, sol.h), solution=sol)


def bound_constants(passive: StochasticMatrix, cost_cap: float = 1.0) -> BoundConstants:
    """Constants for the uniform cost/value bounds under the passive kernel.

    ``p_star`` is the smallest nonzero transition probability (zeros are
    excluded: transitions forbidden by the passive dynamics never carry
    mass under any finite-cost policy).
    """
    if cost_cap < 0:
        raise ValueError(f"cost_cap must be nonnegative, got {cost_cap}")
    report = ergodicity_report(passive)
    if not report.ergodic:
        raise NotErgodicError(
            "bound constants need an irreducible aperiodic passive kernel "
            f"(irreducible={report.irreducible}, aperiodic={report.aperiodic})"
        )
    alpha = report.dobrushin
    if not alpha < 1.0:
        raise NotErgodicError(f"Dobrushin coefficient must be < 1, got {alpha}")
    layout = support_layout(passive)
    p_star = float(passive.rows[layout.row, layout.col].min())
    return BoundConstants(
        k0=cost_cap + math.log(1.0 / p_star),
        k1=math.log(1.0 / report.theta) + report.nbar * cost_cap,
        alpha_passive=alpha,
        p_star=p_star,
        theta=report.theta,
        nbar=report.nbar,
    )
