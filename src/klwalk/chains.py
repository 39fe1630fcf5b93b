"""Finite-state Markov chain primitives.

Validated containers for distributions, row-stochastic kernels and
nonnegative state costs, plus the quantities the rest of the library is
built on: total variation, KL divergence, span seminorm, the Dobrushin
ergodicity coefficient, ergodicity diagnostics and invariant
distributions.

All containers are immutable after construction (the backing arrays are
marked read-only), so they can be shared freely across threads. Sampling
takes an explicit ``numpy.random.Generator`` owned by the caller; there
is no hidden global randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from ._accel import pick_from_cdf
from .errors import DimensionMismatchError, NotUnichainError

ROW_SUM_TOL = 1e-9
INVARIANT_RESIDUAL_TOL = 1e-10


def frozen_copy(values, dtype=np.float64) -> np.ndarray:
    """A read-only copy of ``values``; the caller's own array stays writeable."""
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


class FrozenArrays:
    """Base of the frozen containers whose arrays are ``frozen_copy``s.

    Pickle restores numpy arrays writeable, so a container coming back
    from a worker process or from ``copy`` marks its arrays read-only
    again as it is restored.
    """

    def __setstate__(self, state):
        for name, value in state.items():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)


def _frozen_array(values, name: str) -> np.ndarray:
    arr = frozen_copy(values)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


def _vec(x) -> np.ndarray:
    """Accept a Distribution/CostFunction or a raw array-like."""
    if isinstance(x, (Distribution, CostFunction)):
        return x.values if isinstance(x, CostFunction) else x.weights
    return np.asarray(x, dtype=np.float64)


@dataclass(frozen=True)
class StateSpace:
    """A finite set of states, optionally labelled."""

    n: int
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"state space needs at least one state, got n={self.n}")
        if self.labels is not None:
            labels = tuple(self.labels)
            object.__setattr__(self, "labels", labels)
            if len(labels) != self.n:
                raise ValueError(f"expected {self.n} labels, got {len(labels)}")
            if len(set(labels)) != len(labels):
                raise ValueError("state labels must be unique")


@dataclass(frozen=True)
class Distribution(FrozenArrays):
    """A probability mass vector over a finite state space."""

    weights: np.ndarray

    def __post_init__(self):
        w = _frozen_array(self.weights, "weights")
        object.__setattr__(self, "weights", w)
        if w.size < 1:
            raise ValueError("distribution over an empty state space")
        if not np.all(w >= 0):  # also false for NaN
            raise ValueError("distribution weights must be nonnegative numbers")
        total = float(w.sum())
        if abs(total - 1.0) > ROW_SUM_TOL:
            raise ValueError(f"distribution weights sum to {total!r}, expected 1")

    @property
    def n(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class StochasticMatrix(FrozenArrays):
    """A row-stochastic transition kernel; row x is the law of the next state."""

    rows: np.ndarray

    def __post_init__(self):
        rows = frozen_copy(self.rows)
        if rows.ndim != 2 or rows.shape[0] != rows.shape[1]:
            raise ValueError(f"kernel must be square, got shape {rows.shape}")
        if rows.shape[0] < 1:
            raise ValueError("kernel over an empty state space")
        if not np.all(rows >= 0):  # also false for NaN
            raise ValueError("kernel entries must be nonnegative numbers")
        sums = rows.sum(axis=1)
        bad = np.where(np.abs(sums - 1.0) > ROW_SUM_TOL)[0]
        if bad.size:
            x = int(bad[0])
            raise ValueError(f"row {x} sums to {sums[x]!r}, expected 1 (not renormalizing)")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def renormalized(cls, rows) -> "StochasticMatrix":
        """Explicitly rescale each row to sum to one (never done silently)."""
        raw = np.asarray(rows, dtype=np.float64)
        sums = raw.sum(axis=1, keepdims=True)
        if np.any(sums <= 0):
            raise ValueError("cannot renormalize a row with nonpositive total mass")
        return cls(raw / sums)

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    def row(self, x: int) -> np.ndarray:
        return self.rows[x]


@dataclass(frozen=True)
class CostFunction(FrozenArrays):
    """A nonnegative per-state cost vector."""

    values: np.ndarray

    def __post_init__(self):
        v = _frozen_array(self.values, "values")
        object.__setattr__(self, "values", v)
        if v.size < 1:
            raise ValueError("cost function over an empty state space")
        if not np.all(np.isfinite(v)):
            raise ValueError("cost values must be finite")
        if np.any(v < 0):
            raise ValueError("cost values must be nonnegative")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def max(self) -> float:
        return float(self.values.max())


@dataclass(frozen=True)
class ErgodicityReport:
    """Diagnostics for the standing assumptions on a transition kernel.

    ``nbar`` is the smallest power with all entries positive and ``theta``
    the minimum entry of that power; both are present exactly when the
    kernel is irreducible and aperiodic.
    """

    irreducible: bool
    aperiodic: bool
    dobrushin: float
    nbar: Optional[int] = None
    theta: Optional[float] = None

    @property
    def ergodic(self) -> bool:
        return self.irreducible and self.aperiodic


def _check_same_dim(p: np.ndarray, q: np.ndarray):
    if p.shape != q.shape:
        raise DimensionMismatchError(f"dimension mismatch: {p.shape} vs {q.shape}")


def total_variation(mu, nu) -> float:
    """L1 distance between two distributions, in [0, 2]."""
    p, q = _vec(mu), _vec(nu)
    _check_same_dim(p, q)
    return float(np.abs(p - q).sum())


def kl_divergence(mu, nu) -> float:
    """Relative entropy D(mu || nu) in nats; +inf when supp(mu) escapes supp(nu).

    Uses the conventions 0 log 0 = 0 and 0 log (0/0) = 0, so states with
    zero mass under mu never contribute.
    """
    p, q = _vec(mu), _vec(nu)
    _check_same_dim(p, q)
    mask = p > 0
    if np.any(q[mask] == 0):
        return math.inf
    kl = float(np.sum(p[mask] * (np.log(p[mask]) - np.log(q[mask]))))
    return max(kl, 0.0)  # Gibbs: negative only by rounding, for nearly equal laws


def span_seminorm(f) -> float:
    """max f - min f; zero exactly on constants, invariant under shifts."""
    v = _vec(f)
    if v.size == 0:
        raise ValueError("span seminorm of an empty vector")
    return float(v.max() - v.min())


def dobrushin_coefficient(P: StochasticMatrix) -> float:
    """Half the largest L1 distance between two rows of P; in [0, 1]."""
    rows = P.rows
    worst = 0.0
    for x in range(P.n):  # row-by-row keeps memory at O(n^2) for large chains
        d = np.abs(rows - rows[x]).sum(axis=1).max()
        if d > worst:
            worst = float(d)
    return 0.5 * worst


def _scc_labels(pattern: np.ndarray) -> tuple[int, np.ndarray]:
    graph = csr_matrix(pattern.astype(np.int8))
    n_comp, labels = connected_components(graph, directed=True, connection="strong")
    return int(n_comp), labels


def _component_period(pattern: np.ndarray, members: np.ndarray) -> int:
    """gcd of cycle lengths inside one strongly connected component.

    Returns 0 when the component carries no cycle at all (a transient
    singleton), which by convention fails aperiodicity.
    """
    if members.size == 1:
        x = int(members[0])
        return 1 if pattern[x, x] else 0
    inside = np.zeros(pattern.shape[0], dtype=bool)
    inside[members] = True
    src = int(members[0])
    level = {src: 0}
    frontier = [src]
    g = 0
    while frontier:
        nxt = []
        for u in frontier:
            for v in np.nonzero(pattern[u])[0]:
                v = int(v)
                if not inside[v]:
                    continue
                if v in level:
                    g = math.gcd(g, level[u] + 1 - level[v])
                else:
                    level[v] = level[u] + 1
                    nxt.append(v)
        frontier = nxt
    return abs(g)


def has_single_closed_class(P: StochasticMatrix) -> bool:
    """Whether the positive pattern of P has exactly one closed
    communicating class.

    This is a property of the pattern alone, so every kernel with the same
    positive pattern is unichain too: it has one invariant distribution.
    """
    pattern = P.rows > 0
    n_comp, labels = _scc_labels(pattern)
    src, dst = np.nonzero(pattern)
    leaving = labels[src] != labels[dst]
    open_classes = np.unique(labels[src[leaving]])
    return n_comp - open_classes.size == 1


def ergodicity_report(P: StochasticMatrix) -> ErgodicityReport:
    """Irreducibility, aperiodicity, Dobrushin coefficient and, when the
    kernel is ergodic, the smallest all-positive power and its minimum entry.

    The power search is capped at the Wielandt primitivity bound
    n^2 - 2n + 2; a kernel that exceeds the cap without turning positive is
    reported as non-ergodic. The result is memoized on the (immutable)
    kernel, since the online loop re-solves against one fixed passive.
    """
    cached = getattr(P, "_ergodicity_cache", None)
    if cached is not None:
        return cached
    report = _ergodicity_report_uncached(P)
    object.__setattr__(P, "_ergodicity_cache", report)
    return report


def _ergodicity_report_uncached(P: StochasticMatrix) -> ErgodicityReport:
    rows = P.rows
    n = P.n
    pattern = rows > 0
    n_comp, labels = _scc_labels(pattern)
    irreducible = n_comp == 1
    aperiodic = True
    for comp in range(n_comp):
        members = np.nonzero(labels == comp)[0]
        if _component_period(pattern, members) != 1:
            aperiodic = False
            break
    alpha = dobrushin_coefficient(P)
    if not (irreducible and aperiodic):
        return ErgodicityReport(irreducible, aperiodic, alpha)

    wielandt = n * n - 2 * n + 2
    # 0/1 float64 products go through BLAS; their path counts are at most
    # n before thresholding, so they are exact (a uint8 product wraps at 256)
    step = pattern.astype(np.float64)
    reach = step
    nbar = 1
    while not reach.all():
        if nbar >= wielandt:
            return ErgodicityReport(irreducible, aperiodic, alpha)
        reach = ((reach @ step) > 0).astype(np.float64)
        nbar += 1
    theta = float(np.linalg.matrix_power(rows, nbar).min())
    return ErgodicityReport(irreducible, aperiodic, alpha, nbar=nbar, theta=theta)


def invariant_distribution(P: StochasticMatrix) -> Distribution:
    """The unique pi with pi P = pi, by a direct solve of the stationarity
    system stacked with the normalization constraint.

    Raises NotUnichainError when the system is rank-deficient (multiple
    recurrent classes) or the fixed-point residual exceeds 1e-10.
    """
    rows = P.rows
    n = P.n
    system = np.vstack([rows.T - np.eye(n), np.ones((1, n))])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    pi, _, rank, _ = np.linalg.lstsq(system, rhs, rcond=None)
    if rank < n:
        raise NotUnichainError("stationarity system is rank-deficient: kernel is not unichain")
    residual = float(np.abs(pi @ rows - pi).sum())
    if not np.all(np.isfinite(pi)) or residual > INVARIANT_RESIDUAL_TOL or pi.min() < -1e-12:
        raise NotUnichainError(
            f"no reliable invariant distribution (fixed-point residual {residual:.3e})"
        )
    pi = np.clip(pi, 0.0, None)
    return Distribution(pi / pi.sum())


def sample_next(P: StochasticMatrix, x: int, rng: np.random.Generator) -> int:
    """Draw the next state from row x by inverse-CDF sampling.

    Deterministic given the generator state; the returned index always has
    positive probability under row x.
    """
    if not 0 <= x < P.n:
        raise IndexError(f"state index {x} out of range for n={P.n}")
    cdf = np.cumsum(P.rows[x])
    return pick_from_cdf(cdf, rng.random())
