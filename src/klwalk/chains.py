"""Finite-state Markov chain primitives.

Validated containers for row-stochastic kernels and nonnegative state
costs, plus the quantities the rest of the library is built on: total
variation, KL divergence, span seminorm, the Dobrushin ergodicity
coefficient, ergodicity diagnostics and invariant distributions.

The standing assumption of the solver, an irreducible and aperiodic
passive kernel, is a property of the kernel's positive pattern alone:
``graph_verdict`` reads it from the strongly connected components and
their periods, in time linear in the nonzeros. ``ergodicity_report`` adds
the costlier quantities (the Dobrushin coefficient, ``nbar`` and
``theta``), which only the bound constants need.

Uniqueness of the invariant distribution is a pattern property too: a
kernel is unichain exactly when its pattern has one closed communicating
class. Given that, ``invariant_distribution`` certifies the law with one
sparse LU solve of the stationarity system, held to a residual bound; it
is the library's only stationarity solve. A kernel's nonzeros are found
once, as its ``support_layout``; its ``draw_table`` is derived from it.
What depends on the pattern alone is memoized on the layout, which every
kernel built on a pattern with ``StochasticMatrix.on_layout`` shares: the
strongly connected components, the ergodicity verdict, the closed-class
count and the sparsity of the phase solver's shifted matrix
sigma I - e^{-f} P, in the column order SuperLU factors it in
(``_SupportLayout.shifted_pattern``).

All containers are immutable after construction (the backing arrays are
marked read-only), so they can be shared freely across threads. Next
states are drawn by ``_accel.markov_paths`` from a kernel's memoized
``draw_table``, with uniforms from the caller's ``numpy.random.Generator``;
there is no hidden global randomness.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.sparse import csc_matrix, csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path
from scipy.sparse.linalg import splu

from ._accel import draw_bounds
from .errors import DimensionMismatchError, NotUnichainError

ROW_SUM_TOL = 1e-9
INVARIANT_RESIDUAL_TOL = 1e-10


def frozen_copy(values, dtype=np.float64) -> np.ndarray:
    """A read-only copy of ``values``; the caller's own array stays writeable."""
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _freeze(value):
    """Mark ``value`` read-only when it is an array, or each array of it
    when it is a tuple (as memos are); returns ``value``."""
    for arr in value if isinstance(value, tuple) else (value,):
        if isinstance(arr, np.ndarray):
            arr.setflags(write=False)
    return value


def memoized(build):
    """Decorator: ``build(P)`` runs once per (immutable) object and is kept
    on it under ``key``, so pickle carries it along. The arrays it returns,
    alone or in a tuple, are marked read-only as they are stored."""
    key = f"_{build.__name__}_memo"

    @functools.wraps(build)
    def memo(P):
        if key not in P.__dict__:
            P.__dict__[key] = _freeze(build(P))
        return P.__dict__[key]

    memo.key = key
    return memo


class FrozenArrays:
    """Base of the frozen containers whose arrays are ``frozen_copy``s.

    Pickle restores numpy arrays writeable, so a container coming back
    from a worker process or from ``copy`` marks its arrays, and those of
    its memos, read-only again as it is restored.
    """

    def __setstate__(self, state):
        for name, value in state.items():
            object.__setattr__(self, name, _freeze(value))


def _vec(x) -> np.ndarray:
    """An array-like of numbers as a float64 array."""
    return np.asarray(x, dtype=np.float64)


def check_stochastic_rows(rows: np.ndarray) -> None:
    """Raise ValueError unless the kernel rows, one kernel (n, n) or a
    stack (..., n, n), hold nonnegative numbers and each row sums to 1
    within ``ROW_SUM_TOL``."""
    if not np.all(rows >= 0):  # also false for NaN
        raise ValueError("kernel entries must be nonnegative numbers")
    sums = rows.sum(axis=-1)
    bad = np.flatnonzero(np.abs(sums - 1.0) > ROW_SUM_TOL)
    if bad.size:
        x = int(bad[0]) % rows.shape[-2]
        raise ValueError(f"row {x} sums to {sums.flat[bad[0]]!r}, expected 1 (not renormalizing)")


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
        check_stochastic_rows(rows)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def on_layout(cls, layout: "_SupportLayout", entries: np.ndarray) -> "StochasticMatrix":
        """The kernel with ``entries`` (m,) at ``layout``'s nonzeros; when they
        are all positive, ``layout`` is the kernel's own ``support_layout``."""
        kernel = cls(layout.dense(entries, np.empty((layout.n, layout.n))))
        if entries.min() > 0:
            kernel.__dict__[support_layout.key] = layout
        return kernel

    @property
    def n(self) -> int:
        return self.rows.shape[0]


@dataclass(frozen=True)
class CostFunction(FrozenArrays):
    """A nonnegative per-state cost vector."""

    values: np.ndarray

    def __post_init__(self):
        v = frozen_copy(self.values)
        object.__setattr__(self, "values", v)
        if v.ndim != 1:
            raise ValueError(f"values must be one-dimensional, got shape {v.shape}")
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


def _scc_labels(layout: "_SupportLayout") -> tuple[int, np.ndarray]:
    n_comp, labels = connected_components(layout.graph(), directed=True, connection="strong")
    return int(n_comp), labels


def _component_periods(layout: "_SupportLayout", n_comp: int, labels: np.ndarray) -> np.ndarray:
    """gcd of cycle lengths inside each strongly connected component.

    Levels are BFS hop distances from one root per component, over the
    edges inside components only (a super-root linked to every root gives
    them all in one search). An edge u -> v inside a component then closes
    cycles whose lengths differ by level[u] + 1 - level[v], and the gcd of
    those differences over the component's edges is its period. A
    component without an inner edge (a transient singleton) gets 0, which
    by convention fails aperiodicity.
    """
    n = layout.n
    inner = labels[layout.row] == labels[layout.col]
    src, dst = layout.row[inner], layout.col[inner]
    roots = np.unique(labels, return_index=True)[1]
    links = np.ones(src.size + n_comp, dtype=np.int8)
    rooted = csr_matrix(
        (links, (np.concatenate([src, np.full(n_comp, n)]), np.concatenate([dst, roots]))),
        shape=(n + 1, n + 1),
    )
    level = shortest_path(rooted, method="D", unweighted=True, indices=n)[:n].astype(np.int64)
    periods = np.zeros(n_comp, dtype=np.int64)
    np.gcd.at(periods, labels[src], level[src] + 1 - level[dst])
    return periods


def graph_verdict(P: StochasticMatrix) -> tuple[bool, bool]:
    """``(irreducible, aperiodic)`` for the positive pattern of P.

    Irreducible when the pattern is one strongly connected component,
    aperiodic when every component has period 1; both together make P
    primitive, which is the solver's standing assumption. Memoized on P's
    support layout, which every kernel with P's pattern built on it shares.
    """
    return support_layout(P).verdict()


def has_single_closed_class(P: StochasticMatrix) -> bool:
    """Whether the positive pattern of P has exactly one closed
    communicating class.

    This is a property of the pattern alone, so every kernel with the same
    positive pattern is unichain too: it has one invariant distribution.
    """
    return support_layout(P).closed_classes() == 1


@memoized
def ergodicity_report(P: StochasticMatrix) -> ErgodicityReport:
    """Irreducibility, aperiodicity, Dobrushin coefficient and, when the
    kernel is ergodic, the smallest all-positive power and its minimum entry.

    The first two come from ``graph_verdict``; the rest costs O(n^3) per
    reachability product, so callers that only need the verdict should ask
    ``graph_verdict``. The power search is capped at the Wielandt
    primitivity bound n^2 - 2n + 2, which a primitive kernel never
    exceeds. The result is memoized on the (immutable) kernel.
    """
    rows = P.rows
    n = P.n
    irreducible, aperiodic = graph_verdict(P)
    alpha = dobrushin_coefficient(P)
    if not (irreducible and aperiodic):
        return ErgodicityReport(irreducible, aperiodic, alpha)

    wielandt = n * n - 2 * n + 2
    # 0/1 float64 products go through BLAS; their path counts are at most
    # n before thresholding, so they are exact (a uint8 product wraps at 256)
    step = (rows > 0).astype(np.float64)
    reach = step
    nbar = 1
    while not reach.all():
        if nbar >= wielandt:
            return ErgodicityReport(irreducible, aperiodic, alpha)
        reach = ((reach @ step) > 0).astype(np.float64)
        nbar += 1
    theta = float(np.linalg.matrix_power(rows, nbar).min())
    return ErgodicityReport(irreducible, aperiodic, alpha, nbar=nbar, theta=theta)


def invariant_distribution(P: StochasticMatrix) -> np.ndarray:
    """The unique pi with pi P = pi, as a read-only float64 vector (n,):
    nonnegative and summing to 1.

    Uniqueness comes from the pattern: P must have a single closed class.
    The law is then the solution of the square stationarity system, P^T - I
    with its last row replaced by ones (nonsingular exactly for unichain
    kernels), by one sparse LU solve (SuperLU, which runs on one thread).
    The solution is certified by bounds: finite, fixed-point residual at
    most ``INVARIANT_RESIDUAL_TOL``, no entry below -1e-12. The bounds
    alone do not prove uniqueness (rounding can turn a singular system
    into a solvable one whose solution is one of many stationary laws),
    which is why the pattern is checked first.

    Raises NotUnichainError when the pattern has more than one closed
    class, or when the solve misses the bounds (a singular system is
    reported as residual nan).
    """
    if not has_single_closed_class(P):
        raise NotUnichainError("kernel has more than one closed class: it is not unichain")
    system = P.rows.T - np.eye(P.n)
    system[-1] = 1.0
    rhs = np.zeros(P.n)
    rhs[-1] = 1.0
    try:
        pi = splu(csc_matrix(system)).solve(rhs)
    except RuntimeError:  # SuperLU: the factor is exactly singular
        pi = np.full(P.n, np.nan)
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite pi fails the bounds below
        residual = float(np.abs(pi @ P.rows - pi).sum())
    if not (np.isfinite(pi).all() and residual <= INVARIANT_RESIDUAL_TOL and pi.min() >= -1e-12):
        raise NotUnichainError(
            f"no reliable invariant distribution (fixed-point residual {residual:.3e})"
        )
    pi = np.clip(pi, 0.0, None)
    return frozen_copy(pi / pi.sum())


class _SupportLayout(FrozenArrays):
    """Where a support pattern's entries sit: entry i of the row-major
    list of the pattern's nonzeros is column ``col[i]`` of row ``row[i]``
    and the ``slot[i]``-th entry of that row; ``width`` is the widest row
    support, and ``columns[x, s]`` is the column of slot s of row x (all
    read-only)."""

    def __init__(self, pattern: np.ndarray):
        self.n = pattern.shape[0]
        self.row, self.col = np.nonzero(pattern)
        self.slot = np.arange(self.row.size) - self.indptr()[self.row]
        self.width = int(self.slot.max()) + 1
        self.columns = np.zeros((self.n, self.width), dtype=np.intp)
        self.columns[self.row, self.slot] = self.col
        for arr in (self.row, self.col, self.slot, self.columns):
            arr.setflags(write=False)

    def indptr(self) -> np.ndarray:
        """The CSR row pointer: where each row's entries start, then m."""
        return np.searchsorted(self.row, np.arange(self.n + 1))

    @memoized
    def shifted_pattern(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(row, col, indptr, diag, order)``: the sparsity of sigma I - A
        for A = e^{-f} P, whatever f and sigma (the pattern's nonzeros and
        the whole diagonal), as the CSC pattern of (sigma I - A)[:, order].

        ``order`` is the column order SuperLU factors sigma I - A in: its
        COLAMD ordering followed by its elimination-tree postorder, both
        properties of the pattern alone, read once from a factorization of
        a nonsingular probe on it (diagonal n + 1, off-diagonal -1, strictly
        diagonally dominant). Column j of the CSC pattern is column
        ``order[j]`` of sigma I - A; stored entry i sits in row ``row[i]``
        and column ``col[i]`` of sigma I - A (rows ascending within each
        column), ``indptr`` is the column pointer and ``diag`` where the
        diagonal entries sit; ``row`` and ``indptr`` are C ints, SuperLU's
        index type. A solve of the permuted matrix, z', gives
        z[order] = z'. Memoized on the layout."""
        n = self.n
        keys = np.union1d(self.col * n + self.row, np.arange(n) * (n + 1))
        col, row = np.divmod(keys, n)
        indptr = np.searchsorted(col, np.arange(n + 1))
        probe = csc_matrix((np.where(row == col, n + 1.0, -1.0), row, indptr), shape=(n, n))
        position = splu(probe).perm_c.astype(np.intp)  # where SuperLU puts each column
        take = np.argsort(position[col] * n + row)  # column-major over the permuted columns
        row, col = row[take], col[take]
        indptr = np.searchsorted(position[col], np.arange(n + 1))
        diag = np.flatnonzero(row == col)
        # SuperLU's index type, so that no factorization copies them
        return row.astype(np.intc), col, indptr.astype(np.intc), diag, np.argsort(position)

    @memoized
    def components(self) -> tuple[int, np.ndarray]:
        """The pattern's strongly connected components: their count and
        each state's label, memoized on the layout, so a pattern is
        labelled once whichever structural question is asked first."""
        return _scc_labels(self)

    @memoized
    def verdict(self) -> tuple[bool, bool]:
        """``graph_verdict`` of the pattern, memoized on the layout."""
        n_comp, labels = self.components()
        return n_comp == 1, bool(np.all(_component_periods(self, n_comp, labels) == 1))

    @memoized
    def closed_classes(self) -> int:
        """How many communicating classes of the pattern no edge leaves,
        memoized on the layout."""
        n_comp, labels = self.components()
        leaving = labels[self.row] != labels[self.col]
        return n_comp - np.unique(labels[self.row[leaving]]).size

    def graph(self) -> csr_matrix:
        """The pattern as a sparse 0/1 graph."""
        ones = np.ones(self.row.size, np.int8)
        return csr_matrix((ones, self.col, self.indptr()), shape=(self.n, self.n))

    def slots(self, weights: np.ndarray) -> np.ndarray:
        """Stacked entries (K, m) as zero-padded per-row slots (K, n, width)."""
        out = np.zeros((weights.shape[0], self.n, self.width))
        out[:, self.row, self.slot] = weights
        return out

    def dense(self, weights: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write stacked entries (..., m) into ``out`` as dense kernels (..., n, n)."""
        out.fill(0.0)
        out[..., self.row, self.col] = weights
        return out

    def draw(self, rng: np.random.Generator, kernels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Fill the stacked ``kernels`` with rows that are flat Dirichlet
        draws over the pattern's row supports; return their entries (K, m)
        and a mask of the kernels whose positive pattern is the pattern.

        Bit for bit the rows of ``rng.dirichlet(np.ones(k))`` called row by
        row: numpy's alpha = 1 Dirichlet takes k standard exponentials, sums
        them left to right and multiplies each by the reciprocal of the sum.
        """
        count = kernels.shape[0]
        slots = self.slots(rng.standard_exponential(count * self.row.size).reshape(count, -1))
        total = slots[:, :, 0].copy()
        for j in range(1, self.width):  # padding zeros leave the sum exact
            total += slots[:, :, j]
        slots *= (1.0 / total)[:, :, np.newaxis]
        weights = slots[:, self.row, self.slot]
        self.dense(weights, kernels)
        return weights, (weights > 0).all(axis=1)


@memoized
def support_layout(P: StochasticMatrix) -> _SupportLayout:
    """Where P's nonzeros sit, found once per kernel (or handed over by
    ``StochasticMatrix.on_layout``)."""
    return _SupportLayout(P.rows > 0)


@memoized
def draw_table(P: StochasticMatrix) -> tuple[np.ndarray, np.ndarray]:
    """``(bounds, columns)`` of P for ``_accel.markov_path``: row x's
    support in column order is ``columns[x]``, and ``bounds[x]`` its
    ``draw_bounds``, equal to the dense row's CDF at those columns bit for
    bit. Read-only, and memoized on the (immutable) kernel."""
    layout = support_layout(P)
    bounds = draw_bounds(layout.slots(P.rows[None, layout.row, layout.col]))[0]
    return frozen_copy(bounds), layout.columns
