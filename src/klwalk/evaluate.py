"""Regret computation, baselines and Monte-Carlo replication.

A run's state costs are one read-only (T, n) array, row t being f_t,
fixed before the episode by ``TrackingEnv.stream``; the episode and both
comparators read that same array. Two comparators are supported: the
best stationary policy in hindsight (solved against the average row,
charged at its steady state) and the best of a pool of randomly sampled
stationary policies (charged at its realized cost on the same rows).
Each run is one job that owns its seeds: it plays the episode, bills the
hindsight comparator and races the pool, which a worker draws once from
the base seed (``ExperimentSpec.pool``). Summaries are reduced in run
order, so results are reproducible bit for bit for any worker count.

The hindsight comparator's steady state comes from
``chains.invariant_distribution``. The pool needs no steady state: a
draw with the passive's positive pattern is unichain by structure, so
the sampler accepts it without a stationarity solve. The pool is kept
stacked over the passive's nonzeros (``PolicyPool``, a frozen record of
arrays): it is drawn, checked and priced in blocks, holds every row's
inverse-CDF bounds once for all runs, and is raced in blocks of walks
stepped together by ``_accel.markov_paths``, the walker that also moves
the agent and the target. The race returns the winner's pool index; no
pooled policy is ever built as a dense ``KlPolicy``.

``ExperimentSpec`` describes the whole replicated experiment, from the
graph to the run count, pool size and base seed; the CLI's JSON config
is read into one, and ``run_experiment`` takes everything from it.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import _accel
from .chains import (
    CostFunction,
    FrozenArrays,
    StochasticMatrix,
    _SupportLayout,
    check_stochastic_rows,
    frozen_copy,
    has_single_closed_class,
    invariant_distribution,
    memoized,
    support_layout,
)
from .errors import DimensionMismatchError, NotUnichainError
from .online import RunTrace, _cost_matrix, run_episode
from .policy import KlPolicy, optimal_policy, rows_kl_at
from .world import Graph, build_passive, grid_graph, make_tracking_env

_MASK64 = (1 << 64) - 1
_SPLIT_GAMMA = 0x9E3779B97F4A7C15  # splitmix64 increment
_POOL_STREAM = 0x706F6F6C
_POOL_SIM_STREAM = 0x73696D
_POOL_BLOCK = 8  # policies drawn and priced together; larger blocks raise peak memory
_RACE_BLOCK = 64  # policies walked together in the pool race


def split_seed(base_seed: int, index: int) -> int:
    """Derive the index-th child seed from a base seed (splitmix64 mix).

    Children are statistically independent yet fully reproducible, so
    replications can run in any order or in parallel.
    """
    z = (base_seed + (index + 1) * _SPLIT_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def steady_state_comparator_cost(policy: KlPolicy, costs: np.ndarray) -> np.ndarray:
    """Prefix sums of the policy's steady-state cost under each row f_t of
    the (T, n) cost array."""
    fmat = _cost_matrix(costs, policy.n)
    pi = invariant_distribution(policy.kernel)
    support = pi > 0
    control = float(pi[support] @ policy.control_cost[support])
    per_step = fmat[:, support] @ pi[support] + control
    return np.cumsum(per_step)


def realized_expected_comparator_cost(
    policy: KlPolicy, costs: np.ndarray, start: int
) -> np.ndarray:
    """Prefix sums of the policy's expected cost on the (T, n) cost array,
    with the state law propagated exactly from a point mass at ``start``."""
    n = policy.n
    fmat = _cost_matrix(costs, n)
    if not 0 <= start < n:
        raise IndexError(f"start state {start} out of range for n={n}")
    nu = np.zeros(n)
    nu[start] = 1.0
    out = np.empty(fmat.shape[0])
    for t in range(fmat.shape[0]):
        out[t] = nu @ (fmat[t] + policy.control_cost)
        nu = nu @ policy.kernel.rows
    return np.cumsum(out)


def best_in_hindsight(passive: StochasticMatrix, costs: np.ndarray) -> KlPolicy:
    """The twisted-kernel policy solved against the average row of the
    (T, n) cost array; the steady-state optimum over all stationary
    unichain policies."""
    fmat = _cost_matrix(costs, passive.n)
    return optimal_policy(passive, CostFunction(fmat.mean(axis=0)))


@dataclass(frozen=True)
class PolicyPool(FrozenArrays):
    """Stationary policies stacked over one support pattern.

    ``weights[i]`` holds policy i's transition probabilities at the
    pattern's m nonzeros in row-major order, shape (K, m), and
    ``control_cost[i]`` its per-state control cost, shape (K, n).
    ``bounds`` holds every row's inverse-CDF bounds over its slots,
    shape (K, n, W), derived on construction (see ``_accel.draw_bounds``),
    so races on many cost sequences share them. The arrays are read-only,
    and stay so across pickle.
    """

    layout: _SupportLayout
    weights: np.ndarray
    control_cost: np.ndarray
    bounds: np.ndarray = field(init=False)

    def __post_init__(self):
        weights = frozen_copy(self.weights)
        control_cost = frozen_copy(self.control_cost)
        if weights.ndim != 2 or weights.shape[1] != self.layout.row.size or (
            control_cost.shape != (weights.shape[0], self.layout.n)
        ):
            raise DimensionMismatchError(
                f"weights {weights.shape} and control costs {control_cost.shape} do not fit "
                f"{self.layout.row.size} entries over {self.layout.n} states"
            )
        bounds = _accel.draw_bounds(self.layout.slots(weights))
        bounds.setflags(write=False)
        for name, value in (("weights", weights), ("control_cost", control_cost),
                            ("bounds", bounds)):
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.layout.n

    def __len__(self) -> int:
        return self.weights.shape[0]


def sample_policy_pool(passive: StochasticMatrix, pool_size: int, seed: int) -> PolicyPool:
    """Random stationary policies supported inside the passive support.

    Rows are flat Dirichlet draws over the support of the matching passive
    row, so the control cost is finite by construction; draws without a
    unique invariant distribution are rejected and resampled. The pool is
    stacked over the passive's nonzeros (``PolicyPool``).

    Policies are drawn in blocks of ``_POOL_BLOCK`` from one stream of
    standard exponentials, which gives bit for bit the draws of one
    ``rng.dirichlet`` call per row, so the pool does not depend on the
    block size. Each block is checked to be row-stochastic and priced at
    once: its KL terms are taken on the nonzeros and summed over dense
    rows, bit for bit ``rows_kl``. The passive is checked once to have a
    single closed class; a kernel is unichain exactly when its positive
    pattern has one (Kemeny and Snell), so a draw with the passive's
    pattern is unichain by structure and is accepted without a solve. A
    draw with another pattern (an entry that underflowed to zero) goes
    through ``invariant_distribution``. Draws are accepted or resampled
    in draw order, as if one at a time.

    Raises NotUnichainError when the passive has more than one closed
    class: then no policy inside its support is unichain.
    """
    if pool_size < 1:
        raise ValueError(f"pool_size must be >= 1, got {pool_size}")
    if not has_single_closed_class(passive):
        raise NotUnichainError(
            "passive kernel has more than one closed class: "
            "no policy supported inside it is unichain"
        )
    rng = np.random.default_rng([seed, _POOL_STREAM])
    layout = support_layout(passive)
    passive_entries = passive.rows[layout.row, layout.col]
    # reused by every block, so block temporaries do not fragment the heap
    kernels_buf = np.empty((min(_POOL_BLOCK, pool_size), passive.n, passive.n))
    weights, control, accepted = [], [], 0
    while accepted < pool_size:
        kernels = kernels_buf[:min(_POOL_BLOCK, pool_size - accepted)]
        block, keep = layout.draw(rng, kernels)
        check_stochastic_rows(kernels)
        costs = rows_kl_at(block, passive_entries, layout.row, layout.col, kernels)
        for i in np.flatnonzero(~keep):
            try:
                invariant_distribution(StochasticMatrix.on_layout(layout, block[i]))
            except NotUnichainError:
                continue
            keep[i] = True
        weights.append(block[keep])
        control.append(costs[keep])
        accepted += int(keep.sum())
    return PolicyPool(layout, np.concatenate(weights), np.concatenate(control))


def pool_best_realized_cost(
    pool: PolicyPool,
    costs: np.ndarray,
    start: int,
    seed: int,
) -> tuple[int, np.ndarray]:
    """Simulate every pooled policy on the same (T, n) cost array and
    return the cheapest one's pool index with its prefix cost trace.

    Each policy gets its own derived seed, so adding policies never
    perturbs the trajectories of the others; ties go to the lowest pool
    index, and a NaN total never wins. Policies are walked in lock step,
    ``_RACE_BLOCK`` at a time, over the pool's shared bounds.
    """
    if not pool:
        raise ValueError("empty policy pool")
    fmat = _cost_matrix(costs, pool.n)
    if not 0 <= start < pool.n:
        raise IndexError(f"start state {start} out of range for n={pool.n}")
    horizon = fmat.shape[0]
    steps = np.arange(horizon)
    best_index = None
    best_per_step = None
    best_total = math.inf
    for lo in range(0, len(pool), _RACE_BLOCK):
        block = np.arange(lo, min(lo + _RACE_BLOCK, len(pool)))
        uniforms = np.stack(
            [np.random.default_rng(split_seed(seed, int(i))).random(horizon - 1) for i in block]
        )
        states = _accel.markov_paths(pool.bounds[block], pool.layout.columns, start, uniforms)
        per_step = fmat[steps, states] + np.take_along_axis(
            pool.control_cost[block], states, axis=1
        )
        for i, total in zip(block, per_step.sum(axis=1)):
            if total < best_total:
                best_total = total
                best_index = int(i)
                best_per_step = per_step[i - lo]
    if best_index is None:
        raise ValueError("no pooled policy has a finite realized cost")
    return best_index, np.cumsum(best_per_step)


def growth_exponent(trace, burn_in: Optional[int] = None) -> float:
    """Least-squares slope of log R_t against log t past the burn-in.

    ``burn_in`` defaults to 10% of the horizon (dropping the transient
    phases). Returns nan (the flag value) when the tail is not strictly
    positive; the all-equal tail is rejected as degenerate.
    """
    values = np.asarray(trace, dtype=np.float64)
    horizon = values.shape[0]
    if burn_in is None:
        burn_in = horizon // 10
    if burn_in < 0 or horizon - burn_in < 2:
        raise ValueError(f"need at least two points past burn_in={burn_in}, got {horizon}")
    tail = values[burn_in:]
    if np.all(tail == tail[0]):
        raise ValueError("degenerate (all-equal) trace")
    if np.any(tail <= 0):
        return math.nan
    t = np.arange(burn_in + 1, horizon + 1, dtype=np.float64)
    slope, _ = np.polyfit(np.log(t), np.log(tail), 1)
    return float(slope)


# experiment field -> (predicate, what it must be); checked on every spec
_FIELD_CHECKS = {
    "horizon": (lambda v: v >= 1, "must be a positive integer"),
    "epsilon": (lambda v: 0 < v < 1 / 3, "must lie in (0, 1/3)"),
    "stay_prob": (lambda v: 0 < v < 1, "must lie in (0, 1)"),
    "delta": (lambda v: 0 <= v < 1, "must lie in [0, 1)"),
    "dirichlet_alpha": (lambda v: 0 < v < math.inf, "must be finite and positive"),
    "runs": (lambda v: v >= 1, "must be a positive integer"),
    "pool_size": (lambda v: v >= 0, "must be a nonnegative integer"),
    "base_seed": (lambda v: v >= 0, "must be a nonnegative integer"),
}


@dataclass(frozen=True)
class ExperimentSpec:
    """The replicated tracking experiment, every field defaulted.

    The defaults are the desk-scale experiment: a 10x10 grid, T=1000,
    100 runs and a pool of 1000. Run i is seeded with
    ``split_seed(base_seed, i)``; ``pool_size`` 0 skips the pool baseline.
    Construction checks every field and raises ValueError naming the
    first one out of range.
    """

    graph: Graph = field(default_factory=lambda: grid_graph(10, 10))
    horizon: int = 1000
    epsilon: float = 0.05
    stay_prob: float = 0.01
    delta: float = 0.01
    home: int = 0
    start: int = 0
    dirichlet_alpha: float = 1.0
    runs: int = 100
    pool_size: int = 1000
    base_seed: int = 12345

    def __post_init__(self):
        for name in ("home", "start"):
            vertex = getattr(self, name)
            if not 0 <= vertex < self.graph.n:
                raise ValueError(
                    f"{name}: must be a vertex of the {self.graph.n}-vertex graph, got {vertex!r}"
                )
        for name, (ok, what) in _FIELD_CHECKS.items():
            value = getattr(self, name)
            if not ok(value):
                raise ValueError(f"{name}: {what}, got {value!r}")

    @memoized
    def passive(self) -> StochasticMatrix:
        """The passive kernel, built on first use and kept on the spec, so
        every stage of a run shares it and its memoized ergodicity verdict."""
        return build_passive(self.graph, self.stay_prob, self.delta, self.home)

    @memoized
    def pool(self) -> PolicyPool:
        """The pool every run races, drawn on first use and kept like ``passive``."""
        return sample_policy_pool(self.passive(), self.pool_size,
                                  split_seed(self.base_seed, _POOL_STREAM))


def run_tracking_once(spec: ExperimentSpec, run_seed: int) -> tuple[RunTrace, np.ndarray]:
    """One full episode against a freshly sampled target; returns the
    trace and the read-only (T, n) cost array it played, which
    ``TrackingEnv.stream`` fixes before the episode starts."""
    passive = spec.passive()
    env = make_tracking_env(spec.graph, seed=run_seed, dirichlet_alpha=spec.dirichlet_alpha)
    costs = env.stream(spec.horizon)
    trace = run_episode(passive, costs, epsilon=spec.epsilon, start=spec.start, seed=run_seed)
    return trace, costs


def _tracking_worker(args: tuple) -> tuple:
    """One run: its trace, hindsight regret and pool regret (or None)."""
    spec, run_seed = args
    trace, costs = run_tracking_once(spec, run_seed)
    comparator = best_in_hindsight(spec.passive(), costs)
    hindsight = trace.cumulative - steady_state_comparator_cost(comparator, costs)
    if spec.pool_size == 0:
        return trace, hindsight, None
    race_seed = split_seed(run_seed, _POOL_SIM_STREAM)
    _, comparator_cost = pool_best_realized_cost(spec.pool(), costs, spec.start, race_seed)
    return trace, hindsight, trace.cumulative - comparator_cost


@dataclass(frozen=True)
class ExperimentResult:
    """All traces and regret curves of one replicated experiment; row i
    of each regret array, like ``traces[i]``, is run i, seeded with
    ``split_seed(spec.base_seed, i)``."""

    spec: ExperimentSpec
    traces: tuple[RunTrace, ...]
    hindsight_regret: np.ndarray  # (runs, horizon)
    pool_regret: Optional[np.ndarray] = None  # (runs, horizon) when a pool was evaluated


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> ExperimentResult:
    """Replicate the tracking experiment ``spec.runs`` times.

    Run i draws its environment and agent streams from
    ``split_seed(spec.base_seed, i)``. Each run is one job
    (``_tracking_worker``); with ``spec.pool_size > 0`` the job also races
    the shared ``spec.pool()`` on the run's costs. ``workers`` bounds the
    number of processes, each handed one chunk of runs, so each unpickles
    the spec and draws the pool once. The reduction is in run order, so
    output does not depend on the workers.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    jobs = [(spec, split_seed(spec.base_seed, i)) for i in range(spec.runs)]
    workers = min(workers, spec.runs)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool_exec:
            chunk = -(-spec.runs // workers)
            outcomes = list(pool_exec.map(_tracking_worker, jobs, chunksize=chunk))
    else:
        outcomes = [_tracking_worker(job) for job in jobs]
    traces, hindsight, pool_rows = zip(*outcomes)
    return ExperimentResult(
        spec=spec,
        traces=traces,
        hindsight_regret=np.stack(hindsight),
        pool_regret=np.stack(pool_rows) if spec.pool_size > 0 else None,
    )


def summarize(regret_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(mean, stddev)``: the per-step mean and sample standard deviation
    (n-1 divisor) across the runs of the (runs, horizon) rows, as
    read-only float64 vectors (horizon,).

    A single run is its own mean; its spread is undefined, so the
    standard deviation is all NaN.
    """
    rows = np.asarray(regret_rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] < 1:
        raise ValueError("summaries need at least one replication")
    if rows.shape[0] == 1:
        stddev = np.full(rows.shape[1], math.nan)
    else:
        stddev = rows.std(axis=0, ddof=1)
    return frozen_copy(rows.mean(axis=0)), frozen_copy(stddev)


def monte_carlo(spec: ExperimentSpec, workers: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """``summarize`` of the best-in-hindsight regret over ``spec.runs``
    replications, ``(mean, stddev)``; the policy pool is not raced."""
    if spec.runs < 2:
        raise ValueError(f"monte_carlo needs runs >= 2, got {spec.runs}")
    result = run_experiment(replace(spec, pool_size=0), workers=workers)
    return summarize(result.hindsight_regret)
