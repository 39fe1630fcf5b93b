"""Regret computation, baselines and Monte-Carlo replication.

Two comparators are supported: the best stationary policy in hindsight
(solved against the average of all revealed costs, charged at its steady
state) and the best of a pool of randomly sampled stationary policies
(charged at its realized cost on the shared cost sequence). Replications
are embarrassingly parallel; each run owns its seeds, and summaries are
reduced in run order so results are reproducible bit for bit.

The hindsight comparator's steady state comes from
``chains.invariant_distribution``. The pool needs no steady state: a
draw with the passive's positive pattern is unichain by structure, so
the sampler accepts it without a stationarity solve. The pool is kept
stacked over the passive's nonzeros (``PolicyPool``): it is drawn,
checked and priced in blocks, holds every row's inverse-CDF bounds once
for all runs, and is raced in blocks of walks stepped together by
``_accel.markov_paths``, the walker that also moves the agent and the
target; a dense ``KlPolicy`` is built only for a policy that is asked for.

``ExperimentSpec`` describes the whole replicated experiment, from the
graph to the run count, pool size and base seed; the CLI's JSON config
is read into one, and ``run_experiment`` takes everything from it.
"""

from __future__ import annotations

import collections.abc
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

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
from .online import RunTrace, run_episode
from .policy import KlPolicy, optimal_policy, rows_kl_at
from .spectral import SolverSettings
from .world import Graph, build_passive, grid_graph, make_tracking_env

BEST_IN_HINDSIGHT = "best-in-hindsight"
FIXED_POLICY = "fixed-policy"
SAMPLED_POOL_BEST = "sampled-pool-best"
_COMPARATOR_KINDS = (BEST_IN_HINDSIGHT, FIXED_POLICY, SAMPLED_POOL_BEST)

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


@dataclass(frozen=True)
class RegretTrace(FrozenArrays):
    """Prefix regret of a run against one comparator."""

    horizon: int
    per_step: np.ndarray
    comparator_kind: str
    comparator_cost: np.ndarray

    def __post_init__(self):
        if self.comparator_kind not in _COMPARATOR_KINDS:
            raise ValueError(f"unknown comparator kind {self.comparator_kind!r}")
        for name in ("per_step", "comparator_cost"):
            object.__setattr__(self, name, frozen_copy(getattr(self, name)))
        if self.per_step.shape != (self.horizon,) or self.comparator_cost.shape != (self.horizon,):
            raise DimensionMismatchError("regret traces must match the horizon")


@dataclass(frozen=True)
class MonteCarloSummary(FrozenArrays):
    """Per-step mean and sample standard deviation over replications."""

    runs: int
    mean: np.ndarray
    stddev: np.ndarray
    seeds: tuple[int, ...]

    def __post_init__(self):
        for name in ("mean", "stddev"):
            object.__setattr__(self, name, frozen_copy(getattr(self, name)))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))


def _cost_matrix(costs: Sequence[CostFunction]) -> np.ndarray:
    if not costs:
        raise ValueError("empty cost sequence")
    return np.stack([c.values for c in costs])


def steady_state_comparator_cost(
    policy: KlPolicy, costs: Sequence[CostFunction]
) -> np.ndarray:
    """Prefix sums of the policy's steady-state cost under each revealed f_t."""
    fmat = _cost_matrix(costs)
    if fmat.shape[1] != policy.n:
        raise DimensionMismatchError("costs and policy live on different state spaces")
    pi = invariant_distribution(policy.kernel).weights
    support = pi > 0
    control = float(pi[support] @ policy.control_cost[support])
    per_step = fmat[:, support] @ pi[support] + control
    return np.cumsum(per_step)


def realized_expected_comparator_cost(
    policy: KlPolicy, costs: Sequence[CostFunction], start: int
) -> np.ndarray:
    """Prefix sums of the policy's expected cost with the state law
    propagated exactly from a point mass at ``start``."""
    fmat = _cost_matrix(costs)
    n = policy.n
    if fmat.shape[1] != n:
        raise DimensionMismatchError("costs and policy live on different state spaces")
    if not 0 <= start < n:
        raise IndexError(f"start state {start} out of range for n={n}")
    nu = np.zeros(n)
    nu[start] = 1.0
    out = np.empty(fmat.shape[0])
    for t in range(fmat.shape[0]):
        out[t] = nu @ (fmat[t] + policy.control_cost)
        nu = nu @ policy.kernel.rows
    return np.cumsum(out)


def best_in_hindsight(
    passive: StochasticMatrix,
    costs: Sequence[CostFunction],
    settings: Optional[SolverSettings] = None,
) -> KlPolicy:
    """The twisted-kernel policy solved against the average revealed cost;
    the steady-state optimum over all stationary unichain policies."""
    fmat = _cost_matrix(costs)
    return optimal_policy(passive, CostFunction(fmat.mean(axis=0)), settings)


class PolicyPool(collections.abc.Sequence):
    """Stationary policies stacked over one support pattern.

    ``weights[i]`` holds policy i's transition probabilities at the
    pattern's m nonzeros in row-major order, shape (K, m), and
    ``control_cost[i]`` its per-state control cost, shape (K, n).
    ``bounds`` holds every row's inverse-CDF bounds over its slots,
    shape (K, n, W), built once (see ``_accel.draw_bounds``), so races on
    many cost sequences share them. ``pool[i]`` builds policy i's
    ``KlPolicy`` on first access and keeps it, so ``pool[i] is pool[i]``.
    The arrays are read-only.
    """

    def __init__(self, layout: _SupportLayout, weights: np.ndarray, control_cost: np.ndarray):
        weights = frozen_copy(weights)
        control_cost = frozen_copy(control_cost)
        if weights.ndim != 2 or weights.shape[1] != layout.row.size or (
            control_cost.shape != (weights.shape[0], layout.n)
        ):
            raise DimensionMismatchError(
                f"weights {weights.shape} and control costs {control_cost.shape} do not fit "
                f"{layout.row.size} entries over {layout.n} states"
            )
        bounds = _accel.draw_bounds(layout.slots(weights))
        bounds.setflags(write=False)
        for name, value in (("layout", layout), ("weights", weights),
                            ("control_cost", control_cost), ("bounds", bounds),
                            ("_policies", [None] * weights.shape[0])):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"PolicyPool is immutable; cannot set {name!r}")

    @classmethod
    def packed(cls, policies: Sequence[KlPolicy]) -> "PolicyPool":
        """Stack explicit policies over the union of their supports;
        ``pool[i]`` is then ``policies[i]`` itself."""
        if len({pol.n for pol in policies}) > 1:
            raise DimensionMismatchError("pooled policies live on different state spaces")
        rows = np.stack([pol.kernel.rows for pol in policies])
        layout = _SupportLayout((rows > 0).any(axis=0))
        pool = cls(layout, rows[:, layout.row, layout.col],
                   np.stack([pol.control_cost for pol in policies]))
        pool._policies[:] = policies
        return pool

    @property
    def n(self) -> int:
        return self.layout.n

    def __len__(self) -> int:
        return len(self._policies)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        i = range(len(self))[index]
        policy = self._policies[i]
        if policy is None:
            kernel = StochasticMatrix.on_layout(self.layout, self.weights[i])
            policy = KlPolicy(kernel=kernel, control_cost=self.control_cost[i])
            self._policies[i] = policy
        return policy


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
        if np.any(costs < 0):
            raise ValueError("control costs must be nonnegative")
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
    pool: Sequence[KlPolicy],
    costs: Sequence[CostFunction],
    start: int,
    seed: int,
) -> tuple[KlPolicy, np.ndarray]:
    """Simulate every pooled policy on the same cost sequence and return
    the cheapest one with its prefix cost trace.

    Each policy gets its own derived seed, so adding policies never
    perturbs the trajectories of the others; ties go to the lowest pool
    index, and a NaN total never wins. Policies are walked in lock step,
    ``_RACE_BLOCK`` at a time, over a ``PolicyPool``'s shared bounds; any
    other sequence is first packed into one (``PolicyPool.packed``), and
    the winner returned is the caller's own ``pool[i]``.
    """
    if not pool:
        raise ValueError("empty policy pool")
    stacked = pool if isinstance(pool, PolicyPool) else PolicyPool.packed(pool)
    fmat = _cost_matrix(costs)
    if fmat.shape[1] != stacked.n:
        raise DimensionMismatchError("costs and pool live on different state spaces")
    if not 0 <= start < stacked.n:
        raise IndexError(f"start state {start} out of range for n={stacked.n}")
    horizon = fmat.shape[0]
    steps = np.arange(horizon)
    best_index = None
    best_per_step = None
    best_total = math.inf
    for lo in range(0, len(stacked), _RACE_BLOCK):
        block = np.arange(lo, min(lo + _RACE_BLOCK, len(stacked)))
        uniforms = np.stack(
            [np.random.default_rng(split_seed(seed, int(i))).random(horizon - 1) for i in block]
        )
        states = _accel.markov_paths(stacked.bounds[block], stacked.layout.columns, start, uniforms)
        per_step = fmat[steps, states] + np.take_along_axis(
            stacked.control_cost[block], states, axis=1
        )
        for i, total in zip(block, per_step.sum(axis=1)):
            if total < best_total:
                best_total = total
                best_index = int(i)
                best_per_step = per_step[i - lo]
    if best_index is None:
        raise ValueError("no pooled policy has a finite realized cost")
    return pool[best_index], np.cumsum(best_per_step)


def regret_trace(run: RunTrace, comparator_cost, kind: str) -> RegretTrace:
    """Prefix regret: the run's cumulative cost minus the comparator's."""
    comparator_cost = np.asarray(comparator_cost, dtype=np.float64)
    if comparator_cost.shape != run.cumulative.shape:
        raise DimensionMismatchError(
            f"comparator has {comparator_cost.shape[0]} steps, run has {run.horizon}"
        )
    return RegretTrace(
        horizon=run.horizon,
        per_step=run.cumulative - comparator_cost,
        comparator_kind=kind,
        comparator_cost=comparator_cost,
    )


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


def run_tracking_once(spec: ExperimentSpec, run_seed: int) -> tuple[RunTrace, tuple]:
    """One full episode against a freshly sampled target; returns the
    trace and the cost sequence it consumed."""
    passive = spec.passive()
    env = make_tracking_env(spec.graph, seed=run_seed, dirichlet_alpha=spec.dirichlet_alpha)
    stream = env.stream(spec.horizon)
    costs = stream.costs
    trace = run_episode(
        passive,
        stream,
        horizon=spec.horizon,
        epsilon=spec.epsilon,
        start=spec.start,
        seed=run_seed,
    )
    return trace, costs


def _tracking_worker(args: tuple) -> tuple:
    spec, run_seed = args
    trace, costs = run_tracking_once(spec, run_seed)
    comparator = best_in_hindsight(spec.passive(), costs)
    hindsight = trace.cumulative - steady_state_comparator_cost(comparator, costs)
    return trace, costs, hindsight


@dataclass(frozen=True)
class ExperimentResult:
    """All traces and regret curves of one replicated experiment."""

    spec: ExperimentSpec
    seeds: tuple[int, ...]
    traces: tuple[RunTrace, ...]
    hindsight_regret: np.ndarray  # (runs, horizon)
    pool_regret: Optional[np.ndarray] = None  # (runs, horizon) when a pool was evaluated

    @property
    def runs(self) -> int:
        return len(self.seeds)


def run_experiment(
    spec: ExperimentSpec,
    workers: int = 1,
    seeds: Optional[Sequence[int]] = None,
) -> ExperimentResult:
    """Replicate the tracking experiment ``spec.runs`` times.

    Run i draws its environment and agent streams from
    ``split_seed(spec.base_seed, i)``, or from ``seeds[i]`` when given.
    With ``spec.pool_size > 0`` a single policy pool (seeded from the base
    seed, shared by all runs) is additionally raced against each run's
    cost sequence. ``workers`` bounds the number of parallel replication
    processes; the reduction is in run order either way, so output does
    not depend on the worker count.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if seeds is None:
        seeds = [split_seed(spec.base_seed, i) for i in range(spec.runs)]
    elif len(seeds) != spec.runs:
        raise ValueError(f"got {len(seeds)} explicit seeds for {spec.runs} runs")
    jobs = [(spec, int(s)) for s in seeds]
    if workers > 1 and spec.runs > 1:
        with ProcessPoolExecutor(max_workers=min(workers, spec.runs)) as pool_exec:
            outcomes = list(pool_exec.map(_tracking_worker, jobs))
    else:
        outcomes = [_tracking_worker(job) for job in jobs]
    traces = tuple(out[0] for out in outcomes)
    hindsight = np.stack([out[2] for out in outcomes])

    pool_regret = None
    if spec.pool_size > 0:
        shared_pool = sample_policy_pool(
            spec.passive(), spec.pool_size, split_seed(spec.base_seed, _POOL_STREAM)
        )
        rows = []
        for (_, costs, _), run_seed, trace in zip(outcomes, seeds, traces):
            _, comparator_cost = pool_best_realized_cost(
                shared_pool, costs, spec.start, split_seed(run_seed, _POOL_SIM_STREAM)
            )
            rows.append(trace.cumulative - comparator_cost)
        pool_regret = np.stack(rows)

    return ExperimentResult(
        spec=spec,
        seeds=tuple(int(s) for s in seeds),
        traces=traces,
        hindsight_regret=hindsight,
        pool_regret=pool_regret,
    )


def summarize(regret_rows: np.ndarray, seeds: Sequence[int]) -> MonteCarloSummary:
    """Mean and sample standard deviation (n-1 divisor) across runs.

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
    return MonteCarloSummary(
        runs=rows.shape[0],
        mean=rows.mean(axis=0),
        stddev=stddev,
        seeds=tuple(seeds),
    )


def monte_carlo(
    spec: ExperimentSpec,
    workers: int = 1,
    seeds: Optional[Sequence[int]] = None,
) -> MonteCarloSummary:
    """Mean/stddev of the best-in-hindsight regret over ``spec.runs``
    replications; the policy pool is not raced."""
    if spec.runs < 2:
        raise ValueError(f"monte_carlo needs runs >= 2, got {spec.runs}")
    result = run_experiment(replace(spec, pool_size=0), workers=workers, seeds=seeds)
    return summarize(result.hindsight_regret, result.seeds)
