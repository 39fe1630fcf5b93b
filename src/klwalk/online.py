"""The phased online strategy.

Time is cut into phases of slowly growing length tau_m = ceil(m^(1/3-eps)).
``run_episode`` is one loop over the phases. Each phase starts by
re-solving the eigenproblem against the average of all state costs
revealed during completed phases, and the resulting twisted kernel is
frozen for the whole phase. The phase's own costs are summed apart and
merged only when the phase closes, so the policy never peeks at the
current phase; the phase is walked in one go from its policy's
``draw_table``.

The environment is oblivious, as in the paper: the state costs
f_1, ..., f_T are one (T, n) array fixed before the episode starts, and
they never depend on states or actions. The episode reads the whole array,
but each phase solves only on the rows of completed phases, so the agent
sees f_t only after acting at step t. State costs lie in [0, ``COST_CAP``],
the paper's standing assumption, and ``run_episode`` checks every entry
before its first solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _accel
from .chains import CostFunction, FrozenArrays, StochasticMatrix, draw_table, frozen_copy
from .errors import DimensionMismatchError
from .policy import optimal_policy

COST_CAP = 1.0  # every state cost lies in [0, COST_CAP]
_CEIL_SNAP = 1e-9  # keep ceil exact when m^(1/3-eps) is an integer up to fp noise


@dataclass(frozen=True)
class PhaseSchedule(FrozenArrays):
    """Phase lengths and boundaries for a horizon.

    ``tau[k]`` is the length of phase k+1 (phases are numbered from 1) and
    ``tau_cum`` its prefix sum; generation stops once the horizon is
    covered. ``complete_phases`` is the number M of phases that finish
    within the horizon.
    """

    epsilon: float
    horizon: int
    tau: np.ndarray
    tau_cum: np.ndarray
    complete_phases: int

    def __post_init__(self):
        for name in ("tau", "tau_cum"):
            object.__setattr__(self, name, frozen_copy(getattr(self, name), np.int64))


def _phase_length(m: int, epsilon: float) -> int:
    p = m ** (1.0 / 3.0 - epsilon)
    nearest = round(p)
    if abs(p - nearest) < _CEIL_SNAP:
        return max(int(nearest), 1)
    return int(math.ceil(p))


def make_schedule(epsilon: float, horizon: int) -> PhaseSchedule:
    """Generate phases until their total length covers the horizon."""
    if not 0.0 < epsilon < 1.0 / 3.0:
        raise ValueError(f"epsilon must lie in (0, 1/3), got {epsilon}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    lengths = []
    total = 0
    m = 1
    while total < horizon:
        tau_m = _phase_length(m, epsilon)
        lengths.append(tau_m)
        total += tau_m
        m += 1
    tau = np.array(lengths, dtype=np.int64)
    tau_cum = np.cumsum(tau)
    complete = len(lengths) if total == horizon else len(lengths) - 1
    return PhaseSchedule(
        epsilon=epsilon,
        horizon=horizon,
        tau=tau,
        tau_cum=tau_cum,
        complete_phases=complete,
    )


@dataclass(frozen=True)
class RunTrace(FrozenArrays):
    """Per-step record of one episode.

    ``phase_boundaries`` holds the step indices at which the acting policy
    took effect (0 for phase 1, then each in-horizon phase start).
    ``cumulative`` is the prefix sum of state plus control costs.
    """

    states: np.ndarray
    state_costs: np.ndarray
    control_costs: np.ndarray
    cumulative: np.ndarray
    phase_boundaries: np.ndarray

    def __post_init__(self):
        for name in ("states", "phase_boundaries"):
            object.__setattr__(self, name, frozen_copy(getattr(self, name), np.int64))
        for name in ("state_costs", "control_costs", "cumulative"):
            object.__setattr__(self, name, frozen_copy(getattr(self, name)))

    @property
    def horizon(self) -> int:
        return self.states.shape[0]

    def step_phases(self) -> np.ndarray:
        """The 1-based phase acting at each step index, as one array."""
        return np.searchsorted(self.phase_boundaries, np.arange(self.horizon), side="right")


def run_episode(
    passive: StochasticMatrix,
    costs: np.ndarray,
    epsilon: float,
    start: int,
    seed: int,
) -> RunTrace:
    """Run the phased strategy on a (T, n) array of state costs, one row per step.

    The horizon T is the array's length. The array is checked once, before
    any solve: one that is not 2-D with ``passive.n`` columns raises
    DimensionMismatchError, and a NaN, an infinite or negative entry, or
    one above ``COST_CAP`` (up to 1e-12 of rounding) raises ValueError.
    The agent's sampling noise comes from a generator seeded with ``seed``
    only. Each phase solves for the average of the completed phases' rows
    (zero before any step), warm-started from the last phase's relative
    value function, then sums its own rows in step order and walks them
    with one ``rng.random(length)``. Step t pays f_t and the control cost
    at the state occupied when the policy was applied.
    """
    costs = np.ascontiguousarray(costs, dtype=np.float64)
    if costs.ndim != 2 or costs.shape[1] != passive.n:
        raise DimensionMismatchError(f"costs of shape {costs.shape} need {passive.n} columns")
    horizon = costs.shape[0]
    schedule = make_schedule(epsilon, horizon)
    if not 0 <= start < passive.n:
        raise IndexError(f"start state {start} out of range for n={passive.n}")
    if not np.all(np.isfinite(costs)) or costs.min() < 0:
        raise ValueError("state costs must be finite and nonnegative")
    if costs.max() > COST_CAP + 1e-12:
        raise ValueError(f"state cost peaks at {costs.max()}, above the admissible cap {COST_CAP}")
    rng = np.random.default_rng(seed)
    # the schedule stops once it covers the horizon: only the last phase is cut
    boundaries = schedule.tau_cum - schedule.tau
    cost_sum, last_h, state = np.zeros(passive.n), None, start
    runs = []
    for lo, hi in zip(boundaries, np.minimum(schedule.tau_cum, horizon)):
        f_hat = CostFunction(cost_sum / lo if lo > 0 else np.zeros(passive.n))
        policy = optimal_policy(passive, f_hat, start=last_h)
        last_h = policy.source_h
        # row by row in step order: numpy's pairwise sum would move f_hat's last bits
        phase_sum = np.zeros(passive.n)
        for f_t in costs[lo:hi]:
            phase_sum = phase_sum + f_t
        path = _accel.markov_path(draw_table(policy.kernel), state, rng.random(hi - lo))
        visited, state = path[:-1], int(path[-1])
        runs.append((visited, policy.control_cost[visited]))
        cost_sum = cost_sum + phase_sum
    states, control_costs = (np.concatenate(part) for part in zip(*runs))
    state_costs = costs[np.arange(horizon), states]
    return RunTrace(
        states=states,
        state_costs=state_costs,
        control_costs=control_costs,
        cumulative=np.cumsum(state_costs + control_costs),
        phase_boundaries=boundaries,
    )
