"""The phased online strategy.

Time is cut into phases of slowly growing length tau_m = ceil(m^(1/3-eps)).
At the start of each phase the eigenproblem is re-solved against the
average of all state costs revealed during completed phases, and the
resulting twisted kernel is frozen for the whole phase. Costs revealed
mid-phase accumulate in a buffer that is merged only when the phase
closes, so the policy never peeks at the current phase.

``advance`` plays a run of costs inside one phase, walking it in one go
from the phase policy's ``draw_table``. ``step`` is ``advance`` on a
one-cost run, and ``run_episode`` calls it once per phase.

The environment is oblivious by construction: a cost stream exposes only
``next() -> CostFunction`` and never receives states or actions. State
costs lie in [0, ``COST_CAP``], the paper's standing assumption, and
``advance`` rejects a cost above the cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Protocol, Sequence

import numpy as np

from . import _accel
from .chains import CostFunction, FrozenArrays, StochasticMatrix, draw_table, frozen_copy
from .errors import DimensionMismatchError
from .policy import KlPolicy, optimal_policy

COST_CAP = 1.0  # every state cost lies in [0, COST_CAP]
_CEIL_SNAP = 1e-9  # keep ceil exact when m^(1/3-eps) is an integer up to fp noise


class CostStream(Protocol):
    """One cost function per step, blind to the agent (no state input)."""

    def next(self) -> CostFunction: ...


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

    def phase_length(self, m: int) -> int:
        """tau_m for any phase index m >= 1 (the formula, not the table)."""
        if m < 1:
            raise ValueError(f"phases are numbered from 1, got {m}")
        if m <= self.tau.shape[0]:
            return int(self.tau[m - 1])
        return _phase_length(m, self.epsilon)


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
class StepRecord:
    """Cost realized at the pre-transition state of one step."""

    phase: int
    state: int
    state_cost: float
    control_cost: float

    @property
    def total(self) -> float:
        return self.state_cost + self.control_cost


@dataclass(frozen=True)
class StrategyState:
    """Everything the strategy carries between steps.

    ``cost_sum``/``steps_seen`` cover completed phases only;
    ``phase_cost_sum`` buffers the running phase and is merged when it
    closes. Every cost it has taken in is at most ``COST_CAP``. Owned by
    exactly one episode at a time.
    """

    passive: StochasticMatrix
    schedule: PhaseSchedule
    current_phase: int
    policy: Optional[KlPolicy]
    cost_sum: np.ndarray
    steps_seen: int
    phase_cost_sum: np.ndarray
    current_state: int
    phase_step: int


def start_strategy(passive: StochasticMatrix, schedule: PhaseSchedule, start: int) -> StrategyState:
    """A fresh strategy positioned at ``start`` with phase 1 already begun
    (its policy is the passive kernel, solved from the zero cost). It
    takes state costs up to ``COST_CAP``."""
    if not 0 <= start < passive.n:
        raise IndexError(f"start state {start} out of range for n={passive.n}")
    shell = StrategyState(
        passive=passive,
        schedule=schedule,
        current_phase=0,
        policy=None,
        cost_sum=np.zeros(passive.n),
        steps_seen=0,
        phase_cost_sum=np.zeros(passive.n),
        current_state=start,
        phase_step=0,
    )
    return begin_phase(shell)


def begin_phase(state: StrategyState) -> StrategyState:
    """Close the current phase and solve for the next policy.

    Merges the phase buffer into the completed-phase totals, averages them
    into the empirical cost (zero before any step) and twists the passive
    kernel by the solved relative value function. The solve starts from
    the last phase's relative value function, which the averaged costs of
    consecutive phases keep close to the new one.
    """
    if state.current_phase > 0:
        expected = state.schedule.phase_length(state.current_phase)
        if state.phase_step != expected:
            raise RuntimeError(
                f"phase {state.current_phase} is not complete "
                f"({state.phase_step}/{expected} steps)"
            )
    cost_sum = state.cost_sum + state.phase_cost_sum
    steps_seen = state.steps_seen + state.phase_step
    passive = state.passive
    if steps_seen > 0:
        f_hat = CostFunction(cost_sum / steps_seen)
    else:
        f_hat = CostFunction(np.zeros(passive.n))
    last_h = state.policy.source_h if state.policy is not None else None
    new_policy = optimal_policy(passive, f_hat, start=last_h)
    return replace(
        state,
        current_phase=state.current_phase + 1,
        policy=new_policy,
        cost_sum=cost_sum,
        steps_seen=steps_seen,
        phase_cost_sum=np.zeros(passive.n),
        phase_step=0,
    )


def advance(
    state: StrategyState, costs: Sequence[CostFunction], rng: np.random.Generator
) -> tuple[StrategyState, np.ndarray, np.ndarray, np.ndarray]:
    """Play a run of revealed costs, one per step, inside the current phase.

    Each cost must fit the chain and peak at ``COST_CAP`` or below. The run
    is walked with one ``rng.random(k)``, the same doubles as k
    ``rng.random()`` calls. Step t pays f_t and the control cost at the
    state occupied when the policy was applied; f_t joins the phase buffer
    in step order, so it shapes later phases only. A run that completes
    the phase solves the next while the horizon has steps left; the last
    phase is not followed by a solve, and a run past the horizon raises
    the run-length ValueError. Returns the new state and, per step, the
    state occupied, its state cost and its control cost.
    """
    phase_length = state.schedule.phase_length(state.current_phase)
    left = phase_length - state.phase_step
    if not 1 <= len(costs) <= left:
        raise ValueError(f"a run of {len(costs)} costs does not fit the {left} steps left")
    phase_cost_sum = state.phase_cost_sum
    for f_t in costs:
        if f_t.n != state.passive.n:
            raise DimensionMismatchError(f"cost has {f_t.n} states, chain has {state.passive.n}")
        if f_t.max() > COST_CAP + 1e-12:
            raise ValueError(
                f"state cost peaks at {f_t.max()}, above the admissible cap {COST_CAP}"
            )
        phase_cost_sum = phase_cost_sum + f_t.values
    table = draw_table(state.policy.kernel)
    path = _accel.markov_path(table, state.current_state, rng.random(len(costs)))
    visited = path[:-1]
    state_costs = np.array([f_t.values[x] for f_t, x in zip(costs, visited)])
    control_costs = state.policy.control_cost[visited]
    state = replace(state, current_state=int(path[-1]), phase_step=state.phase_step + len(costs),
                    phase_cost_sum=phase_cost_sum)
    played = state.steps_seen + state.phase_step
    if state.phase_step == phase_length and played < state.schedule.horizon:
        state = begin_phase(state)
    return state, visited, state_costs, control_costs


def step(
    state: StrategyState, f_t: CostFunction, rng: np.random.Generator
) -> tuple[StrategyState, StepRecord]:
    """Charge the revealed cost at the current state, then transition:
    ``advance`` on a one-cost run."""
    phase = state.current_phase
    state, visited, state_costs, control_costs = advance(state, [f_t], rng)
    return state, StepRecord(phase, int(visited[0]), float(state_costs[0]), float(control_costs[0]))


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

    def phase_of_step(self, t: int) -> int:
        """1-based phase number acting at step index t in [0, horizon)."""
        if not 0 <= t < self.horizon:
            raise IndexError(f"step {t} out of range for horizon {self.horizon}")
        return int(np.searchsorted(self.phase_boundaries, t, side="right"))

    def step_phases(self) -> np.ndarray:
        """``phase_of_step`` of every step index, as one array."""
        return np.searchsorted(self.phase_boundaries, np.arange(self.horizon), side="right")


def run_episode(
    passive: StochasticMatrix,
    env: CostStream,
    horizon: int,
    epsilon: float,
    start: int,
    seed: int,
) -> RunTrace:
    """Run the phased strategy for ``horizon`` steps against a cost stream.

    The stream is consumed strictly in step order and never sees the
    agent; the agent's sampling noise comes from a generator seeded with
    ``seed`` only.
    """
    schedule = make_schedule(epsilon, horizon)
    state = start_strategy(passive, schedule, start)
    rng = np.random.default_rng(seed)
    # the schedule stops once it covers the horizon: only the last phase is cut
    boundaries = np.concatenate(([0], schedule.tau_cum[:-1]))
    runs = []
    for length in np.diff(boundaries, append=horizon):
        state, *run = advance(state, [env.next() for _ in range(length)], rng)
        runs.append(run)
    states, state_costs, control_costs = (np.concatenate(part) for part in zip(*runs))
    return RunTrace(
        states=states,
        state_costs=state_costs,
        control_costs=control_costs,
        cumulative=np.cumsum(state_costs + control_costs),
        phase_boundaries=boundaries,
    )
