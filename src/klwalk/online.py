"""The phased online strategy.

Time is cut into phases of slowly growing length tau_m = ceil(m^(1/3-eps)),
which ``make_schedule`` gives as one read-only array of phase boundaries;
the horizon cuts only the last phase. ``run_episode`` is one loop over
consecutive boundaries. Each phase starts by re-solving the eigenproblem
against the average of the state costs of the completed phases, from the
relative value function of the last phase's solve (``policy.solution.h``),
freezes the resulting twisted kernel for the whole phase and walks it in
one go from its ``draw_table``. The phase's own costs join the average
only when it closes, so the policy never peeks at the current phase.

The environment is oblivious, as in the paper: the state costs
f_1, ..., f_T are one (T, n) array fixed before the episode starts, and
they never depend on states or actions, so the agent sees f_t only after
acting at step t. State costs lie in [0, ``COST_CAP``], the paper's
standing assumption, and ``run_episode`` checks every entry before its
first solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _accel
from .chains import FrozenArrays, StochasticMatrix, draw_table, frozen_copy
from .errors import DimensionMismatchError
from .policy import optimal_policy

COST_CAP = 1.0  # every state cost lies in [0, COST_CAP]
_CEIL_SNAP = 1e-9  # keep ceil exact when m^(1/3-eps) is an integer up to fp noise


def make_schedule(epsilon: float, horizon: int) -> np.ndarray:
    """The phase boundaries for a horizon T: the read-only int64 array
    ``[0, b_1, ..., T]``, where phase m spans steps ``[b_{m-1}, b_m)``.

    Phase m lasts ceil(m^(1/3-eps)) steps; the horizon cuts only the last.
    """
    if not 0.0 < epsilon < 1.0 / 3.0:
        raise ValueError(f"epsilon must lie in (0, 1/3), got {epsilon}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    bounds = [0]
    while bounds[-1] < horizon:
        p = len(bounds) ** (1.0 / 3.0 - epsilon)  # phase m = len(bounds), so p >= 1
        tau = round(p) if abs(p - round(p)) < _CEIL_SNAP else math.ceil(p)
        bounds.append(min(bounds[-1] + tau, horizon))
    return frozen_copy(bounds, np.int64)


def _cost_matrix(costs: np.ndarray, n: int) -> np.ndarray:
    """The (T, n) cost array, C-ordered float64, checked for its shape only."""
    fmat = np.ascontiguousarray(costs, dtype=np.float64)
    if fmat.ndim != 2 or fmat.shape[1] != n:
        raise DimensionMismatchError(f"costs of shape {fmat.shape} need {n} columns")
    if fmat.shape[0] == 0:
        raise ValueError("empty cost sequence")
    return fmat


@dataclass(frozen=True)
class RunTrace(FrozenArrays):
    """Per-step record of one episode.

    ``phase_boundaries`` holds the step at which each phase starts, which
    is ``make_schedule``'s array without its last entry T.
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
    DimensionMismatchError; an empty one, or a NaN, an infinite or negative
    entry, or one above ``COST_CAP`` (up to 1e-12 of rounding) raises
    ValueError. The agent's sampling noise comes from a generator seeded
    with ``seed`` only. Each phase of ``make_schedule(epsilon, T)`` solves
    for the average of the completed phases' rows (zero before any step),
    warm-started from the last phase's relative value function, and walks
    its steps with one ``rng.random(length)``. Step t pays f_t and the
    control cost at the state occupied when the policy was applied.
    """
    costs = _cost_matrix(costs, passive.n)
    bounds = make_schedule(epsilon, costs.shape[0])
    if not 0 <= start < passive.n:
        raise IndexError(f"start state {start} out of range for n={passive.n}")
    if not np.all(np.isfinite(costs)) or costs.min() < 0:
        raise ValueError("state costs must be finite and nonnegative")
    if costs.max() > COST_CAP + 1e-12:
        raise ValueError(f"state cost peaks at {costs.max()}, above the admissible cap {COST_CAP}")
    rng = np.random.default_rng(seed)
    cost_sum, last_h, state = np.zeros(passive.n), None, start
    runs = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        f_hat = cost_sum / lo if lo > 0 else np.zeros(passive.n)
        policy = optimal_policy(passive, f_hat, start=last_h)
        last_h = policy.solution.h
        path = _accel.markov_path(draw_table(policy.kernel), state, rng.random(hi - lo))
        visited, state = path[:-1], int(path[-1])
        runs.append((visited, policy.control_cost[visited]))
        # numpy sums axis 0 of a C-ordered array row by row in step order, so f_hat
        # keeps its bits (one column sums pairwise, but a 1-state policy ignores f_hat)
        cost_sum = cost_sum + costs[lo:hi].sum(axis=0)
    states, control_costs = (np.concatenate(part) for part in zip(*runs))
    state_costs = costs[np.arange(costs.shape[0]), states]
    return RunTrace(
        states=states,
        state_costs=state_costs,
        control_costs=control_costs,
        cumulative=np.cumsum(state_costs + control_costs),
        phase_boundaries=bounds[:-1],
    )
