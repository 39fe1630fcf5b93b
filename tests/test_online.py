import functools
import math

import numpy as np
import pytest

from klwalk import (
    DimensionMismatchError,
    StochasticMatrix,
    build_passive,
    grid_graph,
    make_schedule,
    make_tracking_env,
    optimal_policy,
    run_episode,
)
from klwalk import _accel, chains, online

from conftest import kernel_sup_distance, pick_from_cdf, random_ergodic_kernel, renormalized

TWO_STATE = StochasticMatrix([[0.5, 0.5], [0.5, 0.5]])


@pytest.fixture
def phase_policies(monkeypatch):
    """The policy of each phase, in phase order, as the episode solves it
    through a wrapped ``online.optimal_policy``."""
    policies = []
    real = online.optimal_policy

    def recording(*args, **kwargs):
        policies.append(real(*args, **kwargs))
        return policies[-1]

    monkeypatch.setattr(online, "optimal_policy", recording)
    return policies


def reference_episode(passive, costs, epsilon, start, seed):
    """The phased strategy one step at a time. At each phase start from
    ``make_schedule`` it solves on the average of the completed phases'
    costs (zero before any), warm-started from the last phase's h; each
    step is a scalar ``pick_from_cdf`` draw on the dense CDF of the acting
    row. Returns the ``RunTrace`` fields as a dict."""
    horizon = costs.shape[0]
    phase_starts = set(make_schedule(epsilon, horizon)[:-1].tolist())
    rng = np.random.default_rng(seed)
    x, policy, cost_sum, phase_sum = start, None, np.zeros(passive.n), np.zeros(passive.n)
    states, state_costs, control_costs, boundaries = [], [], [], []
    for t, f_t in enumerate(costs):
        if t in phase_starts:
            boundaries.append(t)
            cost_sum, phase_sum = cost_sum + phase_sum, np.zeros(passive.n)
            f_hat = cost_sum / t if t > 0 else np.zeros(passive.n)
            last_h = policy.solution.h if policy is not None else None
            policy = optimal_policy(passive, f_hat, start=last_h)
        states.append(x)
        state_costs.append(float(f_t[x]))
        control_costs.append(float(policy.control_cost[x]))
        phase_sum = phase_sum + f_t
        x = pick_from_cdf(np.cumsum(policy.kernel.rows[x]), rng.random())
    state_costs, control_costs = np.array(state_costs), np.array(control_costs)
    return {
        "states": np.array(states, dtype=np.int64),
        "state_costs": state_costs,
        "control_costs": control_costs,
        "cumulative": np.cumsum(state_costs + control_costs),
        "phase_boundaries": np.array(boundaries, dtype=np.int64),
    }


def sparse_ergodic_kernel(rng, n):
    """Random rows with about half their entries zero, kept primitive by a
    cycle through every state and one self-loop."""
    rows = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
    rows[np.arange(n), (np.arange(n) + 1) % n] += 0.3
    rows[0, 0] += 0.3
    return renormalized(rows)


def snapped_ceil(m, epsilon):
    """ceil(m^(1/3-eps)), taken as the nearest integer within 1e-9 of it."""
    p = m ** (1 / 3 - epsilon)
    return round(p) if abs(p - round(p)) < 1e-9 else math.ceil(p)


class TestMakeSchedule:
    def test_quarter_exponent_values(self):
        # epsilon = 1/12 gives exponent 1/4
        tau = np.diff(make_schedule(1 / 12, horizon=100))  # phase 17 ends at step 34
        assert tau[1 - 1] == 1
        assert tau[15 - 1] == 2
        assert tau[16 - 1] == 2
        assert tau[17 - 1] == 3  # 17^0.25 = 2.0305...

    def test_near_limit_epsilon_follows_ceiling(self):
        # with exponent 1/3 - 0.3333 > 0, m^exponent exceeds 1 for every
        # m >= 2, so the ceiling is 2 from the second phase on; phase 999
        # ends at step 1997
        tau = np.diff(make_schedule(0.3333, horizon=2000))
        assert tau[1 - 1] == 1
        assert all(tau[m - 1] == 2 for m in range(2, 1000))

    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            make_schedule(0.0, 10)
        with pytest.raises(ValueError):
            make_schedule(1 / 3, 10)
        with pytest.raises(ValueError):
            make_schedule(0.05, 0)

    @pytest.mark.parametrize("horizon", [1, 2, 57, 1000])
    @pytest.mark.parametrize("epsilon", [0.01, 0.05, 1 / 12, 0.3333])
    def test_boundary_invariants(self, epsilon, horizon):
        bounds = make_schedule(epsilon, horizon)
        assert bounds.dtype == np.int64 and not bounds.flags.writeable
        with pytest.raises(ValueError):
            bounds[0] = 1
        assert bounds[0] == 0 and bounds[-1] == horizon
        tau = np.diff(bounds)
        assert np.all(tau > 0)
        full = [snapped_ceil(m, epsilon) for m in range(1, tau.size + 1)]
        assert tau[:-1].tolist() == full[:-1]
        assert tau[-1] <= full[-1]

    def test_schedule_structure(self):
        # the default experiment's 239 phases; the last is cut from 5 steps to 3
        bounds = make_schedule(0.05, horizon=1000)
        assert bounds.size == 240
        assert bounds[:4].tolist() == [0, 1, 3, 5]
        assert bounds[-4:].tolist() == [987, 992, 997, 1000]
        assert snapped_ceil(239, 0.05) == 5

    def test_phase_count_bound(self):
        # every phase, the cut one included, within the (4/3) T^(3/4+eps) bound
        # on the number of complete phases
        for eps, horizon in ((0.05, 1000), (0.1, 500), (0.3, 2000)):
            phases = make_schedule(eps, horizon).size - 1
            assert phases <= (4 / 3) * horizon ** (3 / 4 + eps)

class TestBeginPhase:
    """The solve that opens each phase."""

    def test_first_phase_policy_is_passive_exactly(self, rng, phase_policies):
        p = random_ergodic_kernel(rng, 4)
        trace = run_episode(p, rng.random((3, 4)), epsilon=0.05, start=0, seed=0)
        assert phase_policies[0].kernel is p
        np.testing.assert_array_equal(phase_policies[0].control_cost, 0.0)
        assert trace.control_costs[0] == 0.0

    def test_constant_history_keeps_passive(self, rng, phase_policies):
        # constants shift the average cost only, never the kernel
        p = random_ergodic_kernel(rng, 3)
        run_episode(p, np.full((20, 3), 0.4), epsilon=0.05, start=0, seed=0)
        assert len(phase_policies) > 1
        assert all(policy.kernel is p for policy in phase_policies)

    def test_two_state_history_twists_to_derived_kernel(self, phase_policies):
        # phase 1 lasts exactly one step; its cost becomes the phase-2 average
        costs = np.array([[0.0, math.log(2)], [0.0, 0.0]])
        run_episode(TWO_STATE, costs, epsilon=0.05, start=0, seed=1)
        assert len(phase_policies) == 2
        np.testing.assert_allclose(
            phase_policies[1].kernel.rows, [[2 / 3, 1 / 3], [2 / 3, 1 / 3]], atol=1e-10
        )


class TestStep:
    """What one step charges and where it moves."""

    def test_zero_cost_first_phase_is_free(self):
        trace = run_episode(TWO_STATE, np.zeros((1, 2)), epsilon=0.05, start=1, seed=3)
        assert trace.states[0] == 1
        assert trace.state_costs[0] == 0.0 and trace.control_costs[0] == 0.0

    def test_deterministic_policy_row(self):
        p = StochasticMatrix([[0.0, 1.0], [0.5, 0.5]])
        for seed in range(5):
            trace = run_episode(p, np.zeros((2, 2)), epsilon=0.05, start=0, seed=seed)
            assert trace.states.tolist() == [0, 1]

    @pytest.mark.parametrize("bad, match", [
        (math.nan, "finite"),
        (math.inf, "finite"),
        (-0.25, "nonnegative"),
        (1.5, "above the admissible cap"),
    ], ids=["nan", "inf", "negative", "above-cap"])
    def test_cost_cap_enforcement_and_override(self, phase_policies, bad, match):
        # the bad entry sits in the last of eleven phases: it is refused
        # before the first phase solves
        costs = np.full((20, 2), 0.5)
        costs[-1, 1] = bad
        with pytest.raises(ValueError, match=match):
            run_episode(TWO_STATE, costs, epsilon=0.05, start=0, seed=0)
        assert phase_policies == []
        # the cap is a module constant: there is no override to pass
        with pytest.raises(TypeError):
            run_episode(TWO_STATE, costs, epsilon=0.05, start=0, seed=0,
                        enforce_cost_cap=False)

    def test_cost_cap_tolerance(self):
        # rounding of 1e-12 above the cap is let through, 1e-9 is not
        run_episode(TWO_STATE, np.array([[0.0, online.COST_CAP + 1e-12]]), epsilon=0.05,
                    start=0, seed=0)
        with pytest.raises(ValueError, match="above the admissible cap"):
            run_episode(TWO_STATE, np.array([[0.0, online.COST_CAP + 1e-9]]), epsilon=0.05,
                        start=0, seed=0)

    @pytest.mark.parametrize("shape", [(20, 3), (20, 1), (2,), (20, 2, 1)],
                             ids=["wide", "narrow", "one-dimensional", "three-dimensional"])
    def test_cost_dimension_checked(self, phase_policies, shape):
        with pytest.raises(DimensionMismatchError):
            run_episode(TWO_STATE, np.zeros(shape), epsilon=0.05, start=0, seed=0)
        assert phase_policies == []

    def test_empty_costs_rejected(self, phase_policies):
        with pytest.raises(ValueError, match="empty cost sequence"):
            run_episode(TWO_STATE, np.zeros((0, 2)), epsilon=0.05, start=0, seed=0)
        assert phase_policies == []


class TestRunEpisode:
    def test_one_support_layout_per_episode(self, monkeypatch):
        # every phase policy is the passive twisted on its nonzeros, so the
        # passive's layout is found once and shared by every phase's walk
        graph = grid_graph(10, 10)
        costs = make_tracking_env(graph, seed=4).stream(300)
        built = []
        init = chains._SupportLayout.__init__

        def counting_init(layout, pattern):
            built.append(pattern.shape)
            init(layout, pattern)

        monkeypatch.setattr(chains._SupportLayout, "__init__", counting_init)
        passive = build_passive(graph, 0.01, 0.01, home=0)
        trace = run_episode(passive, costs, epsilon=0.05, start=0, seed=4)
        assert trace.phase_boundaries.size > 20
        assert built == [(100, 100)]

    def test_one_shifted_pattern_per_episode(self, monkeypatch):
        # every phase solves on the passive, so the sparsity of sigma I - A
        # is built once from its layout and reused by every phase solve
        built = []
        build = chains._SupportLayout.shifted_pattern.__wrapped__

        @functools.wraps(build)
        def counting_build(layout):
            built.append(layout.n)
            return build(layout)

        monkeypatch.setattr(chains._SupportLayout, "shifted_pattern",
                            chains.memoized(counting_build))
        graph = grid_graph(10, 10)
        costs = make_tracking_env(graph, seed=4).stream(300)
        passive = build_passive(graph, 0.01, 0.01, home=0)
        trace = run_episode(passive, costs, epsilon=0.05, start=0, seed=4)
        assert trace.phase_boundaries.size > 20
        assert built == [100]

    def test_one_colamd_ordering_per_episode(self, monkeypatch):
        # the passive's layout orders sigma I - A once (COLAMD, in chains);
        # every phase solve then factors in that order, skipping COLAMD
        calls = []
        real = {module: module.splu for module in (chains, _accel)}

        def counting(module):
            def splu(matrix, **options):
                calls.append((module.__name__, options))
                return real[module](matrix, **options)
            return splu

        for module in real:
            monkeypatch.setattr(module, "splu", counting(module))
        graph = grid_graph(10, 10)
        costs = make_tracking_env(graph, seed=4).stream(300)
        passive = build_passive(graph, 0.01, 0.01, home=0)
        trace = run_episode(passive, costs, epsilon=0.05, start=0, seed=4)
        assert trace.phase_boundaries.size > 20
        assert calls[0] == ("klwalk.chains", {})
        assert len(calls) > trace.phase_boundaries.size
        assert all(call == ("klwalk._accel", {"permc_spec": "NATURAL"}) for call in calls[1:])

    def test_warm_started_phases_play_the_cold_episode(self, monkeypatch):
        # each phase solve starts from the last phase's h; against solves
        # from V = 1 the agent visits the same states, the costs agree to
        # solver precision, and the solves factor less often
        graph = grid_graph(10, 10)
        passive = build_passive(graph, 0.01, 0.01, home=0)
        counts = {"factor": 0, "solve": 0}
        real_splu, real_policy = _accel.splu, online.optimal_policy

        def counting_splu(matrix, permc_spec):
            counts["factor"] += 1
            return real_splu(matrix, permc_spec=permc_spec)

        def counting_policy(passive, f, start=None):
            counts["solve"] += 1
            return real_policy(passive, f, start)

        monkeypatch.setattr(_accel, "splu", counting_splu)
        monkeypatch.setattr(online, "optimal_policy", counting_policy)
        runs = {}
        for mode in ("warm", "cold"):
            if mode == "cold":
                monkeypatch.setattr(online, "optimal_policy",
                                    lambda passive, f, start=None:
                                    counting_policy(passive, f, None))
            counts.update(factor=0, solve=0)
            costs = make_tracking_env(graph, seed=3).stream(1000)
            trace = run_episode(passive, costs, epsilon=0.05, start=0, seed=7)
            runs[mode] = trace, counts["factor"] / counts["solve"]
        (warm, warm_rate), (cold, cold_rate) = runs["warm"], runs["cold"]
        assert warm.phase_boundaries.size == cold.phase_boundaries.size > 200
        assert np.array_equal(warm.states, cold.states)
        np.testing.assert_allclose(warm.cumulative, cold.cumulative, rtol=1e-12, atol=0)
        assert warm_rate < cold_rate

    @pytest.mark.parametrize("horizon, solves", [(57, 23), (58, 24)])
    def test_one_solve_per_phase_in_the_horizon(self, monkeypatch, horizon, solves):
        # T=57 ends on the boundary of phase 23; T=58 starts phase 24
        calls = []
        real = online.optimal_policy
        monkeypatch.setattr(online, "optimal_policy",
                            lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
        passive = build_passive(grid_graph(3, 3), 0.01, 0.01, home=0)
        costs = make_tracking_env(grid_graph(3, 3), seed=2).stream(horizon)
        trace = run_episode(passive, costs, epsilon=0.05, start=0, seed=1)
        assert trace.phase_boundaries.size == solves and len(calls) == solves

    def test_zero_costs_zero_cumulative(self, rng):
        p = random_ergodic_kernel(rng, 3)
        trace = run_episode(p, np.zeros((50, 3)), epsilon=0.05, start=0, seed=5)
        np.testing.assert_array_equal(trace.cumulative, 0.0)

    def test_constant_costs_accumulate_linearly(self, rng):
        p = random_ergodic_kernel(rng, 3)
        c = 0.6
        trace = run_episode(p, np.full((40, 3), c), epsilon=0.05, start=1, seed=5)
        np.testing.assert_allclose(trace.cumulative, c * np.arange(1, 41), atol=1e-12)
        np.testing.assert_array_equal(trace.control_costs, 0.0)  # passive in every phase

    def test_trace_invariants(self, rng):
        p = random_ergodic_kernel(rng, 4)
        costs = np.stack([np.random.default_rng(t).random(4) for t in range(60)])
        trace = run_episode(p, costs, epsilon=0.05, start=0, seed=11)
        np.testing.assert_allclose(
            trace.cumulative, np.cumsum(trace.state_costs + trace.control_costs), atol=1e-12
        )
        assert np.all(np.isfinite(trace.control_costs))
        assert trace.phase_boundaries[0] == 0
        assert np.all(np.diff(trace.phase_boundaries) > 0)
        assert trace.phase_boundaries[-1] < 60

    def test_identical_seeds_identical_traces(self, rng):
        p = random_ergodic_kernel(rng, 4)
        costs = np.stack([np.random.default_rng(100 + t).random(4) for t in range(80)])
        a = run_episode(p, costs, 0.05, start=0, seed=21)
        b = run_episode(p, costs, 0.05, start=0, seed=21)
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.cumulative, b.cumulative)

    def test_phase_purity_and_drift_diagnostic(self, rng, phase_policies):
        # the kernel is frozen within phases: every step charges the control
        # cost of its phase's policy; across boundaries the drift ratio
        # ||P(m+1)-P(m)||_inf * tau_{1:m}/tau_m stays finite (recorded)
        p = random_ergodic_kernel(rng, 3)
        bounds = make_schedule(0.05, 120)
        cost_gen = np.random.default_rng(10)
        costs = cost_gen.random((120, 3))
        trace = run_episode(p, costs, epsilon=0.05, start=0, seed=9)
        assert len(phase_policies) == trace.phase_boundaries.size
        for t, m in enumerate(trace.step_phases()):
            assert trace.control_costs[t] == phase_policies[m - 1].control_cost[trace.states[t]]
        ratios = []
        for m in range(1, len(phase_policies)):
            drift = kernel_sup_distance(phase_policies[m].kernel, phase_policies[m - 1].kernel)
            ratios.append(drift * float(bounds[m]) / float(bounds[m] - bounds[m - 1]))
        worst = max(ratios)
        assert math.isfinite(worst)
        print(f"\nmax policy drift ratio over {len(ratios)} boundaries: {worst:.4f}")

    def test_phase_of_step(self, rng):
        trace = run_episode(TWO_STATE, np.zeros((5, 2)), epsilon=0.05, start=0, seed=2)
        assert trace.phase_boundaries.tolist() == [0, 1, 3]
        assert trace.step_phases().tolist() == [1, 2, 2, 3, 3]
        p = random_ergodic_kernel(rng, 3)
        trace = run_episode(p, np.zeros((20, 3)), epsilon=0.05, start=0, seed=2)
        tau = np.diff(make_schedule(0.05, 20))
        phases = np.repeat(np.arange(1, tau.size + 1), tau)
        assert trace.step_phases().tolist() == phases.tolist()


# horizons with epsilon 0.05: phases end at steps 1, 3, 5, ..., 54, 57, 60,
# so horizons 1, 3 and 57 end on a phase boundary, and 2, 4, 58 and 59
# cut their last phase short
ORACLE_HORIZONS = (1, 2, 3, 4, 57, 58, 59)
ORACLE_KERNELS = {
    "dense": lambda rng: random_ergodic_kernel(rng, 5),
    "sparse": lambda rng: sparse_ergodic_kernel(rng, 6),
    "grid": lambda rng: build_passive(grid_graph(3, 4), 0.01, 0.01, home=0),
}


class TestEpisodeOracle:
    def test_horizons_cover_boundary_and_truncation(self):
        bounds = set(make_schedule(0.05, 60).tolist())
        assert {1, 3, 57} <= bounds and not {2, 4, 58, 59} & bounds

    @pytest.mark.parametrize("horizon", ORACLE_HORIZONS)
    @pytest.mark.parametrize("name", sorted(ORACLE_KERNELS))
    def test_run_episode_matches_step_by_step_reference(self, name, horizon):
        for seed in range(3):
            rng = np.random.default_rng([seed, horizon])
            passive = ORACLE_KERNELS[name](rng)
            costs = rng.random((horizon, passive.n))
            got = run_episode(passive, costs, 0.05, start=seed % passive.n, seed=seed)
            want = reference_episode(passive, costs, 0.05, seed % passive.n, seed)
            for field, value in want.items():
                assert np.array_equal(getattr(got, field), value), (field, seed)
